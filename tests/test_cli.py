"""Command-line interface: outputs, exit codes, report schema, cache flows."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tautrr import cli
from tautrr.cli import main, parse_range


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("2..5") == range(2, 6)
    assert parse_range("1,3") == [1, 3]
    with pytest.raises(ValueError):
        parse_range("5..2")


def test_integral_values(capsys):
    code, out, _ = run(capsys, "integral", "-g", "1", "-d", "2,0")
    assert code == 0 and out.strip() == "1/24"
    code, out, _ = run(capsys, "integral", "-g", "0", "-d", "0,0,0")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "integral", "-g", "2", "-d", "5,0")
    assert code == 0 and out.strip() == "1/1152"
    code, out, _ = run(capsys, "integral", "-g", "1", "-d", "0", "--kappa", "1")
    assert code == 0 and out.strip() == "1/24"


def test_integral_invalid_input(capsys):
    code, _, err = run(capsys, "integral", "-g", "0", "-d", "0,0")
    assert code == 2 and "unstable" in err
    code, _, err = run(capsys, "integral", "-g", "1", "-d", "0", "--kappa", "0")
    assert code == 2 and "kappa index" in err


def test_unknown_relation_is_usage_error(capsys):
    code = main(["verify", "nonsense"])
    capsys.readouterr()
    assert code == 2


def test_verify_bbt_text(capsys):
    code, out, _ = run(capsys, "verify", "bbt", "--g", "2..3")
    assert code == 0
    assert "bbt g=2 r=0: PASS" in out
    assert "all 3 checks passed" in out


def test_verify_report_schema(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "xi-witness", "--g", "3", "--r", "0",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    reports = json.loads(out_path.read_text())
    assert len(reports) == 1
    report = reports[0]
    assert set(report) == {
        "relation", "params", "tests", "pass", "trivial", "millis", "caveat",
    }
    assert report["relation"] == "xi-witness"
    assert report["pass"] is True
    assert {t["monomial"]: t["value"] for t in report["tests"]} == {
        "witness-integral": "1/27648",
        "closed-form": "1/27648",
    }
    # exact strings, never floats
    assert all(isinstance(t["value"], str) for t in report["tests"])


def test_verify_csv(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "verify", "bbt", "--g", "2", "--r", "0",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "relation,params,monomial,value,pass,trivial,millis"
    assert lines[1].startswith("bbt,g=2;r=0,1,0,pass")


def test_verify_conjc_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "conjC", "--g", "1", "--r", "0..1", "--s", "0..1",
        "--levels", "0..2",
    )
    assert code == 0
    assert "all" in out and "passed" in out


def test_verify_sreduce_and_symmetry_cli(capsys):
    code, _, _ = run(
        capsys, "verify", "sreduce", "--g", "1", "--r", "1", "--s", "0..1",
        "--m", "1..3", "--levels", "0..2",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "symmetry", "--g", "1", "--r", "0..1", "--s", "0..1",
        "--m", "0..3", "--levels", "0..2",
    )
    assert code == 0


def test_verify_vpe_and_fqq_and_variation_cli(capsys):
    code, _, _ = run(capsys, "verify", "vpe", "--g", "1..2", "--r", "1,3")
    assert code == 0
    code, _, _ = run(capsys, "verify", "fqq", "--g", "1..2")
    assert code == 0
    code, _, _ = run(capsys, "verify", "variation", "--g", "0..1")
    assert code == 0
    code, _, _ = run(capsys, "verify", "vyt", "--g", "1..3")
    assert code == 0


def test_force_gate(capsys):
    code, _, err = run(capsys, "verify", "bbt", "--g", "7", "--r", "0")
    assert code == 2 and "--force" in err


def test_cache_subcommands(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    code, _, _ = run(capsys, "verify", "bbt", "--g", "2..3", "--cache", str(cache))
    assert code == 0 and cache.exists()
    code, out, _ = run(capsys, "cache", "stats", str(cache))
    assert code == 0 and "entries" in out and "max genus 3" in out
    code, out, _ = run(capsys, "cache", "load", str(cache))
    assert code == 0 and "loaded" in out

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, _ = run(capsys, "cache", "stats", str(empty))
    assert code == 0 and out.startswith("0 entries")

    fresh = tmp_path / "fresh.txt"
    code, out, _ = run(capsys, "cache", "save", str(fresh))
    assert code == 0 and fresh.exists()


def test_cache_corrupted_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("#taut-rr-cache v1\n1;2,0;;1/24\ntruncated-line\n")
    code, _, err = run(capsys, "cache", "load", str(bad))
    assert code == 1 and "line 3" in err
    code, _, err = run(capsys, "verify", "bbt", "--g", "2", "--r", "0", "--cache", str(bad))
    assert code == 1 and "line 3" in err


def test_poisoned_trusted_cache_fails_verification(capsys, tmp_path):
    # a trusted cache with a wrong value must surface as a verification
    # failure (exit 1), demonstrating the failure path end to end; 1/576 is
    # a value an integral could take (I = 210, the true 1/1152 has I = 105)
    bad = tmp_path / "poison.txt"
    bad.write_text("#taut-rr-cache v1\n2;4;;1/576\n")
    code, out, _ = run(
        capsys, "verify", "bbt", "--g", "2", "--r", "0", "--cache", str(bad),
    )
    assert code == 1
    assert "FAIL" in out


def test_impossible_value_on_a_direct_hit_is_one_error_line(capsys, tmp_path):
    # 1/9999 times 8^2 2! 9!! is not an integer; the call that asks for the
    # key itself decodes it, so it stops the run as a recursion would
    bad = tmp_path / "impossible.txt"
    bad.write_text("#taut-rr-cache v1\n2;4;;1/9999\n")
    before = _bytes_and_mtime(bad)
    code, out, err = run(capsys, "integral", "-g", "2", "-d", "4", "--cache", str(bad))
    assert (code, out) == (1, "")
    assert err == (f"error: cache {bad}: impossible value 1/9999 for <tau_4>_2: "
                   "times 8^g g! prod (2d_i+1)!! it is not an integer\n")
    assert _bytes_and_mtime(bad) == before


def test_impossible_cached_value_is_one_error_line(capsys, tmp_path):
    # 1/7 times 8 * 3 * 3 is not an integer, so no <tau_1 tau_1>_1 equals it;
    # the dilaton step that needs it stops the run, and the file is kept
    bad = tmp_path / "impossible.txt"
    bad.write_text("#taut-rr-cache v1\n1;1,1;;1/7\n")
    before = bad.read_bytes()
    code, out, err = run(capsys, "integral", "-g", "1", "-d", "1,1,1", "--cache", str(bad))
    assert (code, out) == (1, "")
    assert err == (f"error: cache {bad}: impossible value 1/7 for <tau_1 tau_1>_1: "
                   "times 8^g g! prod (2d_i+1)!! it is not an integer\n")
    assert bad.read_bytes() == before


def test_warm_rerun_reports_identical(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code, _, _ = run(
        capsys, "verify", "bbt", "--g", "2..3", "--cache", str(cache),
        "--format", "json", "--out", str(r1),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "bbt", "--g", "2..3", "--cache", str(cache),
        "--format", "json", "--out", str(r2),
    )
    assert code == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    for report in a + b:
        report.pop("millis")
    assert a == b


def test_env_var_cache(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "env-cache.txt"
    monkeypatch.setenv("TAUTRR_CACHE", str(cache))
    code, out, _ = run(capsys, "integral", "-g", "2", "-d", "5,0")
    assert code == 0 and out.strip() == "1/1152"
    assert cache.exists()


def test_cache_missing_file(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    for action in ("stats", "load"):
        code, out, err = run(capsys, "cache", action, str(missing))
        assert code == 1 and out == ""
        assert err == f"error: no such cache file: {missing}\n"


def test_cache_directory_is_one_error_line(capsys, tmp_path):
    for action in ("stats", "load"):
        code, out, err = run(capsys, "cache", action, str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cache {tmp_path}: ") and err.count("\n") == 1


def test_cache_undecodable_file_is_one_error_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    for action in ("stats", "load"):
        code, out, err = run(capsys, "cache", action, str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cache {bad}: ") and err.count("\n") == 1


def _bytes_and_mtime(path):
    return path.read_bytes(), path.stat().st_mtime_ns


def test_trusted_hit_leaves_cache_untouched(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    code, _, _ = run(capsys, "integral", "-g", "2", "-d", "5,0", "--cache", str(cache))
    assert code == 0
    before = _bytes_and_mtime(cache)
    code, out, _ = run(capsys, "integral", "-g", "2", "-d", "0,5", "--cache", str(cache))
    assert code == 0 and out.strip() == "1/1152"
    assert _bytes_and_mtime(cache) == before

    code, _, _ = run(capsys, "verify", "bbt", "--g", "2", "--cache", str(cache))
    assert code == 0
    before = _bytes_and_mtime(cache)
    code, _, _ = run(capsys, "verify", "bbt", "--g", "2", "--cache", str(cache))
    assert code == 0
    assert _bytes_and_mtime(cache) == before


def test_trusted_hit_never_lists_the_engine(capsys, tmp_path, monkeypatch):
    from tautrr.engine import CorrelatorEngine

    cache = tmp_path / "cache.txt"
    hits = [("integral", "-g", "2", "-d", "0,5"), ("verify", "bbt", "--g", "2")]
    for argv in hits:
        assert run(capsys, *argv, "--cache", str(cache))[0] == 0
    before = _bytes_and_mtime(cache)

    def refuse(self):
        raise AssertionError("a trusted hit listed the engine")

    monkeypatch.setattr(CorrelatorEngine, "entries", refuse)
    for argv in hits:
        assert run(capsys, *argv, "--cache", str(cache))[0] == 0
    assert _bytes_and_mtime(cache) == before


def test_kappa_trade_alone_rewrites_cache(capsys, tmp_path):
    # <tau_0 kappa_1>_1 trades to <tau_0 tau_2>_1, which the file holds, so
    # the trade is the one value the second run computes
    cache = tmp_path / "cache.txt"
    code, _, _ = run(capsys, "integral", "-g", "1", "-d", "0,2", "--cache", str(cache))
    assert code == 0 and cache.read_text() == "#taut-rr-cache v1\n1;0,2;;1/24\n"
    code, out, _ = run(capsys, "integral", "-g", "1", "-d", "0", "--kappa", "1",
                       "--cache", str(cache))
    assert code == 0 and out == "1/24\n"
    assert cache.read_text() == "#taut-rr-cache v1\n1;0;1;1/24\n1;0,2;;1/24\n"


def test_miss_rewrites_cache_sorted(capsys, tmp_path):
    from tautrr.cache import cache_load, cache_save

    cache = tmp_path / "cache.txt"
    code, _, _ = run(capsys, "integral", "-g", "3", "-d", "7", "--cache", str(cache))
    assert code == 0
    before = cache_load(cache).entries
    # dilaton step from <tau_7>_3, which the first call never needed
    code, out, _ = run(capsys, "integral", "-g", "3", "-d", "7,1", "--cache", str(cache))
    assert code == 0 and out.strip() == "5/82944"
    after = cache_load(cache)
    assert len(after.entries) > len(before) and before.items() <= after.entries.items()
    resaved = tmp_path / "resaved.txt"
    cache_save(after, resaved)
    assert cache.read_bytes() == resaved.read_bytes()


def test_stale_cache_is_rewritten_with_current_header(capsys, tmp_path):
    cache = tmp_path / "old.txt"
    cache.write_text("#taut-rr-cache v0\n2;4;;1/1152\n")
    with pytest.warns(UserWarning, match="revalidated"):
        code, out, _ = run(capsys, "integral", "-g", "2", "-d", "4", "--cache", str(cache))
    assert code == 0 and out.strip() == "1/1152"
    lines = cache.read_text().splitlines()
    assert lines[0] == "#taut-rr-cache v1" and "2;4;;1/1152" in lines


def test_stale_cache_with_unrevalidated_entries_is_left_as_is(capsys, tmp_path):
    cache = tmp_path / "old.txt"
    cache.write_text("#taut-rr-cache v0\n0;0,0,0,1;;1\n2;4;;1/1152\n")
    before = _bytes_and_mtime(cache)
    # <tau_1>_1 is a base case: neither entry is revalidated
    with pytest.warns(UserWarning, match="revalidated"):
        code, out, _ = run(capsys, "integral", "-g", "1", "-d", "1", "--cache", str(cache))
    assert code == 0 and out.strip() == "1/24"
    assert _bytes_and_mtime(cache) == before
    # revalidating one entry of two still leaves the file as it is
    with pytest.warns(UserWarning, match="revalidated"):
        code, out, _ = run(capsys, "integral", "-g", "2", "-d", "4", "--cache", str(cache))
    assert code == 0 and out.strip() == "1/1152"
    assert _bytes_and_mtime(cache) == before


def test_stale_cache_with_base_keys_is_rewritten(capsys, tmp_path):
    # the engine never computes <tau_1>_1 or <tau_0^3>_0, so a quarantined
    # base key is checked when it is adopted, and it cannot keep the file v0
    cache = tmp_path / "old.txt"
    cache.write_text("#taut-rr-cache v0\n1;1;;1/24\n2;4;;1/1152\n")
    with pytest.warns(UserWarning, match="revalidated"):
        code, out, _ = run(capsys, "integral", "-g", "2", "-d", "4", "--cache", str(cache))
    assert code == 0 and out.strip() == "1/1152"
    lines = cache.read_text().splitlines()
    assert lines[0] == "#taut-rr-cache v1" and "2;4;;1/1152" in lines


def test_integral_hit_decodes_only_what_it_reads(capsys, tmp_path, monkeypatch):
    import tautrr.cli
    from tautrr.engine import CorrelatorEngine

    cache = tmp_path / "cache.txt"
    code, value, _ = run(capsys, "integral", "-g", "4", "-d", "4,7", "--cache", str(cache))
    assert code == 0
    engines = []

    def recording_engine():
        engines.append(CorrelatorEngine())
        return engines[-1]

    monkeypatch.setattr(tautrr.cli, "CorrelatorEngine", recording_engine)
    code, out, _ = run(capsys, "integral", "-g", "4", "-d", "7,4", "--cache", str(cache))
    assert code == 0 and out == value
    raw = engines[0].entries().raw
    decoded = {key for key, v in raw.items() if type(v) is not str}
    assert len(raw) > 20 and decoded == {(4, (4, 7), ())}


def test_missing_cache_is_created(capsys, tmp_path):
    cache = tmp_path / "new.txt"
    code, _, _ = run(capsys, "integral", "-g", "1", "-d", "1", "--cache", str(cache))
    assert code == 0
    assert cache.read_text().startswith("#taut-rr-cache v1\n")


def test_unusable_paths_end_in_one_error_line(capsys, tmp_path):
    nowhere = tmp_path / "no-such-dir"
    out_path = nowhere / "report.json"
    code, _, err = run(capsys, "verify", "bbt", "--g", "2", "--r", "0",
                       "--format", "json", "--out", str(out_path))
    assert code == 1
    assert err.startswith(f"error: {out_path}: ") and err.count("\n") == 1

    cache = nowhere / "cache.txt"
    code, out, err = run(capsys, "integral", "-g", "2", "-d", "5,0", "--cache", str(cache))
    assert code == 1 and out.strip() == "1/1152"
    assert err.startswith(f"error: {cache}: ") and err.count("\n") == 1
    assert not nowhere.exists()

    code, _, err = run(capsys, "integral", "-g", "1", "-d", "1", "--cache", str(tmp_path))
    assert code == 1
    assert err.startswith(f"error: cache {tmp_path}: ") and err.count("\n") == 1

    code, out, err = run(capsys, "cache", "save", str(cache))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cache}: ") and err.count("\n") == 1
    assert not nowhere.exists()


def _normalized(text):
    """Report text with the wall-clock ``millis`` zeroed in json, csv and text."""
    text = re.sub(r'"millis": \d+', '"millis": 0', text)
    text = re.sub(r", \d+ ms\)", ", 0 ms)", text)
    return re.sub(r",\d+$", ",0", text, flags=re.M)


# sha256 of the normalized stdout of `tautrr verify RELATION --format FORMAT`
DEFAULT_SWEEP_DIGESTS = {
    ("bbt", "json"): "65e20dd79ca03bb8a5e9c38f219cd63b12207bc84efb5b073eea11c009e05ef4",
    ("bbt", "csv"): "dc78ae660afe92c39b096f77992cd0251ad91f29631943f6c8976023e365520a",
    ("bbt", "text"): "bc20123c9f73a1ef8a9f7b752c64cce10b5a71f3ac6b5c751e80c1e2e0e391dd",
    ("variation", "json"): "2de66955adf7c0d0977a5aada715225c54152ce252a177457286283b3ee3ac11",
    ("variation", "csv"): "3c5081aa0013036ec4372967fb78cf2da828627c479c288e0e78e5bfb1d80b9c",
    ("variation", "text"): "eca0809f7f879d03984919ac6f64475ad44a8ba6787e079c452b1b2b77f6dc25",
    ("fqq", "json"): "9d4e5792e21ad4d0d6d3934d2047db65ee9056cbff2ae0f7bdef73bc8e06c624",
    ("fqq", "csv"): "fa05e0d2814a23626d668aa8c320ea31d3cbcb5ae9eb53eaa4d0724f43932561",
    ("fqq", "text"): "2b426121c42bbc548012c59f66c3faf6f3181d5836050c30ca2d13376d829525",
    ("vyt", "json"): "5a5333fa188fbd66b6358d5e693957fa6ba11d5ef75892dddf68c97134ed8048",
    ("vyt", "csv"): "446b1da9eb66c7c4c538563fc16124f92e095fecc4471256e7da883c47f35f34",
    ("vyt", "text"): "7d4fdc35c7a033b29792f3e7fc1c0d5b8b3747392f93714201eebcf3e28faf01",
    ("vpe", "json"): "91a260969b073dfcddaacaa9f33c6f43eabe3ffa5904221341d7a92b3ba90cfe",
    ("vpe", "csv"): "684024dd20b3d3f191761e111049fa5bb5d76d7f966f457bdce8a22be55a7cbe",
    ("vpe", "text"): "0512ef7493d370e6c58d6fb8389acc692b7db7600b1c7e59f75429b030f8711c",
    ("xi-witness", "json"): "394950a3da79ffaf31388d2e87303a33f315686a26f704d97d306aff6be75f5d",
    ("xi-witness", "csv"): "eee0f6403f7a6eedbfb796497acfa2803019134f4410969a129567059e2da25b",
    ("xi-witness", "text"): "50161a5c71013cfba728755a0f88990ea2a03bb14f9b38e1601d3ef839edd1a5",
    ("conjC", "json"): "1222edf2353964362317f878fc25d2fba668afbac3d40f72f43bd4db72c0a960",
    ("conjC", "csv"): "04f8c9ff70a75996f6fd9c107294bf80bc5ef575bdd3350ffb4e5e162e2e8987",
    ("conjC", "text"): "00242b7311d3b9a8c153336ebeadc71b7dbc0f93b14dc8d426d0dd4d577765ba",
    ("sreduce", "json"): "8fbe325cabe89b7c21cd015f0d34d55ec3d055ba063ec97988e758d294fee1db",
    ("sreduce", "csv"): "4b946d9f3289a9df3cf6698b504c109b666c3a1e915b4ae1d4b596814fd99c0d",
    ("sreduce", "text"): "7f3464d4403ec745b87553a59407fe4607bd6488b3535b55a90626de1220a50d",
    ("symmetry", "json"): "bd1213d6b7566d5fbdeccf63189a469e16486ca1c0a80b214846e4dec27f1549",
    ("symmetry", "csv"): "e91ac3a150474bdad09b394d43ddb610d2e70ff8e2bc7a3e7230eafb0df304d4",
    ("symmetry", "text"): "616289dac993a83ee7e1965a1be285515d72b7254a4f702ed5de8d2b6a232ce6",
}

# explicit point-target ranges: m below the conjC threshold is dropped, so is
# every sreduce tuple with r = 0 or m = 0
EXPLICIT_SWEEP_DIGESTS = {
    ("conjC", "--g", "2", "--r", "1", "--s", "0..1", "--m", "0..9"):
        "0522b99a890b520aa3d0a5ef8975d15a1a7c1e7da7980d6b844a3ee88e2f9868",
    ("sreduce", "--r", "0..2", "--m", "0..3"):
        "2940740b3177d7bf3d4930fe3671ce4edd7ebb178f254ad5d80754db57b19c37",
    ("symmetry", "--m", "0..3"):
        "a09c807ac2a12c6b1005922ea5697c7290d3bf6049efce626e8e4c5c7b70f1f6",
    # a repeated level is dropped: the same report as --levels 0
    ("conjC", "--g", "1", "--r", "1", "--s", "0", "--m", "3", "--levels", "0,0",
     "--format", "json"):
        "d620bd50c7a9a54ff3e9ba95c2f8cdc23a2ac7e5b7c528a8961db0abd4488a31",
}

SWEEP_DIGESTS = {
    **{(rel, "--format", fmt): digest for (rel, fmt), digest in DEFAULT_SWEEP_DIGESTS.items()},
    **EXPLICIT_SWEEP_DIGESTS,
}


@pytest.mark.parametrize("argv", list(SWEEP_DIGESTS), ids=" ".join)
def test_verify_sweep_report_digest(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(_normalized(out).encode("utf-8")).hexdigest() == SWEEP_DIGESTS[argv]


GATE = "exceeds the desk-scale default"
BEYOND = "is beyond desk scale; expect combinatorial growth"

# argv of `tautrr verify` -> (exit code, exact stderr)
VERIFY_ERRORS = [
    (("bbt", "--g", "7"),
     2, f"error: --g 7 {GATE} (6); pass --force to unlock larger sweeps\n"),
    (("conjC", "--levels", "0..9"),
     2, f"error: --levels 9 {GATE} (8); pass --force to unlock larger sweeps\n"),
    (("variation", "--n1", "5"),
     2, f"error: --n1 5 {GATE} (4); pass --force to unlock larger sweeps\n"),
    # the first offending parameter is named, in the relation's own order
    (("variation", "--n1", "5", "--n2", "6", "--g", "8"),
     2, f"error: --g 8 {GATE} (6); pass --force to unlock larger sweeps\n"),
    (("conjC", "--g", "6", "--r", "7", "--s", "5", "--levels", "0..9"),
     2, f"error: --r 7 {GATE} (6); pass --force to unlock larger sweeps\n"),
    # limits apply to the values given, before any tuple is expanded, so an
    # over-limit value is named even where no identity is stated at it
    (("conjC", "--g", "0", "--r", "7"),
     2, f"error: --r 7 {GATE} (6); pass --force to unlock larger sweeps\n"),
    (("bbt", "--g", "0..1000000000000"),
     2, f"error: --g 1000000000000 {GATE} (6); pass --force to unlock larger sweeps\n"),
    (("conjC", "--levels", "0..100000000000"),
     2, f"error: --levels 100000000000 {GATE} (8); pass --force to unlock larger sweeps\n"),
    # past the limits, what is expanded in memory is still bounded
    (("conjC", "--levels", "0..100000000000", "--force"),
     2, f"warning: --levels 100000000000 {BEYOND}\n"
        "error: --levels lists more than 100000 values\n"),
    (("sreduce", "--r", "0", "--m", "0..1000000000000"),
     2, "error: the ranges span more than 100000 parameter tuples\n"),
    (("bbt", "--g", "1", "--r", "0..1000000000000"),
     2, "error: the ranges span more than 100000 parameter tuples\n"),
    (("bbt", "--r", "9", "--g", "1"), 0, ""),
    (("conjC", "--g", "0", "--r", "0", "--s", "0", "--levels", "9", "--force"),
     0, f"warning: --levels 9 {BEYOND}\n"),
    (("variation", "--g", "0", "--n1", "5", "--n2", "6", "--r", "0", "--force"),
     0, f"warning: --n1 5 {BEYOND}\nwarning: --n2 6 {BEYOND}\n"),
    (("bbt", "--g", "3..1"), 2, "error: empty range '3..1'\n"),
    (("bbt", "--s", "foo"), 2, "error: invalid literal for int() with base 10: 'foo'\n"),
    (("sreduce", "--r", "0"), 2, "error: empty parameter range\n"),
    (("sreduce", "--g", "1", "--r", "1", "--m", "0"), 2, "error: empty parameter range\n"),
    (("symmetry", "--m=-1..0"), 2, "error: r, s, g, m must be nonnegative\n"),
    (("conjC", "--g", "0", "--m=-1..1"), 2, "error: r, s, g, m must be nonnegative\n"),
    (("vpe", "--r", "2"), 2, "error: vpe stated for odd r only\n"),
    (("xi-witness", "--g", "3", "--r", "5"), 2, "error: witness out of range\n"),
    (("variation", "--n1", "1"), 2, "error: need n1 >= 2 and n2 >= 2\n"),
    (("bbt", "--g", ","), 2, "error: empty parameter range\n"),
    (("conjC", "--s=-1"), 2, "error: r, s, g, m must be nonnegative\n"),
    # tau(-1) is the zero field, which would pass every check
    (("conjC", "--g", "1", "--r", "1", "--s", "0", "--levels=-1"), 2,
     "error: negative descendent level\n"),
]


@pytest.mark.parametrize("argv,code,err", VERIFY_ERRORS,
                         ids=[" ".join(argv) for argv, _, _ in VERIFY_ERRORS])
def test_verify_usage_errors_and_warnings(capsys, argv, code, err):
    got_code, out, got_err = run(capsys, "verify", *argv)
    assert (got_code, got_err) == (code, err)
    assert (out == "") == (code == 2)


@pytest.mark.parametrize("relation,genus,builder", [
    ("bbt", "2..3", "build_bbt"),
    ("variation", "0..1", "build_variation"),
    ("fqq", "1..2", "build_fqq"),
    ("vpe", "1..2", "build_vpe"),
    ("vyt", "1..3", None),
    ("xi-witness", "2..4", None),
])
def test_verify_looks_up_verifiers_at_call_time(capsys, monkeypatch, relation, genus, builder):
    # wrappers bound onto the cli module's globals must see every call, as
    # the benchmark's per-tuple timers do
    import tautrr.cli as cli

    calls = {}

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    names = ("verify", "verify_vyt", "verify_xi_witness",
             "build_bbt", "build_variation", "build_fqq", "build_vpe")
    for name in names:
        monkeypatch.setattr(cli, name, counting(name))
    code, out, _ = run(capsys, "verify", relation, "--g", genus, "--format", "json")
    assert code == 0
    tuples = len(json.loads(out))
    verifier = {"vyt": "verify_vyt", "xi-witness": "verify_xi_witness"}.get(relation, "verify")
    expected = {verifier: tuples}
    if builder:
        expected[builder] = tuples
    assert calls == expected


# each call grows the file; (size, sha256) after it, as written by an engine
# that divided every value when it was computed
GROWN_FILE = [
    (("integral", "-g", "2", "-d", "4"), 54,
     "d3feb9a9067ea0a057e00ec7e6b9c419fb6608d42684981ab90eae3e806c93c4"),
    (("integral", "-g", "5", "-d", "6,8"), 980,
     "1332e9e9712bdee585748e7da553e46832af9bcd4c5bc7fd85820ff68d177a61"),
    (("integral", "-g", "2", "-d", "1,1", "--kappa", "1,2"), 1014,
     "eef97a4f18a5043d5f6639db16777bfa17d8512e67e02e117da02a14c8e3fa29"),
    (("verify", "fqq", "--g", "2"), 1043,
     "f6b91aa833e2d6102bd191e0326f869381c784d4d564cbec76066a83ccc4a035"),
]


def test_grown_cache_file_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    # values the recursion computed but nobody read are saved from their
    # normalized integers, with the bytes of their reduced fractions
    monkeypatch.delenv("TAUTRR_CACHE", raising=False)
    cache = tmp_path / "cache.txt"
    for argv, size, digest in GROWN_FILE:
        code, _, _ = run(capsys, *argv, "--cache", str(cache))
        data = cache.read_bytes()
        assert code == 0 and len(data) == size, argv
        assert hashlib.sha256(data).hexdigest() == digest, argv


def test_parser_is_built_once_and_reused(capsys, tmp_path, monkeypatch):
    # successive calls on the shared parser behave as each would on a fresh one
    monkeypatch.delenv("TAUTRR_CACHE", raising=False)
    calls = [
        (("integral", "-g", "2", "-d", "4"), 0),
        (("verify", "no-such-relation"), 2),
        (("integral", "-d", "4"), 2),
        (("verify", "bbt", "--g", "2"), 0),
        (("cache", "stats", str(tmp_path / "missing.txt")), 1),
        (("integral", "-g", "1", "-d", "1", "--bogus"), 2),
        (("cache", "purge", "x"), 2),
        (("integral", "-g", "1", "-d", "2,0"), 0),
    ]

    def outcome(argv):
        code, out, err = run(capsys, *argv)
        return code, _normalized(out), err

    fresh = []
    for argv, _ in calls:
        cli._shared_parser.cache_clear()
        fresh.append(outcome(argv))
    build_parser = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._shared_parser.cache_clear()
    assert [outcome(argv) for argv, _ in calls] == fresh
    assert len(built) == 1
    for (code, out, err), (argv, expected) in zip(fresh, calls):
        assert code == expected, argv
        assert (code == 2) == (out == "" and err.startswith("usage: tautrr")), argv
    cli._shared_parser.cache_clear()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "TAUTRR_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "tautrr", "integral", "-g", "1", "-d", "1"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1/24\n", "")
