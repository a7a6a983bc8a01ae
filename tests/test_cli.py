"""Command-line interface: outputs, exit codes, report schema, cache flows."""

import json

import pytest

from tautrr.cli import main, parse_range


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("2..5") == [2, 3, 4, 5]
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
    # failure (exit 1), demonstrating the failure path end to end
    bad = tmp_path / "poison.txt"
    bad.write_text("#taut-rr-cache v1\n2;4;;1/9999\n")
    code, out, _ = run(
        capsys, "verify", "bbt", "--g", "2", "--r", "0", "--cache", str(bad),
    )
    assert code == 1
    assert "FAIL" in out


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
