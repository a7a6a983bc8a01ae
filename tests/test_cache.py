"""Cache file format: round-trips, fault injection, version handling."""

import hashlib
import os
import random
import stat
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from tautrr import cache
from tautrr.cache import (
    CacheFormatError,
    CacheStore,
    cache_load,
    cache_save,
    format_rational,
    load_engine_cache,
    parse_rational,
    save_engine_cache,
)
from tautrr.engine import CorrelatorEngine, CorrelatorKey, ImpossibleEntryError


def test_rational_rendering():
    assert format_rational(Fraction(1, 24)) == "1/24"
    assert format_rational(Fraction(1)) == "1"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-5, 3)) == "-5/3"
    assert parse_rational("1/24") == Fraction(1, 24)
    assert parse_rational("7") == 7


def test_round_trip_single_entry(tmp_path):
    path = tmp_path / "cache.txt"
    store = CacheStore({CorrelatorKey.make(0, [0, 0, 0]): Fraction(1)})
    cache_save(store, path)
    loaded = cache_load(path)
    assert loaded.entries == store.entries
    assert loaded.version == "v1"


def test_int_value_is_saved_as_itself(tmp_path, capsys):
    from tautrr.cli import main

    key = CorrelatorKey(0, (0, 0, 0, 1), ())
    store = CacheStore({key: 1})
    assert store.entries[key] == 1 and type(store.entries[key]) is Fraction
    path = tmp_path / "cache.txt"
    cache_save(store, path)
    assert path.read_text() == "#taut-rr-cache v1\n0;0,0,0,1;;1\n"
    engine = CorrelatorEngine()
    engine.adopt({key: 1})
    save_engine_cache(engine, tmp_path / "engine.txt")
    assert (tmp_path / "engine.txt").read_bytes() == path.read_bytes()
    assert main(["integral", "-g", "0", "-d", "0,0,0,1", "--cache", str(path)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_round_trip_preserves_bytes(tmp_path):
    engine = CorrelatorEngine()
    engine.psi_integral(2, [5, 0])
    engine.psi_kappa_integral(2, [], [1, 2])
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_engine_cache(engine, p1)
    cache_save(cache_load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_file_gives_empty_store(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    store = cache_load(path)
    assert store.entries == {}


def test_documented_line_parses(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("#taut-rr-cache v1\n1;2,0;;1/24\n")
    store = cache_load(path)
    assert store.entries == {CorrelatorKey.make(1, [2, 0]): Fraction(1, 24)}


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#taut-rr-cache v1\n1;2,0;;1/24\nnot-a-record\n")
    with pytest.raises(CacheFormatError, match="line 3"):
        cache_load(path)
    path.write_text("#taut-rr-cache v1\n1;x;;1/24\n")
    with pytest.raises(CacheFormatError, match="line 2"):
        cache_load(path)
    path.write_text("1;2,0;;1/24\n")
    with pytest.raises(CacheFormatError, match="line 1"):
        cache_load(path)


def test_version_mismatch_warns_and_revalidates(tmp_path):
    path = tmp_path / "old.txt"
    # wrong value planted under a mismatched version: must not leak through
    path.write_text("#taut-rr-cache v0\n2;4;;1/9999\n")
    engine = CorrelatorEngine()
    with pytest.warns(UserWarning, match="revalidated"):
        store = load_engine_cache(engine, path)
    assert not store.trusted
    with pytest.warns(UserWarning, match="disagreed"):
        value = engine.psi_integral(2, [4])
    assert value == Fraction(1, 1152)


def test_warm_cache_matches_cold(tmp_path):
    queries = [
        (2, [5, 0]),
        (3, [7, 1]),
        (1, [1, 1, 1]),
    ]
    cold = CorrelatorEngine()
    cold_values = [cold.psi_integral(g, d) for g, d in queries]
    path = tmp_path / "warm.txt"
    save_engine_cache(cold, path)

    warm = CorrelatorEngine()
    load_engine_cache(warm, path)
    warm_values = [warm.psi_integral(g, d) for g, d in queries]
    assert warm_values == cold_values
    # cached values equal values recomputed from scratch
    fresh = CorrelatorEngine()
    for key, value in cold.entries().items():
        if key.kappa_parts:
            assert fresh.psi_kappa_integral(key.genus, key.psi_exps, key.kappa_parts) == value
        else:
            assert fresh.psi_integral(key.genus, key.psi_exps) == value


def test_save_is_sorted_and_headed(tmp_path):
    engine = CorrelatorEngine()
    engine.psi_integral(2, [5, 0])
    path = tmp_path / "cache.txt"
    save_engine_cache(engine, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "#taut-rr-cache v1"

    def line_key(line):
        g, d, b, _ = line.split(";")
        to_tuple = lambda s: tuple(int(x) for x in s.split(",")) if s else ()
        return (int(g), to_tuple(d), to_tuple(b))

    keys = [line_key(line) for line in lines[1:]]
    assert keys == sorted(keys)


@pytest.mark.parametrize("text", [
    "7", "-5/3", "2/4", " 1/24 ", "+3", "0007", "1_000", "0.5", "1e3",
    "1/-2", "1/0", "", "٣",
])
def test_parse_rational_agrees_with_fraction(text):
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert got == expected and type(got) is Fraction


@pytest.mark.parametrize("line", ["-1;0;;5", "0;0,0;;1", "1;3,0;;1/24", "2;;0,3;1"])
def test_impossible_key_is_rejected_with_line_number(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"#taut-rr-cache v1\n1;2,0;;1/24\n{line}\n")
    with pytest.raises(CacheFormatError, match="line 3: impossible key"):
        cache_load(path)


def test_every_engine_key_passes_the_load_checks(tmp_path):
    from tautrr.relations import build_bbt, build_fqq, verify

    engine = CorrelatorEngine()
    for g in range(1, 4):
        verify(build_bbt(g, 0), "bbt", {"g": g, "r": 0}, engine)
        verify(build_fqq(g, 1), "fqq", {"g": g, "r": 1}, engine)
    engine.psi_kappa_integral(2, [], [1, 2])
    path = tmp_path / "sweep.txt"
    saved = save_engine_cache(engine, path)
    assert any(key.kappa_parts for key in saved.entries)
    loaded = cache_load(path)
    assert loaded.entries == saved.entries
    # the save order is the dataclass order of the keys
    assert list(loaded.entries) == sorted(loaded.entries)


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.txt"
    cache_save(CacheStore({CorrelatorKey.make(1, [1]): Fraction(1, 24)}), path)
    before = path.read_bytes()

    def write_half_then_fail(self, data, encoding=None, errors=None, newline=None):
        with open(self, "w", encoding=encoding) as handle:
            handle.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    bigger = CacheStore({CorrelatorKey.make(1, [1]): Fraction(1, 24),
                         CorrelatorKey.make(2, [4]): Fraction(1, 1152)})
    with pytest.raises(OSError):
        cache_save(bigger, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]


def test_save_through_a_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "real.txt"
    link = tmp_path / "link.txt"
    cache_save(CacheStore(), target)
    link.symlink_to(target)
    store = CacheStore({CorrelatorKey.make(1, [1]): Fraction(1, 24)})
    cache_save(store, link)
    assert link.is_symlink()
    assert cache_load(target).entries == store.entries


def test_save_to_a_pipe_writes_through(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    store = CacheStore({CorrelatorKey.make(1, [1]): Fraction(1, 24)})
    cache_save(store, fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"#taut-rr-cache v1\n1;1;;1/24\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_saved_file_bytes_are_pinned(tmp_path):
    # psi-only and kappa keys of several genera and lengths, saved in key
    # order; the digest is that of the file the dataclass keys wrote
    engine = CorrelatorEngine()
    engine.psi_integral(4, [3, 8])
    engine.psi_kappa_integral(2, [1, 1], [1, 2])
    engine.psi_kappa_integral(3, [], [2, 2, 1, 1])
    path = tmp_path / "c.txt"
    save_engine_cache(engine, path)
    data = path.read_bytes()
    assert len(engine.entries()) == 44 and len(data) == 773
    assert hashlib.sha256(data).hexdigest() == \
        "57ee98dc2e3274975717f81c23e1f8b8228da1af6203e59f75adfe422b4447b8"


# ----------------------------------------------------------------------
# values checked at load, decoded on first use
# ----------------------------------------------------------------------

#: one odd value per line: kappa keys, which carry no integrality check,
#: and psi keys where the value times 8^g g! prod (2d_i+1)!! is an integer
ODD_VALUE_LINES = [
    "1;0;1; 1/24 ",
    "2;;1,2;2/4",
    "1;0,2;;+3",
    "2;4;;0007",
    "2;5,0;;0.5",
    "2;1,4;;3/1",
]


def _eager(path):
    """The file's entries parsed whole, every value by Fraction."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    entries = {}
    for line in lines:
        g, d, b, value = line.strip().split(";")
        to_list = lambda s: [int(x) for x in s.split(",")] if s else []
        entries[CorrelatorKey.make(int(g), to_list(d), to_list(b))] = Fraction(value.strip())
    return entries


def _odd_cache(tmp_path):
    engine = CorrelatorEngine()
    engine.psi_integral(3, [2, 6])
    engine.psi_kappa_integral(2, [1], [1, 2])
    path = tmp_path / "odd.txt"
    save_engine_cache(engine, path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write("\n".join(ODD_VALUE_LINES) + "\n")
    return path


def _value(engine, key):
    return engine.psi_kappa_integral(key.genus, key.psi_exps, key.kappa_parts)


def test_lazy_load_reads_as_an_eager_parse(tmp_path):
    path = _odd_cache(tmp_path)
    eager = _eager(path)
    store = cache_load(path)
    assert store.entries == eager
    assert all(type(v) is Fraction for v in store.entries.values())
    # only the canonical values are held back as text
    decoded = {key for key, v in store.entries.raw.items() if type(v) is not str}
    assert decoded == {(1, (0,), (1,)), (1, (0, 2), ()), (2, (0, 5), ())}
    lazy = CorrelatorEngine()
    load_engine_cache(lazy, path)
    reference = CorrelatorEngine()
    reference.adopt(eager)
    assert lazy.entries() == reference.entries() == eager
    for key in eager:
        assert _value(lazy, key) == _value(reference, key) == eager[key], key
    assert lazy.entries() == reference.entries()


@pytest.mark.parametrize("value", ["1/0", "1/-2", "", "1/00", "-"])
def test_bad_value_fails_at_load_naming_the_line(tmp_path, value):
    path = tmp_path / "bad.txt"
    path.write_text(f"#taut-rr-cache v1\n1;2,0;;1/24\n2;4;;{value}\n")
    with pytest.raises(CacheFormatError, match=f"line 3: bad value {value!r}"):
        cache_load(path)


def test_grown_file_is_saved_as_an_eager_load_would_save_it(tmp_path):
    # the parent parsed every value at load and wrote format_rational of it
    path = _odd_cache(tmp_path)
    reference = CorrelatorEngine()
    reference.adopt(_eager(path))
    reference.psi_integral(3, [1, 2, 6])
    expected = tmp_path / "expected.txt"
    save_engine_cache(reference, expected)
    engine = CorrelatorEngine()
    load_engine_cache(engine, path)
    engine.psi_integral(3, [1, 2, 6])
    save_engine_cache(engine, path)
    assert path.read_bytes() == expected.read_bytes()
    # a load followed by a save writes the same bytes again
    cache_save(cache_load(path), tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("value, why", [
    ("1/9999", "not an integer"), ("0", "not a positive integer"),
    ("-1/1152", "not a positive integer"),
])
def test_impossible_value_raises_on_a_direct_read(tmp_path, value, why):
    # every <tau_d>_g passing the dimension gate times 8^g g! prod (2d_i+1)!!
    # is a positive integer
    path = tmp_path / "c.txt"
    path.write_text(f"#taut-rr-cache v1\n2;4;;{value}\n")
    engine = CorrelatorEngine()
    load_engine_cache(engine, path)
    with pytest.raises(ImpossibleEntryError, match=f"{value} for <tau_4>_2: .* {why}$"):
        engine.psi_integral(2, [4])
    # left pending, so a second read raises again
    with pytest.raises(ImpossibleEntryError):
        engine.psi_integral(2, [4])


@pytest.mark.parametrize("line, key", [
    ("2; ;2,1;7", (2, (), (1, 2))),
    (" 1 ;0 , 2; ; 7 ", (1, (0, 2), ())),
    ("+1;2,0;;7", (1, (0, 2), ())),
    ("3;9,0,1,0;;7", (3, (0, 0, 1, 9), ())),
    ("2;0_5,0;;7", (2, (0, 5), ())),
])
def test_key_spellings_load_as_the_per_field_parse_reads_them(tmp_path, line, key):
    path = tmp_path / "odd.txt"
    path.write_text(f"#taut-rr-cache v1\n{line}\n")
    assert list(cache_load(path).entries.raw) == [key]
    assert type(next(iter(cache_load(path).entries))) is CorrelatorKey


@pytest.mark.parametrize("line, message", [
    # each line is bad in the named field and in every field after it
    ("x;y;z;1/0", "line 3: bad genus 'x'"),
    ("-1;y;z;1/0", "line 3: bad exponent list 'y'"),
    ("-1;0;0,z;1/0", "line 3: bad kappa list '0,z'"),
    ("-1;0;0;1/0", "line 3: bad value '1/0'"),
    ("-1;0;0;7", "line 3: impossible key '-1;0;0': negative genus"),
    ("1;-1,2;0;7", "line 3: impossible key '1;-1,2;0': negative psi exponent"),
    ("1;1,2;0;7", "line 3: impossible key '1;1,2;0': non-positive kappa index"),
    ("1;;2;7", "line 3: impossible key '1;;2': unstable (g, n)"),
    ("1;1,2;;7", "line 3: impossible key '1;1,2;': degrees do not sum to the dimension"),
])
def test_load_errors_keep_their_precedence(tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"#taut-rr-cache v1\n1;2,0;;1/24\n{line}\n")
    with pytest.raises(CacheFormatError) as caught:
        cache_load(path)
    assert str(caught.value).startswith(message)


def test_stale_file_with_a_wrong_inner_value_warns_once(tmp_path):
    # (3, (4, 4)) is reached only through the dilaton step of (3, (1, 4, 4))
    path = tmp_path / "old.txt"
    path.write_text("#taut-rr-cache v0\n3;4,4;;1/7\n")
    engine = CorrelatorEngine()
    with pytest.warns(UserWarning, match="revalidated"):
        load_engine_cache(engine, path)
    with pytest.warns(UserWarning) as caught:
        value = engine.psi_integral(3, [1, 4, 4])
        engine.psi_integral(3, [0, 1, 4, 5])
    assert value == 6 * CorrelatorEngine().psi_integral(3, [4, 4])
    assert [str(w.message) for w in caught] == [
        "stale cache entry for CorrelatorKey(genus=3, psi_exps=(4, 4), kappa_parts=()) "
        "disagreed with recomputation; using the fresh value"
    ]
    assert engine.quarantined() == 0


# ----------------------------------------------------------------------
# the numeral table against the per-field parse
# ----------------------------------------------------------------------

def _outcome(path):
    """(entries in order, raw value types, version), or the error text."""
    try:
        store = cache_load(path)
    except CacheFormatError as exc:
        return str(exc)
    raw = store.entries.raw
    return list(raw.items()), [type(v) for v in raw.values()], store.version


def _load_both_ways(path, monkeypatch):
    """cache_load's outcome and whether it used the per-field parse, after
    checking that the outcome is the same with the numeral table empty."""
    parse, used = cache._parse_key_fields, []

    def counted(pieces, lineno):
        used.append(lineno)
        return parse(pieces, lineno)

    with monkeypatch.context() as patch:
        patch.setattr(cache, "_parse_key_fields", counted)
        loaded = _outcome(path)
        per_field = bool(used)
        patch.setattr(cache, "_NUMERALS", {})
        assert _outcome(path) == loaded, repr(path.read_text(encoding="utf-8"))
    return loaded, per_field


HEAD = "#taut-rr-cache v1\n"

LOAD_CASES = {
    "five fields then three": HEAD + "0;0,0,0;;1;0\n0,0,0;;1\n",
    "crlf": HEAD.replace("\n", "\r\n") + "1;1;;1/24\r\n2;4;;1/1152\r\n",
    "vertical tab in the header": "#taut-rr-cache v1\x0bjunk\n1;1;;1/24\n",
    "spaces in the header": "#taut-rr-cache  v1 \n1;1;;1/24\n",
    "blank line": HEAD + "1;1;;1/24\n\n2;4;;1/1152\n",
    "no final newline": HEAD + "1;1;;1/24\n2;4;;1/1152",
    "leading zero": HEAD + "1;1;;1/24\n2;04;;1/1152\n",
    "leading zeros": HEAD + "1;1;;1/24\n3;007;;1/82944\n",
    "plus sign": HEAD + "+1;1;;1/24\n",
    "space before a numeral": HEAD + "1; 1;;1/24\n",
    "non-ASCII digit": HEAD + "\u0661;1;;1/24\n",
    "exponent of 255": HEAD + "86;255,2;;7\n",
    "exponent of 256": HEAD + "86;256;;7\n",
    "genus of 256": HEAD + "256;766;;7\n",
    "kappa index of 256": HEAD + "87;;256,2;7\n",
    "exponent of 1000": HEAD + "334;1000;;7\n",
    "negative exponent": HEAD + "1;-1,2;;7\n",
    "kappa index 0": HEAD + "1;1,1;0;7\n",
    "unstable key": HEAD + "0;0,0;;1\n",
    "dimension mismatch": HEAD + "1;1,2;;7\n",
    "zero denominator": HEAD + "2;4;;1/0\n",
    "zero denominator, two digits": HEAD + "2;4;;1/00\n",
    "duplicate keys": HEAD + "1;1;;1/24\n2;4;;1/1152\n1;1;;7\n",
    "unsorted lists": HEAD + "1;2,0;;1/24\n2;;2,1;1/240\n",
    "empty lists": HEAD + "0;0,0,0;;1\n2;;1,2;1/240\n",
    "trailing comma": HEAD + "1;0,2,;;1/24\n",
}


@pytest.mark.parametrize("name", list(LOAD_CASES))
def test_numeral_table_loads_as_the_per_field_parse(tmp_path, monkeypatch, name):
    path = tmp_path / "c.txt"
    path.write_bytes(LOAD_CASES[name].encode("utf-8"))
    _load_both_ways(path, monkeypatch)


def test_saved_files_never_reach_the_per_field_parse(tmp_path, monkeypatch):
    def per_field(pieces, lineno):
        raise AssertionError(f"line {lineno} of a saved file missed the numeral table")

    engine = CorrelatorEngine()
    engine.psi_integral(4, [3, 8])
    engine.psi_kappa_integral(3, [], [2, 2, 1, 1])
    monkeypatch.setattr(cache, "_parse_key_fields", per_field)
    path = tmp_path / "c.txt"
    for store in (CacheStore(), CacheStore(engine.entries()), CacheStore(engine.entries(), "v0")):
        cache_save(store, path)
        loaded = cache_load(path)
        assert loaded.entries == store.entries and loaded.version == store.version
        assert all(type(v) is str for v in loaded.entries.raw.values())


#: digits thrice, so that many edits leave every numeral in the table
EDIT_ALPHABET = "0123456789" * 3 + ";,/-+ \n\r\x0b\x85\u0661x"


def test_seeded_edits_load_the_same_both_ways(tmp_path, monkeypatch):
    # 300 edits of a saved file with psi, kappa and kappa-only keys, each
    # replacing, inserting or deleting 1 to 4 characters; each edited file
    # loads to the same store, or fails with the same message, with the
    # numeral table and with every numeral read by the per-field parse
    engine = CorrelatorEngine()
    engine.psi_integral(3, [2, 6])
    engine.psi_kappa_integral(2, [1], [1, 2])
    engine.psi_kappa_integral(2, [], [1, 2])
    path = tmp_path / "edited.txt"
    save_engine_cache(engine, path)
    text = path.read_text(encoding="utf-8")
    rng = random.Random(12)
    per_field = errors = 0
    for _ in range(300):
        chars = list(text)
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(chars))
            kind = rng.choice(("replace", "insert", "delete"))
            if kind == "delete":
                del chars[at]
            elif kind == "insert":
                chars.insert(at, rng.choice(EDIT_ALPHABET))
            else:
                chars[at] = rng.choice(EDIT_ALPHABET)
        path.write_bytes("".join(chars).encode("utf-8"))
        loaded, used = _load_both_ways(path, monkeypatch)
        per_field += used
        errors += type(loaded) is str
    # the edits reach the per-field parse and both outcomes
    assert 30 <= per_field <= 270
    assert 30 <= errors <= 270
