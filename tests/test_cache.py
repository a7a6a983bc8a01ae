"""Cache file format: round-trips, fault injection, version handling."""

import hashlib
import os
import random
import re
import stat
import threading
import warnings
import zlib
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
    save_engine_cache,
)
from tautrr.engine import CorrelatorEngine, CorrelatorKey, ImpossibleEntryError, key_from_tuple


def test_rational_rendering():
    assert format_rational(Fraction(1, 24)) == "1/24"
    assert format_rational(Fraction(1)) == "1"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-5, 3)) == "-5/3"


def test_round_trip_single_entry(tmp_path):
    path = tmp_path / "cache.txt"
    store = CacheStore({CorrelatorKey.make(0, [0, 0, 0]): Fraction(1)})
    cache_save(store, path)
    loaded = cache_load(path)
    assert loaded.entries == store.entries
    assert loaded.version == "v2" and loaded.trusted


def test_int_value_is_saved_as_itself(tmp_path, capsys):
    from tautrr.cli import main

    key = CorrelatorKey(0, (0, 0, 0, 1), ())
    store = CacheStore({key: 1})
    assert store.entries[key] == 1 and type(store.entries[key]) is Fraction
    path = tmp_path / "cache.txt"
    cache_save(store, path)
    assert path.read_text() == "#taut-rr-cache v2\n0;0,0,0,1;;1\n#crc32 1379cbdb\n"
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
    assert not store.trusted and len(engine.entries()) == 0
    assert cache.revalidate(store, engine.entries()) == 1
    value = engine.psi_integral(2, [4])
    assert value == Fraction(1, 1152)
    with pytest.warns(UserWarning, match="disagreed"):
        assert cache.revalidate(store, engine.entries()) == 0


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
    assert lines[0] == "#taut-rr-cache v2" and lines[-1].startswith("#crc32 ")

    def line_key(line):
        g, d, b, _ = line.split(";")
        to_tuple = lambda s: tuple(int(x) for x in s.split(",")) if s else ()
        return (int(g), to_tuple(d), to_tuple(b))

    keys = [line_key(line) for line in lines[1:-1]]
    assert keys == sorted(keys)


@pytest.mark.parametrize("text", [
    "7", "-5/3", "2/4", " 1/24 ", "+3", "0007", "1_000", "0.5", "1e3",
    "1/-2", "1/0", "", "٣",
])
def test_parse_rational_agrees_with_fraction(tmp_path, text):
    # a quarantined file's value reads as Fraction(text), or is refused where
    # Fraction refuses it
    path = tmp_path / "cache.txt"
    path.write_text(f"#taut-rr-cache v1\n1;1;;{text}\n", encoding="utf-8")
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(CacheFormatError) as exc:
            cache_load(path)
        assert str(exc.value) == f"line 2: bad value {text!r}"
    else:
        got = cache_load(path).entries[key_from_tuple((1, (1,), ()))]
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
    _legacy_copy(path)  # so that every key goes through the per-line checks
    loaded = cache_load(path)
    assert type(loaded.entries.raw) is dict and not loaded.trusted
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
    assert received == [b"#taut-rr-cache v2\n1;1;;1/24\n#crc32 6e6c0200\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_empty_save_writes_the_bare_header(tmp_path):
    path = tmp_path / "empty.txt"
    cache_save(CacheStore(), path)
    header = b"#taut-rr-cache v2\n"
    assert path.read_bytes() == header + b"#crc32 %08x\n" % zlib.crc32(header)
    assert cache_load(path).trusted and not cache_load(path).entries


def test_saved_file_bytes_are_pinned(tmp_path):
    # psi-only and kappa keys of several genera and lengths, saved in key
    # order; under a v1 header and without the trailer, the digest is that
    # of the file the dataclass keys wrote
    engine = CorrelatorEngine()
    engine.psi_integral(4, [3, 8])
    engine.psi_kappa_integral(2, [1, 1], [1, 2])
    engine.psi_kappa_integral(3, [], [2, 2, 1, 1])
    path = tmp_path / "c.txt"
    save_engine_cache(engine, path)
    data = path.read_bytes()
    assert len(engine.entries()) == 44 and len(data) == 789
    assert hashlib.sha256(data).hexdigest() == \
        "d02f07a2e0e65e442b98bd30796455d3ce10c7324879f83ccb8ad675491466af"
    body, trailer = data[:-16], data[-16:]
    assert trailer == b"#crc32 %08x\n" % zlib.crc32(body)
    assert hashlib.sha256(body.replace(b"v2", b"v1", 1)).hexdigest() == \
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
    """The entries of a file without a trailer parsed whole, every value by
    Fraction."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    entries = {}
    for line in lines:
        g, d, b, value = line.strip().split(";")
        to_list = lambda s: [int(x) for x in s.split(",")] if s else []
        entries[CorrelatorKey.make(int(g), to_list(d), to_list(b))] = Fraction(value.strip())
    return entries


def _write_matched(path, *lines) -> None:
    """Write ``lines`` as a checksum-matched, so trusted, cache file: the v2
    header, the lines, then ``#crc32`` and the zlib.crc32 of the text above."""
    text = "#taut-rr-cache v2\n" + "".join(f"{line}\n" for line in lines)
    path.write_text(f"{text}#crc32 {zlib.crc32(text.encode()):08x}\n", encoding="utf-8")


def _legacy_copy(path) -> None:
    """Rewrite a saved file as the v1 format wrote it: no trailer."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(path).write_text("#taut-rr-cache v1\n" + "".join(lines[1:-1]), encoding="utf-8")


def _odd_cache(tmp_path):
    """A legacy v1 file, loaded line by line (and quarantined), ending in
    the odd value lines."""
    engine = CorrelatorEngine()
    engine.psi_integral(3, [2, 6])
    engine.psi_kappa_integral(2, [1], [1, 2])
    path = tmp_path / "odd.txt"
    save_engine_cache(engine, path)
    _legacy_copy(path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write("\n".join(ODD_VALUE_LINES) + "\n")
    return path


def _value(engine, key):
    return engine.psi_kappa_integral(key.genus, key.psi_exps, key.kappa_parts)


def test_lazy_load_reads_as_an_eager_parse(tmp_path):
    path = _odd_cache(tmp_path)
    eager = _eager(path)
    store = cache_load(path)
    assert not store.trusted and store.entries == eager
    assert all(type(v) is Fraction for v in store.entries.values())
    # only the canonical values are held back as text
    decoded = {key for key, v in store.entries.raw.items() if type(v) is not str}
    assert decoded == {(1, (0,), (1,)), (1, (0, 2), ()), (2, (0, 5), ())}
    # an engine that adopts the loaded text decodes it as the eager parse does
    lazy = CorrelatorEngine()
    lazy.adopt(store.entries.raw)
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
    engine.adopt(cache_load(path).entries.raw)
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
    _write_matched(path, f"2;4;;{value}")
    engine = CorrelatorEngine()
    assert load_engine_cache(engine, path).trusted
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


@pytest.mark.parametrize("line, message", [
    ("x;y;z;1/0", "line 3: bad genus 'x'"),
    ("-1;y;z;1/0", "line 3: bad exponent list 'y'"),
    ("-1;0;0,z;1/0", "line 3: bad kappa list '0,z'"),
    ("2;x;;1/1152", "line 3: bad exponent list 'x'"),
    ("2;4;;1/1152;x", "line 3: expected 'g;d1,...;b1,...;value', got '2;4;;1/1152;x'"),
])
def test_matched_file_keys_are_read_by_the_load_rules(tmp_path, line, message):
    # the per-line load, and a checksum-matched file's keys when they are
    # iterated, when its last line gives the largest genus, and when a save
    # merges a new entry among its lines, all raise the same first error
    quarantined = tmp_path / "bad.txt"
    quarantined.write_text(f"#taut-rr-cache v1\n1;2,0;;1/24\n{line}\n")
    path = tmp_path / "matched.txt"
    _write_matched(path, "1;2,0;;1/24", line)
    before = path.read_bytes()
    engine = CorrelatorEngine()
    store = load_engine_cache(engine, path)
    assert store.trusted and len(store.entries) == 2
    engine.psi_integral(1, [1, 1])
    for read in (lambda: cache_load(quarantined), lambda: list(store.entries),
                 store.max_genus, lambda: save_engine_cache(engine, path)):
        with pytest.raises(CacheFormatError) as caught:
            read()
        assert str(caught.value) == message
    assert path.read_bytes() == before


def test_stale_file_with_a_wrong_inner_value_warns_once(tmp_path):
    # (3, (4, 4)) is reached only through the dilaton step of (3, (1, 4, 4))
    path = tmp_path / "old.txt"
    path.write_text("#taut-rr-cache v0\n3;4,4;;1/7\n")
    engine = CorrelatorEngine()
    with pytest.warns(UserWarning, match="revalidated"):
        store = load_engine_cache(engine, path)
    assert len(engine.entries()) == 0
    value = engine.psi_integral(3, [1, 4, 4])
    engine.psi_integral(3, [0, 1, 4, 5])
    assert value == 6 * CorrelatorEngine().psi_integral(3, [4, 4])
    with pytest.warns(UserWarning) as caught:
        assert cache.revalidate(store, engine.entries()) == 0
    assert [str(w.message) for w in caught] == [
        "stale cache entry for CorrelatorKey(genus=3, psi_exps=(4, 4), kappa_parts=()) "
        "disagreed with recomputation; using the fresh value"
    ]



# ----------------------------------------------------------------------
# the per-line load: pinned outcomes
# ----------------------------------------------------------------------

def _outcome(path):
    """(entries in order, version, trusted), or the error text; values are
    kept as the loader holds them, text or Fraction."""
    try:
        store = cache_load(path)
    except CacheFormatError as exc:
        return str(exc)
    return list(store.entries.raw.items()), store.version, store.trusted


HEAD = "#taut-rr-cache v1\n"
ONE = [((1, (1,), ()), "1/24")]
TWO = [((1, (1,), ()), "1/24"), ((2, (4,), ()), "1/1152")]

#: name -> (file text, outcome of the per-line load)
LOAD_CASES = {
    "five fields then three": (HEAD + "0;0,0,0;;1;0\n0,0,0;;1\n",
                               "line 2: expected 'g;d1,...;b1,...;value', got '0;0,0,0;;1;0'"),
    "crlf": (HEAD.replace("\n", "\r\n") + "1;1;;1/24\r\n2;4;;1/1152\r\n", (TWO, "v1", False)),
    "vertical tab in the header": ("#taut-rr-cache v1\x0bjunk\n1;1;;1/24\n",
                                   "line 2: expected 'g;d1,...;b1,...;value', got 'junk'"),
    "spaces in the header": ("#taut-rr-cache  v1 \n1;1;;1/24\n", (ONE, "v1", False)),
    "blank line": (HEAD + "1;1;;1/24\n\n2;4;;1/1152\n", (TWO, "v1", False)),
    "no final newline": (HEAD + "1;1;;1/24\n2;4;;1/1152", (TWO, "v1", False)),
    "leading zero": (HEAD + "1;1;;1/24\n2;04;;1/1152\n", (TWO, "v1", False)),
    "leading zeros": (HEAD + "1;1;;1/24\n3;007;;1/82944\n",
                      ([ONE[0], ((3, (7,), ()), "1/82944")], "v1", False)),
    "plus sign": (HEAD + "+1;1;;1/24\n", (ONE, "v1", False)),
    "space before a numeral": (HEAD + "1; 1;;1/24\n", (ONE, "v1", False)),
    "non-ASCII digit": (HEAD + "١;1;;1/24\n", (ONE, "v1", False)),
    "exponent of 255": (HEAD + "86;255,2;;7\n", ([((86, (2, 255), ()), "7")], "v1", False)),
    "exponent of 256": (HEAD + "86;256;;7\n", ([((86, (256,), ()), "7")], "v1", False)),
    "genus of 256": (HEAD + "256;766;;7\n", ([((256, (766,), ()), "7")], "v1", False)),
    "kappa index of 256": (HEAD + "87;;256,2;7\n", ([((87, (), (2, 256)), "7")], "v1", False)),
    "exponent of 1000": (HEAD + "334;1000;;7\n", ([((334, (1000,), ()), "7")], "v1", False)),
    "negative exponent": (HEAD + "1;-1,2;;7\n",
                          "line 2: impossible key '1;-1,2;': negative psi exponent"),
    "kappa index 0": (HEAD + "1;1,1;0;7\n",
                      "line 2: impossible key '1;1,1;0': non-positive kappa index"),
    "unstable key": (HEAD + "0;0,0;;1\n", "line 2: impossible key '0;0,0;': unstable (g, n)"),
    "dimension mismatch": (HEAD + "1;1,2;;7\n", "line 2: impossible key '1;1,2;': "
                                                "degrees do not sum to the dimension 3g - 3 + n"),
    "zero denominator": (HEAD + "2;4;;1/0\n", "line 2: bad value '1/0'"),
    "zero denominator, two digits": (HEAD + "2;4;;1/00\n", "line 2: bad value '1/00'"),
    "duplicate keys": (HEAD + "1;1;;1/24\n2;4;;1/1152\n1;1;;7\n",
                       ([((1, (1,), ()), "7"), TWO[1]], "v1", False)),
    "unsorted lists": (HEAD + "1;2,0;;1/24\n2;;2,1;1/240\n",
                       ([((1, (0, 2), ()), "1/24"), ((2, (), (1, 2)), "1/240")], "v1", False)),
    "empty lists": (HEAD + "0;0,0,0;;1\n2;;1,2;1/240\n",
                    ([((0, (0, 0, 0), ()), "1"), ((2, (), (1, 2)), "1/240")], "v1", False)),
    "trailing comma": (HEAD + "1;0,2,;;1/24\n", "line 2: bad exponent list '0,2,'"),
    # a trailer ends the file; no file the per-line load reads is trusted
    "v2 without a trailer": ("#taut-rr-cache v2\n1;1;;1/24\n", (ONE, "v2", False)),
    "v2 with a wrong trailer": ("#taut-rr-cache v2\n1;1;;1/24\n#crc32 6e6c0201\n",
                                (ONE, "v2", False)),
    "v1 with a trailer": (HEAD + "1;1;;1/24\n#crc32 00000000\n", (ONE, "v1", False)),
    "v0 with a trailer": ("#taut-rr-cache v0\n1;1;;1/24\n#crc32 6e6c0200\n", (ONE, "v0", False)),
    "trailer not last": ("#taut-rr-cache v2\n#crc32 3df768fb\n1;1;;1/24\n",
                         "line 2: expected 'g;d1,...;b1,...;value', got '#crc32 3df768fb'"),
}


@pytest.mark.parametrize("name", list(LOAD_CASES))
def test_numeral_table_loads_as_the_per_field_parse(tmp_path, monkeypatch, name):
    # the numeral table that once read these numerals is gone: each case
    # keeps its pinned outcome, and every line a load accepts has had its
    # numerals read by the per-field parse
    text, expected = LOAD_CASES[name]
    path = tmp_path / "c.txt"
    path.write_bytes(text.encode("utf-8"))
    parse, used = cache._read_line, []

    def counted(line, lineno):
        used.append(lineno)
        return parse(line, lineno)

    monkeypatch.setattr(cache, "_read_line", counted)
    assert _outcome(path) == expected
    if type(expected) is not str:
        lines = text.splitlines()
        assert used == [lineno for lineno, line in enumerate(lines[1:], start=2)
                        if line.strip() and not line.startswith(cache.TRAILER)]


def test_saved_files_never_reach_the_per_field_parse(tmp_path, monkeypatch):
    def per_field(line, lineno):
        raise AssertionError(f"line {lineno} of a saved file reached the per-field parse")

    engine = CorrelatorEngine()
    engine.psi_integral(4, [3, 8])
    engine.psi_kappa_integral(3, [], [2, 2, 1, 1])
    path = tmp_path / "c.txt"
    for store in (CacheStore(), CacheStore(engine.entries()), CacheStore(engine.entries(), "v0")):
        cache_save(store, path)
        # a load parses no line; comparing the entries below iterates the keys
        with monkeypatch.context() as patched:
            patched.setattr(cache, "_read_line", per_field)
            loaded = cache_load(path)
        # a save writes the current version, whatever the store's
        assert loaded.entries == store.entries and loaded.version == cache.CACHE_VERSION
        assert loaded.trusted
        assert all(type(v) is str for v in loaded.entries.raw.values())


# ----------------------------------------------------------------------
# checksum-matched files: served from their text
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def seed_bytes(tmp_path_factory):
    """A file built as the warmcache benchmark builds its seed file: the
    one- and two-point top correlators for g <= 10, then verify bbt."""
    from tautrr.cli import main

    path = tmp_path_factory.mktemp("seed") / "seed.txt"
    engine = CorrelatorEngine()
    for g in range(1, 11):
        engine.psi_integral(g, [3 * g - 2])
        for a in range((3 * g - 1) // 2 + 1):
            engine.psi_integral(g, [a, 3 * g - 1 - a])
    save_engine_cache(engine, path)
    report = path.with_name("bbt.json")
    assert main(["verify", "bbt", "--cache", str(path), "--format", "json",
                 "--out", str(report)]) == 0
    return path.read_bytes()


def _refuse_line_load(monkeypatch):
    def refuse(text):
        raise AssertionError("a checksum-matched file reached the per-line load")

    monkeypatch.setattr(cache, "_load_lines", refuse)


def test_warm_runs_never_parse_a_matched_file(seed_bytes, tmp_path, capsys, monkeypatch):
    from tautrr.cli import main
    from tautrr.engine import two_point_value

    path = tmp_path / "seed.txt"
    path.write_bytes(seed_bytes)
    _refuse_line_load(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["integral", "-g", "7", "-d", "3,17", "--cache", str(path)]) == 0
        assert capsys.readouterr().out == f"{two_point_value(7, 3)}\n"
        assert main(["integral", "-g", "1", "-d", "0", "--kappa", "1", "--cache",
                     str(path)]) == 0
        assert capsys.readouterr().out == "1/24\n"
        assert main(["verify", "bbt", "--cache", str(path)]) == 0
        assert capsys.readouterr().out.startswith("bbt g=1 r=0: PASS")
        assert main(["cache", "stats", str(path)]) == 0
        assert capsys.readouterr().out == "1393 entries, max genus 10\n"
        assert main(["cache", "load", str(path)]) == 0
        assert capsys.readouterr().out == "loaded 1393 entries (version v2)\n"
    assert path.read_bytes() == seed_bytes


def test_a_miss_writes_the_matched_lines_as_they_are(seed_bytes, tmp_path, capsys,
                                                     monkeypatch):
    from tautrr.cli import main

    path = tmp_path / "seed.txt"
    path.write_bytes(seed_bytes)
    # the same file parsed whole, grown by the same key and saved
    reference = CorrelatorEngine()
    reference.adopt(dict(cache_load(path).entries))
    value = reference.psi_integral(10, [1, 5, 24])
    expected = tmp_path / "expected.txt"
    save_engine_cache(reference, expected)
    _refuse_line_load(monkeypatch)
    formatted = []
    format_rational = cache.format_rational
    monkeypatch.setattr(cache, "format_rational",
                        lambda v: formatted.append(v) or format_rational(v))
    assert main(["integral", "-g", "10", "-d", "1,5,24", "--cache", str(path)]) == 0
    assert capsys.readouterr().out == f"{value}\n"
    # only the computed entry was formatted; every other line was copied
    assert formatted == [value]
    assert path.read_bytes() == expected.read_bytes()
    assert len(cache_load(path).entries) == 1394


def test_matched_file_lookups_search_then_index(seed_bytes):
    text = seed_bytes.decode("utf-8")
    saved = cache.SavedLines(text[:text.rindex("#crc32")])
    keys = list(saved)
    assert len(keys) == len(saved) == 1393 and keys == sorted(keys)
    assert saved.max_genus() == 10 and cache.SavedLines("#taut-rr-cache v2\n").max_genus() == 0
    # one absent key, then present ones from the end of the file
    lookups = [(10, (1, 5, 24), ())] + keys[::-1][:cache._SEARCHES + 1]
    for i, key in enumerate(lookups):
        line = text.split(f"\n{cache._format_key(key)};")
        assert saved.get(key) == (line[1].split("\n")[0] if len(line) == 2 else None)
        assert (saved._index is None) == (i < cache._SEARCHES)


@pytest.mark.parametrize("edit", [
    ("\n2;4;;1/1152\n", "\n2;4;;1/1152;x\n"),
    ("\n2;4;;1/1152\n", "\n2;4;;1/1152\n2;4;;7\n"),
])
def test_matched_file_search_and_index_agree(seed_bytes, tmp_path, edit):
    # a lookup's answer does not depend on whether the index is built: the
    # key is the text before a line's third ';', and the first line wins
    text = seed_bytes.decode("utf-8")
    assert text.count(edit[0]) == 1
    path = tmp_path / "edited.txt"
    _write_matched(path, *text.replace(*edit).splitlines()[1:-1])
    key = (2, (4,), ())
    others = [k for k in cache.SavedLines(text[:text.rindex("#crc32")]) if k != key]
    searched = load_engine_cache(CorrelatorEngine(), path).entries.raw.get(key)
    assert searched == edit[1].split(";", 3)[3].split("\n")[0]
    indexed = load_engine_cache(CorrelatorEngine(), path).entries.raw
    for other in others[:cache._SEARCHES]:
        assert indexed.get(other) is not None
    assert indexed._index is None
    assert indexed.get(key) == searched and indexed._index is not None
    # `in` answers as get does, searched or indexed, and counts as a lookup
    saved = load_engine_cache(CorrelatorEngine(), path).entries.raw
    for probe in (key, (10, (1, 5, 24), ())) * cache._SEARCHES:
        searches = saved._searches
        found = probe in saved
        assert saved._index is not None or saved._searches == searches + 1
        assert found == (saved.get(probe) is not None) == (probe == key)
    assert saved._index is not None
    # through an engine: the same answer, or the same error, and no compute
    outcomes = []
    for lookups in (0, cache._SEARCHES):
        engine = CorrelatorEngine()
        load_engine_cache(engine, path)
        for other in others[:lookups]:
            engine.psi_integral(other.genus, other.psi_exps)
        try:
            outcomes.append(engine.psi_integral(2, [4]))
        except ImpossibleEntryError as exc:
            outcomes.append(str(exc))
        assert engine.computed == 0
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == Fraction(1, 1152) if "\n2;4;;7" in edit[1] else (
        "impossible value '1/1152;x' for <tau_4>_2: "
        "not -?digits[/digits] with a nonzero denominator")


def test_cut_short_file_is_quarantined(seed_bytes, tmp_path, capsys):
    from tautrr.cli import main

    # the last entry loses the end of its value and the trailer
    text = seed_bytes.decode("utf-8")
    last = text.splitlines()[-2]
    assert last.startswith("10;")
    cut = text.index(last) + len(last) - 2
    path = tmp_path / "cut.txt"
    path.write_text(text[:cut], encoding="utf-8")
    key, value = last.rsplit(";", 1)
    g, d, _ = key.split(";")
    with pytest.warns(UserWarning) as caught:
        assert main(["integral", "-g", g, "-d", d, "--cache", str(path)]) == 0
    assert capsys.readouterr().out == f"{value}\n"
    messages = [str(w.message) for w in caught]
    assert messages[0] == ("cache checksum is missing or does not match; "
                           "entries will be revalidated on use")
    assert "disagreed with recomputation" in messages[1] and len(messages) == 2
    # the entries the run never checked keep the file as it is
    assert path.read_text(encoding="utf-8") == text[:cut]


def test_flipped_byte_is_quarantined(seed_bytes, tmp_path, capsys):
    from tautrr.cli import main
    from tautrr.engine import two_point_value

    line = f"7;3,17;;{two_point_value(7, 3)}\n"
    at = seed_bytes.index(line.encode()) + len(line) - 2
    edited = bytearray(seed_bytes)
    edited[at] ^= 0x01  # one digit of the denominator
    path = tmp_path / "flipped.txt"
    path.write_bytes(bytes(edited))
    with pytest.warns(UserWarning) as caught:
        assert main(["integral", "-g", "7", "-d", "3,17", "--cache", str(path)]) == 0
    assert capsys.readouterr().out == f"{two_point_value(7, 3)}\n"
    assert [str(w.message).split(";")[0] for w in caught] == [
        "cache checksum is missing or does not match",
        "stale cache entry for CorrelatorKey(genus=7, psi_exps=(3, 17), kappa_parts=()) "
        "disagreed with recomputation",
    ]
    assert main(["cache", "load", str(path)]) == 0
    assert capsys.readouterr().out == "loaded 1393 entries (version v2, quarantined)\n"


@pytest.mark.parametrize("argv,err", [
    (("-g", "1", "-d", "1"), ""),
    (("-g", "1", "-d", "0", "--kappa", "0"), "error: kappa index must be positive\n"),
    (("-g", "200", "-d", "598"),
     "error: the recursion for this input runs deeper than the Python stack allows\n"),
], ids=["return", "usage-error", "stack-overflow"])
def test_stale_base_key_warns_on_every_exit(tmp_path, capsys, argv, err):
    # a quarantined file is compared after a normal return, a usage error
    # and a stack overflow alike; the base key is checked without being
    # computed, and a file with an unchecked entry is left as it is
    from tautrr.cli import main

    path = tmp_path / "old.txt"
    path.write_text("#taut-rr-cache v0\n1;1;;1/25\n2;4;;1/1152\n")
    before = path.read_bytes()
    with pytest.warns(UserWarning) as caught:
        code = main(["integral", *argv, "--cache", str(path)])
    assert (code, capsys.readouterr().err) == (2 if err else 0, err)
    assert [str(w.message) for w in caught][1:] == [
        "stale cache entry for CorrelatorKey(genus=1, psi_exps=(1,), kappa_parts=()) "
        "disagreed with recomputation; using the fresh value"
    ]
    assert path.read_bytes() == before


def test_legacy_file_is_quarantined_as_another_version(seed_bytes, tmp_path, capsys):
    # a v1 file has no checksum, so it is trusted no more than any other
    # version: its entries are revalidated, never served
    from tautrr.cli import main
    from tautrr.engine import two_point_value

    path = tmp_path / "legacy.txt"
    path.write_bytes(seed_bytes)
    _legacy_copy(path)
    before = path.read_bytes()
    store = cache_load(path)
    assert not store.trusted and store.version == "v1" and type(store.entries.raw) is dict
    assert len(store.entries) == 1393
    with pytest.warns(UserWarning) as caught:
        assert main(["integral", "-g", "7", "-d", "3,17", "--cache", str(path)]) == 0
    assert capsys.readouterr().out == f"{two_point_value(7, 3)}\n"
    assert [str(w.message) for w in caught] == [
        "cache version 'v1' does not match 'v2'; entries will be revalidated on use"]
    # the entries the run never computed keep the file as it is
    assert path.read_bytes() == before


def test_quarantined_store_is_not_saved(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("#taut-rr-cache v0\n2;4;;1/9999\n")
    with pytest.raises(ValueError, match="quarantined"):
        cache_save(cache_load(path), tmp_path / "new.txt")
    assert not (tmp_path / "new.txt").exists()


# ----------------------------------------------------------------------
# edited caches through the CLI
# ----------------------------------------------------------------------

def _millis_zeroed(text: str) -> str:
    return re.sub(r", \d+ ms\)", ", 0 ms)", text)


#: mostly digits, so that many edits keep a line well formed
EDIT_BYTES = b"0123456789" * 8 + b";,/-+ \n\r\x0bx\x85"

EDITED_RUNS = [
    ["integral", "-g", "3", "-d", "2,3,4"],
    ["integral", "-g", "2", "-d", "1", "--kappa", "1,2"],
    ["verify", "bbt", "--g", "2..3"],
    ["cache", "stats"],
]

#: one-byte edits that earlier builds served as values: 121/241920 for
#: <tau_2 tau_3 tau_4>_3 passes the integrality check, and kappa entries
#: have none
KNOWN_EDITS = [(0, "3;2,3,4;;1121/241920", "3;2,3,4;;121/241920"),
               (1, "2;1;1,2;101/5760", "2;1;1,2;101/576")]


def _run_edited(main, argv, path, data: bytes):
    """Run argv against a file holding data: (exit code, stdout, stderr,
    whether a stale value disagreed with its recomputation)."""
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, str(path)] if argv[0] == "cache" else [*argv, "--cache", str(path)])
    return code, any("disagreed" in str(w.message) for w in caught)


def test_edited_caches_never_print_a_wrong_value(tmp_path, capsys, monkeypatch):
    # 200 edits of a saved file, each replacing, inserting or deleting 1 to
    # 4 bytes; every run against the edited file ends in an exit code, at
    # most one error line and the values a fresh engine prints.  An edited
    # file fails its checksum, so a value an edit changed is revalidated.
    from tautrr.cli import main

    monkeypatch.delenv("TAUTRR_CACHE", raising=False)
    path = tmp_path / "c.txt"
    fresh = []
    for argv in EDITED_RUNS[:3]:
        assert main(argv) == 0
        fresh.append(_millis_zeroed(capsys.readouterr().out))
        assert main([*argv, "--cache", str(path)]) == 0
        assert _millis_zeroed(capsys.readouterr().out) == fresh[-1]
    fresh.append(None)  # a count, not a value
    saved = path.read_bytes()
    assert cache_load(path).trusted
    for run, line, edited in KNOWN_EDITS:
        code, disagreed = _run_edited(main, EDITED_RUNS[run], path,
                                      saved.replace(line.encode(), edited.encode()))
        assert (code, disagreed, capsys.readouterr().out) == (0, True, fresh[run])
    rng = random.Random(16)
    codes, revalidated = [], 0
    for _ in range(200):
        data = bytearray(saved)
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(data))
            kind = rng.choice(("replace", "insert", "delete"))
            if kind == "delete":
                del data[at]
            elif kind == "insert":
                data.insert(at, rng.choice(EDIT_BYTES))
            else:
                data[at] = rng.choice(EDIT_BYTES)
        for argv, expected in zip(EDITED_RUNS, fresh):
            code, disagreed = _run_edited(main, argv, path, bytes(data))
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (argv, bytes(data))
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
            if expected is not None:
                assert _millis_zeroed(out) in ("", expected), (argv, out, bytes(data))
                assert (out == "") == (code != 0), (argv, code)
            codes.append(code)
            revalidated += disagreed
    # the edits reach both outcomes, and revalidations
    assert 100 <= codes.count(1) <= 700 and 100 <= codes.count(0) <= 700
    assert revalidated >= 20
