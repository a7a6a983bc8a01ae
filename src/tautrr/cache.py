"""Persistent cache for memoized integrals.

File format (line oriented, text):

    #taut-rr-cache v1
    g;d1,d2,...;b1,b2,...;num/den

one entry per line, keys sorted, empty field for an empty exponent or
kappa list.  Values with denominator 1 are written as a bare integer.
Save followed by load is the identity on entries, bit-exactly.  A save
writes a sibling temp file and renames it over the target, so a crash
never leaves a cut-off file behind.  Loading rejects, naming the line,
any key the engine cannot produce: negative genus, a negative psi
exponent, a non-positive kappa index, an unstable (g, n), or exponents
and kappa indices that do not sum to the dimension 3g - 3 + n.

Every value is checked at load and decoded on first use.  A value in the
canonical form ``-?digits[/digits]`` with a nonzero denominator (what a
save writes, though it need not be reduced) is kept as text until the
engine or a reader of ``CacheStore.entries`` reads it; any other value
the loader accepts (`` 1/24 ``, ``+3``, ``0.5``) is decoded at load.  So
a run reads only the values it uses, and ``cache stats`` none.
"""

from __future__ import annotations

import os
import re
import warnings
from collections.abc import Mapping
from fractions import Fraction
from math import gcd
from pathlib import Path

from .engine import (
    CorrelatorEngine,
    CorrelatorKey,
    Entries,
    Rational,
    SlotRecord,
    key_from_tuple,
    rational_parts,
)

CACHE_MAGIC = "#taut-rr-cache"
CACHE_VERSION = "v1"


class CacheFormatError(ValueError):
    """Raised for unparseable cache files; the message names the bad line."""


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _format_value(value: Rational) -> str:
    """What format_rational writes for a raw value, also for canonical text
    that is not reduced (``2/4`` gives ``1/2``, ``0007`` gives ``7``)."""
    if type(value) is not str:
        return format_rational(value)
    num, den = rational_parts(value)
    common = gcd(num, den)
    num //= common
    den //= common
    return str(num) if den == 1 else f"{num}/{den}"


#: matches the canonical form -?digits[/digits], denominator nonzero
_is_canonical = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?").fullmatch


def parse_rational(text: str) -> Fraction:
    if _is_canonical(text):
        return Fraction(*rational_parts(text))
    text = text.strip()
    if not text:
        raise ValueError("empty rational")
    return Fraction(text)


class CacheStore(SlotRecord):
    """Entries plus the version string of the engine that produced them.

    ``entries`` reads as ``{CorrelatorKey: Fraction}``; any mapping given
    is held as an :class:`Entries` view, whose ``raw`` values a load or a
    save passes on undecoded.
    """

    __slots__ = ("entries", "version")

    def __init__(self, entries: Mapping[CorrelatorKey, Fraction] | None = None,
                 version: str = CACHE_VERSION):
        if not isinstance(entries, Entries):
            entries = Entries({} if entries is None else dict(entries))
        self.entries = entries
        self.version = version

    @property
    def trusted(self) -> bool:
        return self.version == CACHE_VERSION

    def max_genus(self) -> int:
        return max((k.genus for k in self.entries), default=0)


def _format_key(key: CorrelatorKey) -> str:
    d = ",".join(map(str, key.psi_exps))
    b = ",".join(map(str, key.kappa_parts))
    return f"{key.genus};{d};{b}"


def _parse_int_list(text: str, lineno: int, what: str) -> tuple[int, ...]:
    if not text or text.isspace():
        return ()
    try:
        return tuple(sorted(map(int, text.split(","))))
    except ValueError:
        raise CacheFormatError(f"line {lineno}: bad {what} list {text.strip()!r}") from None


def _parse_key_fields(pieces: list[str], lineno: int):
    """(genus, d, b) from the first three fields of a line, raising for the
    first bad field in that order."""
    try:
        genus = int(pieces[0])
    except ValueError:
        raise CacheFormatError(f"line {lineno}: bad genus {pieces[0]!r}") from None
    return (genus, _parse_int_list(pieces[1], lineno, "exponent"),
            _parse_int_list(pieces[2], lineno, "kappa"))


def _key_problem(genus: int, d: tuple[int, ...], b: tuple[int, ...]) -> str | None:
    """Why the engine could never store this key (d and b sorted), or None."""
    n = len(d)
    if genus < 0:
        return "negative genus"
    if d and d[0] < 0:
        return "negative psi exponent"
    if b and b[0] <= 0:
        return "non-positive kappa index"
    if 2 * genus - 2 + n <= 0:
        return "unstable (g, n)"
    if sum(d) + sum(b) != 3 * genus - 3 + n:
        return "degrees do not sum to the dimension 3g - 3 + n"
    return None


def cache_save(store: CacheStore, path) -> None:
    raw = store.entries.raw
    lines = [f"{CACHE_MAGIC} {store.version}"]
    lines += [f"{_format_key(key)};{_format_value(raw[key])}" for key in sorted(raw)]
    text = "\n".join(lines) + "\n"
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        # a device or a pipe (say /dev/null) is written through, not replaced
        Path(target).write_text(text, encoding="utf-8")
        return
    tmp = Path(f"{target}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


#: the numerals a save writes for genera, exponents and kappa indices; any
#: other spelling (a sign, a space, a leading zero, 256 or more) misses.
#: CPython shares the ints below 257, so the table holds only its keys.
_NUMERALS = {str(i): i for i in range(256)}


def cache_load(path) -> CacheStore:
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        return CacheStore()
    lines = text.splitlines()
    header = lines[0].strip()
    if not header.startswith(CACHE_MAGIC):
        raise CacheFormatError("line 1: missing cache header")
    version = header[len(CACHE_MAGIC):].strip() or "(none)"
    entries: dict[CorrelatorKey, Rational] = {}
    num = _NUMERALS.__getitem__
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        pieces = line.split(";")
        if len(pieces) != 4:
            raise CacheFormatError(
                f"line {lineno}: expected 'g;d1,...;b1,...;value', got {raw!r}"
            )
        genus, d, b, value = pieces
        try:
            # what a save writes; any other spelling (a blank list, a sign,
            # a leading zero, a bad number) goes through the per-field
            # parse, which reads it with int() or names it
            genus = num(genus)
            d = tuple(sorted(map(num, d.split(",")))) if d else ()
            b = tuple(sorted(map(num, b.split(",")))) if b else ()
        except KeyError:
            genus, d, b = _parse_key_fields(pieces, lineno)
        if not _is_canonical(value):
            try:
                value = parse_rational(value)
            except (ValueError, ZeroDivisionError):
                raise CacheFormatError(f"line {lineno}: bad value {value!r}") from None
        n = len(d)
        # the checks of _key_problem, which is called only to name a failure
        if genus < 0 or 2 * genus - 2 + n <= 0 or sum(d) + sum(b) != 3 * genus - 3 + n \
                or (d and d[0] < 0) or (b and b[0] <= 0):
            raise CacheFormatError(f"line {lineno}: impossible key {line.rsplit(';', 1)[0]!r}: "
                                   f"{_key_problem(genus, d, b)}")
        entries[key_from_tuple((genus, d, b))] = value
    return CacheStore(entries, version)


def save_engine_cache(engine: CorrelatorEngine, path) -> CacheStore:
    store = CacheStore(engine.entries())
    cache_save(store, path)
    return store


def load_engine_cache(engine: CorrelatorEngine, path) -> CacheStore:
    """Load a cache file into an engine.

    A version mismatch downgrades the entries to quarantined status: they
    are revalidated against a fresh computation on first use.
    """
    store = cache_load(path)
    if not store.trusted:
        warnings.warn(
            f"cache version {store.version!r} does not match {CACHE_VERSION!r}; "
            "entries will be revalidated on use"
        )
    engine.adopt(store.entries.raw, trusted=store.trusted)
    return store
