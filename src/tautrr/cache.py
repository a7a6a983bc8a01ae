"""Persistent cache for memoized integrals.

File format (line oriented, text):

    #taut-rr-cache v2
    g;d1,d2,...;b1,b2,...;num/den
    #crc32 1a2b3c4d

one entry per line, keys sorted, exponent and kappa lists sorted, an
empty field for an empty list.  Values are reduced, and a value with
denominator 1 is written as a bare integer.  The trailer line gives
``zlib.crc32`` of every byte above it in eight lowercase hex digits; it
guards against hand edits and cut-short writes, not against forgery.
Save followed by load is the identity on entries, bit-exactly.  A save
streams its lines to a sibling temp file as it formats them, folding the
checksum as it writes, and renames the file over the target, so a crash
never leaves a cut-off file behind and no copy of the whole text is held.

A file is trusted exactly when its header is ``v2`` and its trailer
matches.  An empty file is an empty store, with nothing to trust.

* A checksum-matched file is not parsed at load.  It is held as its text
  (:class:`SavedLines`), which answers a lookup from the key's line, its
  count from the text and its largest genus from its last line, so a hit
  and a warm ``verify`` parse none of it.  A lookup searches the text
  until its searches have read ``_SCAN_TEXTS`` (8) full texts, and only
  then indexes every line: an index costs about 17 full-text searches,
  so a run that needs one pays at most about 1.5 times what indexing at
  once would, and a warm default ``verify bbt``, whose 75 hits lie near
  the top of the file, builds none.  A value is read only when the
  engine first needs it, through the engine's one checked decode: text
  that is not ``-?digits[/digits]`` with a nonzero denominator raises
  :class:`~tautrr.engine.ImpossibleEntryError`.  A save over the file
  writes its lines as they are and merges in only the new ones, in key
  order.  A line's key is read (when the keys are iterated, when the last
  line gives the largest genus, and by that merge) under the key rules
  of the per-line checks: four fields, a numeral genus, numeral lists.
* Every other file (another version, the legacy ``v1`` included, or a
  ``v2`` file whose trailer is missing or wrong) is quarantined: its
  entries never reach an engine, and :func:`revalidate` compares them
  with what an engine computed.  It takes the per-line checks, which
  also reject, naming the line, any key the engine cannot produce and any
  value that is not a rational number or has a zero denominator.  A
  value in the canonical form is kept as text until a reader of
  ``CacheStore.entries`` reads it; any other value the loader accepts
  (`` 1/24 ``, ``+3``, ``0.5``) is decoded at load.  A trailer may end
  such a file.
"""

from __future__ import annotations

import os
import re
import warnings
import zlib
from collections import ChainMap
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

from .engine import (
    CorrelatorEngine,
    CorrelatorKey,
    Entries,
    Rational,
    SlotRecord,
    _fraction,
    _is_canonical,
    key_from_tuple,
    one_point_value,
)

CACHE_MAGIC = "#taut-rr-cache"
CACHE_VERSION = "v2"
TRAILER = "#crc32 "
_HEADER = f"{CACHE_MAGIC} {CACHE_VERSION}\n"

#: full texts a SavedLines's searches read before it indexes its lines
_SCAN_TEXTS = 8

#: new lines a save formats before it writes them out
_BATCH = 4096

#: (key text, value text) of an entry line, split at its third ``;``
_LINE = re.compile(r"\n([^;\n]*;[^;\n]*;[^;\n]*);([^\n]*)")


class CacheFormatError(ValueError):
    """Raised for unparseable cache files; the message names the bad line."""


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _format_key(key) -> str:
    """``g;d1,...;b1,...`` for a key or a plain ``(genus, d, b)`` tuple."""
    genus, d, b = key
    return f"{genus};{','.join(map(str, d))};{','.join(map(str, b))}"


def _trailer(crc: int) -> str:
    """The checksum line below text whose bytes have ``zlib.crc32`` ``crc``."""
    return f"{TRAILER}{crc:08x}\n"


class SavedLines(Mapping):
    """``{CorrelatorKey: value text}`` over the text of a checksum-matched
    file (its header and entry lines), parsed only as far as it is read.

    A lookup formats its key as a save writes it and searches the text for
    a line that starts with it, while its searches have read less than
    ``_SCAN_TEXTS`` full texts: a hit counts the text up to its line as
    read, a miss the whole text.  Once that budget is spent, the next
    lookup builds a ``{key text: value text}`` index, keyed the same way
    by the text before each line's third ``;`` (the first line wins), which
    answers the rest.  The budget is measured: an index costs about 17
    full-text searches on a 44.7 KB file (0.53 against 0.030 ms) and on a
    1.25 MB one (14.2 against 0.84 ms), so a run that needs the index pays
    at most about 1.5 times what indexing first would, while a warm
    default ``verify bbt`` (75 hits in the first 11.4 KB of such a file,
    about 5 texts read) builds none.  The length is read off the text, the
    largest genus off the last line; the keys are parsed only when they are
    iterated, in the file's (key) order, by :func:`_read_line`.
    """

    __slots__ = ("text", "_index", "_unread", "_len")

    def __init__(self, text: str):
        self.text = text
        self._index = self._len = None
        self._unread = _SCAN_TEXTS * len(text)  # what searches may still read

    def get(self, key, default=None):
        field = _format_key(key)
        index = self._index
        if index is None:
            text = self.text
            if self._unread > 0:
                at = text.find(f"\n{field};")
                if at < 0:
                    self._unread -= len(text)
                    return default
                self._unread -= at
                at += len(field) + 2
                return text[at:text.index("\n", at)]
            index = self._index = dict(reversed(_LINE.findall(text)))
        return index.get(field, default)

    def max_genus(self) -> int:
        """The genus of the last line: a save writes the keys in order."""
        text = self.text
        last = text.rfind("\n", 0, -1) + 1
        return _read_line(text[last:-1], len(self) + 1)[0].genus if last else 0

    def __getitem__(self, key) -> str:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __iter__(self):
        lines = self.text.split("\n")[1:-1]
        return (_read_line(line, lineno)[0] for lineno, line in enumerate(lines, 2))

    def __len__(self) -> int:
        if self._len is None:  # counted once: max_genus names the last line by it
            self._len = self.text.count("\n") - 1
        return self._len


class CacheStore(SlotRecord):
    """Entries plus the version string of the engine that produced them,
    and whether they are trusted (a new store, or a checksum-matched file's).

    ``entries`` reads as ``{CorrelatorKey: Fraction}``; any mapping given
    is held as an :class:`Entries` view, whose ``raw`` values a load or a
    save passes on undecoded.
    """

    __slots__ = ("entries", "version", "trusted")

    def __init__(self, entries: Mapping[CorrelatorKey, Fraction] | None = None,
                 version: str = CACHE_VERSION, trusted: bool = True):
        if not isinstance(entries, Entries):
            entries = Entries({} if entries is None else dict(entries))
        self.entries = entries
        self.version = version
        self.trusted = trusted

    def max_genus(self) -> int:
        raw = self.entries.raw
        if type(raw) is SavedLines:
            return raw.max_genus()
        return max((k.genus for k in raw), default=0)


def _read_line(line: str, lineno: int) -> tuple[CorrelatorKey, str]:
    """The key (lists sorted) and the value text of entry line ``lineno``;
    the one reader of key fields, it raises CacheFormatError at the first
    bad one: four fields, a numeral genus, the exponent and kappa lists."""
    pieces = line.strip().split(";")
    if len(pieces) != 4:
        raise CacheFormatError(f"line {lineno}: expected 'g;d1,...;b1,...;value', got {line!r}")
    genus, d, b, value = pieces
    try:
        genus = int(genus)
    except ValueError:
        raise CacheFormatError(f"line {lineno}: bad genus {genus!r}") from None
    try:
        d = tuple(sorted(map(int, d.split(",")))) if d.strip() else ()
    except ValueError:
        raise CacheFormatError(f"line {lineno}: bad exponent list {d.strip()!r}") from None
    try:
        b = tuple(sorted(map(int, b.split(",")))) if b.strip() else ()
    except ValueError:
        raise CacheFormatError(f"line {lineno}: bad kappa list {b.strip()!r}") from None
    return key_from_tuple((genus, d, b)), value


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


def _split_saved(raw: Mapping) -> tuple[SavedLines | None, Mapping]:
    """The checksum-matched file that ``raw`` (a store's own mapping, or an
    engine's listing: its own entries over what it adopted) extends, if
    any, and the entries of ``raw`` that file lacks."""
    own, adopted = raw.maps if isinstance(raw, ChainMap) else ({}, raw)
    if type(adopted) is not SavedLines:
        return None, {**adopted, **own} if adopted else own
    return adopted, {key: value for key, value in own.items() if key not in adopted}


def _line_key(text: str, start: int) -> tuple[CorrelatorKey, int]:
    """The key of the line of ``text`` that starts at ``start``, and where
    the next line starts; a bad line is named by its number, counted only
    then."""
    end = text.index("\n", start)
    try:
        return _read_line(text[start:end], 0)[0], end + 1
    except CacheFormatError:
        return _read_line(text[start:end], text.count("\n", 0, start) + 1)[0], end + 1


def _merge_point(text: str, key: CorrelatorKey, lo: int) -> int:
    """The start of the first line of ``text`` from offset ``lo`` (a line
    start) on whose key is not below ``key``, or the end of the text: a
    bisection over offsets of lines in key order."""
    hi = len(text)
    while lo < hi:
        start = text.rfind("\n", lo - 1, (lo + hi) // 2) + 1
        line_key, end = _line_key(text, start)
        if line_key < key:
            lo = end
        else:
            hi = start
    return lo


def _save_pieces(saved: SavedLines | None, new: Mapping):
    """The text a save writes above its trailer, in pieces: the header, then
    the lines of ``saved`` as they are, with the entries of ``new``
    formatted and merged in, in key order, at most ``_BATCH`` to a piece."""
    text = _HEADER if saved is None else saved.text
    at = len(_HEADER)
    yield _HEADER
    batch = []
    for key in sorted(new):
        i = _merge_point(text, key, at)
        if i < len(text) and _line_key(text, i)[0] == key:
            # the file holds the key in a spelling its lookup never finds
            line, lineno = text[i:text.index("\n", i)], text.count("\n", 0, i) + 1
            raise CacheFormatError(f"line {lineno}: key {line.rpartition(';')[0]!r} is not "
                                   f"written as a save writes it, {_format_key(key)!r}")
        if i > at or len(batch) == _BATCH:
            yield "".join(batch)
            yield text[at:i]
            batch.clear()
            at = i
        batch.append(f"{_format_key(key)};{format_rational(_fraction(key, new[key]))}\n")
    yield "".join(batch)
    yield text[at:]


def _write(handle, pieces) -> None:
    """Write ``pieces`` and the checksum trailer of their bytes."""
    crc = 0
    for piece in pieces:
        data = piece.encode("utf-8")
        crc = zlib.crc32(data, crc)
        handle.write(data)
    handle.write(_trailer(crc).encode())


def cache_save(store: CacheStore, path) -> None:
    """Write ``store`` in the current format.  The lines of a
    checksum-matched file its entries extend are written as they are; the
    other entries are formatted and merged in, in key order.  A quarantined
    store is refused: the file would be trusted, its entries unchecked.
    The file is written as it is produced; a save that fails part way
    leaves the target as it was."""
    if not store.trusted:
        raise ValueError("a quarantined store is saved only through the engine "
                         "that revalidated its entries")
    pieces = _save_pieces(*_split_saved(store.entries.raw))
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        # a device or a pipe (say /dev/null) is written through, not replaced
        with Path(target).open("wb") as handle:
            _write(handle, pieces)
        return
    tmp = Path(f"{target}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            _write(handle, pieces)
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def cache_load(path) -> CacheStore:
    """The store of a cache file: trusted when the file is checksum-matched,
    empty for an empty file, and quarantined otherwise."""
    text = Path(path).read_bytes().decode("utf-8")
    cut = text.rfind("\n", 0, -1) + 1  # where the last line starts
    if text.startswith(_HEADER) and text[cut:] == _trailer(zlib.crc32(text[:cut].encode("utf-8"))):
        return CacheStore(Entries(SavedLines(text[:cut])))
    if not text.strip():
        return CacheStore()
    return _load_lines(text)


def _load_lines(text: str) -> CacheStore:
    """The quarantined store of a file that is not checksum-matched: every
    key and value is checked, and the first bad line is named."""
    lines = text.splitlines()
    header = lines[0].strip()
    if not header.startswith(CACHE_MAGIC):
        raise CacheFormatError("line 1: missing cache header")
    version = header[len(CACHE_MAGIC):].strip() or "(none)"
    trailer = len(lines) > 1 and lines[-1].startswith(TRAILER)
    entries: dict[CorrelatorKey, Rational] = {}
    for lineno, line in enumerate(lines[1:len(lines) - trailer], start=2):
        if not line or line.isspace():
            continue
        key, value = _read_line(line, lineno)
        if not _is_canonical(value):
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise CacheFormatError(f"line {lineno}: bad value {value!r}") from None
        problem = _key_problem(*key)
        if problem:
            raise CacheFormatError(f"line {lineno}: impossible key "
                                   f"{line.strip().rsplit(';', 1)[0]!r}: {problem}")
        entries[key] = value
    return CacheStore(entries, version, trusted=False)


def save_engine_cache(engine: CorrelatorEngine, path) -> CacheStore:
    store = CacheStore(engine.entries())
    cache_save(store, path)
    return store


def load_engine_cache(engine: CorrelatorEngine, path) -> CacheStore:
    """Load a cache file, handing its entries to the engine only if it is
    trusted (see the module docstring); an untrusted store is left for
    :func:`revalidate`."""
    store = cache_load(path)
    if store.trusted:
        engine.adopt(store.entries.raw)
    else:
        why = ("cache checksum is missing or does not match"
               if store.version == CACHE_VERSION else
               f"cache version {store.version!r} does not match {CACHE_VERSION!r}")
        warnings.warn(f"{why}; entries will be revalidated on use")
    return store


def revalidate(store: CacheStore, entries: Mapping[CorrelatorKey, Fraction]) -> int:
    """Compare the store with the two base keys and ``entries``, an engine's
    listing (``CorrelatorEngine.entries()``), warning once per store value
    that disagrees; returns how many store entries the listing could not
    check.  The caller can save the same listing afterwards."""
    raw = store.entries.raw
    # the base keys are answered without being stored, so no listing holds them
    fresh = {key_from_tuple((0, (0, 0, 0), ())): Fraction(1),
             key_from_tuple((1, (1,), ())): one_point_value(1)}
    fresh.update(entries)
    checked = 0
    for key, value in fresh.items():
        old = raw.get(key)
        if old is not None:
            checked += 1
            if _fraction(key, old) != value:
                warnings.warn(f"stale cache entry for {key} disagreed with recomputation; "
                              "using the fresh value")
    return len(raw) - checked
