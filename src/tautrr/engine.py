"""Exact evaluation of psi and psi-kappa intersection numbers over moduli of stable curves.

All values are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator); no floating point is used anywhere.  Correlators
are computed by the DVV (Virasoro/KdV) recursion with string/dilaton fast
paths and one memo table per engine.  Integrals with kappa classes reduce to
pure psi integrals by trading the last kappa index for an extra marking,
into which any sub-multiset of the other indices merges, with a sign.
Pairing reads an integral from the memo, and `_psi_kappa` on a miss; a
memoized key has passed the dimension gate, so a hit is one dict lookup.

Conventions:
  * kappa_a is the forgetful pushforward of psi_{n+1}^{a+1}; kappa_0 never
    appears in a key (a kappa_0 factor is just the scalar 2g-2+n).
  * The dimension gate (sum of exponents == 3g-3+n) runs before any
    recursion and returns exactly 0 on mismatch.
  * Unstable (g, n) is an error for the public entry points; internal
    recursion treats unstable configurations as contributing 0.
  * The recursion runs on the integers
    I(g, d) = 8^g g! prod_i (2d_i+1)!! <tau_{d_1} ... tau_{d_n}>_g,
    with I == 1 at both base cases <tau_0^3>_0 and <tau_1>_1:
      string   I(g, 0 S) = sum_j (2d_j+1) I(g, S with d_j - 1)
      dilaton  I(g, 1 S) = 3 (2g-2+|S|) I(g, S)
      DVV      I(g, k S) = sum_j (2d_j+1) I(g, S with d_j -> k+d_j-1)
                 + [8g sum_{a+b=k-2} I(g-1, a b S)
                    + sum C(g, g1) I(g1, a L) I(g-g1, b R)] / 2
    where the last sum runs over a + b = k - 2 and the splits S = L + R.
    Equal exponents are summed once with their multiplicity, and the
    splits run over sub-multisets L of S weighted by prod C(c_i, t_i).
  * The bracket's split terms pair off under the mirror
    (a, L, g1) <-> (b, R, g - g1), and its genus g-1 terms under a <-> b,
    so each unordered pair is visited once and counted once in place of
    the halving.  The splits run in mixed radix over the counts taken of
    each distinct value, so split i mirrors split N-1-i: the list is built
    whole and only its first half is visited; in it, L == R only for the
    split that is its own mirror, where g1 < g - g1 is kept.  Only the
    self-paired term (a == b, L == R, g1 == g - g1) is halved; it carries
    an even weight, C(c, c/2) for some c > 0, or C(g, g/2) when S is
    empty, and the halving still checks its remainder.  Visiting a pair
    once touches the same memo keys as visiting both members, because
    neither factor of a split that meets the dimension constraint is
    unstable: with a >= 0, a genus-0 factor on at most two points would
    need its exponents to sum to a negative number.
  * A kappa value is kept as K(g, d, b) = 8^g g! prod (2d_i+1)!! M(b) <tau_d kappa_b>_g,
    M(()) = 1 and M(b) the lcm of (2 level+1)!! M(kept) over b's trade terms
    (level, kept).  So K(g, d, ()) = I(g, d), and a trade sums only integers:
    K(g, d, b) = sum c K(g, d + (level,), kept), c = +-weight M(b) / ((2 level+1)!! M(kept)).
  * A computed value is kept only as its integer, I or K.  Division
    happens once per key, when the value is first read: the Fraction is
    built then and memoized, and a later hit returns it.  So a value that
    only the recursion uses is divided only when entries() lists it, as a
    cache save does.  The engine counts the values it computes, so a run
    can tell whether it added an entry without listing any.  Trusted
    entries adopted from outside wait undecoded in a pending table, a
    mapping the engine looks keys up in and never changes; from a cache
    file, a checksum-matched file's text, which finds a key's line on lookup.
    A pending entry is decoded on first use, on a memo miss, by `_parts`,
    which refuses text that is not -?digits[/digits] with a nonzero
    denominator; a psi entry goes straight to I, which must be a positive
    integer (as every I is), and a kappa entry a trade reads to K, which
    must be an integer.  Either fault raises
    ImpossibleEntryError, whether the recursion needs the entry or a caller
    asked for it.  With nothing adopted, the pending table is an empty dict.
  * Inner recursion derives the split genus from the dimension gate: in a
    genus split only one g1 can satisfy the left factor's dimension
    constraint, so that g1 is computed and no other is tried.
  * The dimension constraint fixes a split factor's node exponent by its
    genus, a = 3 g1 + |L| - sum(L) - 2, so the factor I(g1, a L) is a
    function of the multiset L and g1 alone.  The splits read it from a
    factor column keyed by L and indexed by genus, whose cell is filled on
    first use through the same lookup on the same key, so the columns hold
    only values the memo holds and the memo fills as without them; a
    failed lookup leaves its cell empty (0, which no I equals).
  * Memo keys are CorrelatorKey named tuples (genus, sorted psi exponents,
    sorted kappa parts).  A plain tuple of the same three fields hashes and
    compares equal, so lookups use one and a key is built only when a value
    is memoized or listed; hashing, equality and the sort of a cache save
    run in C.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections import ChainMap
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from math import comb, factorial, lcm, prod
from typing import NamedTuple

ZERO = Fraction(0)
ONE = Fraction(1)


class UnstableModuliError(ValueError):
    """Raised when a requested space violates stability 2g - 2 + n > 0."""


def is_stable(g: int, n: int) -> bool:
    return 2 * g - 2 + n > 0


def moduli_dim(g: int, n: int) -> int:
    return 3 * g - 3 + n


def _integers(what: str, values) -> tuple[int, ...]:
    """``values`` as a tuple, refusing (not truncating) any that is not an int."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise ValueError(f"non-integer {what} {x!r}")
    return values


def _exact(coeff):
    """``coeff``, refusing (not converting) anything but an int or a Fraction."""
    if type(coeff) is not int and type(coeff) is not Fraction:
        raise ValueError(f"coefficient {coeff!r} is not an int or a Fraction")
    return coeff


class CorrelatorKey(NamedTuple):
    """Canonical (order-independent) key for a memoized integral.

    A named tuple, so hashing, equality and ordering are the tuple's own
    (in C), and the plain tuple ``(genus, psi_exps, kappa_parts)`` finds
    the same memo entry; the engine looks keys up as plain tuples and
    builds a CorrelatorKey only for a value it stores.
    """

    genus: int
    psi_exps: tuple[int, ...]
    kappa_parts: tuple[int, ...]

    @classmethod
    def make(cls, genus, psi_exps, kappa_parts=()) -> "CorrelatorKey":
        """The key with sorted exponents and kappa parts; a non-int field raises ValueError."""
        return cls(*_integers("genus", (genus,)),
                   tuple(sorted(_integers("descendent level", psi_exps))),
                   tuple(sorted(_integers("kappa index", kappa_parts))))


#: builds a CorrelatorKey from a ``(genus, psi_exps, kappa_parts)`` tuple of
#: sorted int tuples, without the named tuple's Python-level ``__new__``
key_from_tuple = partial(tuple.__new__, CorrelatorKey)


#: a value as adopted: a Fraction, an int, or text, read only in the form
#: _is_canonical matches, not necessarily reduced (``2/4``, ``0007``)
Rational = Fraction | int | str

#: matches the canonical form -?digits[/digits], denominator nonzero
_is_canonical = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?").fullmatch


def _parts(key, value: Rational) -> tuple[int, int]:
    """(numerator, denominator) of the Rational stored under ``key`` as written
    (text is not reduced; no slash means 1); text that _is_canonical does
    not match raises ImpossibleEntryError naming the key and the text."""
    if type(value) is str:
        if not _is_canonical(value):
            raise ImpossibleEntryError(
                f"impossible value {value!r} for {_label(*key)}: "
                "not -?digits[/digits] with a nonzero denominator")
        num, _, den = value.partition("/")
        return int(num), int(den) if den else 1
    return value.numerator, value.denominator


def _fraction(key, value: Rational) -> Fraction:
    return value if type(value) is Fraction else Fraction(*_parts(key, value))


class SlotRecord:
    """A mutable record: ``==`` and the ``Name(field=value, ...)`` repr run
    over the attributes named in ``__slots__``; unhashable, being mutable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"


class Entries(Mapping):
    """A read-only ``{CorrelatorKey: Fraction}`` view of ``raw``, a mapping
    whose values are Rationals.  A value is decoded each time it is read, so
    the length, the keys and ``raw`` itself cost no decoding."""

    __slots__ = ("raw",)

    def __init__(self, raw: dict):
        self.raw = raw

    def __getitem__(self, key) -> Fraction:
        return _fraction(key, self.raw[key])

    def __iter__(self):
        return iter(self.raw)

    def __len__(self) -> int:
        return len(self.raw)


class _Listing(ChainMap):
    """An engine's own entries over its pending table, counted without
    iterating the table, which may be a file's text."""

    def __len__(self) -> int:
        own, pending = self.maps
        return len(pending) + sum(key not in pending for key in own)


@cache
def odd_double_factorial(m: int) -> int:
    """(2m+1)!! for m >= 0; a negative m raises ValueError."""
    if m < 0:
        raise ValueError(f"negative m {m} for (2m+1)!!")
    return prod(range(3, 2 * m + 2, 2))


@cache
def _binomial_row(g: int) -> list[int]:
    return [comb(g, i) for i in range(g + 1)]


def genus0_closed_form(d) -> Fraction:
    """Closed form (n-3)!/prod(d_i!) for genus-0 descendent integrals.

    Independent of the recursive evaluator; used as an oracle against it.
    """
    d = _integers("descendent level", d)
    n = len(d)
    if n < 3:
        raise ValueError("need at least three markings in genus 0")
    if any(x < 0 for x in d):
        raise ValueError("negative descendent level")
    if sum(d) != n - 3:
        raise ValueError("dimension mismatch: exponents must sum to n - 3")
    return Fraction(factorial(n - 3), prod(map(factorial, d)))


def one_point_value(g: int) -> Fraction:
    """Closed form 1/(24^g g!) for the one-point integral at the top level."""
    _integers("genus", (g,))
    if g < 1:
        raise ValueError("one-point closed form needs g >= 1")
    return Fraction(1, 24**g * factorial(g))


def two_point_value(g: int, a: int) -> Fraction:
    """<tau_a tau_b>_g with b = 3g - 1 - a, from Dijkgraaf's two-point function

        (w+z) sum_{g>=1} <tau_a tau_b>_g w^a z^b
            = exp((w^3+z^3)/24) sum_{n>=0} n!/(2n+1)! (wz(w+z)/2)^n - 1.

    Independent of the recursive evaluator; used as an oracle against it.
    """
    _integers("genus", (g,))
    _integers("descendent level", (a,))
    if g < 1:
        raise ValueError("two-point closed form needs g >= 1")
    if not 0 <= a <= 3 * g - 1:
        raise ValueError("descendent level must lie in 0..3g-1")
    # p[i]: coefficient of w^i z^(3g-i) on the right, the degree-3g part of
    # the product of the exp term's (w^3+z^3)^j / (24^j j!) and the sum's
    # n = g - j term
    p = [Fraction(0)] * (3 * g + 1)
    for j in range(g + 1):
        n = g - j
        scale = Fraction(factorial(n), 24**j * factorial(j) * factorial(2 * n + 1) * 2**n)
        for i in range(j + 1):
            for k in range(n + 1):
                p[3 * i + n + k] += scale * comb(j, i) * comb(n, k)
    # divide by w + z: p[i] = t[i-1] + t[i], where t[a] is the coefficient
    # of w^a z^(3g-1-a) on the left
    t = p[0]
    for i in range(1, a + 1):
        t = p[i] - t
    return t


class ImpossibleEntryError(ArithmeticError):
    """Raised when a trusted adopted entry (say from a cache file) is first
    read and no integral can equal it: its text is not canonical, or it does
    not give an integer I > 0 (psi) or K (kappa, when a trade reads it)."""


def _submultisets(parts: tuple[int, ...], half: bool = False):
    """Every split of the sorted tuple ``parts`` into sorted sub-multisets
    ``(chosen, others, weight)``; ``weight`` counts the index subsets giving
    that split, the product of C(c, t) over the distinct values (c copies of
    a value, t of them chosen).

    The splits run in mixed radix over the counts t, so split i is the
    mirror (others, chosen) of split N-1-i.  With ``half``, only the first
    ceil(N/2) are returned: the splits whose counts are lexicographically
    at most their mirror's, the one split that is its own mirror (every c
    even) last.
    """
    splits = [((), (), 1)]
    for v in dict.fromkeys(parts):
        c = parts.count(v)
        splits = [(chosen + (v,) * t, others + (v,) * (c - t), w * comb(c, t))
                  for chosen, others, w in splits for t in range(c + 1)]
    return splits[:(len(splits) + 1) // 2] if half else splits


def _sum_by_denominator(sums: dict[int, int]) -> Fraction:
    """The sum of num/den over a ``{den: num}`` table of integers, as one
    Fraction built once over the common denominator; 0 for an empty table."""
    common = lcm(*sums)
    return Fraction(sum(num * (common // den) for den, num in sums.items()), common)


def _normalization(g: int, d: tuple[int, ...]) -> int:
    """8^g g! prod_i (2d_i+1)!!, the factor making <tau_d>_g an integer."""
    norm = 8**g * factorial(g)
    for x in d:
        norm *= odd_double_factorial(x)
    return norm


def _label(g: int, d: tuple[int, ...], b: tuple[int, ...] = ()) -> str:
    return f"<{' '.join([f'tau_{x}' for x in d] + [f'kappa_{x}' for x in b])}>_{g}"


#: <tau_0^3>_0 and <tau_1>_1, the two correlators on spaces with
#: 2g - 2 + n == 1; both have I == 1
_BASE_INTS = {(0, 0, 0): 1, (1,): 1}
_BASE_VALUES = (ONE, Fraction(1, _normalization(1, (1,))))


def _checked(g, d, b) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The public entry points' arguments, d and b sorted, raising for the first
    bad one: genus, psi level, kappa index (not an int, then out of range), stability."""
    _integers("genus", (g,))
    if g < 0:
        raise ValueError("genus must be nonnegative")
    d = tuple(sorted(_integers("descendent level", d)))
    if d and d[0] < 0:
        raise ValueError("negative descendent level")
    b = tuple(sorted(_integers("kappa index", b)))
    if b and b[0] <= 0:
        raise ValueError("kappa index must be positive")
    if not is_stable(g, len(d)):
        raise UnstableModuliError("unstable moduli space")
    return g, d, b


class CorrelatorEngine:
    """Memoized exact evaluator for psi and psi-kappa integrals.

    There is no shared engine: a caller creates one and passes it to every
    pairing, verifier and point-target function, so its memo lives exactly
    as long as the caller keeps it.  One engine is meant for one thread:
    the memo tables are plain dicts.
    Values are deterministic, so an engine shared between threads still
    returns correct values, at worst computing a key twice.
    """

    def __init__(self):
        # values read so far, as Fractions
        self._memo: dict[CorrelatorKey, Fraction] = {}
        # trusted adopted entries, never changed here
        self._pending: Mapping[CorrelatorKey, Rational] = {}
        # every computed or decoded psi value as its integer I(g, d), by
        # sorted d (d fixes g by the gate), and the two base cases
        self._ints: dict[tuple[int, ...], int] = dict(_BASE_INTS)
        # how many values were computed: recursion steps and kappa trades
        self.computed = 0
        # every computed kappa value as its integer K(g, d, b), by (g, d, b)
        self._kints: dict[tuple, int] = {}
        # each kappa trade's M(b) and terms (new level, kept parts, c), by b
        self._trades: dict[tuple[int, ...], tuple[int, list]] = {(): (1, [])}
        # DVV split factors by marking multiset, indexed by genus (_cell)
        self._cols: dict[tuple[int, ...], list[int]] = {}

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def psi_integral(self, g: int, d) -> Fraction:
        """Integral of psi_1^{d_1} ... psi_n^{d_n} over the (g, n) space."""
        g, d, _ = _checked(g, d, ())
        return self._psi(g, d)

    def psi_kappa_integral(self, g: int, d, b) -> Fraction:
        """Integral of a psi monomial times kappa_{b_1} ... kappa_{b_k}."""
        return self._psi_kappa(*_checked(g, d, b))

    def correlator(self, g: int, levels) -> Fraction:
        """Total over int arguments: 0 for unstable spaces or negative levels."""
        _integers("genus", (g,))
        levels = _integers("descendent level", levels)
        if any(x < 0 for x in levels):
            return ZERO
        return self._corr(g, levels)

    # ------------------------------------------------------------------
    # cache plumbing (file I/O lives in tautrr.cache)
    # ------------------------------------------------------------------

    def entries(self) -> Entries:
        """Every entry the engine holds, decoded, computed or still pending;
        a computed psi value not read yet is divided here.  ``raw`` is a
        ChainMap of the engine's own entries over the pending table, so a
        cache save can tell which entries a trusted file already holds."""
        listed = {}
        for d, val in islice(self._ints.items(), len(_BASE_INTS), None):
            g = (sum(d) - len(d)) // 3 + 1
            listed[key_from_tuple((g, d, ()))] = Fraction(val, _normalization(g, d))
        for (g, d, b), val in self._kints.items():
            norm = _normalization(g, d) * self._trades[b][0]
            listed[key_from_tuple((g, d, b))] = Fraction(val, norm)
        return Entries(_Listing({**listed, **self._memo}, self._pending))

    def adopt(self, entries: Mapping[CorrelatorKey, Rational]) -> None:
        """Install trusted externally loaded entries, whose values may still
        be text.

        The caller vouches for the keys (a checksum-matched cache file holds
        only keys a save wrote).  The entries wait in the pending table; the
        engine keeps the mapping given, when it is the first, and never
        changes it.  A value is decoded when first needed, and text that is
        not canonical, or a value that does not normalize to a positive I or
        (in a trade) an integer K, raises :class:`ImpossibleEntryError`.
        """
        self._pending = {**self._pending, **entries} if self._pending else entries

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _corr(self, g: int, levels: tuple[int, ...]) -> Fraction:
        """Total function for inner recursion: levels are nonnegative ints in
        any order; 0 for negative genus or unstable (g, n)."""
        if g < 0 or 2 * g - 2 + len(levels) <= 0:
            return ZERO
        return self._psi(g, tuple(sorted(levels)))

    def _psi(self, g: int, d: tuple[int, ...]) -> Fraction:
        # d is sorted ascending; gate before looking anything up
        n = len(d)
        if sum(d) != 3 * g - 3 + n:
            return ZERO
        if 2 * g - 2 + n == 1:
            return _BASE_VALUES[g]
        hit = self._memo.get((g, d, ()))
        if hit is not None:
            return hit
        value = Fraction(self._ints.get(d) or self._int(g, d), _normalization(g, d))
        self._memo[key_from_tuple((g, d, ()))] = value
        return value

    def _int(self, g: int, d: tuple[int, ...]) -> int:
        """I(g, d) on a miss in ``_ints``: d sorted, passing the gate, (g, n)
        stable.  A pending adopted entry is converted exactly, once (it stays
        pending, shadowed by ``_ints``); any other key is computed."""
        value = self._pending.get((g, d, ()))
        if value is None:
            return self._compute(g, d)
        num, den = _parts((g, d, ()), value)
        val, rem = divmod(num * _normalization(g, d), den)
        if rem or val <= 0:
            raise ImpossibleEntryError(
                f"impossible value {Fraction(num, den)} for {_label(g, d)}: "
                f"times 8^g g! prod (2d_i+1)!! it is not {'an' if rem else 'a positive'} integer"
            )
        self._ints[d] = val
        return val

    def _compute(self, g: int, d: tuple[int, ...]) -> int:
        """Run one string, dilaton or DVV step for I(g, d) and store the
        integer."""
        ints = self._ints
        if d[0] == 0:
            # string equation; (g, n-1) is stable for every non-base case.
            # Lowering the first copy of v keeps the tuple sorted.
            rest = d[1:]
            val = 0
            for v in dict.fromkeys(rest):
                if v:
                    i = rest.index(v)
                    lowered = rest[:i] + (v - 1,) + rest[i + 1:]
                    f = ints.get(lowered) or self._int(g, lowered)
                    val += rest.count(v) * (2 * v + 1) * f
        elif d[0] == 1:
            # dilaton equation
            rest = d[1:]
            val = 3 * (2 * g - 2 + len(rest)) * (ints.get(rest) or self._int(g, rest))
        else:
            val = self._dvv(g, d)
        ints[d] = val
        self.computed += 1
        return val

    def _dvv(self, g: int, d: tuple[int, ...]) -> int:
        """DVV step on the largest exponent k; every exponent is >= 2 here."""
        ints = self._ints
        get = self._int
        k = d[-1]
        rest = d[:-1]
        total = 0
        for v in dict.fromkeys(rest):
            # k + v - 1 > k >= every other exponent, so it goes last
            i = rest.index(v)
            merged = rest[:i] + rest[i + 1:] + (k + v - 1,)
            total += rest.count(v) * (2 * v + 1) * (ints.get(merged) or get(g, merged))
        if g >= 1:
            # a and k - 2 - a give the same key: the lower half twice, then
            # the middle term once when k is even
            lower = 0
            for a in range((k - 1) // 2):
                key = tuple(sorted(rest + (a, k - 2 - a)))
                lower += ints.get(key) or get(g - 1, key)
            lower *= 2
            if k % 2 == 0:
                key = tuple(sorted(rest + ((k - 2) // 2,) * 2))
                lower += ints.get(key) or get(g - 1, key)
            total += 4 * g * lower
        binom = _binomial_row(g)
        cols = self._cols
        cell = self._cell
        self_paired = 0
        # one split of each mirror pair (L, R) <-> (R, L)
        for left, right, weight in _submultisets(rest, half=True):
            # the left factor's dimension constraint fixes a = 3 g1 + shift;
            # every exponent is >= 2, so shift < 0 and a >= 0 forces g1 >= 1
            shift = len(left) - sum(left) - 2
            hi = min((k - 2 - shift) // 3, g)
            lcol = cols.get(left)
            if lcol is None or len(lcol) <= g:
                lcol = self._column(left, g)
            mirror = left == right
            if mirror:
                # the split is its own mirror: g1 pairs with g - g1 inside it
                hi = min(hi, (g - 1) // 2)
                rcol = lcol
            else:
                rcol = cols.get(right)
                if rcol is None or len(rcol) <= g:
                    rcol = self._column(right, g)
            acc = 0
            for g1 in range(-(shift // 3), hi + 1):
                acc += (binom[g1] * (lcol[g1] or cell(lcol, left, g1))
                        * (rcol[g - g1] or cell(rcol, right, g - g1)))
            total += weight * acc
            if mirror and g % 2 == 0:
                # the term paired with itself: g1 == g - g1 and a == k - 2 - a,
                # so both factors are one cell
                f = lcol[g // 2] or cell(lcol, left, g // 2)
                self_paired += weight * binom[g // 2] * f * f
        half, odd = divmod(self_paired, 2)
        if odd:
            raise ArithmeticError(f"odd self-paired DVV term for {_label(g, d)}")
        return total + half

    def _column(self, m: tuple[int, ...], g: int) -> list[int]:
        """The factor column of the sorted multiset m, at least g + 1 cells
        long; an empty cell is 0."""
        col = self._cols.setdefault(m, [])
        col.extend([0] * (g + 1 - len(col)))
        return col

    def _cell(self, col: list[int], m: tuple[int, ...], h: int) -> int:
        """Fill col[h], the column of m at genus h: I(h, m + (a,)), where the
        node exponent a = 3h + |m| - sum(m) - 2 meets the dimension
        constraint.  A failed lookup leaves the cell empty."""
        a = 3 * h + len(m) - sum(m) - 2
        i = bisect(m, a)
        key = m[:i] + (a,) + m[i:]
        val = col[h] = self._ints.get(key) or self._int(h, key)
        return val

    def _psi_kappa(self, g: int, d: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        # a memoized key has passed the gate, so look it up first
        hit = self._memo.get((g, d, b))
        if hit is not None:
            return hit
        if sum(d) + sum(b) != 3 * g - 3 + len(d):
            return ZERO
        if not b:
            return self._psi(g, d)
        key = (g, d, b)
        value = self._pending.get(key)
        if value is not None:
            value = _fraction(key, value)
        else:
            val = self._kints.get(key)
            value = Fraction(self._kint(g, d, b) if val is None else val,
                             _normalization(g, d) * self._trade(b)[0])
        self._memo[key_from_tuple(key)] = value
        return value

    def _kint(self, g: int, d: tuple[int, ...], b: tuple[int, ...]) -> int:
        """K(g, d, b) on a miss in ``_kints``: a pending entry converted exactly, or traded."""
        scale, terms = self._trade(b)
        value = self._pending.get((g, d, b))
        if value is not None:
            num, den = _parts((g, d, b), value)
            val, rem = divmod(num * _normalization(g, d) * scale, den)
            if rem:
                raise ImpossibleEntryError(
                    f"impossible value {Fraction(num, den)} for {_label(g, d, b)}: "
                    "times 8^g g! prod (2d_i+1)!! M(b) it is not an integer")
        else:
            ints, kints, val = self._ints, self._kints, 0
            for level, kept, c in terms:
                i = bisect(d, level)
                merged = d[:i] + (level,) + d[i:]
                if kept:
                    term = kints.get((g, merged, kept))
                    val += c * (self._kint(g, merged, kept) if term is None else term)
                else:
                    val += c * (ints.get(merged) or self._int(g, merged))
            self.computed += 1
        self._kints[g, d, b] = val
        return val

    def _trade(self, b: tuple[int, ...]) -> tuple[int, list]:
        """M(b) and the trade's terms (level, kept parts, c), built once per b."""
        trade = self._trades.get(b)
        if trade is None:
            terms = [(b[-1] + 1 + sum(merged), kept, -weight if len(merged) % 2 else weight)
                     for merged, kept, weight in _submultisets(b[:-1])]
            scales = [odd_double_factorial(level) * self._trade(kept)[0]
                      for level, kept, _ in terms]
            trade = self._trades[b] = (scale := lcm(*scales), [
                (level, kept, w * (scale // s)) for (level, kept, w), s in zip(terms, scales)])
        return trade
