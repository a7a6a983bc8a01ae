"""Exact evaluation of psi and psi-kappa intersection numbers over moduli of stable curves.

All values are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator); no floating point is used anywhere.  Correlators
are computed by the DVV (Virasoro/KdV) recursion with string/dilaton fast
paths and one memo table per engine.  Integrals with kappa classes reduce to
pure psi integrals by trading one kappa index at a time for an extra
marked point carrying one descendent; each remaining kappa index may
merge into the new insertion, so one trade is a signed sum over
sub-multisets of the other indices.

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
    each distinct value, so split i mirrors split N-1-i and only the first
    half of the list is built and visited; in it, L == R only for the
    split that is its own mirror, where g1 < g - g1 is kept.  Only the
    self-paired term (a == b, L == R, g1 == g - g1) is halved; it carries
    an even weight, C(c, c/2) for some c > 0, or C(g, g/2) when S is
    empty, and the halving still checks its remainder.  Visiting a pair
    once touches the same memo keys as visiting both members, because
    neither factor of a split that meets the dimension constraint is
    unstable: with a >= 0, a genus-0 factor on at most two points would
    need its exponents to sum to a negative number.
  * A computed psi value is kept only as its integer I.  Division
    happens once per key, when the value is first read: the Fraction is
    built then and memoized, and a later hit returns it.  So a value that
    only the recursion uses is divided only when entries() lists it, as a
    cache save does.  The engine counts the values it computes, so a run
    can tell whether it added an entry without listing any.  A trusted
    entry adopted from outside (say from a cache file, whose loader has
    checked its key and the syntax of its value) waits undecoded in a
    pending table and is decoded on first use, on a memo miss: a psi
    entry straight to I, raising ImpossibleEntryError unless it is a
    positive integer there (as every I is), whether the recursion needs it
    or a caller asked for it.
  * Inner recursion derives the split genus from the dimension gate: in a
    genus split only one g1 can satisfy the left factor's dimension
    constraint, so that g1 is computed and no other is tried.
  * Memo keys are CorrelatorKey named tuples (genus, sorted psi exponents,
    sorted kappa parts).  A plain tuple of the same three fields hashes and
    compares equal, so lookups use one and a key is built only when a value
    is memoized or listed; hashing, equality and the sort of a cache save
    run in C.
"""

from __future__ import annotations

import warnings
from bisect import bisect
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
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
        return cls(
            int(genus),
            tuple(sorted(int(x) for x in psi_exps)),
            tuple(sorted(int(x) for x in kappa_parts)),
        )


#: builds a CorrelatorKey from a ``(genus, psi_exps, kappa_parts)`` tuple of
#: sorted int tuples, without the named tuple's Python-level ``__new__``
key_from_tuple = partial(tuple.__new__, CorrelatorKey)


#: a value as adopted: a Fraction, an int, or text ``-?digits[/digits]``
#: with a nonzero denominator, not necessarily reduced (``2/4``, ``0007``)
Rational = Fraction | int | str


def rational_parts(value: Rational) -> tuple[int, int]:
    """(numerator, denominator) of a Rational, as written: text is not
    reduced, and its denominator is 1 when it has no slash."""
    if type(value) is str:
        num, _, den = value.partition("/")
        return int(num), int(den) if den else 1
    return value.numerator, value.denominator


def _fraction(value: Rational) -> Fraction:
    if type(value) is str:
        return Fraction(*rational_parts(value))
    return value if type(value) is Fraction else Fraction(value)


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
    """A read-only ``{CorrelatorKey: Fraction}`` view of ``raw``, a dict whose
    values are Rationals.  A value is decoded each time it is read, so the
    length, the keys and ``raw`` itself cost no decoding."""

    __slots__ = ("raw",)

    def __init__(self, raw: dict):
        self.raw = raw

    def __getitem__(self, key) -> Fraction:
        return _fraction(self.raw[key])

    def __iter__(self):
        return iter(self.raw)

    def __len__(self) -> int:
        return len(self.raw)


_ODD_DFACT = [1, 3]  # _ODD_DFACT[m] == (2m+1)!!


def odd_double_factorial(m: int) -> int:
    """(2m+1)!! with the empty-product convention (-1)!! == 1."""
    if m < 0:
        return 1
    while len(_ODD_DFACT) <= m:
        k = len(_ODD_DFACT)
        _ODD_DFACT.append(_ODD_DFACT[-1] * (2 * k + 1))
    return _ODD_DFACT[m]


def genus0_closed_form(d) -> Fraction:
    """Closed form (n-3)!/prod(d_i!) for genus-0 descendent integrals.

    Independent of the recursive evaluator; used as an oracle against it.
    """
    d = [int(x) for x in d]
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
    g = int(g)
    if g < 1:
        raise ValueError("one-point closed form needs g >= 1")
    return Fraction(1, 24**g * factorial(g))


def two_point_value(g: int, a: int) -> Fraction:
    """<tau_a tau_b>_g with b = 3g - 1 - a, from Dijkgraaf's two-point function

        (w+z) sum_{g>=1} <tau_a tau_b>_g w^a z^b
            = exp((w^3+z^3)/24) sum_{n>=0} n!/(2n+1)! (wz(w+z)/2)^n - 1.

    Independent of the recursive evaluator; used as an oracle against it.
    """
    g, a = int(g), int(a)
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
    """Raised when a trusted adopted entry (say one loaded from a cache file)
    is first read and no psi integral can equal it: its value times
    8^g g! prod (2d_i+1)!! is not a positive integer."""


def _submultisets(parts: tuple[int, ...], half: bool = False):
    """Every split of the sorted tuple ``parts`` into sorted sub-multisets
    ``(chosen, others, weight)``; ``weight`` counts the index subsets giving
    that split, the product of C(c, t) over the distinct values (c copies of
    a value, t of them chosen).

    The splits run in mixed radix over the counts t, so split i is the
    mirror (others, chosen) of split N-1-i.  With ``half``, only the first
    half is built: the splits whose counts are lexicographically at most
    their mirror's, the one split that is its own mirror (every c even)
    last.
    """
    # below: splits already below their mirror, which take any count of the
    # next value; level: the split still tied with its mirror, which takes
    # fewer than half of the copies (and falls below) or exactly half
    below, level = ([], [((), (), 1)]) if half else ([((), (), 1)], [])
    for v in dict.fromkeys(parts):
        c = parts.count(v)
        below = _grow(below, v, c, range(c + 1)) + _grow(level, v, c, range((c + 1) // 2))
        level = _grow(level, v, c, (c // 2,)) if c % 2 == 0 else []
    return below + level


def _grow(splits, v: int, c: int, counts) -> list:
    """Each split extended by t of the c copies of v, for each t in counts."""
    return [(chosen + (v,) * t, others + (v,) * (c - t), w * comb(c, t))
            for chosen, others, w in splits for t in counts]


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


def _label(g: int, d: tuple[int, ...]) -> str:
    return f"<{' '.join(f'tau_{x}' for x in d)}>_{g}"


#: <tau_0^3>_0 and <tau_1>_1, the two correlators on spaces with
#: 2g - 2 + n == 1; both have I == 1
_BASE_INTS = {(0, 0, 0): 1, (1,): 1}
_BASE_VALUES = (ONE, Fraction(1, _normalization(1, (1,))))


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
        # psi values read so far and kappa values, as Fractions
        self._memo: dict[CorrelatorKey, Fraction] = {}
        # trusted adopted entries not read yet, and quarantined ones not
        # revalidated yet
        self._pending: dict[CorrelatorKey, Rational] = {}
        self._stale: dict[CorrelatorKey, Rational] = {}
        # every computed or decoded psi value as its integer I(g, d), by
        # sorted d (d fixes g by the gate), and the two base cases
        self._ints: dict[tuple[int, ...], int] = dict(_BASE_INTS)
        # how many values were computed: recursion steps and kappa trades
        self.computed = 0

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def psi_integral(self, g: int, d) -> Fraction:
        """Integral of psi_1^{d_1} ... psi_n^{d_n} over the (g, n) space."""
        g = int(g)
        d = tuple(int(x) for x in d)
        if g < 0:
            raise ValueError("genus must be nonnegative")
        if any(x < 0 for x in d):
            raise ValueError("negative descendent level")
        if not is_stable(g, len(d)):
            raise UnstableModuliError("unstable moduli space")
        return self._psi(g, tuple(sorted(d)))

    def psi_kappa_integral(self, g: int, d, b) -> Fraction:
        """Integral of a psi monomial times kappa_{b_1} ... kappa_{b_k}."""
        g = int(g)
        d = tuple(int(x) for x in d)
        b = tuple(int(x) for x in b)
        if g < 0:
            raise ValueError("genus must be nonnegative")
        if any(x < 0 for x in d):
            raise ValueError("negative descendent level")
        if any(x <= 0 for x in b):
            raise ValueError("kappa index must be positive")
        if not is_stable(g, len(d)):
            raise UnstableModuliError("unstable moduli space")
        return self._psi_kappa(g, tuple(sorted(d)), tuple(sorted(b)))

    def correlator(self, g: int, levels) -> Fraction:
        """Total-function variant: 0 for unstable spaces or negative levels."""
        g = int(g)
        levels = tuple(int(x) for x in levels)
        if any(x < 0 for x in levels):
            return ZERO
        return self._corr(g, levels)

    # ------------------------------------------------------------------
    # cache plumbing (file I/O lives in tautrr.cache)
    # ------------------------------------------------------------------

    def entries(self) -> Entries:
        """Every entry the engine holds, decoded, computed or still pending;
        a computed psi value not read yet is divided here."""
        listed = {}
        for d, val in islice(self._ints.items(), len(_BASE_INTS), None):
            g = (sum(d) - len(d)) // 3 + 1
            listed[key_from_tuple((g, d, ()))] = Fraction(val, _normalization(g, d))
        return Entries({**self._pending, **listed, **self._memo})

    def adopt(self, entries: dict[CorrelatorKey, Rational], trusted: bool = True) -> None:
        """Install externally loaded entries, whose values may still be text.

        The caller has checked the keys and the syntax of the values (the
        cache loader does); the values are decoded on first use.  Trusted
        entries wait in a pending table.  When one is first needed, a psi
        entry is converted once to its normalized integer, and one that is
        not a positive integer there raises :class:`ImpossibleEntryError`.
        Untrusted entries (e.g. from a cache file with a mismatched
        version) are quarantined and revalidated against a fresh
        computation the first time they are needed; the two base keys,
        which are never computed, are checked at once.
        """
        if trusted:
            self._pending.update(entries)
        else:
            self._stale.update(entries)
            for g, d in ((0, (0, 0, 0)), (1, (1,))):
                self._revalidate(CorrelatorKey(g, d, ()), _BASE_VALUES[g])

    def quarantined(self) -> int:
        """How many quarantined entries have not been revalidated yet."""
        return len(self._stale)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _corr(self, g: int, levels: tuple[int, ...]) -> Fraction:
        """Total function for inner recursion: levels are nonnegative ints in
        any order; 0 for negative genus or unstable (g, n)."""
        if g < 0 or 2 * g - 2 + len(levels) <= 0:
            return ZERO
        return self._psi(g, tuple(sorted(levels)))

    def _revalidate(self, key: CorrelatorKey, val: Fraction) -> None:
        """Drop any quarantined copy of key, warning if it is not val."""
        old = self._stale.pop(key, None)
        if old is not None and _fraction(old) != val:
            warnings.warn(
                f"stale cache entry for {key} disagreed with recomputation; "
                "using the fresh value"
            )

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
        stable.  A pending adopted entry is converted exactly, once; any
        other key is computed."""
        value = self._pending.get((g, d, ()))
        if value is None:
            return self._compute(g, d)
        num, den = rational_parts(value)
        val, rem = divmod(num * _normalization(g, d), den)
        if rem or val <= 0:
            raise ImpossibleEntryError(
                f"impossible value {Fraction(num, den)} for {_label(g, d)}: "
                f"times 8^g g! prod (2d_i+1)!! it is not {'an' if rem else 'a positive'} integer"
            )
        self._pending.pop((g, d, ()), None)
        self._ints[d] = val
        return val

    def _compute(self, g: int, d: tuple[int, ...]) -> int:
        """Run one string, dilaton or DVV step for I(g, d) and store the
        integer, revalidating any quarantined copy of the key."""
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
        if self._stale and (g, d, ()) in self._stale:
            self._revalidate(key_from_tuple((g, d, ())), Fraction(val, _normalization(g, d)))
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
        binom = [comb(g, g1) for g1 in range(g + 1)]
        self_paired = 0
        # one split of each mirror pair (L, R) <-> (R, L)
        for left, right, weight in _submultisets(rest, half=True):
            n_left = len(left)
            # the left factor's dimension constraint fixes a = 3 g1 + shift;
            # every exponent is >= 2, so shift < 0 and a >= 0 forces g1 >= 1
            shift = n_left - sum(left) - 2
            hi = min((k - 2 - shift) // 3, g)
            mirror = left == right
            if mirror:
                # the split is its own mirror: g1 pairs with g - g1 inside it
                hi = min(hi, (g - 1) // 2)
            acc = 0
            for g1 in range(-(shift // 3), hi + 1):
                # left and right are sorted: insert the node exponent
                a = 3 * g1 + shift
                i = bisect(left, a)
                lkey = left[:i] + (a,) + left[i:]
                b = k - 2 - a
                i = bisect(right, b)
                rkey = right[:i] + (b,) + right[i:]
                f1 = ints.get(lkey) or get(g1, lkey)
                acc += binom[g1] * f1 * (ints.get(rkey) or get(g - g1, rkey))
            total += weight * acc
            if mirror and g % 2 == 0:
                # the term paired with itself: g1 == g - g1 and a == k - 2 - a,
                # so both factors are one key
                a = (k - 2) // 2
                i = bisect(left, a)
                key = left[:i] + (a,) + left[i:]
                f = ints.get(key) or get(g // 2, key)
                self_paired += weight * binom[g // 2] * f * f
        half, odd = divmod(self_paired, 2)
        if odd:
            raise ArithmeticError(f"odd self-paired DVV term for {_label(g, d)}")
        return total + half

    def _psi_kappa(self, g: int, d: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        n = len(d)
        if sum(d) + sum(b) != 3 * g - 3 + n:
            return ZERO
        if not b:
            return self._psi(g, d)
        hit = self._memo.get((g, d, b))
        if hit is not None:
            return hit
        value = self._pending.pop((g, d, b), None)
        if value is not None:
            value = self._memo[key_from_tuple((g, d, b))] = _fraction(value)
            return value
        # trade the last kappa index for one extra marking; any sub-multiset
        # of the remaining indices may merge into the new insertion, with
        # sign (-1)^size, once per index subset giving it; the terms are
        # summed as integer numerators per denominator and divided once
        sums = {}
        for merged, kept, weight in _submultisets(b[:-1]):
            level = b[-1] + 1 + sum(merged)
            term = self._psi_kappa(g, tuple(sorted(d + (level,))), kept)
            if term:
                den = term.denominator
                sign = -weight if len(merged) % 2 else weight
                sums[den] = sums.get(den, 0) + sign * term.numerator
        value = _sum_by_denominator(sums)
        self.computed += 1
        key = key_from_tuple((g, d, b))
        self._revalidate(key, value)
        self._memo[key] = value
        return value

