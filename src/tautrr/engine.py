"""Exact evaluation of psi and psi-kappa intersection numbers over moduli of stable curves.

All values are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator); no floating point is used anywhere.  Correlators
are computed by the DVV (Virasoro/KdV) recursion with string/dilaton fast
paths and a shared memo table.  Integrals with kappa classes reduce to
pure psi integrals by trading one kappa index at a time for an extra
marked point carrying one descendent; each remaining kappa index may
merge into the new insertion, so one trade is a signed sum over subsets
of the other indices.

Conventions:
  * kappa_a is the forgetful pushforward of psi_{n+1}^{a+1}; kappa_0 never
    appears in a key (a kappa_0 factor is just the scalar 2g-2+n).
  * The dimension gate (sum of exponents == 3g-3+n) runs before any
    recursion and returns exactly 0 on mismatch.
  * Unstable (g, n) is an error for the public entry points; internal
    recursion treats unstable configurations as contributing 0.
  * Inner recursion derives the split genus from the dimension gate: in a
    genus split only one g1 can satisfy the left factor's dimension
    constraint, so that g1 is computed and no other is tried.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: integral of the cotangent class over the 1-pointed genus-1 space
GENUS1_BASE = Fraction(1, 24)


class UnstableModuliError(ValueError):
    """Raised when a requested space violates stability 2g - 2 + n > 0."""


def is_stable(g: int, n: int) -> bool:
    return 2 * g - 2 + n > 0


def moduli_dim(g: int, n: int) -> int:
    return 3 * g - 3 + n


@dataclass(frozen=True, order=True)
class CorrelatorKey:
    """Canonical (order-independent) key for a memoized integral."""

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
    num = 1
    for k in range(1, n - 2):
        num *= k
    den = 1
    for x in d:
        for k in range(1, x + 1):
            den *= k
    return Fraction(num, den)


def one_point_value(g: int) -> Fraction:
    """Closed form 1/(24^g g!) for the one-point integral at the top level."""
    g = int(g)
    if g < 1:
        raise ValueError("one-point closed form needs g >= 1")
    fact = 1
    for k in range(1, g + 1):
        fact *= k
    return Fraction(1, 24**g * fact)


class CorrelatorEngine:
    """Memoized exact evaluator for psi and psi-kappa integrals.

    The memo table is shared and guarded by a reentrant lock, so
    concurrent callers of the same key observe exactly one computation.
    """

    def __init__(self):
        self._memo: dict[CorrelatorKey, Fraction] = {}
        self._stale: dict[CorrelatorKey, Fraction] = {}
        self._lock = threading.RLock()

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

    def entries(self) -> dict[CorrelatorKey, Fraction]:
        with self._lock:
            return dict(self._memo)

    def adopt(self, entries: dict[CorrelatorKey, Fraction], trusted: bool = True) -> None:
        """Install externally loaded entries.

        Untrusted entries (e.g. from a cache file with a mismatched
        version) are quarantined and revalidated against a fresh
        computation the first time they are needed.
        """
        with self._lock:
            if trusted:
                self._memo.update(entries)
            else:
                self._stale.update(entries)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _corr(self, g: int, levels: tuple[int, ...]) -> Fraction:
        """Total function for inner recursion: levels are nonnegative ints in
        any order; 0 for negative genus or unstable (g, n)."""
        if g < 0 or 2 * g - 2 + len(levels) <= 0:
            return ZERO
        return self._psi(g, tuple(sorted(levels)))

    def _store(self, key: CorrelatorKey, val: Fraction) -> Fraction:
        """Memoize a fresh value, revalidating any quarantined copy of it."""
        old = self._stale.pop(key, None)
        if old is not None and old != val:
            warnings.warn(
                f"stale cache entry for {key} disagreed with recomputation; "
                "using the fresh value"
            )
        self._memo[key] = val
        return val

    def _psi(self, g: int, d: tuple[int, ...]) -> Fraction:
        # d is sorted ascending; gate before looking anything up
        n = len(d)
        if sum(d) != 3 * g - 3 + n:
            return ZERO
        if g == 0 and n == 3:
            return ONE
        if g == 1 and n == 1:
            return GENUS1_BASE
        key = CorrelatorKey(g, d, ())
        with self._lock:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
            return self._store(key, self._psi_compute(g, d))

    def _psi_compute(self, g: int, d: tuple[int, ...]) -> Fraction:
        n = len(d)
        if d[0] == 0:
            # string equation; (g, n-1) is stable for every non-base case
            rest = d[1:]
            total = ZERO
            for i, di in enumerate(rest):
                if di >= 1:
                    total += self._psi(g, tuple(sorted(rest[:i] + (di - 1,) + rest[i + 1:])))
            return total
        if d[0] == 1:
            # dilaton equation
            rest = d[1:]
            return (2 * g - 2 + (n - 1)) * self._psi(g, rest)
        # DVV recursion on the largest exponent (>= 2 here)
        k = d[-1]
        rest = d[:-1]
        m = len(rest)
        total = ZERO
        for j, dj in enumerate(rest):
            coeff = Fraction(odd_double_factorial(k + dj - 1), odd_double_factorial(dj - 1))
            merged = tuple(sorted(rest[:j] + rest[j + 1:] + (k + dj - 1,)))
            total += coeff * self._psi(g, merged)
        acc = ZERO
        for a in range(0, k - 1):
            b = k - 2 - a
            ca_cb = odd_double_factorial(a) * odd_double_factorial(b)
            if g >= 1:
                acc += ca_cb * self._psi(g - 1, tuple(sorted(rest + (a, b))))
            for mask in range(1 << m):
                left = tuple(rest[i] for i in range(m) if mask >> i & 1)
                # the left factor's dimension constraint fixes its genus
                num = a + sum(left) - len(left) + 2
                g1 = num // 3
                if num % 3 or not 0 <= g1 <= g:
                    continue
                f1 = self._corr(g1, (a,) + left)
                if f1:
                    right = tuple(rest[i] for i in range(m) if not mask >> i & 1)
                    f2 = self._corr(g - g1, (b,) + right)
                    if f2:
                        acc += ca_cb * f1 * f2
        total += acc / 2
        return total / odd_double_factorial(k)

    def _psi_kappa(self, g: int, d: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        n = len(d)
        if sum(d) + sum(b) != 3 * g - 3 + n:
            return ZERO
        if not b:
            return self._psi(g, d)
        key = CorrelatorKey(g, d, b)
        with self._lock:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
            # trade the last kappa index for one extra marking; any subset S
            # of the remaining indices may merge into the new insertion,
            # with sign (-1)^|S|
            beta = b[-1]
            rest = b[:-1]
            val = ZERO
            for mask in range(1 << len(rest)):
                level = beta + 1
                sign = 1
                for i, bi in enumerate(rest):
                    if mask >> i & 1:
                        level += bi
                        sign = -sign
                kept = tuple(bi for i, bi in enumerate(rest) if not mask >> i & 1)
                val += sign * self._psi_kappa(g, tuple(sorted(d + (level,))), kept)
            return self._store(key, val)


_DEFAULT_ENGINE = CorrelatorEngine()


def default_engine() -> CorrelatorEngine:
    """Process-wide engine whose memo table is shared by all modules."""
    return _DEFAULT_ENGINE


def psi_integral(g: int, d, engine: CorrelatorEngine | None = None) -> Fraction:
    return (engine or _DEFAULT_ENGINE).psi_integral(g, d)


def psi_kappa_integral(g: int, d, b, engine: CorrelatorEngine | None = None) -> Fraction:
    return (engine or _DEFAULT_ENGINE).psi_kappa_integral(g, d, b)
