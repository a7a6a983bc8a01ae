"""Universal vanishing identities for point-target descendent correlators.

The central object is an alternating bilinear form on tuples of descendent
vector fields: a sum over genus splittings of products of two correlators,
with four delta-indexed correction terms.  Everything here is evaluated at
the origin of the coordinate space, where each double bracket collapses to
a single correlator and the shifted-coordinate sums collapse to their
level-1 term with value -1.

The form is computed on level tuples: a slot holds the level n of the
coordinate field ``tau_n``.  Unstable or dimension-violating correlators
contribute 0 silently, since the genus splittings legitimately range over
them.  Vector fields, finite rational combinations of coordinate fields,
exist only for :func:`psi_eval`: it sums, over each choice of one term per
slot (``itertools.product``), the form on the chosen levels times the
product of the chosen coefficients, skipping a zero product.

Each identity of the form (above-threshold vanishing ``conjC``, slot-swap
``symmetry``, string-field reduction ``sreduce``) is one residual function
on level tuples, exactly 0 where the identity holds; the residual of
``conjC`` is the form itself.  Every identity is checked over a grid of
level assignments by :func:`sweep_report`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .engine import ZERO, CorrelatorEngine, _exact, _integers
from .relations import VerificationReport, _report
from .strata import _Checked


class _VectorFieldPt(NamedTuple):
    terms: tuple[tuple[int, Fraction], ...]


class VectorFieldPt(_Checked, _VectorFieldPt):
    """Finite rational combination of coordinate fields, point target: terms
    (level, coefficient), a nonnegative int level, an int or Fraction coefficient."""

    __slots__ = ()

    def __new__(cls, terms: tuple[tuple[int, Fraction], ...]):
        terms = tuple(terms)
        for level, coeff in terms:
            if min(_integers("descendent level", (level,))) < 0:
                raise ValueError("negative descendent level")
            _exact(coeff)
        return super().__new__(cls, terms)

    @classmethod
    def make(cls, pairs) -> "VectorFieldPt":
        acc: dict[int, Fraction] = {}
        for level, coeff in pairs:
            _integers("descendent level", (level,))
            if _exact(coeff) == 0 or level < 0:
                continue
            acc[level] = acc.get(level, ZERO) + coeff
        return cls(tuple(sorted((lv, c) for lv, c in acc.items() if c != 0)))

    # a sum of fields, in place of the tuple's concatenation
    def __add__(self, other: "VectorFieldPt") -> "VectorFieldPt":
        return VectorFieldPt.make(self.terms + other.terms)


def tau(n: int) -> VectorFieldPt:
    """The coordinate field at descendent level n (zero field for n < 0);
    a non-integer n raises ``ValueError``."""
    return VectorFieldPt.make([(n, Fraction(1))])


def _psi_point(r: int, s: int, g: int, m: int,
               w: tuple[int, ...], v: tuple[int, ...],
               engine: CorrelatorEngine) -> Fraction:
    corr = engine._corr
    total = ZERO
    shift = sum(w) - len(w) + 2
    for k in range(0, m + 1):
        # the left factor's dimension constraint fixes its genus
        num = k + shift
        g1 = num // 3
        if num % 3 or not 0 <= g1 <= g:
            continue
        f1 = corr(g1, (k,) + w)
        if f1:
            f2 = corr(g - g1, (m - k,) + v)
            if f2:
                sign = -1 if k % 2 else 1
                total += sign * f1 * f2
    if r == 0:
        total += corr(g, (m + 2,) + v)
    if r == 1:
        total -= corr(g, (w[0] + m + 1,) + v)
    if s == 0:
        total += (-1) ** m * corr(g, (m + 2,) + w)
    if s == 1:
        total += (-1) ** (m + 1) * corr(g, w + (v[0] + m + 1,))
    return total


def _check_rsgm(r, s, g, m) -> None:
    """Refuse r, s, g, m unless each is a nonnegative int, naming the first bad one."""
    if not type(r) is type(s) is type(g) is type(m) is int:
        for name, x in zip("rsgm", (r, s, g, m)):
            _integers(name, (x,))
    if min(r, s, g, m) < 0:
        raise ValueError("r, s, g, m must be nonnegative")


def psi_eval(r: int, s: int, g: int, m: int, W, V, engine: CorrelatorEngine) -> Fraction:
    """Exact value of the alternating genus-split form at the origin.

    W and V are sequences of r and s vector fields; the result is
    multilinear in every slot.
    """
    _check_rsgm(r, s, g, m)
    W = list(W)
    V = list(V)
    if len(W) != r or len(V) != s:
        raise ValueError("slot count does not match r, s")
    total = ZERO
    for terms in itertools.product(*[field.terms for field in W + V]):
        if c := math.prod(coeff for _, coeff in terms):
            # from a list: tuples resized from a generator pile up on the free lists
            levels = tuple([level for level, _ in terms])
            total += c * _psi_point(r, s, g, m, levels[:r], levels[r:], engine)
    return total


def conjc_threshold(g: int, r: int, s: int) -> int:
    return 2 * g + r + s - 3


def _symmetry_residual(r, s, g, m, w, v, engine):
    """The form minus (-1)^m times its slot-swapped mirror."""
    return _psi_point(r, s, g, m, w, v, engine) - (-1) ** m * _psi_point(s, r, g, m, v, w, engine)


def _sreduce_residual(r, s, g, m, w, v, engine):
    """String-field reduction with the string field (level 0) in the last
    slot of w: the form minus (-(the form at m - 1 without that slot) plus
    one term per remaining slot with its level lowered by one).  A level-0
    slot lowers to the zero field, so its term is 0 and skipped."""
    rest = w[:-1]
    rhs = -_psi_point(r - 1, s, g, m - 1, rest, v, engine)
    for i, x in enumerate(rest):
        if x:
            rhs += _psi_point(r - 1, s, g, m, rest[:i] + (x - 1,) + rest[i + 1:], v, engine)
    return _psi_point(r, s, g, m, w, v, engine) - rhs


#: identity -> (residual on level tuples, levels it fixes at the end of w,
#: whether it is stated at (g, r, s, m))
IDENTITIES = {
    "conjC": (_psi_point, (), lambda g, r, s, m: m >= conjc_threshold(g, r, s)),
    "sreduce": (_sreduce_residual, (0,), lambda g, r, s, m: r >= 1 and m >= 1),
    "symmetry": (_symmetry_residual, (), lambda g, r, s, m: True),
}


def is_stated(relation: str, g: int, r: int, s: int, m: int) -> bool:
    """Whether the point-target identity ``relation`` is stated at (g, r, s, m)."""
    return IDENTITIES[relation][2](g, r, s, m)


def sweep_report(relation: str, g: int, r: int, s: int, m: int, levels,
                 engine: CorrelatorEngine) -> VerificationReport:
    """One report of a point-target identity at a tuple where it is stated
    (see :func:`is_stated`); any other tuple raises ``ValueError``.

    Every multiset of ``levels`` (ints >= 0) fills the free slots; each
    assignment is one entry, labelled ``[tau_a tau_b | tau_c]``, recording
    the residual, and the report passes iff every residual is 0.
    """
    _check_rsgm(r, s, g, m)
    levels = _integers("descendent level", levels)
    if min(levels, default=0) < 0:
        raise ValueError("negative descendent level")
    residual, fixed, stated = IDENTITIES[relation]
    if not stated(g, r, s, m):
        raise ValueError(f"{relation} is not stated at (g, r, s, m) = ({g}, {r}, {s}, {m})")

    def side(lv):
        return " ".join(f"tau_{x}" for x in lv) or "-"

    def rows():
        for w in itertools.combinations_with_replacement(levels, r - len(fixed)):
            w += fixed
            for v in itertools.combinations_with_replacement(levels, s):
                value = residual(r, s, g, m, w, v, engine)
                yield f"[{side(w)} | {side(v)}]", value, value == 0

    return _report(relation, {"g": g, "r": r, "s": s, "m": m}, rows())
