"""Universal vanishing identities for point-target descendent correlators.

The central object is an alternating bilinear form on tuples of descendent
vector fields: a sum over genus splittings of products of two correlators,
with four delta-indexed correction terms.  Everything here is evaluated at
the origin of the coordinate space, where each double bracket collapses to
a single correlator and the shifted-coordinate sums collapse to their
level-1 term with value -1.

Vector fields are finite rational combinations of coordinate fields
``tau_n`` (n >= 0); terms whose level would become negative are dropped at
construction, and the form is multilinear in every slot.  Unstable or
dimension-violating correlators contribute 0 silently, since the genus
splittings legitimately range over them.

Each identity of the form (above-threshold vanishing ``conjC``, slot-swap
``symmetry``, string-field reduction ``sreduce``) is one residual function,
exactly 0 where the identity holds; the single checks and the one grid
driver :func:`sweep_report` evaluate the same residuals.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import NamedTuple

from .cache import format_rational
from .engine import CorrelatorEngine
from .relations import VerificationReport

ZERO = Fraction(0)


class VectorFieldPt(NamedTuple):
    """Finite rational combination of coordinate fields, point target."""

    terms: tuple[tuple[int, Fraction], ...]

    @classmethod
    def make(cls, pairs) -> "VectorFieldPt":
        acc: dict[int, Fraction] = {}
        for level, coeff in pairs:
            level = int(level)
            coeff = Fraction(coeff)
            if level < 0 or coeff == 0:
                continue
            acc[level] = acc.get(level, ZERO) + coeff
        return cls(tuple(sorted((lv, c) for lv, c in acc.items() if c != 0)))

    # a sum of fields, in place of the tuple's concatenation
    def __add__(self, other: "VectorFieldPt") -> "VectorFieldPt":
        return VectorFieldPt.make(self.terms + other.terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for lv, c in self.terms:
            pieces.append(f"tau_{lv}" if c == 1 else f"{format_rational(c)}*tau_{lv}")
        return " + ".join(pieces)


def tau(n: int) -> VectorFieldPt:
    """The coordinate field at descendent level n (zero field for n < 0)."""
    return VectorFieldPt.make([(n, Fraction(1))])


def tau_shift(w: VectorFieldPt, k: int) -> VectorFieldPt:
    """Shift every descendent level by k, dropping levels that go negative."""
    return VectorFieldPt.make((lv + k, c) for lv, c in w.terms)


def string_field_at_origin() -> VectorFieldPt:
    """The string vector field evaluated at the origin: the level-0 field."""
    return tau(0)


def _expand(fields) -> list[tuple[tuple[int, ...], Fraction]]:
    """Multilinear expansion of a slot tuple into coordinate level tuples."""
    out: list[tuple[tuple[int, ...], Fraction]] = [((), Fraction(1))]
    for w in fields:
        new = []
        for levels, coeff in out:
            for lv, c in w.terms:
                new.append((levels + (lv,), coeff * c))
        out = new
    return out


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


def psi_eval(r: int, s: int, g: int, m: int, W, V, engine: CorrelatorEngine) -> Fraction:
    """Exact value of the alternating genus-split form at the origin.

    W and V are sequences of r and s vector fields; the result is
    multilinear in every slot.
    """
    W = list(W)
    V = list(V)
    if len(W) != r or len(V) != s:
        raise ValueError("slot count does not match r, s")
    if min(r, s, g, m) < 0:
        raise ValueError("r, s, g, m must be nonnegative")
    total = ZERO
    for wlv, wc in _expand(W):
        for vlv, vc in _expand(V):
            c = wc * vc
            if c:
                total += c * _psi_point(r, s, g, m, wlv, vlv, engine)
    return total


def conjc_threshold(g: int, r: int, s: int) -> int:
    return 2 * g + r + s - 3


def render_slots(W, V) -> str:
    left = " ".join(w.render() for w in W) or "-"
    right = " ".join(v.render() for v in V) or "-"
    return f"[{left} | {right}]"


def _conjc_residual(r, s, g, m, W, V, engine):
    """The form itself, which vanishes at or above the conjecture threshold."""
    return psi_eval(r, s, g, m, W, V, engine)


def _symmetry_residual(r, s, g, m, W, V, engine):
    """The form minus (-1)^m times its slot-swapped mirror."""
    return psi_eval(r, s, g, m, W, V, engine) - (-1) ** m * psi_eval(s, r, g, m, V, W, engine)


def _sreduce_residual(r, s, g, m, W, V, engine):
    """String-field reduction with the string field in the last slot of W:
    the form minus (-(the form at m - 1 without that slot) plus one
    down-shift term per remaining slot)."""
    rest = W[:-1]
    lhs = psi_eval(r, s, g, m, W, V, engine)
    rhs = -psi_eval(r - 1, s, g, m - 1, rest, V, engine)
    for i in range(len(rest)):
        shifted = rest[:i] + [tau_shift(rest[i], -1)] + rest[i + 1:]
        rhs += psi_eval(r - 1, s, g, m, shifted, V, engine)
    return lhs - rhs


#: identity -> (residual, slots it fixes at the end of W, whether it is
#: stated at (g, r, s, m))
IDENTITIES = {
    "conjC": (_conjc_residual, (), lambda g, r, s, m: m >= conjc_threshold(g, r, s)),
    "sreduce": (_sreduce_residual, (string_field_at_origin(),),
                lambda g, r, s, m: r >= 1 and m >= 1),
    "symmetry": (_symmetry_residual, (), lambda g, r, s, m: True),
}


def is_stated(relation: str, g: int, r: int, s: int, m: int) -> bool:
    """Whether the point-target identity ``relation`` is stated at (g, r, s, m)."""
    return IDENTITIES[relation][2](g, r, s, m)


def verify_conjC(g: int, r: int, s: int, m: int, W, V,
                 engine: CorrelatorEngine) -> VerificationReport:
    """Check the above-threshold vanishing for one slot assignment."""
    if m < conjc_threshold(g, r, s):
        raise ValueError("below conjecture threshold")
    start = time.perf_counter()
    value = _conjc_residual(r, s, g, m, W, V, engine)
    report = VerificationReport(
        "conjC",
        {"g": g, "r": r, "s": s, "m": m, "slots": render_slots(W, V)},
        pairings=[(render_slots(W, V), value)],
        passed=(value == 0),
    )
    report.millis = int((time.perf_counter() - start) * 1000)
    return report


def symmetry_check(r: int, s: int, g: int, m: int, W, V, engine: CorrelatorEngine) -> bool:
    """Exact slot-swap symmetry: the form equals (-1)^m its mirror."""
    return _symmetry_residual(r, s, g, m, W, V, engine) == 0


def sreduce_check(r: int, s: int, g: int, m: int, W, V, engine: CorrelatorEngine) -> bool:
    """String-field reduction: filling the last of r slots with the string
    field lowers m by one, up to down-shift corrections of the other slots.

    W supplies the r - 1 remaining slots; requires m >= 1.
    """
    W = list(W)
    if r < 1:
        raise ValueError("need r >= 1")
    if m < 1:
        raise ValueError("need m >= 1")
    if len(W) != r - 1:
        raise ValueError("expected r - 1 fields in W")
    return _sreduce_residual(r, s, g, m, W + [string_field_at_origin()], V, engine) == 0


def sweep_report(relation: str, g: int, r: int, s: int, m: int, levels,
                 engine: CorrelatorEngine) -> VerificationReport:
    """One report of a point-target identity at a tuple where it is stated
    (see :func:`is_stated`).

    Every multiset of coordinate fields with levels in ``levels`` fills the
    free slots; each assignment is one entry recording the residual, and
    the report passes iff every residual is 0.
    """
    if min(r, s, g, m) < 0:
        raise ValueError("r, s, g, m must be nonnegative")
    if any(x < 0 for x in levels):
        raise ValueError("negative descendent level")
    residual, fixed, _ = IDENTITIES[relation]
    start = time.perf_counter()
    report = VerificationReport(relation, {"g": g, "r": r, "s": s, "m": m})
    for wlv in itertools.combinations_with_replacement(levels, r - len(fixed)):
        W = [tau(x) for x in wlv] + list(fixed)
        for vlv in itertools.combinations_with_replacement(levels, s):
            V = [tau(x) for x in vlv]
            report.pairings.append((render_slots(W, V), residual(r, s, g, m, W, V, engine)))
    report.passed = all(value == 0 for _, value in report.pairings)
    report.millis = int((time.perf_counter() - start) * 1000)
    return report
