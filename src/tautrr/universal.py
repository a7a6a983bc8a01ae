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
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .cache import format_rational
from .engine import CorrelatorEngine, default_engine
from .relations import VerificationReport

ZERO = Fraction(0)


@dataclass(frozen=True)
class VectorFieldPt:
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

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "VectorFieldPt") -> "VectorFieldPt":
        return VectorFieldPt.make(self.terms + other.terms)

    def scale(self, factor) -> "VectorFieldPt":
        factor = Fraction(factor)
        return VectorFieldPt.make((lv, factor * c) for lv, c in self.terms)

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


ZERO_FIELD = VectorFieldPt(())


def tau_shift(w: VectorFieldPt, k: int) -> VectorFieldPt:
    """Shift every descendent level by k, dropping levels that go negative."""
    return VectorFieldPt.make((lv + k, c) for lv, c in w.terms)


def string_field_at_origin() -> VectorFieldPt:
    """The string vector field evaluated at the origin: the level-0 field."""
    return tau(0)


def correlator_pt(g: int, levels, engine: CorrelatorEngine | None = None) -> Fraction:
    """Point-target correlator as a total function.

    0 for unstable (g, n) or on dimension mismatch, the exact descendent
    integral otherwise.
    """
    return (engine or default_engine()).correlator(g, levels)


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


def psi_eval(r: int, s: int, g: int, m: int, W, V,
             engine: CorrelatorEngine | None = None) -> Fraction:
    """Exact value of the alternating genus-split form at the origin.

    W and V are sequences of r and s vector fields; the result is
    multilinear in every slot.
    """
    engine = engine or default_engine()
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


def verify_conjC(g: int, r: int, s: int, m: int, W, V,
                 engine: CorrelatorEngine | None = None) -> VerificationReport:
    """Check the above-threshold vanishing for one slot assignment."""
    if m < conjc_threshold(g, r, s):
        raise ValueError("below conjecture threshold")
    start = time.perf_counter()
    value = psi_eval(r, s, g, m, W, V, engine)
    report = VerificationReport(
        "conjC",
        {"g": g, "r": r, "s": s, "m": m, "slots": render_slots(W, V)},
        pairings=[(render_slots(W, V), value)],
        passed=(value == 0),
    )
    report.millis = int((time.perf_counter() - start) * 1000)
    return report


def symmetry_check(r: int, s: int, g: int, m: int, W, V,
                   engine: CorrelatorEngine | None = None) -> bool:
    """Exact slot-swap symmetry: the form equals (-1)^m its mirror."""
    lhs = psi_eval(r, s, g, m, W, V, engine)
    rhs = (-1) ** m * psi_eval(s, r, g, m, V, W, engine)
    return lhs == rhs


def sreduce_check(r: int, s: int, g: int, m: int, W, V,
                  engine: CorrelatorEngine | None = None) -> bool:
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
    lhs = psi_eval(r, s, g, m, W + [string_field_at_origin()], V, engine)
    rhs = -psi_eval(r - 1, s, g, m - 1, W, V, engine)
    for i in range(len(W)):
        shifted = W[:i] + [tau_shift(W[i], -1)] + W[i + 1:]
        rhs += psi_eval(r - 1, s, g, m, shifted, V, engine)
    return lhs == rhs


# ----------------------------------------------------------------------
# sweep reports (one report per parameter tuple; each slot assignment is
# one labelled entry)
# ----------------------------------------------------------------------


def _slot_tuples(count: int, levels) -> list[tuple[int, ...]]:
    return list(itertools.combinations_with_replacement(levels, count))


def conjc_sweep_report(g: int, r: int, s: int, m: int, levels,
                       engine: CorrelatorEngine | None = None) -> VerificationReport:
    """Vanishing check over every coordinate-field multiset with levels in
    the given range, reported as one entry per slot assignment."""
    engine = engine or default_engine()
    start = time.perf_counter()
    report = VerificationReport("conjC", {"g": g, "r": r, "s": s, "m": m})
    if m < conjc_threshold(g, r, s):
        raise ValueError("below conjecture threshold")
    for wlv in _slot_tuples(r, levels):
        W = [tau(x) for x in wlv]
        for vlv in _slot_tuples(s, levels):
            V = [tau(x) for x in vlv]
            value = psi_eval(r, s, g, m, W, V, engine)
            report.pairings.append((render_slots(W, V), value))
    report.passed = all(value == 0 for _, value in report.pairings)
    report.millis = int((time.perf_counter() - start) * 1000)
    return report


def symmetry_sweep_report(g: int, r: int, s: int, m: int, levels,
                          engine: CorrelatorEngine | None = None) -> VerificationReport:
    """Slot-swap symmetry over the same grid; entries record lhs - rhs."""
    engine = engine or default_engine()
    start = time.perf_counter()
    report = VerificationReport("symmetry", {"g": g, "r": r, "s": s, "m": m})
    for wlv in _slot_tuples(r, levels):
        W = [tau(x) for x in wlv]
        for vlv in _slot_tuples(s, levels):
            V = [tau(x) for x in vlv]
            diff = psi_eval(r, s, g, m, W, V, engine) \
                - (-1) ** m * psi_eval(s, r, g, m, V, W, engine)
            report.pairings.append((render_slots(W, V), diff))
    report.passed = all(value == 0 for _, value in report.pairings)
    report.millis = int((time.perf_counter() - start) * 1000)
    return report


def sreduce_sweep_report(g: int, r: int, s: int, m: int, levels,
                         engine: CorrelatorEngine | None = None) -> VerificationReport:
    """String-field reduction over the grid; entries record lhs - rhs."""
    engine = engine or default_engine()
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    start = time.perf_counter()
    report = VerificationReport("sreduce", {"g": g, "r": r, "s": s, "m": m})
    for wlv in _slot_tuples(r - 1, levels):
        W = [tau(x) for x in wlv]
        for vlv in _slot_tuples(s, levels):
            V = [tau(x) for x in vlv]
            lhs = psi_eval(r, s, g, m, W + [string_field_at_origin()], V, engine)
            rhs = -psi_eval(r - 1, s, g, m - 1, W, V, engine)
            for i in range(len(W)):
                shifted = W[:i] + [tau_shift(W[i], -1)] + W[i + 1:]
                rhs += psi_eval(r - 1, s, g, m, shifted, V, engine)
            report.pairings.append((render_slots(W + [string_field_at_origin()], V), lhs - rhs))
    report.passed = all(value == 0 for _, value in report.pairings)
    report.millis = int((time.perf_counter() - start) * 1000)
    return report
