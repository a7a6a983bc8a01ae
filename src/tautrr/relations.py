"""Builders for the boundary recursion relations and pairing-level verifiers.

Each builder returns the relation as a single class expression (left side
minus right side), so one verifier covers all of them: enumerate every
test monomial of complementary degree, pair, and report.  A relation whose
codimension exceeds the ambient dimension yields a trivial report (no
pairings to check).

Verification here is pairing-level evidence against the psi/kappa test
family, not a Chow-ring proof; every report carries that caveat.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .engine import CorrelatorEngine, SlotRecord, one_point_value
from .strata import (
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    NonSeparatingPushforward,
    SeparatingStratum,
    TestMonomial,
    enumerate_tests,
    pair_with_test,
)

ZERO = Fraction(0)

PAIRING_CAVEAT = (
    "pairing-level evidence against psi/kappa test classes; "
    "not a proof of the identity in the Chow ring"
)


class VerificationReport(SlotRecord):
    """Outcome of pairing one relation instance against every test."""

    __slots__ = ("relation", "params", "pairings", "passed", "trivial", "millis", "caveat")

    def __init__(self, relation: str, params: dict,
                 pairings: list[tuple[str, Fraction]] | None = None, passed: bool = True,
                 trivial: bool = False, millis: int = 0, caveat: str = PAIRING_CAVEAT):
        self.relation = relation
        self.params = params
        self.pairings = [] if pairings is None else pairings
        self.passed = passed
        self.trivial = trivial
        self.millis = millis
        self.caveat = caveat

    def nonzero(self) -> list[tuple[str, Fraction]]:
        return [(label, value) for label, value in self.pairings if value != 0]


def _boundary_sum(ambient: AmbientSpace, genera, node_total: int, markings1,
                  coeff=lambda g2, sign: sign) -> list:
    """The alternating boundary sum as (coefficient, stratum) terms.

    Over g1 in ``genera`` and node exponents a + b = ``node_total``, in that
    order: coeff(g2, (-1)^a) times the separating stratum of genera
    (g1, g2 = ambient genus - g1) with ``markings1`` on the first factor
    and no marking decorations.
    """
    zeros = (0,) * ambient.n
    return [
        (coeff(ambient.g - g1, (-1) ** a),
         SeparatingStratum(g1, ambient.g - g1, markings1, (a, node_total - a), zeros))
        for g1 in genera for a in range(node_total + 1)
    ]


def build_bbt(g: int, r: int) -> ClassExpr:
    """Power of the first cotangent class minus its alternating boundary sum.

    On the one-marking genus-g space: psi_1^{2g+r} minus the sum over
    positive genus splittings g1 + g2 = g and node exponents a + b =
    2g - 1 + r of (-1)^a (g2/g) times the decorated separating stratum
    carrying marking 1 on the genus-g1 factor.
    """
    if g < 1 or r < 0:
        raise ValueError("need g >= 1 and r >= 0")
    ambient = AmbientSpace(g, 1)
    degree = 2 * g + r
    boundary = _boundary_sum(ambient, range(1, g), degree - 1, frozenset({1}),
                             lambda g2, sign: -Fraction(g2, g) * sign)
    return ClassExpr.make(ambient, degree, [(1, InteriorTerm((degree,)))] + boundary)


def build_variation(g: int, n1: int, n2: int, r: int) -> ClassExpr:
    """Alternating boundary sum over all genus splittings with the first n1
    markings on one factor and the remaining n2 on the other; the relation
    asserts it vanishes."""
    if n1 < 2 or n2 < 2:
        raise ValueError("need n1 >= 2 and n2 >= 2")
    if g < 0 or r < 0:
        raise ValueError("need g >= 0 and r >= 0")
    ambient = AmbientSpace(g, n1 + n2)
    node_total = 2 * g + n1 + n2 - 3 + r
    return ClassExpr.make(ambient, node_total + 1, _boundary_sum(
        ambient, range(0, g + 1), node_total, frozenset(range(1, n1 + 1))))


def build_fqq(g: int, r: int) -> ClassExpr:
    """Two-marking variant with its degenerate interior contributions.

    -psi_1^{2g+r} + (-1)^r psi_2^{2g+r} plus the alternating boundary sum
    over positive genus splittings separating the two markings.
    """
    if g < 1 or r < 0:
        raise ValueError("need g >= 1 and r >= 0")
    ambient = AmbientSpace(g, 2)
    degree = 2 * g + r
    interior = [(-1, InteriorTerm((degree, 0))), ((-1) ** r, InteriorTerm((0, degree)))]
    return ClassExpr.make(ambient, degree, interior + _boundary_sum(
        ambient, range(1, g), degree - 1, frozenset({1})))


def build_xi(g: int, r: int) -> ClassExpr:
    """Interior alternating sum of split cotangent powers at the two markings."""
    if g < 1 or r < 1:
        raise ValueError("need g >= 1 and r >= 1")
    ambient = AmbientSpace(g, 2)
    degree = 2 * g + r
    terms = [
        (Fraction((-1) ** a), InteriorTerm((a, degree - a)))
        for a in range(0, degree + 1)
    ]
    return ClassExpr.make(ambient, degree, terms)


def build_vpe(g: int, r: int) -> ClassExpr:
    """Kappa class plus half the alternating unmarked boundary sum on the
    genus-(g+1) space; stated for odd r only."""
    if g < 1 or r < 1:
        raise ValueError("need g >= 1 and r >= 1")
    if r % 2 == 0:
        raise ValueError("vpe stated for odd r only")
    ambient = AmbientSpace(g + 1, 0)
    degree = 2 * g + r
    boundary = _boundary_sum(ambient, range(1, g + 1), degree - 1, frozenset(),
                             lambda g2, sign: Fraction(sign, 2))
    return ClassExpr.make(ambient, degree, [(1, InteriorTerm((), (degree,)))] + boundary)


def verify(expr: ClassExpr, relation: str, params: dict,
           engine: CorrelatorEngine) -> VerificationReport:
    """Pair the expression against every complementary-degree test monomial.

    Passes iff every pairing is exactly 0.  If the expression degree
    exceeds the ambient dimension the report is trivially passing.
    """
    start = time.perf_counter()
    report = VerificationReport(relation, dict(params))
    complement = expr.ambient.dim - expr.degree
    if complement < 0:
        report.trivial = True
    else:
        for t in enumerate_tests(expr.ambient, complement):
            value = pair_with_test(expr, t, engine)
            report.pairings.append((t.render(), value))
        report.passed = all(value == 0 for _, value in report.pairings)
    report.millis = int((time.perf_counter() - start) * 1000)
    return report


def xi_witness(g: int, r: int, engine: CorrelatorEngine) -> Fraction:
    """Integral certifying that the alternating split-power class is nonzero.

    Restricts the class, times a complementary cotangent power at marking
    2, to the stratum splitting off a genus-1 factor carrying marking 1,
    and splits into a product of two integrals.  Equals
    (1/24) * 1/(24^{g-1} (g-1)!) for every 0 <= r <= g - 2.
    """
    if g < 2 or r < 0 or r > g - 2:
        raise ValueError("witness out of range")
    ambient = AmbientSpace(g, 2)
    stratum = SeparatingStratum(1, g - 1, frozenset({1}), (0, 0), (0, 0))
    carrier = ClassExpr.make(ambient, 1, [(Fraction(1), stratum)])
    extra = g - 2 - r
    total = ZERO
    for a in range(0, 2 * g + r + 1):
        b = 2 * g + r - a
        t = TestMonomial((a, b + extra))
        total += (-1) ** a * pair_with_test(carrier, t, engine)
    return total


def xi_witness_expected(g: int) -> Fraction:
    return Fraction(1, 24) * one_point_value(g - 1)


def verify_xi_witness(g: int, r: int, engine: CorrelatorEngine) -> VerificationReport:
    start = time.perf_counter()
    value = xi_witness(g, r, engine)
    expected = xi_witness_expected(g)
    report = VerificationReport(
        "xi-witness",
        {"g": g, "r": r},
        pairings=[("witness-integral", value), ("closed-form", expected)],
        passed=(value == expected and value != 0),
    )
    report.millis = int((time.perf_counter() - start) * 1000)
    return report


def verify_vyt(g: int, r: int, engine: CorrelatorEngine) -> VerificationReport:
    """Certify that the pushforward of the alternating split-power class
    along the irreducible gluing pairs to zero against every kappa monomial.

    For odd r the report additionally requires term-by-term cancellation
    under the marking swap (a, b) <-> (b, a).
    """
    if g < 1 or r < 1:
        raise ValueError("need g >= 1 and r >= 1")
    start = time.perf_counter()
    report = VerificationReport("vyt", {"g": g, "r": r})
    target = 2 * g + r + 1
    target_dim = 3 * (g + 1) - 3
    if target > target_dim:
        report.trivial = True
        report.millis = int((time.perf_counter() - start) * 1000)
        return report
    ambient = AmbientSpace(g + 1, 0)
    span = 2 * g + r
    term_exprs = [
        (Fraction((-1) ** a),
         ClassExpr.make(ambient, target,
                        [(Fraction(1), NonSeparatingPushforward(g, (a, span - a), ()))]))
        for a in range(0, span + 1)
    ]
    passed = True
    for t in enumerate_tests(ambient, target_dim - target):
        values = [coeff * pair_with_test(expr, t, engine) for coeff, expr in term_exprs]
        total = sum(values, ZERO)
        report.pairings.append((t.render(), total))
        if total != 0:
            passed = False
        if r % 2 == 1:
            # the swap pairs (a, b) with (b, a); their contributions must
            # cancel individually, not just in the overall sum
            for a in range(0, (span + 1) // 2):
                if values[a] + values[span - a] != 0:
                    passed = False
    report.passed = passed
    report.millis = int((time.perf_counter() - start) * 1000)
    return report
