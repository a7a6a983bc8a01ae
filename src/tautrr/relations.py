"""Builders for the boundary recursion relations and pairing-level verifiers.

Each builder returns the relation as a single class expression (left side
minus right side), which :func:`verify` pairs against every test monomial
of complementary degree, in one ``strata.pair_with_tests`` call;
:func:`verify_vyt` pairs :func:`build_vyt`, the pushforward of ``build_xi``,
the same way.  Every verifier here and the point-target
``universal.sweep_report`` share one report loop, which passes iff every
row's own check held (for a relation, that its value is exactly 0).  A
relation whose codimension exceeds the ambient dimension yields a trivial
report.

Verification here is pairing-level evidence against the psi/kappa test
family, not a Chow-ring proof; every report carries that caveat.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .engine import (ONE, CorrelatorEngine, SlotRecord, _integers, _sum_by_denominator,
                     one_point_value)
from .strata import (
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    NonSeparatingPushforward,
    SeparatingStratum,
    TestMonomial,
    enumerate_tests,
    pair_with_tests,
)

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


def _relation(ambient: AmbientSpace, degree: int, interior: list, splits=(),
              markings1=frozenset()) -> ClassExpr:
    """``interior``, a list of (Fraction, term) pairs, plus the alternating
    boundary sum: for each (g1, c) in ``splits``, in order, and node
    exponents a + b = ``degree`` - 1, c (negated at odd a) times the
    separating stratum of genera (g1, ambient genus - g1) with ``markings1``
    on the first factor and no marking decorations.  Each g1's stratum at
    a = 0 is checked; its siblings differ only in the ints (a, b) >= 0, and
    every term is a checked record of ``degree`` on ``ambient``, so they and
    the expression skip the repeat field check."""
    terms, zeros, top = list(interior), (0,) * ambient.n, degree - 1
    for g1, c in splits:
        g2, signed = ambient.g - g1, (c, -c)
        checked = SeparatingStratum(g1, g2, markings1, (0, top), zeros)
        terms += [(signed[a % 2], tuple.__new__(SeparatingStratum, (
            g1, g2, markings1, (a, top - a), zeros)) if a else checked)
            for a in range(degree)]
    return tuple.__new__(ClassExpr, (ambient, degree, tuple(terms)))


def build_bbt(g: int, r: int) -> ClassExpr:
    """Power of the first cotangent class minus its alternating boundary sum.

    On the one-marking genus-g space: psi_1^{2g+r} minus the sum over
    positive genus splittings g1 + g2 = g and node exponents a + b =
    2g - 1 + r of (-1)^a (g2/g) times the decorated separating stratum
    carrying marking 1 on the genus-g1 factor.
    """
    if min(_integers("g", (g,))) < 1 or min(_integers("r", (r,))) < 0:
        raise ValueError("need g >= 1 and r >= 0")
    ambient = AmbientSpace(g, 1)
    degree = 2 * g + r
    return _relation(ambient, degree, [(ONE, InteriorTerm((degree,)))],
                     [(g1, Fraction(g1 - g, g)) for g1 in range(1, g)], frozenset({1}))


def build_variation(g: int, n1: int, n2: int, r: int) -> ClassExpr:
    """Alternating boundary sum over all genus splittings with the first n1
    markings on one factor and the remaining n2 on the other; the relation
    asserts it vanishes."""
    if min(_integers("n1", (n1,))) < 2 or min(_integers("n2", (n2,))) < 2:
        raise ValueError("need n1 >= 2 and n2 >= 2")
    if min(_integers("g", (g,))) < 0 or min(_integers("r", (r,))) < 0:
        raise ValueError("need g >= 0 and r >= 0")
    ambient = AmbientSpace(g, n1 + n2)
    return _relation(ambient, 2 * g + n1 + n2 - 2 + r, [],
                     [(g1, ONE) for g1 in range(0, g + 1)], frozenset(range(1, n1 + 1)))


def build_fqq(g: int, r: int) -> ClassExpr:
    """Two-marking variant with its degenerate interior contributions.

    -psi_1^{2g+r} + (-1)^r psi_2^{2g+r} plus the alternating boundary sum
    over positive genus splittings separating the two markings.
    """
    if min(_integers("g", (g,))) < 1 or min(_integers("r", (r,))) < 0:
        raise ValueError("need g >= 1 and r >= 0")
    ambient = AmbientSpace(g, 2)
    degree = 2 * g + r
    interior = [(Fraction(-1), InteriorTerm((degree, 0))),
                (Fraction((-1) ** r), InteriorTerm((0, degree)))]
    return _relation(ambient, degree, interior, [(g1, ONE) for g1 in range(1, g)],
                     frozenset({1}))


def build_xi(g: int, r: int) -> ClassExpr:
    """Interior alternating sum of split cotangent powers at the two markings."""
    if min(_integers("g", (g,))) < 1 or min(_integers("r", (r,))) < 1:
        raise ValueError("need g >= 1 and r >= 1")
    ambient = AmbientSpace(g, 2)
    degree = 2 * g + r
    terms = [
        (Fraction((-1) ** a), InteriorTerm((a, degree - a)))
        for a in range(0, degree + 1)
    ]
    return _relation(ambient, degree, terms)


def build_vyt(g: int, r: int) -> ClassExpr:
    """The pushforward of :func:`build_xi` along the irreducible gluing: each
    term psi_1^a psi_2^b becomes iota[g,2](psi*1^a, psi*2^b), with the same
    coefficient, on the unmarked genus-(g+1) space, one degree higher."""
    xi = build_xi(g, r)
    return _relation(AmbientSpace(g + 1, 0), xi.degree + 1, [
        (coeff, NonSeparatingPushforward(g, term.psi_exps, ())) for coeff, term in xi.terms])


def build_vpe(g: int, r: int) -> ClassExpr:
    """Kappa class plus half the alternating unmarked boundary sum on the
    genus-(g+1) space; stated for odd r only."""
    if min(_integers("g", (g,))) < 1 or min(_integers("r", (r,))) < 1:
        raise ValueError("need g >= 1 and r >= 1")
    if r % 2 == 0:
        raise ValueError("vpe stated for odd r only")
    ambient = AmbientSpace(g + 1, 0)
    degree = 2 * g + r
    return _relation(ambient, degree, [(ONE, InteriorTerm((), (degree,)))],
                     [(g1, Fraction(1, 2)) for g1 in range(1, g + 1)])


def _report(relation: str, params: dict, rows, trivial: bool = False) -> VerificationReport:
    """A report over ``rows`` of (label, value, whether the row's own check
    held), consumed inside the timer; it passes iff every row's check held."""
    start = time.perf_counter()
    report = VerificationReport(relation, dict(params), trivial=trivial)
    for label, value, check in rows:
        report.pairings.append((label, value))
        report.passed = report.passed and check
    report.millis = int((time.perf_counter() - start) * 1000)
    return report


def _pairing_report(expr: ClassExpr, relation: str, params: dict,
                    engine: CorrelatorEngine) -> VerificationReport:
    """The body of :func:`verify`, which :func:`verify_vyt` calls as well."""
    complement = expr.ambient.dim - expr.degree

    def rows():
        tests = enumerate_tests(expr.ambient, complement) if complement >= 0 else []
        for t, value in zip(tests, pair_with_tests(expr, tests, engine)):
            yield t.render(), value, value == 0

    return _report(relation, params, rows(), trivial=complement < 0)


def verify(expr: ClassExpr, relation: str, params: dict,
           engine: CorrelatorEngine) -> VerificationReport:
    """Pair the expression against every complementary-degree test monomial;
    passes iff every pairing is exactly 0, and trivially if the expression
    degree exceeds the ambient dimension."""
    return _pairing_report(expr, relation, params, engine)


def xi_witness(g: int, r: int, engine: CorrelatorEngine) -> Fraction:
    """Integral certifying that the alternating split-power class is nonzero.

    Restricts the class, times a complementary cotangent power at marking
    2, to the stratum splitting off a genus-1 factor carrying marking 1,
    and splits into a product of two integrals.  Equals
    (1/24) * 1/(24^{g-1} (g-1)!) for every 0 <= r <= g - 2.
    """
    if min(_integers("g", (g,))) < 2 or min(_integers("r", (r,))) < 0 or r > g - 2:
        raise ValueError("witness out of range")
    ambient = AmbientSpace(g, 2)
    stratum = SeparatingStratum(1, g - 1, frozenset({1}), (0, 0), (0, 0))
    carrier = _relation(ambient, 1, [(ONE, stratum)])
    span, extra = 2 * g + r, g - 2 - r
    tests = [TestMonomial((a, span - a + extra)) for a in range(span + 1)]
    sums = {}  # denominator -> signed integer numerator of the pairings over it
    for a, value in enumerate(pair_with_tests(carrier, tests, engine)):
        sums[value.denominator] = sums.get(value.denominator, 0) + (-1) ** a * value.numerator
    return _sum_by_denominator(sums)


def xi_witness_expected(g: int) -> Fraction:
    return Fraction(1, 24) * one_point_value(g - 1)


def verify_xi_witness(g: int, r: int, engine: CorrelatorEngine) -> VerificationReport:
    """The witness integral next to its closed form; passes iff they agree, nonzero."""

    def rows():
        value = xi_witness(g, r, engine)
        expected = xi_witness_expected(g)
        yield "witness-integral", value, value == expected and value != 0
        yield "closed-form", expected, True

    return _report("xi-witness", {"g": g, "r": r}, rows())


def verify_vyt(g: int, r: int, engine: CorrelatorEngine) -> VerificationReport:
    """Pair :func:`build_vyt` against every kappa monomial, as :func:`verify` does.

    At odd r the terms (a, b) and (b, a), of opposite signs, cancel: the gluing
    is invariant under exchanging the two glued points, and the engine's sorted
    integral keys enforce that by construction."""
    return _pairing_report(build_vyt(g, r), "vyt", {"g": g, "r": r}, engine)
