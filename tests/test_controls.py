"""Negative controls: each relation must fail where it stops holding.

A pairing verifier that wrongly returned 0 would pass every relation, so
these tests pin expressions that must fail.  The paper's expression for
psi_1^k holds only for k >= 2g, so it must fail one step below.  A
relation with one term's sign flipped, or one term dropped, must fail
somewhere in its default ``tautrr verify`` sweep; the first parameter
tuple that detects each mutation is pinned.  The point-target vanishing
(conjC) must fail one step below its threshold, and the vpe expression,
stated for odd r only, must fail at even r.  The vyt verifier must fail
when one pushforward term is off, and the vyt expression with every sign
made +1 must fail at every non-trivial (g, r), odd r included.
"""

import itertools
from fractions import Fraction

import pytest

from tautrr import relations
from tautrr.cli import SWEEPS, _param_tuples, build_parser
from tautrr.engine import CorrelatorEngine
from tautrr.relations import (
    build_bbt,
    build_fqq,
    build_variation,
    build_vpe,
    build_vyt,
    build_xi,
    verify,
    verify_vyt,
)
from tautrr.strata import (
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    SeparatingStratum,
    TestMonomial,
    enumerate_tests,
    pair_with_tests,
)
from tautrr.universal import IDENTITIES, conjc_threshold

BUILDERS = {"bbt": build_bbt, "variation": build_variation, "fqq": build_fqq,
            "vpe": build_vpe}


@pytest.fixture(scope="module")
def engine():
    return CorrelatorEngine()


def boundary_terms(ambient: AmbientSpace, degree: int, weights, markings1) -> list:
    """The alternating boundary sum term by term, independently of the
    builders: for each (g1, w) in ``weights`` and node exponents a + b =
    degree - 1, (-1)^a w times the checked separating stratum of genera
    (g1, ambient genus - g1) with ``markings1`` on the first factor."""
    terms = []
    for g1, w in weights:
        for a in range(degree):
            stratum = SeparatingStratum(g1, ambient.g - g1, markings1, (a, degree - 1 - a),
                                        (0,) * ambient.n)
            terms.append(((-1) ** a * w, stratum))
    return terms


def bbt_expression(g: int, degree: int, weight=lambda g, g2: Fraction(g2, g)) -> ClassExpr:
    """psi_1^degree minus the bbt boundary sum, for any degree; the boundary
    terms carry -weight(g, g2) (-1)^a."""
    ambient = AmbientSpace(g, 1)
    boundary = boundary_terms(ambient, degree, [(g1, -weight(g, g - g1)) for g1 in range(1, g)],
                              frozenset({1}))
    return ClassExpr.make(ambient, degree, [(1, InteriorTerm((degree,)))] + boundary)


def default_tuples(relation: str) -> list[dict]:
    """The parameter tuples of ``tautrr verify RELATION`` with no options."""
    args = build_parser().parse_args(["verify", relation])
    return _param_tuples(args, SWEEPS[relation])


def test_hand_built_bbt_is_the_builder_expression():
    for g in range(1, 5):
        for r in range(0, 3):
            assert bbt_expression(g, 2 * g + r) == build_bbt(g, r)


@pytest.mark.parametrize("g, nonzero", [(2, 2), (3, 4), (4, 7)])
def test_bbt_fails_one_degree_below_the_stated_range(engine, g, nonzero):
    # k = 2g - 1, that is r = -1, which build_bbt rejects: every pairing is nonzero
    report = verify(bbt_expression(g, 2 * g - 1), "expr", {}, engine)
    assert not report.passed and not report.trivial
    assert len(report.nonzero()) == len(report.pairings) == nonzero


def _mutated(expr: ClassExpr, kind: str, index: int) -> ClassExpr:
    terms = list(expr.terms)
    if kind == "flip":
        coeff, term = terms[index]
        terms[index] = (-coeff, term)
    else:
        del terms[index]
    return ClassExpr(expr.ambient, expr.degree, tuple(terms))


# (relation, mutation, term index) -> the first default tuple whose report fails.
# bbt at g = 1 and variation at g = 0 pair trivially (degree above the
# dimension); the last vpe term at g = 1 pairs to 0 against the one test.
FIRST_DETECTION = {
    ("bbt", "flip", 0): {"g": 2, "r": 0},
    ("bbt", "flip", -1): {"g": 3, "r": 0},
    ("bbt", "drop", 0): {"g": 2, "r": 0},
    ("bbt", "drop", -1): {"g": 3, "r": 0},
    ("variation", "flip", 0): {"g": 1, "n1": 2, "n2": 2, "r": 0},
    ("variation", "flip", -1): {"g": 1, "n1": 2, "n2": 2, "r": 0},
    ("variation", "drop", 0): {"g": 1, "n1": 2, "n2": 2, "r": 0},
    ("variation", "drop", -1): {"g": 1, "n1": 2, "n2": 2, "r": 0},
    ("fqq", "flip", 0): {"g": 1, "r": 0},
    ("fqq", "flip", -1): {"g": 1, "r": 0},
    ("fqq", "drop", 0): {"g": 1, "r": 0},
    ("fqq", "drop", -1): {"g": 1, "r": 0},
    ("vpe", "flip", 0): {"g": 1, "r": 1},
    ("vpe", "flip", -1): {"g": 2, "r": 1},
    ("vpe", "drop", 0): {"g": 1, "r": 1},
    ("vpe", "drop", -1): {"g": 2, "r": 1},
}


@pytest.mark.parametrize("relation, kind, index", list(FIRST_DETECTION))
def test_mutation_fails_in_the_default_sweep(engine, relation, kind, index):
    first = None
    for params in default_tuples(relation):
        expr = BUILDERS[relation](**params)
        # the unmutated relation holds on every tuple of its default sweep
        assert verify(expr, "expr", {}, engine).passed, params
        if expr.terms and not verify(_mutated(expr, kind, index), "expr", {}, engine).passed:
            first = first or params
    assert first == FIRST_DETECTION[relation, kind, index]


def test_bbt_coefficient_swap_fails_once_the_genera_differ(engine):
    # g2/g -> g1/g changes nothing at g = 2, where g1 = g2 = 1
    swapped = lambda g, g2: Fraction(g - g2, g)
    passed = {(p["g"], p["r"]): verify(bbt_expression(p["g"], 2 * p["g"] + p["r"], swapped),
                                       "expr", {}, engine).passed
              for p in default_tuples("bbt")}
    assert passed == {
        (1, 0): True,
        (2, 0): True,
        (3, 0): False, (3, 1): False,
        (4, 0): False, (4, 1): False, (4, 2): True,
        (5, 0): False, (5, 1): False, (5, 2): False, (5, 3): False,
    }


def vpe_expression(g: int, r: int) -> ClassExpr:
    """The vpe expression for any r >= 0, term by term."""
    ambient = AmbientSpace(g + 1, 0)
    degree = 2 * g + r
    boundary = boundary_terms(ambient, degree, [(g1, Fraction(1, 2)) for g1 in range(1, g + 1)],
                              frozenset())
    return ClassExpr.make(ambient, degree, [(1, InteriorTerm((), (degree,)))] + boundary)


def test_hand_built_vpe_is_the_builder_expression():
    for g in range(1, 6):
        for r in (1, 3, 5):
            assert vpe_expression(g, r) == build_vpe(g, r)


# (g, r) -> pairings at even r, for every g <= 5 where the degree 2g + r
# fits the dimension 3g of the genus-(g+1) space; every pairing is nonzero
VPE_EVEN_R_PAIRINGS = {
    (1, 0): 1, (2, 0): 2, (3, 0): 3, (4, 0): 5, (5, 0): 7,
    (2, 2): 1, (3, 2): 1, (4, 2): 2, (5, 2): 3,
    (4, 4): 1, (5, 4): 1,
}


@pytest.mark.parametrize("g, r", list(VPE_EVEN_R_PAIRINGS))
def test_vpe_fails_at_even_r(engine, g, r):
    report = verify(vpe_expression(g, r), "expr", {}, engine)
    assert not report.passed and not report.trivial
    assert len(report.nonzero()) == len(report.pairings) == VPE_EVEN_R_PAIRINGS[g, r]


def test_conjc_fails_one_step_below_its_threshold(engine):
    # at m = threshold - 1 some slot tuple of levels 0..6 has a nonzero
    # residual, except with no slots, where the form vanishes at g = 2, 3, 4
    residual = IDENTITIES["conjC"][0]
    vanishing = {}
    for g, r, s in itertools.product(range(5), range(4), range(4)):
        m = conjc_threshold(g, r, s) - 1
        if m < 0:
            continue
        slots = itertools.product(itertools.combinations_with_replacement(range(7), r),
                                  itertools.combinations_with_replacement(range(7), s))
        if not any(residual(r, s, g, m, w, v, engine)
                   for w, v in slots):
            vanishing[g, r, s] = m
    assert vanishing == {(2, 0, 0): 0, (3, 0, 0): 2, (4, 0, 0): 4}


def test_vyt_fails_when_one_term_is_off(engine, monkeypatch):
    # at even r only the summed check runs; every row value moves by 1/7
    assert verify_vyt(3, 2, engine).passed
    exact = relations.pair_with_tests
    monkeypatch.setattr(relations, "pair_with_tests", lambda expr, tests, e: [
        value + Fraction(1, 7) for value in exact(expr, tests, e)])
    report = verify_vyt(3, 2, engine)
    assert not report.passed and not report.trivial
    assert [value for _, value in report.pairings] == [Fraction(1, 7)]


def test_vyt_without_its_signs_fails_at_every_non_trivial_tuple(engine):
    # the pushforward of xi with every coefficient +1, on an unpatched engine:
    # at odd r the swapped terms (a, b) and (b, a) now add instead of cancelling
    failing = []
    for g in range(1, 6):
        for r in range(1, g + 2):
            vyt = build_vyt(g, r)
            unsigned = ClassExpr(vyt.ambient, vyt.degree, tuple((1, t) for _, t in vyt.terms))
            assert verify_vyt(g, r, engine).passed, (g, r)
            report = verify(unsigned, "vyt", {"g": g, "r": r}, engine)
            if not report.trivial:
                assert not report.passed and report.nonzero(), (g, r)
                failing.append((g, r))
    assert len(failing) == 10 and sum(r % 2 for _, r in failing) == 6


def test_vyt_rows_are_xi_paired_with_pure_kappa_monomials(engine):
    # iota^* kappa_B = kappa_B, so each vyt row, iota_* xi against kappa_B on
    # the unmarked genus-(g+1) space, is xi against the same kappa_B on the
    # two-pointed genus-g space, paired on a separate engine: vyt tests xi
    # against pure-kappa monomials only
    other = CorrelatorEngine()
    rows = pairs = nonzero = 0
    for g in range(1, 7):
        for r in range(1, g + 2):
            report = verify_vyt(g, r, engine)
            tests = enumerate_tests(AmbientSpace(g + 1, 0), g - r - 1) if r < g else []
            assert [label for label, _ in report.pairings] == [t.render() for t in tests]
            xi, xi_tests = build_xi(g, r), [TestMonomial((0, 0), t.kappa_parts) for t in tests]
            xi_values = pair_with_tests(xi, xi_tests, other)
            assert [value for _, value in report.pairings] == xi_values, (g, r)
            rows += len(tests)
            # term by term too, where the pairings are not all 0
            vyt = build_vyt(g, r)
            for (coeff, glued), (xi_coeff, term) in zip(vyt.terms, xi.terms):
                assert xi_coeff == coeff
                values = pair_with_tests(ClassExpr(vyt.ambient, vyt.degree, ((1, glued),)),
                                         tests, engine)
                assert values == pair_with_tests(
                    ClassExpr(xi.ambient, xi.degree, ((1, term),)), xi_tests, other), (g, r)
                pairs += len(values)
                nonzero += sum(map(bool, values))
    assert rows == 26 and pairs == nonzero == 339


def test_liu_xu_alternating_sum_vanishes_exactly_above_2g(engine):
    # Liu-Xu (arXiv math/0701319), Witten-Kontsevich case: for K > 2g,
    # sum_j (-1)^j <tau_j tau_{K-j} tau_{d_1} .. tau_{d_n}>_g = 0, and K = 2g
    # is the negative control.  An odd K vanishes by j <-> K - j alone, so
    # only even K count.
    vanishing = controls = 0
    for g, n in itertools.product(range(6), range(4)):
        for d in itertools.combinations_with_replacement(range(7), n):
            K = 3 * g - 1 + n - sum(d)  # fixed by the dimension
            if K < 2 * g or K % 2:
                continue
            total = sum((-1) ** j * engine.correlator(g, (j, K - j) + d) for j in range(K + 1))
            if K > 2 * g:
                assert total == 0, (g, K, d)
                vanishing += 1
            else:
                assert total != 0, (g, K, d)
                controls += 1
    assert (vanishing, controls) == (47, 50)
