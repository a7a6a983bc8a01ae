"""Negative controls: each relation must fail where it stops holding.

A pairing verifier that wrongly returned 0 would pass every relation, so
these tests pin expressions that must fail.  The paper's expression for
psi_1^k holds only for k >= 2g, so it must fail one step below.  A
relation with one term's sign flipped, or one term dropped, must fail
somewhere in its default ``tautrr verify`` sweep; the first parameter
tuple that detects each mutation is pinned.  The point-target vanishing
(conjC) must fail one step below its threshold, and the vpe expression,
stated for odd r only, must fail at even r.  The vyt verifier must fail
when one pushforward term is off, and, at odd r, when two terms are off by
amounts that cancel in the sum but not under the marking swap.
"""

import itertools
from fractions import Fraction

import pytest

from tautrr import relations
from tautrr.cli import SWEEPS, _param_tuples, build_parser
from tautrr.engine import CorrelatorEngine
from tautrr.relations import (
    _boundary_sum,
    build_bbt,
    build_fqq,
    build_variation,
    build_vpe,
    verify,
    verify_vyt,
)
from tautrr.strata import AmbientSpace, ClassExpr, InteriorTerm
from tautrr.universal import IDENTITIES, conjc_threshold, tau

BUILDERS = {"bbt": build_bbt, "variation": build_variation, "fqq": build_fqq,
            "vpe": build_vpe}


@pytest.fixture(scope="module")
def engine():
    return CorrelatorEngine()


def bbt_expression(g: int, degree: int, weight=lambda g, g2: Fraction(g2, g)) -> ClassExpr:
    """psi_1^degree minus the bbt boundary sum, for any degree; the boundary
    terms carry -weight(g, g2) (-1)^a."""
    ambient = AmbientSpace(g, 1)
    boundary = _boundary_sum(ambient, range(1, g), degree - 1, frozenset({1}),
                             lambda g2, sign: -weight(g, g2) * sign)
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
    """The vpe expression for any r >= 0, built as build_vpe builds it."""
    ambient = AmbientSpace(g + 1, 0)
    degree = 2 * g + r
    boundary = _boundary_sum(ambient, range(1, g + 1), degree - 1, frozenset(),
                             lambda g2, sign: Fraction(sign, 2))
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
        if not any(residual(r, s, g, m, [tau(x) for x in w], [tau(x) for x in v], engine)
                   for w, v in slots):
            vanishing[g, r, s] = m
    assert vanishing == {(2, 0, 0): 0, (3, 0, 0): 2, (4, 0, 0): 4}


def _perturb_vyt_terms(monkeypatch, shifts: dict):
    """Add ``shifts[a]`` to the pairing of the vyt term with node exponents
    (a, span - a), before verify_vyt signs it by (-1)^a."""
    exact = relations.pair_with_test

    def perturbed(expr, t, engine):
        a = expr.terms[0][1].node_exps[0]
        return exact(expr, t, engine) + shifts.get(a, 0)

    monkeypatch.setattr(relations, "pair_with_test", perturbed)


def test_vyt_fails_when_one_term_is_off(engine, monkeypatch):
    # at even r only the summed check runs
    assert verify_vyt(3, 2, engine).passed
    _perturb_vyt_terms(monkeypatch, {0: Fraction(1, 7)})
    report = verify_vyt(3, 2, engine)
    assert not report.passed and not report.trivial
    assert [value for _, value in report.pairings] == [Fraction(1, 7)]


def test_vyt_fails_when_the_swap_does_not_cancel_term_by_term(engine, monkeypatch):
    # at odd r the signed terms a = 0 and a = 1 move by +x and -x: the sum
    # still vanishes, but neither swap pair (0, span) nor (1, span - 1) cancels
    assert verify_vyt(2, 1, engine).passed
    _perturb_vyt_terms(monkeypatch, {0: Fraction(1, 7), 1: Fraction(1, 7)})
    report = verify_vyt(2, 1, engine)
    assert not report.passed and not report.trivial
    assert report.pairings and report.nonzero() == []
