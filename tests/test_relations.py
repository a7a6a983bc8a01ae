"""Relation builders and their pairing-level certification."""

from fractions import Fraction

import pytest

from tautrr import relations
from tautrr.engine import CorrelatorEngine
from tautrr.relations import (
    _report,
    build_bbt,
    build_fqq,
    build_variation,
    build_vpe,
    build_vyt,
    build_xi,
    verify,
    verify_vyt,
    verify_xi_witness,
    xi_witness,
    xi_witness_expected,
)
from tautrr.strata import (
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    NonSeparatingPushforward,
    SeparatingStratum,
    TestMonomial,
    pair_with_test,
)

ZERO = Fraction(0)


@pytest.fixture(scope="module")
def engine():
    return CorrelatorEngine()


# ----------------------------------------------------------------------
# boundary expression for the cotangent power at one marking
# ----------------------------------------------------------------------


def test_bbt_genus1_is_interior_power():
    expr = build_bbt(1, 0)
    assert len(expr.terms) == 1
    assert expr.terms[0][1] == InteriorTerm((2,))
    assert expr.degree == 2


def test_bbt_trivial_when_degree_exceeds_dimension(engine):
    report = verify(build_bbt(1, 0), "bbt", {}, engine)
    assert report.trivial and report.passed and report.pairings == []


def test_bbt_hand_certified_instance(engine):
    # both sides pair against the empty test to 1/1152: the single
    # surviving boundary term is (1/2) * (1/24) * (1/24)
    expr = build_bbt(2, 0)
    lhs = ClassExpr.make(expr.ambient, 4, [(1, InteriorTerm((4,)))])
    assert pair_with_test(lhs, TestMonomial((0,)), engine) == Fraction(1, 1152)
    boundary = ClassExpr.make(expr.ambient, 4, expr.terms[1:])
    assert pair_with_test(boundary, TestMonomial((0,)), engine) == Fraction(-1, 1152)
    report = verify(expr, "bbt", {"g": 2, "r": 0}, engine)
    assert report.passed and not report.trivial
    assert len(report.pairings) == 1


def test_bbt_sweep_small(engine):
    for g in range(1, 5):
        for r in range(0, g - 1):
            report = verify(build_bbt(g, r), "bbt", {"g": g, "r": r}, engine)
            assert report.passed and not report.trivial, (g, r)
        report = verify(build_bbt(g, g - 1), "bbt", {}, engine)
        assert report.trivial and report.passed, g


# ----------------------------------------------------------------------
# splitting sums with markings on both sides
# ----------------------------------------------------------------------


def test_variation_rejects_single_markings():
    with pytest.raises(ValueError):
        build_variation(1, 1, 2, 0)
    with pytest.raises(ValueError):
        build_variation(1, 2, 1, 0)


def test_variation_small_sweep(engine):
    for g in range(0, 3):
        for r in range(0, 2):
            report = verify(
                build_variation(g, 2, 2, r), "variation",
                {"g": g, "r": r}, engine,
            )
            assert report.passed, (g, r)


def test_variation_degree_gate(engine):
    # 2g + n1 + n2 - 2 + r beyond the dimension yields a trivial report
    report = verify(build_variation(0, 2, 2, 0), "variation", {}, engine)
    assert report.trivial and report.passed


def test_fqq_genus1_marking_exchange(engine):
    expr = build_fqq(1, 0)
    assert len(expr.terms) == 2
    report = verify(expr, "fqq", {}, engine)
    assert report.passed and not report.trivial


def test_fqq_nontrivial_instance_tests(engine):
    report = verify(build_fqq(2, 0), "fqq", {"g": 2, "r": 0}, engine)
    assert report.passed and not report.trivial
    assert [label for label, _ in report.pairings] == ["psi_1", "psi_2", "kappa_1"]


def test_fqq_trivial_instance(engine):
    report = verify(build_fqq(1, 1), "fqq", {}, engine)
    assert report.trivial and report.passed


def test_fqq_sweep_small(engine):
    for g in range(1, 4):
        for r in range(0, 3):
            report = verify(build_fqq(g, r), "fqq", {"g": g, "r": r}, engine)
            assert report.passed, (g, r)


# ----------------------------------------------------------------------
# the alternating split-power class and its pushforward
# ----------------------------------------------------------------------


def test_xi_shape():
    expr = build_xi(3, 2)
    assert expr.degree == 8 and expr.ambient == AmbientSpace(3, 2)
    assert len(expr.terms) == 9
    with pytest.raises(ValueError):
        build_xi(1, 0)


def test_xi_odd_r_antisymmetry():
    expr = build_xi(2, 1)
    coeffs = {term.psi_exps: coeff for coeff, term in expr.terms}
    for (a, b), coeff in coeffs.items():
        assert coeffs[(b, a)] == -coeff


def test_xi_witness_values(engine):
    assert xi_witness(2, 0, engine) == Fraction(1, 576)
    assert xi_witness(3, 0, engine) == Fraction(1, 27648)
    assert xi_witness(4, 2, engine) == Fraction(1, 1990656)


def test_xi_witness_closed_form_sweep(engine):
    for g in range(2, 6):
        for r in range(0, g - 1):
            assert xi_witness(g, r, engine) == xi_witness_expected(g), (g, r)


def test_xi_witness_closed_form_through_genus_10(engine):
    # the witness pairs its 2g + r + 1 tests in one call and sums them once
    for g in range(2, 11):
        for r in range(0, g - 1):
            assert xi_witness(g, r, engine) == xi_witness_expected(g) != 0, (g, r)


def test_xi_witness_out_of_range(engine):
    with pytest.raises(ValueError, match="witness out of range"):
        xi_witness(3, 2, engine)
    with pytest.raises(ValueError, match="witness out of range"):
        xi_witness(1, 0, engine)


def test_xi_witness_report(engine):
    report = verify_xi_witness(3, 0, engine)
    assert report.passed
    assert dict(report.pairings) == {
        "witness-integral": Fraction(1, 27648),
        "closed-form": Fraction(1, 27648),
    }


def test_report_passes_iff_every_row_check_held():
    # the report reads only the rows' own checks; a verifier puts value == 0
    # into its check, and the xi-witness closed-form row checks nothing
    assert _report("r", {}, [("a", Fraction(1, 3), True), ("b", ZERO, True)]).passed
    assert not _report("r", {}, [("a", ZERO, True), ("b", ZERO, False)]).passed
    assert _report("r", {}, (), trivial=True).passed


@pytest.mark.parametrize("value, expected, passed", [
    (Fraction(1, 7), Fraction(1, 7), True),
    (Fraction(1, 7), Fraction(1, 8), False),
    (ZERO, ZERO, False),  # a witness must be nonzero
])
def test_xi_witness_report_checks_the_witness_row(monkeypatch, engine, value, expected, passed):
    monkeypatch.setattr(relations, "xi_witness", lambda g, r, engine: value)
    monkeypatch.setattr(relations, "xi_witness_expected", lambda g: expected)
    report = verify_xi_witness(3, 0, engine)
    assert report.passed is passed and not report.trivial
    assert report.pairings == [("witness-integral", value), ("closed-form", expected)]


def test_vyt_flagship_two_point_sum(engine):
    report = verify_vyt(3, 2, engine)
    assert report.passed and not report.trivial
    assert report.pairings == [("1", 0)]
    # nontriviality: the alternating sum cancels between individually
    # nonzero summands
    summands = [(-1) ** a * engine.psi_integral(3, [a, 8 - a]) for a in range(9)]
    assert sum(summands) == 0
    assert sum(1 for v in summands if v != 0) >= 2


def test_vyt_trivial_cases(engine):
    assert verify_vyt(1, 1, engine).trivial
    assert verify_vyt(2, 2, engine).trivial


def test_vyt_trivial_report_is_empty_and_passing(engine):
    for g, r in ((1, 1), (2, 2), (3, 5)):
        report = verify_vyt(g, r, engine)
        assert (report.trivial, report.passed, report.pairings) == (True, True, []), (g, r)


def test_vyt_sweep(engine):
    for g in range(1, 5):
        for r in range(1, g + 2):
            report = verify_vyt(g, r, engine)
            assert report.passed, (g, r)
            assert report.trivial == (2 * g + r + 1 > 3 * g), (g, r)


def test_vyt_expression_is_the_pushforward_of_xi():
    for g in range(1, 5):
        for r in range(1, g + 2):
            xi, vyt = build_xi(g, r), build_vyt(g, r)
            assert vyt.ambient == AmbientSpace(g + 1, 0) and vyt.degree == xi.degree + 1
            assert vyt.terms == tuple((c, NonSeparatingPushforward(g, term.psi_exps, ()))
                                      for c, term in xi.terms)
            assert [type(c) for c, _ in vyt.terms] == [Fraction] * (2 * g + r + 1)


def test_vyt_report_is_the_verify_report_of_its_expression(engine):
    # verify_vyt is verify's pairing loop on build_vyt, with its own name and params
    for g in range(1, 6):
        for r in range(1, g + 2):
            params = {"g": g, "r": r}
            report = verify_vyt(g, r, engine)
            expected = verify(build_vyt(g, r), "vyt", params, engine)
            report.millis = expected.millis = 0
            assert report == expected, (g, r)


def test_vyt_takes_no_integral_beside_the_pairing(monkeypatch):
    # every value comes from the pairing layer; the public per-term route is
    # never asked, so a broken one cannot move a report
    engine = CorrelatorEngine()

    def refuse(*args):
        raise AssertionError("psi_kappa_integral called")

    monkeypatch.setattr(engine, "psi_kappa_integral", refuse)
    for g, r in ((2, 1), (3, 2), (4, 1), (4, 3)):
        report = verify_vyt(g, r, engine)
        assert report.passed and not report.trivial, (g, r)


# ----------------------------------------------------------------------
# the unmarked kappa relation
# ----------------------------------------------------------------------


def test_vpe_requires_odd_r():
    with pytest.raises(ValueError, match="odd"):
        build_vpe(2, 2)


def test_vpe_first_instance_by_hand(engine):
    # kappa_3 pairs to 1/1152 and the halved boundary sum to -1/1152
    expr = build_vpe(1, 1)
    kappa_part = ClassExpr.make(expr.ambient, 3, expr.terms[:1])
    boundary = ClassExpr.make(expr.ambient, 3, expr.terms[1:])
    empty = TestMonomial(())
    assert pair_with_test(kappa_part, empty, engine) == Fraction(1, 1152)
    assert pair_with_test(boundary, empty, engine) == Fraction(-1, 1152)
    report = verify(expr, "vpe", {}, engine)
    assert report.passed and not report.trivial


def test_vpe_sweep(engine):
    for g in range(1, 4):
        for r in (1, 3):
            report = verify(build_vpe(g, r), "vpe", {"g": g, "r": r}, engine)
            assert report.passed, (g, r)


def test_verify_zero_class(engine):
    amb = AmbientSpace(2, 1)
    report = verify(ClassExpr(amb, 2, ()), "zero", {}, engine)
    assert report.passed and not report.trivial
    assert all(value == 0 for _, value in report.pairings)


def test_report_detects_failure(engine):
    # a deliberately wrong relation must fail: psi_1^4 alone is not a
    # boundary class
    expr = ClassExpr.make(AmbientSpace(2, 1), 4, [(1, InteriorTerm((4,)))])
    report = verify(expr, "wrong", {}, engine)
    assert not report.passed
    assert report.nonzero() == [("1", Fraction(1, 1152))]


@pytest.mark.parametrize("relation", ["bbt", "variation", "fqq", "vpe"])
def test_boundary_strata_are_the_checked_constructors_records(relation):
    # the builders check one stratum per genus split and build its node
    # siblings unchecked; each must be the record the checked constructor gives
    from tautrr import cli

    sweep = cli.SWEEPS[relation]
    args = cli.build_parser().parse_args(["verify", relation])
    built = 0
    for params in cli._param_tuples(args, sweep):
        expr = getattr(relations, f"build_{relation}")(**params)
        for _, term in expr.terms:
            if not isinstance(term, InteriorTerm):
                assert type(term) is SeparatingStratum, params
                assert term == SeparatingStratum(*term), params
                built += 1
    assert built > 0


#: the ranges of the benchmark's cold pairing sweeps, run with --force
PAIRING_RANGES = {"bbt": "1..7", "variation": "0..5", "fqq": "1..6", "vyt": "1..6",
                  "vpe": "1..6", "xi-witness": "2..8"}


@pytest.mark.parametrize("relation", list(PAIRING_RANGES))
def test_builder_expressions_are_the_checked_constructors(relation, engine, monkeypatch):
    # builders assemble checked terms and skip ClassExpr's repeat field check;
    # each expression must be the one the checked constructor gives, of that
    # exact type, with Fraction coefficients as ClassExpr.make gives them
    from tautrr import cli

    carriers = []
    pair_with_tests = relations.pair_with_tests
    monkeypatch.setattr(relations, "pair_with_tests", lambda expr, tests, e: (
        carriers.append(expr) or pair_with_tests(expr, tests, e)))

    def carrier(g, r):
        carriers.clear()
        xi_witness(g, r, engine)
        return carriers.pop()

    builders = {"bbt": [build_bbt], "variation": [build_variation], "fqq": [build_fqq],
                "vyt": [build_xi, build_vyt], "vpe": [build_vpe],
                "xi-witness": [carrier]}[relation]
    built = 0
    for argv in ([relation], [relation, "--g", PAIRING_RANGES[relation], "--force"]):
        args = cli.build_parser().parse_args(["verify", *argv])
        for params in cli._param_tuples(args, cli.SWEEPS[relation]):
            for build in builders:
                expr = build(**params)
                checked = ClassExpr(expr.ambient, expr.degree, expr.terms)
                assert type(expr) is ClassExpr and expr == checked, (build, params)
                assert type(expr.terms) is tuple, (build, params)
                assert {type(coeff) for coeff, _ in expr.terms} == {Fraction}, (build, params)
                assert expr._plan == checked._plan, (build, params)
                built += 1
    assert built > 0
