"""Argument checks of the public entry points: each rejects bad input with a
plain ValueError whose message names the problem."""

from fractions import Fraction

import pytest

from tautrr.engine import (
    CorrelatorEngine,
    CorrelatorKey,
    genus0_closed_form,
    odd_double_factorial,
    one_point_value,
    two_point_value,
)
from tautrr.relations import (
    build_bbt,
    build_fqq,
    build_variation,
    build_vpe,
    build_xi,
    verify_vyt,
    xi_witness,
)
from tautrr.strata import (
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    NonSeparatingPushforward,
    SeparatingStratum,
    TestMonomial,
    enumerate_tests,
    pair_with_test,
)
from tautrr.universal import VectorFieldPt, psi_eval, sweep_report, tau

ENGINE = CorrelatorEngine()

#: (id, call, message); every call raises ValueError with exactly that message
INVALID = [
    ("genus0-two-markings", lambda: genus0_closed_form([0, 0]),
     "need at least three markings in genus 0"),
    ("genus0-negative-level", lambda: genus0_closed_form([-1, 1, 0]),
     "negative descendent level"),
    # the table is not read from its end, whatever was tabled before
    ("odd-double-factorial-negative", lambda: odd_double_factorial(3) and odd_double_factorial(-1),
     "negative m -1 for (2m+1)!!"),
    ("psi-negative-genus", lambda: ENGINE.psi_integral(-1, [2]),
     "genus must be nonnegative"),
    ("psi-kappa-negative-genus", lambda: ENGINE.psi_kappa_integral(-1, [], [1]),
     "genus must be nonnegative"),
    ("psi-kappa-negative-level", lambda: ENGINE.psi_kappa_integral(1, [-1], [1]),
     "negative descendent level"),
    ("bbt-genus-0", lambda: build_bbt(0, 0), "need g >= 1 and r >= 0"),
    ("variation-negative-genus", lambda: build_variation(-1, 2, 2, 0),
     "need g >= 0 and r >= 0"),
    ("fqq-genus-0", lambda: build_fqq(0, 0), "need g >= 1 and r >= 0"),
    ("xi-r-0", lambda: build_xi(1, 0), "need g >= 1 and r >= 1"),
    ("vyt-r-0", lambda: verify_vyt(1, 0, ENGINE), "need g >= 1 and r >= 1"),
    ("stratum-marking-label", lambda: SeparatingStratum(1, 1, frozenset({3}), (0, 0), (0, 0)),
     "marking label outside the ambient marking set"),
    # every SeparatingStratum check, in the order they run
    ("stratum-negative-node", lambda: SeparatingStratum(1, 1, frozenset({1}), (0, -1), (0, 0)),
     "negative decoration exponent"),
    ("stratum-negative-marking-exp",
     lambda: SeparatingStratum(1, 1, frozenset({1}), (0, 0), (0, -1)),
     "negative decoration exponent"),
    ("stratum-negative-exp-before-label",
     lambda: SeparatingStratum(1, 1, frozenset({0}), (0, 0), (-1, 0)),
     "negative decoration exponent"),
    ("stratum-marking-label-0", lambda: SeparatingStratum(1, 1, frozenset({0, 1}), (0, 0), (0, 0)),
     "marking label outside the ambient marking set"),
    ("stratum-marking-label-n-plus-1",
     lambda: SeparatingStratum(1, 1, frozenset({1, 4}), (0, 0), (0, 0, 0)),
     "marking label outside the ambient marking set"),
    ("stratum-empty-marking-exps-label",
     lambda: SeparatingStratum(1, 1, frozenset({1}), (0, 0), ()),
     "marking label outside the ambient marking set"),
    ("stratum-empty-marking-exps-negative-node",
     lambda: SeparatingStratum(1, 1, frozenset(), (-1, 0), ()),
     "negative decoration exponent"),
    ("stratum-unstable-factor-1", lambda: SeparatingStratum(0, 1, frozenset({1}), (0, 0), (0,)),
     "unstable glued factor"),
    ("stratum-unstable-factor-2",
     lambda: SeparatingStratum(1, 0, frozenset({1, 2}), (0, 0), (0, 0)),
     "unstable glued factor"),
    ("stratum-unstable-empty-marking-exps",
     lambda: SeparatingStratum(0, 1, frozenset(), (0, 0), ()),
     "unstable glued factor"),
    ("glue-negative-node", lambda: NonSeparatingPushforward(1, (-1, 0), ()),
     "negative decoration exponent"),
    ("glue-unstable-source", lambda: NonSeparatingPushforward(0, (0, 0), ()),
     "unstable gluing source"),
    ("expr-marking-count",
     lambda: ClassExpr.make(AmbientSpace(1, 2), 1, [(1, InteriorTerm((1,)))]),
     "term marking count differs from the ambient space"),
    ("expr-genera",
     lambda: ClassExpr.make(AmbientSpace(3, 1), 1,
                            [(1, SeparatingStratum(1, 1, frozenset({1}), (0, 0), (0,)))]),
     "stratum genera do not add up to the ambient genus"),
    ("tests-negative-degree", lambda: enumerate_tests(AmbientSpace(1, 1), -1),
     "degree must be nonnegative"),
    ("psi-eval-negative-genus", lambda: psi_eval(0, 0, -1, 0, [], [], ENGINE),
     "r, s, g, m must be nonnegative"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in INVALID],
                         ids=[row[0] for row in INVALID])
def test_invalid_arguments_raise_a_named_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("g1, g2, markings1, marking_exps", [
    (1, 1, frozenset(), ()),                # no markings at all
    (1, 0, frozenset(), (0, 0)),            # factor 2 stable with its node and two markings
    (0, 2, frozenset({1, 2}), (3, 0)),      # the same with the factors swapped
])
def test_valid_separating_strata_construct(g1, g2, markings1, marking_exps):
    stratum = SeparatingStratum(g1, g2, markings1, (1, 0), marking_exps)
    assert stratum.degree == 2 + sum(marking_exps)


#: (id, call, message); a non-integer genus, level or kappa index is refused
#: with a ValueError that names it, where int() used to truncate it
NON_INTEGER = [
    ("psi-genus", lambda: ENGINE.psi_integral(1.9, [1]), "non-integer genus 1.9"),
    ("psi-level", lambda: ENGINE.psi_integral(1, [1.5]), "non-integer descendent level 1.5"),
    ("psi-level-text", lambda: ENGINE.psi_integral(1, ["1"]),
     "non-integer descendent level '1'"),
    ("psi-kappa-genus", lambda: ENGINE.psi_kappa_integral(1.0, [0], [1]),
     "non-integer genus 1.0"),
    ("psi-kappa-index", lambda: ENGINE.psi_kappa_integral(1, [0], [1.7]),
     "non-integer kappa index 1.7"),
    ("correlator-level", lambda: ENGINE.correlator(1, [1.2]), "non-integer descendent level 1.2"),
    ("correlator-genus", lambda: ENGINE.correlator(1.5, [1]), "non-integer genus 1.5"),
    ("tau-level", lambda: tau(1.5), "non-integer descendent level 1.5"),
    ("tau-level-text", lambda: tau("1"), "non-integer descendent level '1'"),
    ("field-level", lambda: VectorFieldPt.make([(2.0, 1)]), "non-integer descendent level 2.0"),
    ("psi-eval-field", lambda: psi_eval(1, 0, 2, 3, [tau(1.9)], [], ENGINE),
     "non-integer descendent level 1.9"),
    # the field's own constructor used to take it, and psi_eval returned 0
    ("psi-eval-field-new", lambda: psi_eval(1, 0, 2, 0, [VectorFieldPt(((3.5, 1),))], [], ENGINE),
     "non-integer descendent level 3.5"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in NON_INTEGER],
                         ids=[row[0] for row in NON_INTEGER])
def test_non_integer_arguments_are_refused_not_truncated(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_integer_arguments_still_evaluate():
    assert ENGINE.psi_integral(1, [1]) == ENGINE.correlator(1, [1]) == Fraction(1, 24)
    assert ENGINE.psi_kappa_integral(1, [0], [1]) == Fraction(1, 24)
    assert tau(1) == VectorFieldPt(((1, Fraction(1)),))
    # the first bad argument is named: a negative genus before a float level
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        ENGINE.psi_integral(-1, [1.5])


#: (id, call taking the bad value, the name the error gives it): every record
#: field, a test monomial, psi_eval's and sweep_report's r, s, g, m, the three
#: closed-form oracles, CorrelatorKey.make, each relation builder's and
#: verifier's g, n1, n2 and r, and enumerate_tests' degree
FIELDS = [
    ("ambient-g", lambda x: AmbientSpace(x, 1), "genus"),
    ("ambient-n", lambda x: AmbientSpace(1, x), "marking count"),
    ("test-psi", lambda x: TestMonomial((x, 0)), "descendent level"),
    ("test-kappa", lambda x: TestMonomial((0,), (x,)), "kappa index"),
    # InteriorTerm((1.5, 0.5)) on the (2, 2) space used to pair to 0 against every test
    ("interior-psi", lambda x: InteriorTerm((x, 0.5)), "decoration exponent"),
    ("interior-kappa", lambda x: InteriorTerm((0,), (x,)), "kappa index"),
    ("stratum-g1", lambda x: SeparatingStratum(x, 1, frozenset({1}), (0, 0), (0,)), "genus"),
    ("stratum-g2", lambda x: SeparatingStratum(1, x, frozenset({1}), (0, 0), (0,)), "genus"),
    ("stratum-markings1", lambda x: SeparatingStratum(1, 1, frozenset({x}), (0, 0), (0,)),
     "marking label"),
    ("stratum-node", lambda x: SeparatingStratum(1, 1, frozenset({1}), (x, 0), (0,)),
     "node exponent"),
    ("stratum-marking-exps", lambda x: SeparatingStratum(1, 1, frozenset({1}), (0, 0), (x,)),
     "decoration exponent"),
    ("glue-source-g", lambda x: NonSeparatingPushforward(x, (0, 0), (0,)), "genus"),
    ("glue-node", lambda x: NonSeparatingPushforward(0, (0, x), (0,)), "node exponent"),
    ("glue-marking-exps", lambda x: NonSeparatingPushforward(0, (0, 0), (x,)),
     "decoration exponent"),
    ("expr-degree", lambda x: ClassExpr(AmbientSpace(1, 1), x, ()), "degree"),
    ("psi-eval-r", lambda x: psi_eval(x, 0, 2, 3, [tau(1)], [], ENGINE), "r"),
    ("psi-eval-s", lambda x: psi_eval(1, x, 2, 3, [tau(1)], [], ENGINE), "s"),
    ("psi-eval-g", lambda x: psi_eval(1, 0, x, 3, [tau(1)], [], ENGINE), "g"),
    ("psi-eval-m", lambda x: psi_eval(1, 0, 2, x, [tau(1)], [], ENGINE), "m"),
    # a genus of 1.5 used to give a passing symmetry report
    ("sweep-g", lambda x: sweep_report("symmetry", x, 1, 1, 3, (0, 1), ENGINE), "g"),
    ("sweep-r", lambda x: sweep_report("symmetry", 1, x, 1, 3, (0, 1), ENGINE), "r"),
    ("sweep-s", lambda x: sweep_report("symmetry", 1, 1, x, 3, (0, 1), ENGINE), "s"),
    ("sweep-m", lambda x: sweep_report("symmetry", 1, 1, 1, x, (0, 1), ENGINE), "m"),
    ("one-point-g", lambda x: one_point_value(x), "genus"),
    ("two-point-g", lambda x: two_point_value(x, 1), "genus"),
    ("two-point-a", lambda x: two_point_value(2, x), "descendent level"),
    ("genus0-level", lambda x: genus0_closed_form([0, 0, x]), "descendent level"),
    # a float r or degree used to end in a TypeError from range, and
    # build_fqq's r to be named as a decoration exponent
    ("bbt-r", lambda x: build_bbt(2, x), "r"),
    # a builder's g, n1 or n2 used to be named by the record it fed, with a
    # value the caller never passed (g + 1, n1 + n2), or to end in a TypeError
    ("bbt-g", lambda x: build_bbt(x, 1), "g"),
    ("variation-g", lambda x: build_variation(x, 2, 2, 0), "g"),
    ("variation-n1", lambda x: build_variation(1, x, 2, 0), "n1"),
    ("variation-n2", lambda x: build_variation(1, 2, x, 0), "n2"),
    ("fqq-g", lambda x: build_fqq(x, 1), "g"),
    ("xi-g", lambda x: build_xi(x, 1), "g"),
    ("vpe-g", lambda x: build_vpe(x, 1), "g"),
    ("vyt-g", lambda x: verify_vyt(x, 1, ENGINE), "g"),
    ("xi-witness-g", lambda x: xi_witness(x, 0, ENGINE), "g"),
    ("variation-r", lambda x: build_variation(1, 2, 2, x), "r"),
    ("fqq-r", lambda x: build_fqq(2, x), "r"),
    ("xi-r", lambda x: build_xi(2, x), "r"),
    ("vpe-r", lambda x: build_vpe(1, x), "r"),
    ("vyt-r", lambda x: verify_vyt(1, x, ENGINE), "r"),
    ("xi-witness-r", lambda x: xi_witness(3, x, ENGINE), "r"),
    ("tests-degree", lambda x: enumerate_tests(AmbientSpace(1, 1), x), "degree"),
    ("key-genus", lambda x: CorrelatorKey.make(x, [1]), "genus"),
    ("key-level", lambda x: CorrelatorKey.make(1, [x]), "descendent level"),
    ("key-kappa", lambda x: CorrelatorKey.make(1, [0], [x]), "kappa index"),
]


@pytest.mark.parametrize("call, bad, name", [
    pytest.param(call, bad, name, id=f"{row}-{bad!r}")
    for row, call, name in FIELDS for bad in (1.5, 2.0, "1")
])
def test_non_integer_fields_are_refused_by_name(call, bad, name):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert type(info.value) is ValueError and str(info.value) == f"non-integer {name} {bad!r}"


#: (id, call taking the bad coefficient); a coefficient that is not an int or
#: a Fraction is refused when the record is built: ClassExpr's own constructor
#: used to accept 0.5 and fail only when paired (AttributeError on
#: ``numerator``), and both ``make``s turned 0.1 into a binary fraction
COEFFICIENTS = [
    ("expr", lambda c: ClassExpr(AmbientSpace(1, 1), 1, ((c, InteriorTerm((1,))),))),
    ("expr-make", lambda c: ClassExpr.make(AmbientSpace(1, 1), 1, [(c, InteriorTerm((1,)))])),
    ("expr-make-second-term", lambda c: ClassExpr.make(
        AmbientSpace(1, 1), 1, [(1, InteriorTerm((1,))), (c, InteriorTerm((0,), (1,)))])),
    ("field-make", lambda c: VectorFieldPt.make([(1, c)])),
    ("field-make-negative-level", lambda c: VectorFieldPt.make([(-1, c)])),
    ("field-sum", lambda c: tau(1) + VectorFieldPt(((2, c),))),
    # the field's own constructor used to take it, and psi_eval returned a float
    ("psi-eval-field-new", lambda c: psi_eval(1, 0, 2, 0, [VectorFieldPt(((3, c),))], [], ENGINE)),
]


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{row}-{bad!r}")
    for row, call in COEFFICIENTS for bad in (0.5, 0.1, 1.0, True, "1/2")
])
def test_inexact_coefficients_are_refused_by_name(call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert type(info.value) is ValueError
    assert str(info.value) == f"coefficient {bad!r} is not an int or a Fraction"


def test_exact_coefficients_still_build_and_pair():
    ambient, term = AmbientSpace(1, 1), InteriorTerm((1,))
    direct = ClassExpr(ambient, 1, ((1, term),))  # an int is kept as it is
    made = ClassExpr.make(ambient, 1, [(1, term)])  # make turns it into a Fraction
    assert type(direct.terms[0][0]) is int and type(made.terms[0][0]) is Fraction
    test = TestMonomial((0,))
    half = ClassExpr(ambient, 1, ((Fraction(1, 2), term),))
    assert pair_with_test(direct, test, ENGINE) == pair_with_test(made, test, ENGINE) == \
        Fraction(1, 24) == 2 * pair_with_test(half, test, ENGINE)
    assert VectorFieldPt.make([(1, 2), (1, Fraction(-1, 2))]) == \
        VectorFieldPt(((1, Fraction(3, 2)),))
    assert VectorFieldPt.make([(1, 0)]) == VectorFieldPt(())


def test_field_records_refuse_a_negative_level():
    # make drops a negative level; the constructor, _make and _replace refuse it
    assert tau(-1) == VectorFieldPt.make([(-1, 1)]) == VectorFieldPt(())
    for build in (lambda: VectorFieldPt(((-1, 1),)), lambda: VectorFieldPt._make([((-1, 1),)]),
                  lambda: tau(1)._replace(terms=((-1, 1),))):
        with pytest.raises(ValueError, match="^negative descendent level$"):
            build()
    assert tau(1)._replace(terms=((2, 1),)) == VectorFieldPt(((2, 1),))
