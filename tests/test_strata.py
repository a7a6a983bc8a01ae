"""Class expressions, test enumeration, pullback expansion, exact pairing."""

import math
import random
import time
from fractions import Fraction

import pytest

from tautrr.engine import CorrelatorEngine, moduli_dim
from tautrr.strata import (
    ZERO,
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    NonSeparatingPushforward,
    SeparatingStratum,
    TestMonomial,
    _kappa_splits,
    count_tests,
    enumerate_tests,
    pair_with_test,
    pair_with_tests,
)


@pytest.fixture()
def engine():
    return CorrelatorEngine()


def pullback_test_to_separating(t: TestMonomial, s: SeparatingStratum):
    """Expand the restriction of a test monomial to a one-node stratum.

    Marking psi classes route to the factor carrying the marking; each
    kappa index restricts to (kappa on factor 1) + (kappa on factor 2), so
    a kappa multiset expands multinomially.  Returns a list of
    (factor-1 monomial, factor-2 monomial, multiplicity) with factor psi
    exponents listed by ascending original marking label (node excluded).
    """
    if len(t.psi_exps) != len(s.marking_exps):
        raise ValueError("marking referenced by the test is absent from the ambient space")
    psi1 = tuple(t.psi_exps[i - 1] for i in sorted(s.markings1))
    psi2 = tuple(t.psi_exps[i - 1] for i in sorted(s.markings2()))
    return [
        (TestMonomial(psi1, k1[::-1]), TestMonomial(psi2, k2[::-1]), Fraction(mult))
        for _, k1, k2, mult in _kappa_splits(t.kappa_parts)[1]
    ]


def swapped(s: SeparatingStratum) -> SeparatingStratum:
    """The same stratum with the two factors listed in the other order."""
    return SeparatingStratum(s.g2, s.g1, s.markings2(), s.node_exps[::-1], s.marking_exps)


def pair_pushforward_irreducible(expr: ClassExpr, kappa, engine) -> Fraction:
    """Pair the irreducible-gluing pushforward of a two-marking expression
    against a kappa monomial on the unmarked target.

    By the projection formula (kappa classes pull back unchanged along the
    gluing), this is the integral of the expression times the kappa
    monomial over the source space.  Returns 0 on degree mismatch.
    """
    if expr.ambient.n != 2:
        raise ValueError("pushforward source must carry exactly two markings")
    kappa = tuple(sorted((int(x) for x in kappa), reverse=True))
    if expr.degree + 1 + sum(kappa) != moduli_dim(expr.ambient.g + 1, 0):
        return Fraction(0)
    return pair_with_test(expr, TestMonomial((0, 0), kappa), engine)


def test_ambient_space_validation():
    assert AmbientSpace(1, 1).dim == 1
    assert AmbientSpace(2, 0).dim == 3
    with pytest.raises(ValueError, match="unstable"):
        AmbientSpace(0, 2)
    with pytest.raises(ValueError, match="unstable"):
        AmbientSpace(1, 0)


def test_enumerate_tests_degree_zero():
    assert enumerate_tests(AmbientSpace(1, 1), 0) == [TestMonomial((0,))]


def test_enumerate_tests_hand_lists():
    got = [m.render() for m in enumerate_tests(AmbientSpace(2, 1), 1)]
    assert got == ["psi_1", "kappa_1"]
    got = [m.render() for m in enumerate_tests(AmbientSpace(1, 2), 2)]
    assert got == [
        "psi_1^2", "psi_1 psi_2", "psi_2^2",
        "psi_1 kappa_1", "psi_2 kappa_1",
        "kappa_2", "kappa_1 kappa_1",
    ]


def test_enumerate_tests_unmarked_space():
    got = [m.render() for m in enumerate_tests(AmbientSpace(2, 0), 2)]
    assert got == ["kappa_2", "kappa_1 kappa_1"]


def test_enumerate_tests_lists_the_checked_constructors_records():
    # tests are built unchecked from fields sound by construction; each must
    # be the record the checked constructor gives, of that exact type
    for n in range(5):
        for degree in range(7):
            tests = enumerate_tests(AmbientSpace(4, n), degree)
            assert tests == [TestMonomial(*t) for t in tests], (n, degree)
            assert {type(t) for t in tests} == {TestMonomial}, (n, degree)
            assert all(t.degree == degree for t in tests), (n, degree)


def test_count_tests_counts_what_enumerate_tests_lists():
    for n in range(5):
        for degree in range(-1, 12):
            listed = len(enumerate_tests(AmbientSpace(4, n), degree)) if degree >= 0 else 0
            assert count_tests(n, degree, 10**6) == listed, (n, degree)
            if listed:
                # past the ceiling, the count stops at ceiling + 1
                assert count_tests(n, degree, listed - 1) == listed
                assert count_tests(n, degree, listed // 2) == listed // 2 + 1
    # p(12) = 77 and the first p(k) above 100 is p(13) = 101
    assert count_tests(0, 12, 100) == 77 and count_tests(0, 13, 100) == 101
    assert count_tests(0, 10**12, 100) == 101 and count_tests(3, 10**12, 100) == 101


def _pentagonal_count(n, degree, ceiling):
    """Reference count of the tests on a space with n markings: the sum over
    kappa degree k of the psi exponent vectors of degree ``degree - k`` times
    the partition number p(k), from Euler's pentagonal recurrence.  p never
    decreases, and every term carries p(k) at least once when n > 0, so the
    count stops at ``ceiling + 1`` once the sum or a p(k) passes the ceiling."""
    p = []
    total = 0
    for k in range(degree + 1):
        p_k = 1 if k == 0 else 0
        j = 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            p_k += sign * p[k - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= k:
                p_k += sign * p[k - j * (3 * j + 1) // 2]
            j += 1
        p.append(p_k)
        total += (math.comb(degree - k + n - 1, n - 1) if n else int(k == degree)) * p_k
        if total > ceiling or p_k > ceiling:
            return ceiling + 1
    return total


def test_count_tests_matches_the_pentagonal_count():
    # the ceiling is the CLI's 10,000 tests: at 10**6 the same grid lists
    # about 93 million tests
    for n in range(5):
        for degree in range(-1, 41):
            listed = _pentagonal_count(n, degree, 10**4)
            for ceiling in {10**4, listed - 1, listed // 2} - {-1}:
                expected = _pentagonal_count(n, degree, ceiling)
                assert count_tests(n, degree, ceiling) == expected, (n, degree, ceiling)


@pytest.mark.parametrize("n, degree", [(0, 10**12), (1, 10**6)])
def test_count_tests_stops_at_the_ceiling_on_huge_degrees(n, degree):
    start = time.perf_counter()
    assert count_tests(n, degree, 10_000) == 10_001
    assert time.perf_counter() - start < 0.5


def _recursive_tests(n, degree):
    """Reference listing: nested recursive loops in enumerate_tests' order."""
    def vectors(total, n):
        if n == 0:
            if total == 0:
                yield ()
            return
        for first in range(total, -1, -1):
            for tail in vectors(total - first, n - 1):
                yield (first,) + tail

    def partitions(total, most):
        if total == 0:
            yield ()
        for first in range(min(total, most), 0, -1):
            for tail in partitions(total - first, first):
                yield (first,) + tail

    return [TestMonomial(psi, kappa) for k in range(degree + 1)
            for psi in vectors(degree - k, n) for kappa in partitions(k, k)]


def test_enumerate_tests_matches_the_recursive_listing():
    for n in range(4):
        for degree in range(13):
            assert enumerate_tests(AmbientSpace(4, n), degree) == _recursive_tests(n, degree)


def test_pullback_routes_marking_classes():
    s = SeparatingStratum(1, 1, frozenset({1}), (0, 0), (0,))
    out = pullback_test_to_separating(TestMonomial((0,)), s)
    assert out == [(TestMonomial((0,)), TestMonomial(()), 1)]
    out = pullback_test_to_separating(TestMonomial((1,)), s)
    assert out == [(TestMonomial((1,)), TestMonomial(()), 1)]


def test_pullback_distributes_kappa():
    s = SeparatingStratum(1, 1, frozenset({1}), (0, 0), (0,))
    out = pullback_test_to_separating(TestMonomial((0,), (1,)), s)
    assert out == [
        (TestMonomial((0,), (1,)), TestMonomial(()), 1),
        (TestMonomial((0,)), TestMonomial((), (1,)), 1),
    ]
    out = pullback_test_to_separating(TestMonomial((0,), (1, 1)), s)
    assert sorted((a.kappa_parts, b.kappa_parts, c) for a, b, c in out) == [
        ((), (1, 1), 1),
        ((1,), (1,), 2),
        ((1, 1), (), 1),
    ]


def _mask_pullback(t, s):
    """Reference pullback: every subset of the kappa indices, by bit mask."""
    psi1 = tuple(t.psi_exps[i - 1] for i in sorted(s.markings1))
    psi2 = tuple(t.psi_exps[i - 1] for i in sorted(s.markings2()))
    parts = t.kappa_parts
    expansion = {}
    for mask in range(1 << len(parts)):
        k1 = tuple(sorted((p for i, p in enumerate(parts) if not mask >> i & 1), reverse=True))
        k2 = tuple(sorted((p for i, p in enumerate(parts) if mask >> i & 1), reverse=True))
        expansion[k1, k2] = expansion.get((k1, k2), 0) + 1
    return [(TestMonomial(psi1, k1), TestMonomial(psi2, k2), Fraction(mult))
            for (k1, k2), mult in expansion.items()]


def test_pullback_matches_mask_loop():
    # kappa parts descending, as enumerate_tests lists them: the same list;
    # in any other order: the same rows
    s = SeparatingStratum(1, 2, frozenset({1, 3}), (0, 0), (0, 0, 0))
    for kappa in ((), (1,), (2, 1), (1, 1), (2, 1, 1), (3, 2, 2, 1, 1, 1)):
        t = TestMonomial((2, 0, 1), kappa)
        assert pullback_test_to_separating(t, s) == _mask_pullback(t, s), kappa
    t = TestMonomial((2, 0, 1), (1, 2, 1, 3))
    row_key = lambda row: (row[0].kappa_parts, row[1].kappa_parts)
    assert sorted(pullback_test_to_separating(t, s), key=row_key) == \
        sorted(_mask_pullback(t, s), key=row_key)


def test_pullback_kappa_additivity_against_integrals(engine):
    # restriction of one kappa index to a genus split equals its pairing
    # computed on the two factors separately
    s = SeparatingStratum(1, 1, frozenset({1}), (2, 0), (0,))
    expr = ClassExpr.make(AmbientSpace(2, 1), 3, [(1, s)])
    value = pair_with_test(expr, TestMonomial((0,), (1,)), engine)
    by_hand = (
        engine.psi_kappa_integral(1, [0, 2], [1]) * engine.psi_kappa_integral(1, [0], [])
        + engine.psi_kappa_integral(1, [0, 2], []) * engine.psi_kappa_integral(1, [0], [1])
    )
    assert value == by_hand


def test_pair_zero_class(engine):
    zero = ClassExpr(AmbientSpace(2, 1), 4, ())
    assert pair_with_test(zero, TestMonomial((0,)), engine) == 0


def test_pair_separating_by_hand(engine):
    # node exponents (2, 1) on the (1,1) split of the one-marked genus-2
    # space: the splitting evaluates to (1/24) * (1/24)
    s = SeparatingStratum(1, 1, frozenset({1}), (2, 1), (0,))
    expr = ClassExpr.make(AmbientSpace(2, 1), 4, [(1, s)])
    assert pair_with_test(expr, TestMonomial((0,)), engine) == Fraction(1, 576)


def test_pair_interior_by_hand(engine):
    expr = ClassExpr.make(AmbientSpace(2, 1), 4, [(1, InteriorTerm((4,)))])
    assert pair_with_test(expr, TestMonomial((0,)), engine) == Fraction(1, 1152)


def test_pair_degree_gate(engine):
    expr = ClassExpr.make(AmbientSpace(2, 1), 4, [(1, InteriorTerm((4,)))])
    assert pair_with_test(expr, TestMonomial((1,)), engine) == 0


def test_pair_linearity(engine):
    rng = random.Random(321)
    amb = AmbientSpace(2, 1)
    e1 = ClassExpr.make(amb, 4, [(1, InteriorTerm((4,)))])
    e2 = ClassExpr.make(amb, 4, [(1, SeparatingStratum(1, 1, frozenset({1}), (2, 1), (0,)))])
    for _ in range(5):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        combined = ClassExpr.make(amb, 4, [(a, e1.terms[0][1]), (b, e2.terms[0][1])])
        t = TestMonomial((0,))
        lhs = pair_with_test(combined, t, engine)
        rhs = a * pair_with_test(e1, t, engine) + b * pair_with_test(e2, t, engine)
        assert lhs == rhs


def test_factor_swap_symmetry(engine):
    amb = AmbientSpace(3, 2)
    s = SeparatingStratum(1, 2, frozenset({1}), (2, 1), (0, 0))
    for t in enumerate_tests(amb, amb.dim - s.degree):
        v1 = pair_with_test(ClassExpr.make(amb, s.degree, [(1, s)]), t, engine)
        v2 = pair_with_test(ClassExpr.make(amb, s.degree, [(1, swapped(s))]), t, engine)
        assert v1 == v2, t


def _keys_are_sorted(engine):
    return all(list(key.psi_exps) == sorted(key.psi_exps)
               and list(key.kappa_parts) == sorted(key.kappa_parts) for key in engine.entries())


def test_interior_consistency_with_engine(engine):
    # the pairing takes the engine's internal path, which sorts nothing
    # itself, so it runs on its own engine against the public route
    rng = random.Random(5150)
    amb = AmbientSpace(2, 2)
    reference = CorrelatorEngine()
    terms = [InteriorTerm((rng.randint(0, 2), rng.randint(0, 2)), (rng.randint(1, 2),))
             for _ in range(10)]
    # two kappa parts out of order, paired against kappa tests
    terms.append(InteriorTerm((0, 0), (2, 1)))
    kappa_tests = 0
    for term in terms:
        comp = amb.dim - term.degree
        if comp < 0:
            continue
        for t in enumerate_tests(amb, comp):
            expr = ClassExpr.make(amb, term.degree, [(1, term)])
            merged = tuple(x + y for x, y in zip(term.psi_exps, t.psi_exps))
            direct = reference.psi_kappa_integral(amb.g, merged,
                                                  term.kappa_parts + t.kappa_parts)
            assert pair_with_test(expr, t, engine) == direct, (term, t)
            kappa_tests += len(term.kappa_parts) == 2 and bool(t.kappa_parts) and direct != 0
    assert kappa_tests > 0
    assert _keys_are_sorted(engine)


def test_nonseparating_pairing(engine):
    # gluing the two markings of a genus-1 surface into a genus-2 space:
    # kappa tests pull back unchanged
    amb = AmbientSpace(2, 0)
    term = NonSeparatingPushforward(1, (1, 0), ())
    expr = ClassExpr.make(amb, 2, [(1, term)])
    value = pair_with_test(expr, TestMonomial((), (1,)), engine)
    reference = CorrelatorEngine()
    assert value == reference.psi_kappa_integral(1, [1, 0], [1])
    # a gluing term with marking exponents: psi tests add to them, and the
    # node exponents follow them out of order
    amb = AmbientSpace(2, 2)
    term = NonSeparatingPushforward(1, (1, 0), (0, 1))
    expr = ClassExpr.make(amb, term.degree, [(1, term)])
    nonzero = 0
    for t in enumerate_tests(amb, amb.dim - term.degree):
        d = tuple(x + y for x, y in zip(term.marking_exps, t.psi_exps)) + term.node_exps
        direct = reference.psi_kappa_integral(term.source_g, d, t.kappa_parts)
        assert pair_with_test(expr, t, engine) == direct, t
        nonzero += direct != 0 and not t.kappa_parts
    assert nonzero > 0
    assert _keys_are_sorted(engine)


def test_pushforward_irreducible_gate_and_value(engine):
    amb = AmbientSpace(3, 2)
    terms = [
        (Fraction((-1) ** a), InteriorTerm((a, 8 - a)))
        for a in range(0, 9)
    ]
    expr = ClassExpr.make(amb, 8, terms)
    assert pair_pushforward_irreducible(expr, [], engine) == 0
    # degree mismatch pairs trivially to 0
    assert pair_pushforward_irreducible(expr, [5], engine) == 0
    zero = ClassExpr(amb, 8, ())
    assert pair_pushforward_irreducible(zero, [], engine) == 0


def test_marking_mismatch_raises(engine):
    expr = ClassExpr.make(AmbientSpace(2, 1), 4, [(1, InteriorTerm((4,)))])
    with pytest.raises(ValueError, match="absent"):
        pair_with_test(expr, TestMonomial((0, 0)), engine)
    s = SeparatingStratum(1, 1, frozenset({1}), (0, 0), (0,))
    with pytest.raises(ValueError, match="absent"):
        pullback_test_to_separating(TestMonomial((0, 0)), s)


def test_term_validation():
    with pytest.raises(ValueError, match="unstable glued factor"):
        SeparatingStratum(0, 2, frozenset({1}), (0, 0), (0, 0))
    with pytest.raises(ValueError, match="degree"):
        ClassExpr.make(AmbientSpace(2, 1), 3, [(1, InteriorTerm((4,)))])
    with pytest.raises(ValueError, match="genus"):
        ClassExpr.make(
            AmbientSpace(3, 0), 2, [(1, NonSeparatingPushforward(1, (1, 0), ()))]
        )


def test_render_grammar():
    s = SeparatingStratum(1, 2, frozenset({1, 2}), (2, 1), (0, 1, 0))
    assert s.render() == "psi_2 Delta[1,2|{1,2}](psi*1^2, psi*2^1)"
    n = NonSeparatingPushforward(1, (3, 0), ())
    assert n.render() == "iota[1,2](psi*1^3, psi*2^0)"
    expr = ClassExpr.make(AmbientSpace(2, 1), 4, [(Fraction(-1, 2), InteriorTerm((4,)))])
    assert expr.render() == "-1/2 * psi_1^4"
    assert ClassExpr(AmbientSpace(2, 1), 4, ()).render() == "0"


def _reference_pair(expr, t, engine):
    """Term-by-term pairing: the full pullback of the test for every
    separating term, every factor integral through the public call."""
    if expr.degree + t.degree != expr.ambient.dim:
        return Fraction(0)
    total = Fraction(0)
    for coeff, term in expr.terms:
        if isinstance(term, InteriorTerm):
            merged = tuple(x + y for x, y in zip(term.psi_exps, t.psi_exps))
            value = engine.psi_kappa_integral(
                expr.ambient.g, merged, term.kappa_parts + t.kappa_parts)
        elif isinstance(term, SeparatingStratum):
            deco1 = [term.marking_exps[i - 1] for i in sorted(term.markings1)]
            deco2 = [term.marking_exps[i - 1] for i in sorted(term.markings2())]
            a, b = term.node_exps
            value = Fraction(0)
            for t1, t2, mult in pullback_test_to_separating(t, term):
                d1 = [x + y for x, y in zip(deco1, t1.psi_exps)] + [a]
                f1 = engine.psi_kappa_integral(term.g1, d1, t1.kappa_parts)
                d2 = [x + y for x, y in zip(deco2, t2.psi_exps)] + [b]
                f2 = engine.psi_kappa_integral(term.g2, d2, t2.kappa_parts) if f1 else 0
                value += mult * f1 * f2
        else:
            d = tuple(x + y for x, y in zip(term.marking_exps, t.psi_exps)) + term.node_exps
            value = engine.psi_kappa_integral(term.source_g, d, t.kappa_parts)
        total += coeff * value
    return total


def _parity_expressions():
    from tautrr.relations import build_bbt, build_fqq, build_variation, build_vpe

    for g in range(1, 5):
        for r in range(0, 4):
            yield build_bbt(g, r)
    for g in range(1, 4):
        for r in range(0, 3):
            yield build_fqq(g, r)
    for g in range(0, 3):
        for n1, n2 in ((2, 2), (2, 3)):
            for r in range(0, 3):
                yield build_variation(g, n1, n2, r)
    for g in range(1, 3):
        for r in (1, 3):
            yield build_vpe(g, r)
    # a stratum next to its swapped twin and an interior term: two marking
    # splits ({1} and {2}) in one call
    s = SeparatingStratum(1, 2, frozenset({1}), (1, 0), (0, 1))
    yield ClassExpr.make(AmbientSpace(3, 2), 3, [
        (Fraction(2, 3), s), (-5, swapped(s)),
        (7, SeparatingStratum(2, 1, frozenset({1}), (0, 2), (0, 0))),
        (1, InteriorTerm((1, 1), (1,))),
    ])
    # strata that share factor 1 and the node exponent a on it share one
    # factor-1 integral; each must still contribute: the same
    # (markings1, g1, a) with different b, and one stratum listed twice
    amb = AmbientSpace(3, 2)
    twice = SeparatingStratum(1, 2, frozenset({1}), (1, 1), (0, 0))
    yield ClassExpr.make(amb, 3, [
        (3, SeparatingStratum(1, 2, frozenset({1}), (1, 0), (0, 1))), (-2, twice)])
    yield ClassExpr.make(amb, 3, [(2, twice), (Fraction(-1, 4), twice)])
    # three markings, two of them on factor 1, with marking decorations
    yield ClassExpr.make(AmbientSpace(2, 3), 4, [
        (5, SeparatingStratum(1, 1, frozenset({1, 3}), (1, 1), (1, 0, 0))),
        (Fraction(-3, 2), SeparatingStratum(1, 1, frozenset({1, 3}), (1, 0), (1, 1, 0))),
        (1, SeparatingStratum(1, 1, frozenset({1, 3}), (0, 1), (1, 0, 1))),
    ])
    # coefficients over different denominators whose contributions cancel
    yield ClassExpr.make(amb, 3, [
        (Fraction(1, 2), twice), (Fraction(1, 3), twice), (Fraction(-5, 6), twice)])
    # the plan is built per marking split: terms of split {1}, then {2},
    # then {1} again must land in the first split's groups, and one
    # marking-exponent vector splits differently on each
    amb2 = AmbientSpace(2, 2)
    yield ClassExpr.make(amb2, 3, [
        (2, SeparatingStratum(1, 1, frozenset({1}), (2, 0), (0, 0))),
        (-3, SeparatingStratum(1, 1, frozenset({2}), (1, 0), (1, 0))),
        (Fraction(5, 7), SeparatingStratum(1, 1, frozenset({1}), (0, 1), (1, 0))),
    ])
    # an empty markings1 on a marked space: factor 1 carries no test psi
    yield ClassExpr.make(amb2, 3, [
        (1, SeparatingStratum(1, 1, frozenset(), (1, 0), (0, 1))),
        (Fraction(-1, 3), SeparatingStratum(2, 0, frozenset(), (0, 1), (1, 0))),
        (4, SeparatingStratum(1, 1, frozenset({1, 2}), (0, 0), (1, 1))),
    ])
    # one (g1, deco1) group whose strata differ in deco2, at one a and at two
    yield ClassExpr.make(AmbientSpace(2, 3), 4, [
        (3, SeparatingStratum(1, 1, frozenset({1}), (1, 0), (1, 1, 0))),
        (-2, SeparatingStratum(1, 1, frozenset({1}), (1, 0), (1, 0, 1))),
        (Fraction(1, 5), SeparatingStratum(1, 1, frozenset({1}), (0, 1), (1, 0, 1))),
    ])
    # a zero coefficient, as an int and as a Fraction, next to a live term
    yield ClassExpr.make(amb, 3, [
        (0, twice), (Fraction(0), SeparatingStratum(2, 1, frozenset({1}), (0, 2), (0, 0))),
        (Fraction(3, 4), SeparatingStratum(1, 2, frozenset({1}), (1, 0), (0, 1))),
    ])


def test_pairing_matches_term_by_term_reference():
    engine, reference = CorrelatorEngine(), CorrelatorEngine()
    repeated_kappa = nonzero = 0
    for expr in _parity_expressions():
        complement = expr.ambient.dim - expr.degree
        if complement < 0:
            continue
        separating = ClassExpr(expr.ambient, expr.degree, tuple(
            (c, term) for c, term in expr.terms if isinstance(term, SeparatingStratum)))
        for t in enumerate_tests(expr.ambient, complement):
            repeated_kappa += len(set(t.kappa_parts)) < len(t.kappa_parts)
            for e in (expr, separating):
                value = pair_with_test(e, t, engine)
                assert value == _reference_pair(e, t, reference), (e.render(), t)
                nonzero += value != 0
    assert repeated_kappa > 0 and nonzero > 0
    # the same integrals were computed, under the same canonical keys
    assert engine.entries() == reference.entries()


def test_pairing_through_adopted_entries_matches_cold_reference(tmp_path):
    # an engine warmed from a checksum-matched save of the reference's psi
    # and kappa entries answers every integral from them, through the
    # memo-first lookup that sits in front of its pending table
    from tautrr.cache import SavedLines, load_engine_cache, save_engine_cache

    reference = CorrelatorEngine()
    pairs = []
    for expr in _parity_expressions():
        complement = expr.ambient.dim - expr.degree
        if complement >= 0:
            pairs += [(expr, t, _reference_pair(expr, t, reference))
                      for t in enumerate_tests(expr.ambient, complement)]
    path = tmp_path / "reference.txt"
    save_engine_cache(reference, path)
    adopted = CorrelatorEngine()
    assert type(load_engine_cache(adopted, path).entries.raw) is SavedLines
    kappa = sum(1 for key in adopted.entries() if key.kappa_parts)
    assert 0 < kappa < len(adopted.entries())
    for expr, t, value in pairs:
        assert pair_with_test(expr, t, adopted) == value, (expr.render(), t)
    assert adopted.computed == 0
    assert adopted.entries() == reference.entries()


def test_pair_with_tests_is_exported_from_the_package():
    from tautrr import pair_with_tests as exported
    assert exported is pair_with_tests


def test_pair_with_tests_matches_term_by_term_reference_over_each_test_list():
    # one call pairs an expression's whole test list, each value as the
    # term-by-term reference gives it; a test of the wrong degree pairs to 0
    engine, reference = CorrelatorEngine(), CorrelatorEngine()
    listed = 0
    for expr in _parity_expressions():
        complement = expr.ambient.dim - expr.degree
        if complement < 0:
            continue
        tests = enumerate_tests(expr.ambient, complement)
        wrong = enumerate_tests(expr.ambient, complement + 1)[-1]
        expected = [_reference_pair(expr, t, reference) for t in tests]
        assert pair_with_tests(expr, [wrong] + tests + [wrong], engine) == [0, *expected, 0], \
            expr.render()
        listed += len(tests)
    assert listed > 100
    # the same integrals were computed, under the same canonical keys
    assert engine.entries() == reference.entries()


def test_pair_with_tests_gives_the_shared_zero_and_refuses_another_marking_count(engine):
    amb = AmbientSpace(2, 1)
    expr = ClassExpr.make(amb, 3, [(1, SeparatingStratum(1, 1, frozenset({1}), (2, 0), (0,)))])
    t = TestMonomial((0,), (1,))
    assert pair_with_tests(expr, [t, t], engine) == [pair_with_test(expr, t, engine)] * 2
    assert pair_with_test(expr, t, engine) == Fraction(1, 576)
    # a wrong degree, a sum with no nonzero integral and an expression with
    # no terms give the shared ZERO
    for e, u in ((expr, TestMonomial((2,))), (expr, TestMonomial((1,))),
                 (ClassExpr(amb, 3, ()), t)):
        assert pair_with_tests(e, [u], engine)[0] is ZERO
    # an empty list builds no plan, as for a trivial report
    fresh = ClassExpr.make(amb, 3, [(1, SeparatingStratum(1, 1, frozenset({1}), (2, 0), (0,)))])
    assert pair_with_tests(fresh, [], engine) == [] and "_plan" not in vars(fresh)
    # the marking count is checked before the degree, on every test of the list
    for tests in ([TestMonomial((0, 0))], [t, TestMonomial((1, 0))]):
        with pytest.raises(ValueError, match="marking referenced by the test is absent"):
            pair_with_tests(expr, tests, engine)


#: (psi exponents, kappa parts, message) of tests that cannot be built
MALFORMED_TESTS = [
    ((0,), (0, 1), "kappa index must be positive"),
    ((-1,), (2,), "negative descendent level"),
    ((2,), (-1,), "kappa index must be positive"),
]


@pytest.mark.parametrize("term", [
    SeparatingStratum(1, 1, frozenset({1}), (2, 0), (0,)),
    InteriorTerm((0,), (3,)),
])
def test_pair_rejects_malformed_test(engine, term):
    expr = ClassExpr.make(AmbientSpace(2, 1), 3, [(1, term)])
    for psi, kappa, message in MALFORMED_TESTS:
        with pytest.raises(ValueError, match=message):
            pair_with_test(expr, TestMonomial(psi, kappa), engine)
    # a malformed test is refused when it is built, so one of the wrong
    # degree cannot reach the pairing's degree check and pair to 0
    with pytest.raises(ValueError, match="kappa index must be positive"):
        TestMonomial((0,), (0, 2))
    with pytest.raises(ValueError, match="negative descendent level"):
        TestMonomial((-1,), (0,))
    assert engine.entries() == {}


def test_separating_stratum_rejects_negative_factor_genus():
    # the factor has enough markings to pass the stability check and the
    # genera add up to the (2, 4) ambient genus, so only the genus check stops it
    for g1, g2, markings1 in ((-1, 3, {1, 2, 3, 4}), (3, -1, set())):
        with pytest.raises(ValueError, match="genus must be nonnegative"):
            SeparatingStratum(g1, g2, frozenset(markings1), (0, 0), (0, 0, 0, 0))
    assert SeparatingStratum(0, 2, frozenset({1, 2}), (0, 0), (0, 0)).g1 == 0


def test_nonseparating_pushforward_rejects_negative_source_genus():
    # (-1, 6) passes the stability check 2g - 2 + n > 0
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        NonSeparatingPushforward(-1, (0, 0), (0, 0, 0, 0))
    assert NonSeparatingPushforward(0, (0, 0), (0,)).source_g == 0


def test_interior_term_rejects_malformed_monomials():
    # InteriorTerm((-1,)) would otherwise pair against psi^2 as psi^1
    with pytest.raises(ValueError, match="negative decoration exponent"):
        InteriorTerm((-1,))
    with pytest.raises(ValueError, match="negative decoration exponent"):
        InteriorTerm((0, -2), (1,))
    for parts in ((0,), (2, -1)):
        with pytest.raises(ValueError, match="kappa index must be positive"):
            InteriorTerm((0,), parts)
    assert InteriorTerm((0, 3), (1, 2)).degree == 6


def test_pair_coerces_test_exponents_once(engine):
    # a test is checked once, when it is built: integral-valued floats are
    # refused there, not coerced by every pairing
    for psi, kappa, message in (((0.0,), (1,), "non-integer descendent level 0.0"),
                                ((0,), (1.0,), "non-integer kappa index 1.0"),
                                ((0.0,), (1.0,), "non-integer descendent level 0.0")):
        with pytest.raises(ValueError) as info:
            TestMonomial(psi, kappa)
        assert str(info.value) == message
    s = SeparatingStratum(1, 1, frozenset({1}), (2, 0), (0,))
    expr = ClassExpr.make(AmbientSpace(2, 1), 3, [(1, s), (1, InteriorTerm((3,)))])
    assert pair_with_test(expr, TestMonomial((0,), (1,)), engine) != 0
    assert all(type(x) is int for key in engine.entries()
               for x in key.psi_exps + key.kappa_parts)
