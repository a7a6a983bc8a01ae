"""Vanishing, symmetry and string-reduction identities at the origin."""

import itertools
import random
from fractions import Fraction

import pytest

from tautrr.engine import CorrelatorEngine
from tautrr.universal import (
    VectorFieldPt,
    conjc_threshold,
    psi_eval,
    sreduce_check,
    string_field_at_origin,
    sweep_report,
    symmetry_check,
    tau,
    tau_shift,
    verify_conjC,
)


@pytest.fixture(scope="module")
def engine():
    return CorrelatorEngine()


def correlator_pt(g: int, levels, engine: CorrelatorEngine) -> Fraction:
    """Point-target correlator as a total function.

    0 for unstable (g, n) or on dimension mismatch, the exact descendent
    integral otherwise.
    """
    return engine.correlator(g, levels)


def scale(field: VectorFieldPt, factor) -> VectorFieldPt:
    """The field with every coefficient times a rational factor."""
    factor = Fraction(factor)
    return VectorFieldPt.make((lv, factor * c) for lv, c in field.terms)


def test_correlator_total_function(engine):
    assert correlator_pt(0, [5, 0], engine) == 0
    assert correlator_pt(0, [0], engine) == 0
    assert correlator_pt(0, [], engine) == 0
    assert correlator_pt(1, [1, 1], engine) == Fraction(1, 24)
    assert correlator_pt(2, [4, 1], engine) == Fraction(1, 384)


def test_degenerate_rule_low_point_genus0(engine):
    rng = random.Random(1)
    for _ in range(20):
        levels = [rng.randint(0, 6) for _ in range(rng.randint(0, 2))]
        assert correlator_pt(0, levels, engine) == 0


def test_field_normalization_and_shift():
    assert tau_shift(tau(0), 3) == tau(3)
    assert not tau_shift(tau(0), -1).terms
    w = VectorFieldPt.make([(1, 2), (5, 1)])
    assert tau_shift(w, -1) == VectorFieldPt.make([(0, 2), (4, 1)])
    assert not VectorFieldPt.make([(-3, 1)]).terms
    assert string_field_at_origin() == tau(0)


def test_hand_certified_cancellation(engine):
    # the three pieces are individually nonzero and cancel exactly
    split_piece = -correlator_pt(1, [1, 1], engine) * correlator_pt(1, [1], engine)
    shift_piece = -correlator_pt(2, [4], engine)
    tail_piece = correlator_pt(2, [4, 1], engine)
    assert split_piece == Fraction(-1, 576)
    assert shift_piece == Fraction(-1, 1152)
    assert tail_piece == Fraction(1, 384)
    assert split_piece + shift_piece + tail_piece == 0
    assert psi_eval(1, 0, 2, 2, [tau(1)], [], engine) == 0


def test_hand_certified_no_slot_case(engine):
    # -<tau_1>^2 + <tau_4> + <tau_4> at genus 2, m = 2
    assert psi_eval(0, 0, 2, 2, [], [], engine) == 0


def test_hand_certified_unstable_splits(engine):
    assert psi_eval(1, 1, 1, 1, [tau(0)], [tau(0)], engine) == 0


def test_odd_m_no_slots_vanishes(engine):
    for g in range(0, 4):
        for m in range(1, 10, 2):
            assert psi_eval(0, 0, g, m, [], [], engine) == 0


def test_multilinearity(engine):
    rng = random.Random(42)
    for _ in range(5):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        w1, w2 = tau(rng.randint(0, 5)), tau(rng.randint(0, 5))
        combo = scale(w1, a) + scale(w2, b)
        other = [tau(rng.randint(0, 3))]
        v = [tau(rng.randint(0, 3))]
        g, m = rng.randint(0, 3), rng.randint(0, 6)
        lhs = psi_eval(2, 1, g, m, [combo, other[0]], v, engine)
        rhs = a * psi_eval(2, 1, g, m, [w1, other[0]], v, engine) \
            + b * psi_eval(2, 1, g, m, [w2, other[0]], v, engine)
        assert lhs == rhs


def test_zero_field_slot_gives_zero(engine):
    zero = VectorFieldPt(())
    assert psi_eval(1, 0, 2, 2, [zero], [], engine) == 0
    assert zero.render() == "0"


def test_slot_count_validation(engine):
    with pytest.raises(ValueError, match="slot count"):
        psi_eval(2, 0, 1, 1, [tau(0)], [], engine)


def test_vanishing_small_sweep(engine):
    for g in range(0, 3):
        for r in range(0, 3):
            for s in range(0, 3):
                lo = max(0, conjc_threshold(g, r, s))
                for m in range(lo, 3 * g + 4):
                    for w0 in range(0, 3):
                        for v0 in range(0, 3):
                            W = [tau(w0)] * r
                            V = [tau(v0)] * s
                            assert psi_eval(r, s, g, m, W, V, engine) == 0, (g, r, s, m)


def test_verify_conjc_report(engine):
    report = verify_conjC(2, 1, 0, 2, [tau(1)], [], engine)
    assert report.passed
    assert report.params["m"] == 2
    with pytest.raises(ValueError, match="below conjecture threshold"):
        verify_conjC(2, 1, 0, 1, [tau(1)], [], engine)


def test_symmetry_randomized(engine):
    rng = random.Random(777)
    for _ in range(30):
        g = rng.randint(0, 3)
        r = rng.randint(0, 2)
        s = rng.randint(0, 2)
        m = rng.randint(0, 8)
        W = [tau(rng.randint(0, 5)) for _ in range(r)]
        V = [tau(rng.randint(0, 5)) for _ in range(s)]
        assert symmetry_check(r, s, g, m, W, V, engine), (g, r, s, m)


def test_symmetry_antisymmetric_self_pairing(engine):
    W = [tau(2)]
    assert symmetry_check(1, 1, 2, 3, W, W, engine)
    # odd m with equal slots forces the value itself to vanish
    assert psi_eval(1, 1, 2, 3, W, W, engine) == 0


def test_sreduce_single_slot_matches_shifted_instance(engine):
    # with one slot filled by the string field the value drops one level
    for g in range(0, 3):
        for m in range(1, 3 * g + 4):
            lhs = psi_eval(1, 0, g, m, [string_field_at_origin()], [], engine)
            rhs = -psi_eval(0, 0, g, m - 1, [], [], engine)
            assert lhs == rhs, (g, m)
    assert sreduce_check(1, 0, 2, 3, [], [], engine)


def test_sreduce_randomized(engine):
    rng = random.Random(4242)
    for _ in range(25):
        g = rng.randint(0, 3)
        r = rng.randint(1, 3)
        s = rng.randint(0, 2)
        m = rng.randint(1, 8)
        W = [tau(rng.randint(0, 5)) for _ in range(r - 1)]
        V = [tau(rng.randint(0, 5)) for _ in range(s)]
        assert sreduce_check(r, s, g, m, W, V, engine), (g, r, s, m)


def test_sreduce_primary_slots_drop_the_shift_sum(engine):
    # primary (level-0) slots shift to the zero field, so only two terms
    # remain in the identity
    g, s, m = 2, 0, 4
    W = [tau(0)]
    lhs = psi_eval(2, s, g, m, W + [string_field_at_origin()], [], engine)
    rhs = -psi_eval(1, s, g, m - 1, W, [], engine)
    assert lhs == rhs
    assert sreduce_check(2, s, g, m, W, [], engine)


def test_sweep_report_rejects_a_negative_level(engine):
    # tau(-1) is the zero field, so a negative level would pass trivially
    for levels in ((-1,), (0, -1, 2)):
        with pytest.raises(ValueError, match="negative descendent level"):
            sweep_report("conjC", 1, 1, 0, 0, levels, engine)


def test_sreduce_validation(engine):
    with pytest.raises(ValueError):
        sreduce_check(0, 0, 1, 1, [], [], engine)
    with pytest.raises(ValueError):
        sreduce_check(1, 0, 1, 0, [], [], engine)
    with pytest.raises(ValueError, match="r - 1"):
        sreduce_check(1, 0, 1, 1, [tau(0)], [], engine)


def _reference_point(r, s, g, m, w, v, engine):
    """The form at coordinate slots with every split genus g1 in 0..g tried,
    each factor through the public total-function correlator."""
    corr = engine.correlator
    total = Fraction(0)
    for k in range(0, m + 1):
        sign = -1 if k % 2 else 1
        for g1 in range(0, g + 1):
            total += sign * corr(g1, (k,) + w) * corr(g - g1, (m - k,) + v)
    if r == 0:
        total += corr(g, (m + 2,) + v)
    if r == 1:
        total -= corr(g, (w[0] + m + 1,) + v)
    if s == 0:
        total += (-1) ** m * corr(g, (m + 2,) + w)
    if s == 1:
        total += (-1) ** (m + 1) * corr(g, w + (v[0] + m + 1,))
    return total


def test_derived_split_genus_matches_all_genus_reference(engine):
    slot_sets = [w for r in range(0, 4)
                 for w in itertools.combinations_with_replacement(range(0, 3), r)]
    # all-tau_0 slots make the split-genus numerator k + sum(w) - len(w) + 2
    # negative at small k; genus 0 with at most one slot splits off unstable
    # left factors
    assert min(sum(w) - len(w) + 2 for w in slot_sets) < 0
    assert (0, 0, 0) in slot_sets and () in slot_sets and (0,) in slot_sets
    nonzero = 0
    for g in range(0, 4):
        for m in range(0, 3 * g + 4):
            for w in slot_sets:
                for v in slot_sets:
                    r, s = len(w), len(v)
                    expected = _reference_point(r, s, g, m, w, v, engine)
                    value = psi_eval(r, s, g, m, [tau(x) for x in w],
                                     [tau(x) for x in v], engine)
                    assert value == expected, (g, m, w, v)
                    nonzero += expected != 0
    assert nonzero > 0
