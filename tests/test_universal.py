"""Vanishing, symmetry and string-reduction identities at the origin."""

import gc
import itertools
import platform
import random
import sys
from fractions import Fraction

import pytest

from tautrr.engine import CorrelatorEngine
from tautrr.universal import (
    VectorFieldPt,
    conjc_threshold,
    is_stated,
    psi_eval,
    sweep_report,
    tau,
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
    assert not VectorFieldPt.make([(-3, 1)]).terms


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
    from tautrr import engine as engine_module, strata, universal

    zero = VectorFieldPt(())
    # every module returns the one zero the engine defines
    assert strata.ZERO is universal.ZERO is engine_module.ZERO
    assert psi_eval(1, 0, 2, 2, [zero], [], engine) is engine_module.ZERO
    # a zero-coefficient term is skipped before any correlator is read
    zero_coeff = VectorFieldPt(((3, Fraction(0)),))
    before = engine.computed, len(engine._memo)
    assert psi_eval(1, 1, 1, 0, [zero_coeff], [tau(0) + tau(1)], engine) is engine_module.ZERO
    assert (engine.computed, len(engine._memo)) == before


def test_one_shot_iterable_slots(engine):
    W, V = [tau(1) + tau(2)], [tau(0) + tau(1)]
    assert psi_eval(1, 1, 1, 0, W, V, engine) == Fraction(-1, 12)
    assert psi_eval(1, 1, 1, 0, iter(W), (f for f in V), engine) == Fraction(-1, 12)


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


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="reads CPython's allocated-block count")
def test_warm_psi_eval_pass_leaves_no_tuples_on_the_free_lists():
    # a tuple grown from a generator is resized, and the resized tuples fill
    # CPython's tuple free lists: a warm pass then leaves about 4,500 more
    # allocated blocks, against about 100 for tuples built from a list
    engine = CorrelatorEngine()
    fields = {k: [[tau(x) for x in levels]
                  for levels in itertools.combinations_with_replacement(range(5), k)]
              for k in range(3)}
    grid = [(r, s, g, m, W, V) for g in range(2) for m in range(3 * g + 4)
            for r in range(3) for s in range(3) for W in fields[r] for V in fields[s]]
    assert len(grid) == 4851
    for r, s, g, m, W, V in grid:
        psi_eval(r, s, g, m, W, V, engine)
    gc.collect()
    before = sys.getallocatedblocks()
    for r, s, g, m, W, V in grid:
        psi_eval(r, s, g, m, W, V, engine)
    assert sys.getallocatedblocks() - before < 1000


def test_symmetry_randomized(engine):
    rng = random.Random(777)
    for _ in range(30):
        g = rng.randint(0, 3)
        r = rng.randint(0, 2)
        s = rng.randint(0, 2)
        m = rng.randint(0, 8)
        W = [tau(rng.randint(0, 5)) for _ in range(r)]
        V = [tau(rng.randint(0, 5)) for _ in range(s)]
        mirror = psi_eval(s, r, g, m, V, W, engine)
        assert psi_eval(r, s, g, m, W, V, engine) == (-1) ** m * mirror, (g, r, s, m)


def test_symmetry_antisymmetric_self_pairing(engine):
    W = [tau(2)]
    assert sweep_report("symmetry", 2, 1, 1, 3, (2,), engine).passed
    # odd m with equal slots forces the value itself to vanish
    assert psi_eval(1, 1, 2, 3, W, W, engine) == 0


def test_sreduce_single_slot_matches_shifted_instance(engine):
    # with one slot filled by the string field the value drops one level
    for g in range(0, 3):
        for m in range(1, 3 * g + 4):
            lhs = psi_eval(1, 0, g, m, [tau(0)], [], engine)
            rhs = -psi_eval(0, 0, g, m - 1, [], [], engine)
            assert lhs == rhs, (g, m)
    assert sweep_report("sreduce", 2, 1, 0, 3, (0,), engine).passed


def test_sreduce_randomized(engine):
    rng = random.Random(4242)
    for _ in range(25):
        g = rng.randint(0, 3)
        r = rng.randint(1, 3)
        s = rng.randint(0, 2)
        m = rng.randint(1, 8)
        levels = tuple(rng.sample(range(0, 6), 2))
        report = sweep_report("sreduce", g, r, s, m, levels, engine)
        assert report.passed and report.pairings, (g, r, s, m, levels)


def test_sreduce_primary_slots_drop_the_shift_sum(engine):
    # primary (level-0) slots shift to the zero field, so only two terms
    # remain in the identity
    g, s, m = 2, 0, 4
    W = [tau(0)]
    lhs = psi_eval(2, s, g, m, W + [tau(0)], [], engine)
    rhs = -psi_eval(1, s, g, m - 1, W, [], engine)
    assert lhs == rhs
    assert sweep_report("sreduce", g, 2, s, m, (0,), engine).passed


def test_sweep_report_rejects_a_negative_level(engine):
    # tau(-1) is the zero field, so a negative level would pass trivially
    for levels in ((-1,), (0, -1, 2)):
        with pytest.raises(ValueError, match="negative descendent level"):
            sweep_report("conjC", 1, 1, 0, 0, levels, engine)


@pytest.mark.parametrize("levels", [(1.5,), ("1",), (0, 2.0)])
def test_sweep_report_rejects_a_non_integer_level(engine, levels):
    # a float level must not be read as its integer part (rows for tau_1)
    with pytest.raises(ValueError, match="non-integer descendent level"):
        sweep_report("conjC", 2, 1, 0, 2, levels, engine)


@pytest.mark.parametrize("relation,g,r,s,m", [
    ("conjC", 1, 1, 1, 0),  # below the threshold 1: a failing report, not a counterexample
    ("sreduce", 1, 0, 0, 1),  # no W slot for the string field
    ("sreduce", 1, 1, 0, 0),  # the reduction steps down to m = -1
])
def test_sweep_report_refuses_a_tuple_where_the_identity_is_not_stated(engine, relation,
                                                                       g, r, s, m):
    levels = (0, 1, 2) if relation == "conjC" else (0,)
    with pytest.raises(ValueError) as caught:
        sweep_report(relation, g, r, s, m, levels, engine)
    assert str(caught.value) == f"{relation} is not stated at (g, r, s, m) = ({g}, {r}, {s}, {m})"


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


def _field_residuals(levels, engine):
    """The symmetry and sreduce residuals through psi_eval on vector fields,
    over slots that are lists of ``field[x]``: the string field tau(0) in
    the last slot of W, and each down-shift built by VectorFieldPt.make, so
    a level-0 slot lowers to the zero field.  psi_eval values are memoized,
    since the symmetry mirror of one tuple is the form of another; every
    field lives in ``field`` or ``down`` for the whole sweep, so the key
    holds field ids (hashing their Fractions would cost more than the form)."""
    field = {x: tau(x) for x in levels}
    down = {id(f): VectorFieldPt.make((lv - 1, c) for lv, c in f.terms) for f in field.values()}
    memo = {}

    def form(r, s, g, m, W, V):
        key = (r, s, g, m, *map(id, W), None, *map(id, V))
        if key not in memo:
            memo[key] = psi_eval(r, s, g, m, W, V, engine)
        return memo[key]

    def symmetry(r, s, g, m, W, V):
        return form(r, s, g, m, W, V) - (-1) ** m * form(s, r, g, m, V, W)

    def sreduce(r, s, g, m, W, V):
        rest = W[:-1]
        rhs = -form(r - 1, s, g, m - 1, rest, V)
        for i, f in enumerate(rest):
            rhs += form(r - 1, s, g, m, rest[:i] + [down[id(f)]] + rest[i + 1:], V)
        return form(r, s, g, m, W, V) - rhs

    return field, {"symmetry": symmetry, "sreduce": sreduce}


def test_sweeps_on_levels_match_the_field_route(engine):
    levels = tuple(range(5))
    field, residuals = _field_residuals(levels, engine)
    fixed = {"symmetry": (), "sreduce": (0,)}
    primary_free_slots = 0
    for relation, residual in residuals.items():
        for g, r, s in itertools.product(range(4), repeat=3):
            for m in range(3 * g + 4):
                if not is_stated(relation, g, r, s, m):
                    continue
                expected = []
                for w in itertools.combinations_with_replacement(levels, r - len(fixed[relation])):
                    primary_free_slots += relation == "sreduce" and 0 in w
                    w += fixed[relation]
                    for v in itertools.combinations_with_replacement(levels, s):
                        label = "[{} | {}]".format(" ".join(f"tau_{x}" for x in w) or "-",
                                                   " ".join(f"tau_{x}" for x in v) or "-")
                        value = residual(r, s, g, m, [field[x] for x in w], [field[x] for x in v])
                        expected.append((label, value))
                report = sweep_report(relation, g, r, s, m, levels, engine)
                assert report.pairings == expected, (relation, g, r, s, m)
    # sreduce rows whose free slots hold tau_0, where the down-shift drops a term
    assert primary_free_slots > 0
