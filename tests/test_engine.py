"""Engine checks: anchor values, closed-form oracles, linear identities,
reference recursions."""

import functools
import hashlib
import itertools
import math
import random
import threading
from bisect import bisect
from collections import Counter
from fractions import Fraction

import pytest

from tautrr.cache import load_engine_cache, revalidate
from tautrr.engine import (
    CorrelatorEngine,
    CorrelatorKey,
    ImpossibleEntryError,
    UnstableModuliError,
    _binomial_row,
    _label,
    _submultisets,
    genus0_closed_form,
    is_stable,
    moduli_dim,
    odd_double_factorial,
    one_point_value,
    two_point_value,
)


@pytest.fixture()
def engine():
    return CorrelatorEngine()


# ----------------------------------------------------------------------
# independent oracles used throughout this file
# ----------------------------------------------------------------------


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def kappa_partition_oracle(engine, g, d, b):
    """Reduce a kappa integral by summing over set partitions of the kappa
    indices: each block becomes one extra insertion at level
    (sum of the block) + 1 weighted by (-1)^(block size - 1).

    This is the closed-form expansion of the subset-merge trade, written
    in one shot rather than recursively; it reproduces the classical
    Weil-Petersson values below.
    """
    total = Fraction(0)
    for part in set_partitions(list(b)):
        coeff = Fraction(1)
        extra = []
        for block in part:
            coeff *= Fraction((-1) ** (len(block) - 1))
            extra.append(sum(block) + 1)
        total += coeff * engine.psi_integral(g, list(d) + extra)
    return total


def random_composition(rng, total, n):
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return parts


# ----------------------------------------------------------------------
# anchor values
# ----------------------------------------------------------------------


def test_genus0_three_point_normalization(engine):
    assert engine.psi_integral(0, [0, 0, 0]) == 1


def test_two_point_genus1_anchor(engine):
    assert engine.psi_integral(1, [2, 0]) == Fraction(1, 24)


def test_two_point_genus2_anchor(engine):
    assert engine.psi_integral(2, [5, 0]) == Fraction(1, 1152)


def test_dimension_gate_returns_zero(engine):
    assert engine.psi_integral(1, [1, 0]) == 0
    assert engine.psi_integral(2, [1, 1]) == 0


def test_one_point_genus2_via_string(engine):
    # removing the level-0 insertion from the genus-2 anchor by hand
    assert engine.psi_integral(2, [4]) == Fraction(1, 1152)


def test_genus1_dilaton_values(engine):
    assert engine.psi_integral(1, [1]) == Fraction(1, 24)
    assert engine.psi_integral(1, [1, 1]) == Fraction(1, 24)
    assert engine.psi_integral(1, [1, 1, 1]) == Fraction(1, 12)
    assert engine.psi_integral(1, [2, 1, 0]) == Fraction(1, 12)


def test_two_point_genus2_and_genus3_table(engine):
    # frozen from an independent implementation of the same integrals
    assert engine.psi_integral(2, [4, 1]) == Fraction(1, 384)
    assert engine.psi_integral(2, [3, 2]) == Fraction(29, 5760)
    assert engine.psi_integral(3, [7, 1]) == Fraction(5, 82944)
    assert engine.psi_integral(3, [6, 2]) == Fraction(77, 414720)
    assert engine.psi_integral(3, [5, 3]) == Fraction(503, 1451520)
    assert engine.psi_integral(3, [4, 4]) == Fraction(607, 1451520)


def test_errors(engine):
    with pytest.raises(UnstableModuliError, match="unstable moduli space"):
        engine.psi_integral(0, [0, 0])
    with pytest.raises(UnstableModuliError, match="unstable moduli space"):
        engine.psi_integral(1, [])
    with pytest.raises(ValueError, match="negative descendent level"):
        engine.psi_integral(1, [-1, 3])
    with pytest.raises(ValueError, match="kappa index must be positive"):
        engine.psi_kappa_integral(2, [], [0])
    with pytest.raises(UnstableModuliError, match="unstable moduli space"):
        engine.psi_kappa_integral(1, [], [1])


# ----------------------------------------------------------------------
# closed-form oracles
# ----------------------------------------------------------------------


def test_genus0_closed_form_values():
    assert genus0_closed_form([0, 0, 0]) == 1
    assert genus0_closed_form([1, 0, 0, 0]) == 1
    assert genus0_closed_form([2, 0, 0, 0, 0]) == 1
    assert genus0_closed_form([1, 1, 0, 0, 0]) == 2
    with pytest.raises(ValueError, match="dimension mismatch"):
        genus0_closed_form([1, 1, 0])


def test_normalization_factors_match_their_definitions():
    # filled in descending order first, so no value leans on the order the
    # tables grow in; a deep m needs no recursion
    odd_double_factorial.cache_clear()
    _binomial_row.cache_clear()
    for n in (*range(300, -1, -1), *range(301)):
        assert odd_double_factorial(n) == math.prod(range(1, 2 * n + 2, 2))
        assert _binomial_row(n) == [math.comb(n, i) for i in range(n + 1)]
    assert odd_double_factorial(5000) == math.prod(range(1, 10002, 2))


def test_one_point_closed_form_values():
    assert one_point_value(1) == Fraction(1, 24)
    assert one_point_value(2) == Fraction(1, 1152)
    assert one_point_value(3) == Fraction(1, 82944)
    with pytest.raises(ValueError):
        one_point_value(0)


def _genus0_multisets(n):
    def parts(total, slots, cap):
        if slots == 0:
            if total == 0:
                yield ()
            return
        for first in range(min(total, cap), -1, -1):
            for tail in parts(total - first, slots - 1, first):
                yield (first,) + tail
    return list(parts(n - 3, n, n - 3))


def test_genus0_oracle_equivalence(engine):
    for n in range(3, 9):
        for d in _genus0_multisets(n):
            assert engine.psi_integral(0, d) == genus0_closed_form(d), d


def test_one_point_oracle_equivalence(engine):
    for g in range(1, 7):
        assert engine.psi_integral(g, [3 * g - 2]) == one_point_value(g), g


def test_two_point_closed_form_values():
    assert two_point_value(1, 0) == two_point_value(1, 1) == Fraction(1, 24)
    assert two_point_value(2, 4) == Fraction(1, 384)
    assert two_point_value(2, 0) == Fraction(1, 1152)
    for g, a in [(0, 0), (1, -1), (1, 3), (2, 6)]:
        with pytest.raises(ValueError):
            two_point_value(g, a)


def test_two_point_oracle_equivalence(engine):
    for g in range(1, 11):
        for a in range(3 * g):
            assert engine.psi_integral(g, [a, 3 * g - 1 - a]) == two_point_value(g, a), (g, a)


# ----------------------------------------------------------------------
# kappa reduction
# ----------------------------------------------------------------------


def test_single_kappa_values(engine):
    assert engine.psi_kappa_integral(1, [0], [1]) == Fraction(1, 24)
    assert engine.psi_kappa_integral(0, [0, 0, 0], []) == 1
    assert engine.psi_kappa_integral(2, [], [3]) == Fraction(1, 1152)


def test_kappa_merge_correction_by_hand(engine):
    # trading one index of a two-index integral leaves a merge correction:
    # <k_1 k_2> = <t_2 t_3> - <t_4> on the unmarked genus-2 space
    expected = Fraction(29, 5760) - Fraction(1, 1152)
    assert engine.psi_kappa_integral(2, [], [1, 2]) == expected


def test_kappa_weil_petersson_anchor_values(engine):
    # classical volume numbers: top powers of kappa_1 on the genus-0 spaces
    assert engine.psi_kappa_integral(0, [0] * 4, [1]) == 1
    assert engine.psi_kappa_integral(0, [0] * 5, [1, 1]) == 5
    assert engine.psi_kappa_integral(0, [0] * 6, [1, 1, 1]) == 61
    # Zograf's recursion for v_n, the integral of kappa_1^(n-3) over M_{0,n}-bar
    # (P. Zograf, Contemp. Math. 150, 1993)
    v = {3: Fraction(1)}
    for n in range(4, 21):
        v[n] = sum(Fraction(i * (n - i - 2), n - 1) * math.comb(n - 4, i - 1)
                   * math.comb(n, i + 1) * v[i + 2] * v[n - i] for i in range(1, n - 2)) / 2
    assert [v[n] for n in range(4, 10)] == [1, 5, 61, 1379, 49946, 2648967]
    for n in range(3, 21):
        assert engine.psi_kappa_integral(0, [0] * n, [1] * (n - 3)) == v[n], n


def test_kappa_powers_by_comparison_formula(engine):
    # pulled back along one forgetful map, kappa_1 gains the new marking's
    # cotangent class; expanding the square/cube by hand on the genus-1
    # spaces gives 1/8 and 7/6
    assert engine.psi_kappa_integral(1, [0, 0], [1, 1]) == Fraction(1, 8)
    assert engine.psi_kappa_integral(1, [0, 0, 0], [1, 1, 1]) == Fraction(7, 6)


def test_kappa_against_partition_oracle(engine):
    cases = [
        (2, (), (1, 1, 1)),
        (2, (), (2, 1)),
        (2, (1,), (3,)),
        (2, (1,), (2, 1)),
        (3, (), (3, 2, 1)),
        (3, (), (2, 2, 2)),
        (3, (2, 0), (4, 1)),
        (1, (0, 0), (1, 1)),
        (1, (0,), (1,)),
    ]
    for g, d, b in cases:
        assert engine.psi_kappa_integral(g, d, b) == kappa_partition_oracle(engine, g, d, b), (g, d, b)


def test_kappa_empty_agrees_with_psi(engine):
    rng = random.Random(7011)
    for _ in range(25):
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        if not is_stable(g, n):
            continue
        d = random_composition(rng, moduli_dim(g, n), n)
        assert engine.psi_kappa_integral(g, d, []) == engine.psi_integral(g, d)


# Virasoro form of kappa integrals: psi correlators at the point shifted by
# the kappa indices (Kaufmann-Manin-Zagier, CMP 181, 1996; Liu-Xu, IMRN
# 2009), a recursion that never turns a kappa index into a marking.  The
# engine's convention is kappa_a = pi_* psi^{a+1}.


def _vir_corr(engine, g, d, b):
    """<tau_d kappa_b>_g; 0 for negative genus, an unstable (g, n), a
    negative level or a dimension mismatch."""
    n = len(d)
    if g < 0 or not is_stable(g, n) or min(d, default=0) < 0 or sum(d) + sum(b) != 3 * g - 3 + n:
        return 0
    return engine.psi_kappa_integral(g, d, b)


def _index_splits(items):
    """(chosen, others) for every index subset of ``items``."""
    idx = range(len(items))
    for size in range(len(items) + 1):
        for chosen in itertools.combinations(idx, size):
            yield (tuple(items[i] for i in chosen),
                   tuple(items[i] for i in idx if i not in chosen))


def _kappa_absorbed(engine, g, k, S, b, weight):
    """sum over nonempty index subsets B of b, #B indices summing to s(B):
    (-1)^(#B+1) weight(s(B)) <tau_{k+s(B)} S kappa_{b minus B}>_g."""
    return sum((-1) ** (len(B) + 1) * weight(sum(B))
               * _vir_corr(engine, g, (k + sum(B),) + S, rest)
               for B, rest in _index_splits(b) if B)


def string_kappa_residual(engine, g, S, b):
    """<tau_0 S kappa_b>_g minus its string form
    sum_j <(S with d_j - 1) kappa_b>_g + sum_B (-1)^(#B+1) <tau_{s(B)} S kappa_{b minus B}>_g."""
    rhs = _kappa_absorbed(engine, g, 0, S, b, lambda s: 1)
    for j in range(len(S)):
        rhs += _vir_corr(engine, g, S[:j] + (S[j] - 1,) + S[j + 1:], b)
    return _vir_corr(engine, g, (0,) + S, b) - rhs


def virasoro_kappa_residual(engine, g, k, S, b):
    """(2k+1)!! <tau_k S kappa_b>_g minus its Virasoro form, k >= 2:

        sum_j (2k+2d_j-1)!!/(2d_j-1)!! <tau_{k+d_j-1} (S minus d_j) kappa_b>_g
        + sum_B (-1)^(#B+1) (2k+2s(B)+1)!!/(2s(B)+1)!! <tau_{k+s(B)} S kappa_{b minus B}>_g
        + 1/2 sum_{a+c=k-2} (2a+1)!! (2c+1)!! ( <tau_a tau_c S kappa_b>_{g-1}
              + sum over g1, S = I + J, b = B1 + B2 of
                <tau_a I kappa_B1>_{g1} <tau_c J kappa_B2>_{g-g1} )

    with (2d-1)!! == 1 at d = 0; the splits run over index subsets."""
    rhs = _kappa_absorbed(engine, g, k, S, b,
                          lambda s: Fraction(_odd_dfact(k + s), _odd_dfact(s)))
    for j, dj in enumerate(S):
        rhs += Fraction(_odd_dfact(k + dj - 1), _odd_dfact(dj - 1)) * _vir_corr(
            engine, g, (k + dj - 1,) + S[:j] + S[j + 1:], b)
    bracket = 0
    for a in range(k - 1):
        c = k - 2 - a
        inner = _vir_corr(engine, g - 1, (a, c) + S, b)
        for g1 in range(g + 1):
            for I, J in _index_splits(S):
                for B1, B2 in _index_splits(b):
                    inner += (_vir_corr(engine, g1, (a,) + I, B1)
                              * _vir_corr(engine, g - g1, (c,) + J, B2))
        bracket += _odd_dfact(a) * _odd_dfact(c) * inner
    return _odd_dfact(k) * _vir_corr(engine, g, (k,) + S, b) - rhs - Fraction(bracket, 2)


def _kappa_grid():
    """(g, k, S, b) over g <= 3, up to two other levels S and up to three
    kappa indices b, with k fixed by the dimension."""
    for g, size_s, size_b in itertools.product(range(4), range(3), range(4)):
        if not is_stable(g, size_s + 1):
            continue
        dim = moduli_dim(g, size_s + 1)
        for S in itertools.combinations_with_replacement(range(dim + 1), size_s):
            for b in itertools.combinations_with_replacement(range(1, dim + 1), size_b):
                yield g, dim - sum(S) - sum(b), S, b


#: the string form's target <tau_0^3>_0 is unstable, so it is left out
STRING_KAPPA_GRID = [(g, S, b) for g, k, S, b in _kappa_grid()
                     if k == 0 and (g, S, b) != (0, (0, 0), ())]
VIRASORO_KAPPA_GRID = [(g, k, S, b) for g, k, S, b in _kappa_grid() if k >= 2]


def _kappa_form_failures(engine):
    return (sum(1 for case in STRING_KAPPA_GRID if string_kappa_residual(engine, *case))
            + sum(1 for case in VIRASORO_KAPPA_GRID if virasoro_kappa_residual(engine, *case)))


def test_kappa_virasoro_forms_hold_on_the_grid():
    engine = CorrelatorEngine()
    assert (len(STRING_KAPPA_GRID), len(VIRASORO_KAPPA_GRID)) == (231, 288)
    assert _kappa_form_failures(engine) == 0
    # every case with a kappa index has a nonzero left side
    assert sum(1 for g, S, b in STRING_KAPPA_GRID if b and _vir_corr(engine, g, (0,) + S, b)) == 217
    assert sum(1 for g, k, S, b in VIRASORO_KAPPA_GRID
               if b and _vir_corr(engine, g, (k,) + S, b)) == 243


# a key with no psi insertion, such as <kappa_3>_2, is no control: neither
# form reads it
@pytest.mark.parametrize("g, d, b, failures", [(1, (0,), (1,), 151), (2, (2,), (2,), 32)])
def test_kappa_virasoro_forms_catch_one_raised_value(g, d, b, failures):
    true = CorrelatorEngine().psi_kappa_integral(g, d, b)
    poisoned = CorrelatorEngine()
    poisoned.adopt({CorrelatorKey(g, d, b): true + Fraction(1, 1000)})
    assert _kappa_form_failures(poisoned) == failures
    assert poisoned.psi_kappa_integral(g, d, b) != true


# ----------------------------------------------------------------------
# linear identities, randomized with a fixed seed
# ----------------------------------------------------------------------


def test_string_equation_randomized(engine):
    rng = random.Random(20260810)
    checked = 0
    while checked < 40:
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        if not is_stable(g, n):
            continue
        d = random_composition(rng, moduli_dim(g, n) + 1, n)
        lhs = engine.psi_integral(g, d + [0])
        rhs = sum(
            engine.psi_integral(g, d[:i] + [d[i] - 1] + d[i + 1:])
            for i in range(n)
            if d[i] >= 1
        )
        assert lhs == rhs, (g, d)
        checked += 1


def test_dilaton_equation_randomized(engine):
    rng = random.Random(20260811)
    checked = 0
    while checked < 40:
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        if not is_stable(g, n):
            continue
        d = random_composition(rng, moduli_dim(g, n), n)
        lhs = engine.psi_integral(g, d + [1])
        rhs = (2 * g - 2 + n) * engine.psi_integral(g, d)
        assert lhs == rhs, (g, d)
        checked += 1


def test_permutation_invariance(engine):
    rng = random.Random(99)
    for _ in range(20):
        g = rng.randint(0, 3)
        n = rng.randint(1, 6)
        if not is_stable(g, n):
            continue
        d = random_composition(rng, moduli_dim(g, n), n)
        shuffled = d[:]
        rng.shuffle(shuffled)
        assert engine.psi_integral(g, d) == engine.psi_integral(g, shuffled)
    b = [2, 1, 1]
    d = [1, 0]
    assert engine.psi_kappa_integral(3, d, b) == engine.psi_kappa_integral(3, d[::-1], b[::-1])


def test_correlator_total_function(engine):
    assert engine.correlator(0, (5, 0)) == 0
    assert engine.correlator(0, ()) == 0
    assert engine.correlator(1, (-2,)) == 0
    assert engine.correlator(1, (1,)) == Fraction(1, 24)


def test_key_is_order_independent():
    assert CorrelatorKey.make(2, [5, 0]) == CorrelatorKey.make(2, [0, 5])
    assert CorrelatorKey.make(2, [1, 0], [2, 1]) == CorrelatorKey.make(2, [0, 1], [1, 2])


def test_key_contract():
    # the repr, order, equality and immutability the key had as a frozen,
    # ordered dataclass; it also equals the plain tuple of its fields
    key = CorrelatorKey(2, (4,), ())
    assert repr(key) == str(key) == "CorrelatorKey(genus=2, psi_exps=(4,), kappa_parts=())"
    assert (key.genus, key.psi_exps, key.kappa_parts) == (2, (4,), ())
    made = CorrelatorKey.make(2, [5, 0], (2, 1))
    assert made == CorrelatorKey(2, (0, 5), (1, 2)) and type(made) is CorrelatorKey
    assert hash(made) == hash(CorrelatorKey.make(2, (0, 5), [2, 1]))
    # integral-valued floats are refused, not truncated into int fields
    with pytest.raises(ValueError, match="non-integer genus 2.0"):
        CorrelatorKey.make(2.0, [5, 0.0], (2, 1))
    assert CorrelatorKey.make(2, [4]) == key != CorrelatorKey.make(2, [4], [1])
    assert {key: 1}[(2, (4,), ())] == 1
    with pytest.raises(AttributeError):
        key.genus = 3
    keys = [CorrelatorKey(2, (4,), ()), CorrelatorKey(1, (1,), ()),
            CorrelatorKey(1, (0, 1), (1,)), CorrelatorKey(1, (0, 1), ()),
            CorrelatorKey(0, (0, 0, 0), ()), CorrelatorKey(1, (), (1,))]
    assert sorted(keys) == [
        CorrelatorKey(0, (0, 0, 0), ()), CorrelatorKey(1, (), (1,)),
        CorrelatorKey(1, (0, 1), ()), CorrelatorKey(1, (0, 1), (1,)),
        CorrelatorKey(1, (1,), ()), CorrelatorKey(2, (4,), ()),
    ]
    assert CorrelatorKey(1, (1,), ()) < CorrelatorKey(2, (0,), ())


def _load_stale(tmp_path, lines):
    """A fresh engine and the store of a ``v0`` cache file of ``lines``,
    loaded quarantined."""
    path = tmp_path / "stale.txt"
    path.write_text("#taut-rr-cache v0\n" + "".join(f"{line}\n" for line in lines))
    engine = CorrelatorEngine()
    with pytest.warns(UserWarning, match="revalidated"):
        store = load_engine_cache(engine, path)
    assert not store.trusted and len(engine.entries()) == 0
    return engine, store


def test_stale_entry_warning_text(tmp_path):
    engine, store = _load_stale(tmp_path, ["2;4;;1/9999"])
    assert revalidate(store, engine.entries()) == 1
    assert engine.psi_integral(2, [4]) == Fraction(1, 1152)
    with pytest.warns(UserWarning) as caught:
        assert revalidate(store, engine.entries()) == 0
    assert [str(w.message) for w in caught] == [
        "stale cache entry for CorrelatorKey(genus=2, psi_exps=(4,), kappa_parts=()) "
        "disagreed with recomputation; using the fresh value"
    ]


def test_quarantined_base_keys_are_checked_on_adoption(tmp_path):
    # the engine answers the two base keys without computing them, so their
    # quarantined copies are compared before anything is computed
    engine, store = _load_stale(tmp_path, ["0;0,0,0;;1", "1;1;;1/25", "2;4;;1/1152"])
    with pytest.warns(UserWarning) as caught:
        assert revalidate(store, engine.entries()) == 1
    assert [str(w.message) for w in caught] == [
        "stale cache entry for CorrelatorKey(genus=1, psi_exps=(1,), kappa_parts=()) "
        "disagreed with recomputation; using the fresh value"
    ]
    assert engine.computed == 0 and len(engine.entries()) == 0
    assert engine.psi_integral(2, [4]) == Fraction(1, 1152)
    # the right inner value adds no warning to the wrong base key's
    with pytest.warns(UserWarning) as caught:
        assert revalidate(store, engine.entries()) == 0
    assert [str(w.message) for w in caught] == [
        "stale cache entry for CorrelatorKey(genus=1, psi_exps=(1,), kappa_parts=()) "
        "disagreed with recomputation; using the fresh value"
    ]


def test_concurrent_lookups_are_consistent():
    engine = CorrelatorEngine()
    results = []

    def worker():
        results.append(engine.psi_integral(3, [7, 1]))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert results == [Fraction(5, 82944)] * 8


# ----------------------------------------------------------------------
# parity with the plain Fraction recursion
# ----------------------------------------------------------------------


def _odd_dfact(m):
    """(2m+1)!!, with (-1)!! == 1."""
    out = 1
    for k in range(3, 2 * m + 2, 2):
        out *= k
    return out


class FractionDVV:
    """The DVV recursion written directly on Fraction values, with a genus
    split over every index subset of the other insertions; the reference
    for the engine's normalized-integer recursion."""

    def __init__(self):
        self.memo = {}

    def corr(self, g, levels):
        if g < 0 or 2 * g - 2 + len(levels) <= 0:
            return Fraction(0)
        return self.psi(g, tuple(sorted(levels)))

    def psi(self, g, d):
        n = len(d)
        if sum(d) != 3 * g - 3 + n:
            return Fraction(0)
        if g == 0 and n == 3:
            return Fraction(1)
        if g == 1 and n == 1:
            return Fraction(1, 24)
        key = CorrelatorKey(g, d, ())
        if key not in self.memo:
            self.memo[key] = self.compute(g, d)
        return self.memo[key]

    def compute(self, g, d):
        n = len(d)
        if d[0] == 0:
            rest = d[1:]
            return sum((self.psi(g, tuple(sorted(rest[:i] + (di - 1,) + rest[i + 1:])))
                        for i, di in enumerate(rest) if di >= 1), Fraction(0))
        if d[0] == 1:
            return (2 * g - 2 + (n - 1)) * self.psi(g, d[1:])
        k = d[-1]
        rest = d[:-1]
        m = len(rest)
        total = Fraction(0)
        for j, dj in enumerate(rest):
            coeff = Fraction(_odd_dfact(k + dj - 1), _odd_dfact(dj - 1))
            total += coeff * self.psi(g, tuple(sorted(rest[:j] + rest[j + 1:] + (k + dj - 1,))))
        acc = Fraction(0)
        for a in range(0, k - 1):
            b = k - 2 - a
            ca_cb = _odd_dfact(a) * _odd_dfact(b)
            if g >= 1:
                acc += ca_cb * self.psi(g - 1, tuple(sorted(rest + (a, b))))
            for mask in range(1 << m):
                left = tuple(rest[i] for i in range(m) if mask >> i & 1)
                num = a + sum(left) - len(left) + 2
                g1 = num // 3
                if num % 3 or not 0 <= g1 <= g:
                    continue
                f1 = self.corr(g1, (a,) + left)
                if f1:
                    right = tuple(rest[i] for i in range(m) if not mask >> i & 1)
                    f2 = self.corr(g - g1, (b,) + right)
                    if f2:
                        acc += ca_cb * f1 * f2
        total += acc / 2
        return total / _odd_dfact(k)


MULTISET_KEYS = [
    (3, (2,) * 6),
    (3, (0, 0, 2, 2, 2, 2, 3, 3)),
    (4, (0, 0, 2, 2, 3, 3, 6)),
    (4, (2, 2, 2, 3, 3, 3)),
    # the DVV genus split pairs (a, L, g1) with (b, R, g - g1); these keys
    # reach the self-paired term L == R, g1 == g - g1 at g = 2, 4, 6 and 8
    (8, (22,)),
    (2, (2, 2, 2)),
    (4, (2, 2, 8)),
    (6, (2, 2, 14)),
    (4, (2, 2, 3, 3, 4)),
    (6, (2, 2, 3, 3, 10)),
    (6, (2, 2, 2, 2, 12)),
]


def test_integer_recursion_matches_fraction_reference():
    engine = CorrelatorEngine()
    reference = FractionDVV()
    keys = [(0, d) for n in range(3, 9) for d in _genus0_multisets(n)]
    for g in range(1, 8):
        keys.append((g, (3 * g - 2,)))
        keys += [(g, (a, 3 * g - 1 - a)) for a in range(0, 3 * g)]
    keys += MULTISET_KEYS
    for g, d in keys:
        assert engine.psi_integral(g, d) == reference.psi(g, tuple(sorted(d))), (g, d)
    assert engine.entries() == reference.memo
    assert all(type(v) is Fraction for v in engine.entries().values())


def test_adopted_entries_are_reused_not_recomputed():
    cold = CorrelatorEngine()
    value = cold.psi_integral(3, [4, 4])
    warm = CorrelatorEngine()
    warm.adopt({CorrelatorKey(3, (4, 4), ()): value})
    # the dilaton step lands on the adopted key, which is converted back
    # exactly instead of being computed again
    assert warm.psi_integral(3, [4, 4, 1]) == 6 * value
    assert set(warm.entries()) == {CorrelatorKey(3, (4, 4), ()), CorrelatorKey(3, (1, 4, 4), ())}


def test_impossible_trusted_entry_raises_when_needed():
    engine = CorrelatorEngine()
    engine.adopt({CorrelatorKey(1, (1, 1), ()): Fraction(1, 7)})
    with pytest.raises(ImpossibleEntryError, match=r"1/7 for <tau_1 tau_1>_1"):
        engine.psi_integral(1, [1, 1, 1])
    # the value was never used: nothing was stored on top of it
    assert set(engine.entries()) == {CorrelatorKey(1, (1, 1), ())}
    # deeper in a recursion, and in a kappa trade
    engine = CorrelatorEngine()
    engine.adopt({CorrelatorKey(2, (2, 3), ()): Fraction(1, 11)})
    with pytest.raises(ImpossibleEntryError, match=r"<tau_2 tau_3>_2"):
        engine.psi_integral(2, [0, 0, 2, 5])
    with pytest.raises(ImpossibleEntryError, match=r"<tau_2 tau_3>_2"):
        engine.psi_kappa_integral(2, [0, 2], [3])


# ----------------------------------------------------------------------
# sub-multiset splits against index subsets
# ----------------------------------------------------------------------


def test_submultisets_match_index_subsets():
    # the DVV bracket visits the halved list; the kappa trade and the
    # pullback rows read the whole one
    for n in range(8):
        for parts in itertools.combinations_with_replacement(range(5), n):
            brute = Counter(
                (tuple(parts[i] for i in chosen),
                 tuple(parts[i] for i in range(n) if i not in chosen))
                for size in range(n + 1) for chosen in itertools.combinations(range(n), size))
            splits = _submultisets(parts)
            assert {(left, right): w for left, right, w in splits} == brute, parts
            assert len(splits) == len(brute), parts
            values = list(dict.fromkeys(parts))
            counts = [parts.count(v) for v in values]
            assert ([tuple(left.count(v) for v in values) for left, _, _ in splits]
                    == list(itertools.product(*(range(c + 1) for c in counts)))), parts
            size = len(splits)
            for i, (left, right, w) in enumerate(splits):
                assert splits[size - 1 - i] == (right, left, w), parts
            half = _submultisets(parts, half=True)
            assert half == splits[:(size + 1) // 2], parts
            assert ([left == right for left, right, _ in half]
                    == [False] * (len(half) - 1) + [all(c % 2 == 0 for c in counts)]), parts


# ----------------------------------------------------------------------
# kappa trade over sub-multisets
# ----------------------------------------------------------------------


class MaskKappaTrade:
    """The kappa-to-marking trade as a sum over every index subset of the
    remaining kappa indices, on top of the engine's psi integrals."""

    def __init__(self, engine):
        self.engine = engine
        self.memo = {}

    def value(self, g, d, b):
        d, b = tuple(sorted(d)), tuple(sorted(b))
        if sum(d) + sum(b) != 3 * g - 3 + len(d):
            return Fraction(0)
        if not b:
            return self.engine.psi_integral(g, d)
        key = CorrelatorKey(g, d, b)
        if key not in self.memo:
            beta, rest = b[-1], b[:-1]
            val = Fraction(0)
            for mask in range(1 << len(rest)):
                level = beta + 1
                sign = 1
                for i, bi in enumerate(rest):
                    if mask >> i & 1:
                        level += bi
                        sign = -sign
                kept = tuple(bi for i, bi in enumerate(rest) if not mask >> i & 1)
                val += sign * self.value(g, d + (level,), kept)
            self.memo[key] = val
        return self.memo[key]


# kappa_1^k on every (g <= 3, n) of dimension k, then mixed parts, with and
# without psi insertions
KAPPA_CASES = [
    (g, (0,) * n, (1,) * k)
    for k in range(1, 10) for g in range(0, 4)
    for n in [k + 3 - 3 * g] if n >= 0 and is_stable(g, n)
] + [
    (0, (0,) * 10, (1, 1, 1, 2, 2)),
    (1, (0,) * 7, (1, 1, 1, 2, 2)),
    (2, (0, 0, 0, 0), (1, 1, 1, 2, 2)),
    (2, (2, 1, 0), (1, 1, 1, 2)),
    (3, (3, 0), (1, 1, 2, 2, 2)),
    (3, (), (2, 2, 1, 1, 1)),
]


def test_kappa_trade_matches_mask_loop():
    engine = CorrelatorEngine()
    reference = MaskKappaTrade(CorrelatorEngine())
    for g, d, b in KAPPA_CASES:
        assert engine.psi_kappa_integral(g, d, b) == reference.value(g, d, b), (g, d, b)
    assert {k: v for k, v in engine.entries().items() if k.kappa_parts} == reference.memo


# ----------------------------------------------------------------------
# computed values kept as integers until read
# ----------------------------------------------------------------------


def _multisets(total, n):
    return [c for c in itertools.combinations_with_replacement(range(total + 1), n)
            if sum(c) == total]


def _cold_g15(engine):
    engine.psi_integral(15, [43])


def _ladder(engine, max_g):
    for n in range(3, 9):
        for d in _multisets(n - 3, n):
            engine.psi_integral(0, d)
    for g in range(1, max_g + 1):
        engine.psi_integral(g, [3 * g - 2])
        for a in range(3 * g):
            engine.psi_integral(g, [a, 3 * g - 1 - a])


def _ladder_g13(engine):
    _ladder(engine, 13)


def _all_psi_g4_n5(engine):
    for g in range(5):
        for n in range(6):
            if is_stable(g, n):
                for d in _multisets(moduli_dim(g, n), n):
                    engine.psi_integral(g, d)


def _kappa_mix(engine):
    for g in range(4):
        for n in range(5):
            if not is_stable(g, n):
                continue
            for k in range(1, 4):
                for kappa_sum in range(k, moduli_dim(g, n) + 1):
                    for b in _multisets(kappa_sum, k):
                        if min(b) >= 1:
                            for d in _multisets(moduli_dim(g, n) - kappa_sum, n):
                                engine.psi_kappa_integral(g, d, b)


# sha256 of repr() of the sorted (genus, psi_exps, kappa_parts, numerator,
# denominator) rows of entries(), as the engine that divided every value
# when it was computed listed them
ENTRY_TABLES = [
    (_cold_g15, 9223, "8a6e03f37c7e519208625918334dbdeb0140bb60830e34e6e794572464d2409f"),
    (_ladder_g13, 5800, "44b7219a63be5c9e2b92b49fcd1a7e257aaf395c1ce8b6f6eb1f57f335805bcd"),
    (_all_psi_g4_n5, 282, "064f81548755d69b085310c0bc3d1eaa173600527b4fef3132e6acd4cbeec2f9"),
    (_kappa_mix, 1223, "4b7fc7cd4212ff42a91d477dfbbcd325c0d7050d6db5c69e51aea692f39d594f"),
]

BASE_KEYS = {CorrelatorKey(0, (0, 0, 0), ()), CorrelatorKey(1, (1,), ())}


@pytest.mark.parametrize("fill, size, digest", ENTRY_TABLES,
                         ids=[fill.__name__.strip("_") for fill, _, _ in ENTRY_TABLES])
def test_entries_are_pinned(fill, size, digest):
    engine = CorrelatorEngine()
    fill(engine)
    entries = engine.entries()
    assert len(entries) == size
    assert not BASE_KEYS & set(entries)
    rows = sorted((k.genus, k.psi_exps, k.kappa_parts, v.numerator, v.denominator)
                  for k, v in entries.items())
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
    # reading every value memoized none of them
    assert len(engine.entries()) == size and engine.entries().raw == entries.raw


def test_unread_values_stay_integers():
    engine = CorrelatorEngine()
    value = engine.psi_integral(15, [43])
    # only the value read is divided; the recursion's values stay integers
    assert engine._memo == {(15, (43,), ()): value}
    assert all(type(v) is int and v > 0 for v in engine._ints.values())
    raw = engine.entries().raw
    assert all(type(v) is Fraction and v > 0 for v in raw.values())
    # listing divides but memoizes nothing
    assert engine._memo == {(15, (43,), ()): value}
    # reading a computed value memoizes its Fraction, equal to the listed one
    listed = engine.entries()[(10, (2, 27), ())]
    assert engine.psi_integral(10, [27, 2]) == listed == two_point_value(10, 2)
    assert type(engine.entries().raw[(10, (2, 27), ())]) is Fraction


def test_engine_counts_what_it_computes():
    engine = CorrelatorEngine()
    assert engine.computed == 0
    engine.psi_integral(1, [1])
    engine.psi_integral(0, [0, 0, 0])
    assert engine.computed == 0
    engine.psi_integral(2, [4])
    assert engine.computed == len(engine.entries()) > 0
    # reading what the engine holds computes nothing
    before = engine.computed
    for key in engine.entries():
        engine.psi_integral(key.genus, key.psi_exps)
    assert engine.computed == before
    # a kappa trade counts once, its psi terms once each
    engine.psi_kappa_integral(1, [0], [1])
    assert engine.computed == len(engine.entries())
    # decoding an adopted entry computes nothing
    fresh = CorrelatorEngine()
    fresh.adopt({CorrelatorKey(2, (4,), ()): "1/1152", CorrelatorKey(1, (0,), (1,)): "1/24"})
    assert fresh.psi_integral(2, [4]) == Fraction(1, 1152)
    assert fresh.psi_kappa_integral(1, [0], [1]) == Fraction(1, 24)
    assert fresh.computed == 0


def test_an_adopted_int_is_its_own_value():
    key = CorrelatorKey(0, (0, 0, 0, 1), ())
    engine = CorrelatorEngine()
    kappa_key = CorrelatorKey(0, (0, 0, 0, 0), (1,))
    engine.adopt({key: 1, kappa_key: 1})
    assert engine.entries()[key] == engine.entries()[kappa_key] == 1
    assert engine.psi_integral(0, [1, 0, 0, 0]) == 1
    value = engine.psi_kappa_integral(0, [0, 0, 0, 0], [1])
    assert value == 1 and type(value) is Fraction
    assert engine.computed == 0
    assert CorrelatorEngine().psi_kappa_integral(0, [0, 0, 0, 0], [1]) == 1


def test_base_keys_never_listed():
    engine = CorrelatorEngine()
    assert engine.psi_integral(0, [0, 0, 0]) == 1
    assert engine.psi_integral(1, [1]) == Fraction(1, 24)
    assert engine.psi_kappa_integral(1, [0], [1]) == Fraction(1, 24)
    engine.psi_integral(3, [0, 0, 1, 7])
    assert engine.entries() and not BASE_KEYS & set(engine.entries())
    # an adopted copy of a base key is listed as adopted, like any other entry
    engine.adopt({CorrelatorKey(1, (1,), ()): "1/24"})
    assert engine.entries()[(1, (1,), ())] == Fraction(1, 24)


def test_quarantined_inner_key_warns_once(tmp_path):
    # (3, (4, 4)) is reached only through the dilaton step of (3, (1, 4, 4))
    engine, store = _load_stale(tmp_path, ["3;4,4;;1/7"])
    value = engine.psi_integral(3, [1, 4, 4])
    engine.psi_integral(3, [0, 1, 4, 5])
    assert value == 6 * two_point_value(3, 4)
    with pytest.warns(UserWarning) as caught:
        assert revalidate(store, engine.entries()) == 0
    assert [str(w.message) for w in caught] == [
        "stale cache entry for CorrelatorKey(genus=3, psi_exps=(4, 4), kappa_parts=()) "
        "disagreed with recomputation; using the fresh value"
    ]
    assert engine.entries()[(3, (4, 4), ())] == two_point_value(3, 4)


def test_entries_listed_in_steps_match_one_listing():
    stepwise, once = CorrelatorEngine(), CorrelatorEngine()
    for g in range(1, 9):
        for engine in (stepwise, once):
            engine.psi_integral(g, [3 * g - 2])
            engine.psi_integral(g, [0, 2, 3 * g - 2])
            if g == 4:
                engine.adopt({CorrelatorKey(2, (4,), ()): "1/1152",
                              CorrelatorKey(9, (25,), ()): str(one_point_value(9))})
        listed = stepwise.entries()
        assert len(listed) == len(set(listed)) == len(stepwise.entries().raw)
    assert stepwise.entries() == once.entries()
    assert list(stepwise.entries()) == list(once.entries())
    assert stepwise.psi_integral(9, [25]) == one_point_value(9)


# ----------------------------------------------------------------------
# DVV genus splits read per-factor columns
# ----------------------------------------------------------------------


class KeyPerTermDVV(CorrelatorEngine):
    """The engine with its DVV genus splits building and looking up both
    factor keys of every term: the reference for the factor columns."""

    def _dvv(self, g, d):
        ints = self._ints
        get = self._int
        k = d[-1]
        rest = d[:-1]
        total = 0
        for v in dict.fromkeys(rest):
            i = rest.index(v)
            merged = rest[:i] + rest[i + 1:] + (k + v - 1,)
            total += rest.count(v) * (2 * v + 1) * (ints.get(merged) or get(g, merged))
        if g >= 1:
            lower = 0
            for a in range((k - 1) // 2):
                key = tuple(sorted(rest + (a, k - 2 - a)))
                lower += ints.get(key) or get(g - 1, key)
            lower *= 2
            if k % 2 == 0:
                key = tuple(sorted(rest + ((k - 2) // 2,) * 2))
                lower += ints.get(key) or get(g - 1, key)
            total += 4 * g * lower
        binom = [math.comb(g, g1) for g1 in range(g + 1)]
        self_paired = 0
        for left, right, weight in _submultisets(rest, half=True):
            n_left = len(left)
            shift = n_left - sum(left) - 2
            hi = min((k - 2 - shift) // 3, g)
            mirror = left == right
            if mirror:
                hi = min(hi, (g - 1) // 2)
            acc = 0
            for g1 in range(-(shift // 3), hi + 1):
                a = 3 * g1 + shift
                i = bisect(left, a)
                lkey = left[:i] + (a,) + left[i:]
                b = k - 2 - a
                i = bisect(right, b)
                rkey = right[:i] + (b,) + right[i:]
                f1 = ints.get(lkey) or get(g1, lkey)
                acc += binom[g1] * f1 * (ints.get(rkey) or get(g - g1, rkey))
            total += weight * acc
            if mirror and g % 2 == 0:
                a = (k - 2) // 2
                i = bisect(left, a)
                key = left[:i] + (a,) + left[i:]
                f = ints.get(key) or get(g // 2, key)
                self_paired += weight * binom[g // 2] * f * f
        half, odd = divmod(self_paired, 2)
        if odd:
            raise ArithmeticError(f"odd self-paired DVV term for {_label(g, d)}")
        return total + half


def _filled_cells(engine):
    """{(key, genus): value} over the nonempty cells of every factor column;
    the cell of multiset m at genus h holds I(h, m + (3h + |m| - sum(m) - 2,))."""
    cells = {}
    for m, col in engine._cols.items():
        for h, value in enumerate(col):
            if value:
                key = tuple(sorted(m + (3 * h + len(m) - sum(m) - 2,)))
                cells[key, h] = value
    return cells


PARITY_FILLS = [
    ("ladder_g11", lambda engine: _ladder(engine, 11)),
    ("multiset_keys", lambda engine: [engine.psi_integral(g, d) for g, d in MULTISET_KEYS]),
    ("cold_g13", lambda engine: engine.psi_integral(13, [37])),
    ("kappa_mix", _kappa_mix),
]


@pytest.mark.parametrize("fill", [fill for _, fill in PARITY_FILLS],
                         ids=[name for name, _ in PARITY_FILLS])
def test_factor_columns_match_key_per_term_lookups(fill):
    engine, reference = CorrelatorEngine(), KeyPerTermDVV()
    fill(engine)
    fill(reference)
    # the same keys, filled in the same order, to the same integers
    assert list(engine._ints.items()) == list(reference._ints.items())
    assert engine._memo == reference._memo
    assert engine.computed == reference.computed
    assert engine._cols and not reference._cols
    # a column holds only values the memo holds, under their own keys
    cells = _filled_cells(engine)
    assert cells and all(engine._ints[key] == value for (key, _), value in cells.items())


def test_impossible_entry_in_a_factor_column_raises_on_every_call():
    # <tau_7>_3 reads its genus-2 terms from adopted entries, so its one
    # genus split, <tau_1>_1 <tau_4>_2, first reaches the adopted <tau_4>_2
    # through the column of the empty multiset
    cold = CorrelatorEngine()
    engine = CorrelatorEngine()
    engine.adopt({**{CorrelatorKey(2, d, ()): str(cold.psi_integral(2, d))
                     for d in [(0, 5), (1, 4), (2, 3)]},
                  CorrelatorKey(2, (4,), ()): "1/1000003"})
    for _ in range(2):
        with pytest.raises(ImpossibleEntryError, match=r"1/1000003 for <tau_4>_2"):
            engine.psi_integral(3, [7])
        # the base case <tau_1>_1 filled its cell; <tau_4>_2 left its own empty
        assert engine._cols == {(): [0, 1, 0, 0]}
        assert (4,) not in engine._ints
    assert engine.computed == 0


# ----------------------------------------------------------------------
# KdV audit: Witten's KdV form as a second route for every psi value
# ----------------------------------------------------------------------


def _kdv_corr(engine, levels):
    """<tau_levels>_g at the one genus g its dimension allows; 0 if none."""
    excess = sum(levels) - len(levels) + 3
    return 0 if excess % 3 else engine.correlator(excess // 3, levels)


def kdv_residual(engine, n, S):
    """Left side minus right side of Witten's KdV form (1991), n >= 1:

        (2n+1) <tau_n tau_0^2 S> = sum over A + B = S of
               ( <tau_{n-1} tau_0 A> <tau_0^3 B> + 2 <tau_{n-1} tau_0^2 A> <tau_0^2 B> )
             + 1/4 <tau_{n-1} tau_0^4 S>

    The sum runs over the index subsets A of S, and every correlator goes
    through ``engine.correlator``, so this shares no code with the DVV
    recursion or its sub-multiset splits."""
    S = tuple(S)
    corr = functools.partial(_kdv_corr, engine)
    rhs = Fraction(corr((n - 1, 0, 0, 0, 0) + S), 4)
    for size in range(len(S) + 1):
        for chosen in itertools.combinations(range(len(S)), size):
            A = tuple(S[i] for i in chosen)
            B = tuple(S[i] for i in range(len(S)) if i not in chosen)
            rhs += corr((n - 1, 0) + A) * corr((0, 0, 0) + B)
            rhs += 2 * corr((n - 1, 0, 0) + A) * corr((0, 0) + B)
    return (2 * n + 1) * corr((n, 0, 0) + S) - rhs


#: n <= 8, |S| <= 3, levels <= 6
KDV_GRID = [(n, S) for n in range(1, 9) for size in range(4)
            for S in itertools.combinations_with_replacement(range(7), size)]


def _kdv_failures(engine):
    return sum(1 for n, S in KDV_GRID if kdv_residual(engine, n, S))


def test_kdv_form_holds_on_the_grid():
    engine = CorrelatorEngine()
    assert len(KDV_GRID) == 960
    assert _kdv_failures(engine) == 0
    # the grid reaches well past the closed-form oracles
    assert sum(1 for n, S in KDV_GRID if _kdv_corr(engine, (n, 0, 0) + S)) == 318


@pytest.mark.parametrize("g, d, failures", [(2, (4,), 281), (2, (2, 2, 2), 230),
                                            (3, (3, 5), 209)])
def test_kdv_form_catches_one_raised_value(g, d, failures):
    # the value raised by 1/normalization passes the integrality check, so
    # only a second route can see it
    norm = 8**g * math.factorial(g) * math.prod(map(_odd_dfact, d))
    true = CorrelatorEngine().psi_integral(g, d)
    poisoned = CorrelatorEngine()
    poisoned.adopt({CorrelatorKey(g, d, ()): true + Fraction(1, norm)})
    assert _kdv_failures(poisoned) == failures
    assert poisoned.psi_integral(g, d) != true
