"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines
and timings.  All checks are exact (rational equality); the stated time
budgets are asserted.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from tautrr.cli import main, report_to_dict
from tautrr.engine import CorrelatorEngine, genus0_closed_form, one_point_value
from tautrr.relations import (
    PAIRING_CAVEAT,
    build_bbt,
    build_fqq,
    build_variation,
    build_vpe,
    verify,
    verify_vyt,
    xi_witness,
    xi_witness_expected,
)
from tautrr.strata import AmbientSpace, ClassExpr, InteriorTerm, TestMonomial, pair_with_test
from tautrr.universal import conjc_threshold, psi_eval, sweep_report, tau

ENGINE = CorrelatorEngine()


class criterion:
    """Times a criterion body and prints exactly one pass/fail line."""

    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f} s / budget {self.budget} s) {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded its time budget"
        return False


def test_criterion_1_anchor_values():
    with criterion(1, "anchor values exact", 1):
        assert ENGINE.psi_integral(0, [0, 0, 0]) == 1
        assert ENGINE.psi_integral(1, [2, 0]) == Fraction(1, 24)
        for g in range(2, 7):
            expected = Fraction(1, 24 ** (g - 1))
            for k in range(1, g):
                expected /= k
            assert ENGINE.psi_integral(g - 1, [3 * g - 4, 0]) == expected, g


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


def test_criterion_2_oracle_equivalence():
    with criterion(2, "closed-form oracles match the recursion", 10):
        for n in range(3, 9):
            for d in _genus0_multisets(n):
                assert ENGINE.psi_integral(0, d) == genus0_closed_form(d), d
        for g in range(1, 7):
            assert ENGINE.psi_integral(g, [3 * g - 2]) == one_point_value(g), g


def test_criterion_3_one_marking_boundary_sweep():
    with criterion(3, "one-marking boundary relation sweep g <= 5", 120):
        # hand-certified instance: both sides pair to 1/1152
        expr = build_bbt(2, 0)
        lhs = ClassExpr.make(expr.ambient, 4, [(1, InteriorTerm((4,)))])
        boundary = ClassExpr.make(expr.ambient, 4, expr.terms[1:])
        assert pair_with_test(lhs, TestMonomial((0,)), ENGINE) == Fraction(1, 1152)
        assert pair_with_test(boundary, TestMonomial((0,)), ENGINE) == Fraction(-1, 1152)
        for g in range(1, 6):
            for r in range(0, max(g - 1, 1)):
                report = verify(build_bbt(g, r), "bbt", {"g": g, "r": r}, ENGINE)
                assert report.passed, (g, r)
                assert report.trivial == (r > g - 2), (g, r)
                if not report.trivial:
                    assert all(v == 0 for _, v in report.pairings)
            report = verify(build_bbt(g, g - 1), "bbt", {}, ENGINE)
            assert report.trivial and report.passed, g


def test_criterion_4_marked_splitting_sweeps():
    with criterion(4, "two-sided and two-marking splitting sweeps", 180):
        for g in range(0, 4):
            for r in range(0, 2):
                report = verify(build_variation(g, 2, 2, r), "variation",
                                {"g": g, "r": r}, ENGINE)
                assert report.passed, ("variation", g, r)
        for g in range(1, 5):
            for r in range(0, 3):
                report = verify(build_fqq(g, r), "fqq", {"g": g, "r": r}, ENGINE)
                assert report.passed, ("fqq", g, r)


def test_criterion_5_irreducible_pushforward_and_witness():
    with criterion(5, "irreducible pushforward vanishing + nonvanishing witness", 120):
        for g in range(1, 5):
            for r in range(1, g + 2):
                report = verify_vyt(g, r, ENGINE)
                assert report.passed, (g, r)
        # flagship: the alternating two-point sum cancels between
        # individually nonzero summands
        summands = [(-1) ** a * ENGINE.psi_integral(3, [a, 8 - a]) for a in range(9)]
        assert sum(summands) == 0
        assert sum(1 for v in summands if v != 0) >= 2
        report = verify_vyt(3, 2, ENGINE)
        assert report.passed and not report.trivial
        for g in range(2, 6):
            for r in range(0, g - 1):
                assert xi_witness(g, r, ENGINE) == xi_witness_expected(g) != 0, (g, r)


def test_criterion_6_unmarked_kappa_relation():
    with criterion(6, "unmarked kappa boundary relation", 60):
        for g in range(1, 4):
            for r in (1, 3):
                report = verify(build_vpe(g, r), "vpe", {"g": g, "r": r}, ENGINE)
                assert report.passed, (g, r)


def test_criterion_7_point_target_identities():
    with criterion(7, "point-target vanishing, symmetry, string reduction", 300):
        # hand-certified cancellation with individually nonzero pieces
        pieces = (
            -ENGINE.correlator(1, (1, 1)) * ENGINE.correlator(1, (1,)),
            -ENGINE.correlator(2, (4,)),
            ENGINE.correlator(2, (4, 1)),
        )
        assert pieces == (Fraction(-1, 576), Fraction(-1, 1152), Fraction(1, 384))
        assert sum(pieces) == 0
        assert psi_eval(1, 0, 2, 2, [tau(1)], [], ENGINE) == 0
        assert sweep_report("conjC", 2, 1, 0, 2, (1,), ENGINE).passed

        levels = range(0, 7)
        fields = {x: tau(x) for x in levels}
        slots = {r: list(itertools.combinations_with_replacement(levels, r))
                 for r in range(0, 4)}
        checked_vanishing = checked_symmetry = checked_reduction = 0
        for g in range(0, 5):
            prev = None
            for m in range(0, 3 * g + 4):
                sign = (-1) ** m
                cur = {}
                for r in range(0, 4):
                    for s in range(0, 4):
                        threshold = conjc_threshold(g, r, s)
                        for wlv in slots[r]:
                            W = [fields[x] for x in wlv]
                            for vlv in slots[s]:
                                value = psi_eval(r, s, g, m, W,
                                                 [fields[x] for x in vlv], ENGINE)
                                cur[(r, s, wlv, vlv)] = value
                                if m >= threshold:
                                    assert value == 0, (g, r, s, m, wlv, vlv)
                                    checked_vanishing += 1
                # slot-swap symmetry within the slice
                for (r, s, wlv, vlv), value in cur.items():
                    assert value == sign * cur[(s, r, vlv, wlv)], (g, r, s, m)
                    checked_symmetry += 1
                # string reduction against the previous slice
                if prev is not None:
                    for r in range(1, 4):
                        for s in range(0, 4):
                            for wlv in slots[r - 1]:
                                for vlv in slots[s]:
                                    lhs = cur[(r, s, tuple(sorted(wlv + (0,))), vlv)]
                                    rhs = -prev[(r - 1, s, wlv, vlv)]
                                    for i, w in enumerate(wlv):
                                        if w >= 1:
                                            shifted = tuple(sorted(wlv[:i] + (w - 1,) + wlv[i + 1:]))
                                            rhs += cur[(r - 1, s, shifted, vlv)]
                                    assert lhs == rhs, (g, r, s, m, wlv, vlv)
                                    checked_reduction += 1
                prev = cur
        assert checked_vanishing > 200000
        assert checked_symmetry > 500000
        assert checked_reduction > 100000


def test_criterion_8_pairing_limitation_documented():
    with criterion(8, "pairing-level limitation documented in reports", 5):
        report = verify(build_bbt(2, 0), "bbt", {"g": 2, "r": 0}, ENGINE)
        assert report.caveat == PAIRING_CAVEAT
        payload = report_to_dict(report)
        assert "not a proof" in payload["caveat"]
        readme = open("README.md", encoding="utf-8").read()
        assert "pairing-level" in readme


def test_criterion_9_determinism_and_caching(tmp_path, capsys):
    with criterion(9, "warm-cache reruns are byte-identical", 60):
        cache = tmp_path / "cache.txt"
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        argv = ["verify", "bbt", "--g", "2..4", "--format", "json", "--cache", str(cache)]
        assert main(argv + ["--out", str(r1)]) == 0
        assert main(argv + ["--out", str(r2)]) == 0
        capsys.readouterr()
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        for report in a + b:
            report.pop("millis")
        assert a == b
        # cold and warm engines agree bit-exactly
        cold = CorrelatorEngine()
        assert cold.psi_integral(4, [10]) == ENGINE.psi_integral(4, [10])
