"""Argument checks of the public entry points: each rejects bad input with a
plain ValueError whose message names the problem."""

import pytest

from tautrr.engine import CorrelatorEngine, genus0_closed_form
from tautrr.relations import build_bbt, build_fqq, build_variation, build_xi, verify_vyt
from tautrr.strata import (
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    NonSeparatingPushforward,
    SeparatingStratum,
    enumerate_tests,
)
from tautrr.universal import psi_eval

ENGINE = CorrelatorEngine()

#: (id, call, message); every call raises ValueError with exactly that message
INVALID = [
    ("genus0-two-markings", lambda: genus0_closed_form([0, 0]),
     "need at least three markings in genus 0"),
    ("genus0-negative-level", lambda: genus0_closed_form([-1, 1, 0]),
     "negative descendent level"),
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

