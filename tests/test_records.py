"""The record classes: value semantics, and an import that stays light.

Every record keeps the semantics it had as a dataclass: two instances of
one class are equal exactly when their fields are, the frozen ones hash
alike and refuse assignment, the mutable ones are unhashable, and the repr
is ``Name(field=value, ...)``.  A validating constructor checks its fields
in a fixed order, so an instance breaking two checks names the first.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tautrr
from tautrr.cache import CacheStore
from tautrr.engine import CorrelatorKey
from tautrr.relations import VerificationReport
from tautrr.strata import (
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    NonSeparatingPushforward,
    SeparatingStratum,
    TestMonomial,
)
from tautrr.universal import VectorFieldPt

ONE = (Fraction(1), InteriorTerm((1,)))

#: class, fields in order (as keywords), (a field, another value for it),
#: frozen, and (keywords breaking two checks, the first check's message)
RECORDS = [
    (AmbientSpace, {"g": 1, "n": 1}, ("n", 2), True,
     ({"g": -1, "n": 0}, "genus and marking count must be nonnegative")),
    (TestMonomial, {"psi_exps": (1, 0), "kappa_parts": (2,)}, ("kappa_parts", ()), True,
     ({"psi_exps": (-1, 0), "kappa_parts": (0,)}, "negative descendent level")),
    (InteriorTerm, {"psi_exps": (1,), "kappa_parts": (1,)}, ("psi_exps", (2,)), True,
     ({"psi_exps": (-1,), "kappa_parts": (0,)}, "negative decoration exponent")),
    (SeparatingStratum,
     {"g1": 1, "g2": 1, "markings1": frozenset({1}), "node_exps": (0, 1), "marking_exps": (0,)},
     ("node_exps", (1, 0)), True,
     ({"g1": -1, "g2": 1, "markings1": frozenset({5}), "node_exps": (-1, 0),
       "marking_exps": (0,)}, "negative decoration exponent")),
    (NonSeparatingPushforward, {"source_g": 1, "node_exps": (0, 1), "marking_exps": ()},
     ("marking_exps", (0,)), True,
     ({"source_g": -1, "node_exps": (0, 1), "marking_exps": ()}, "genus must be nonnegative")),
    (ClassExpr, {"ambient": AmbientSpace(1, 1), "degree": 1, "terms": (ONE,)},
     ("terms", ()), True,
     ({"ambient": AmbientSpace(1, 2), "degree": 2, "terms": (ONE,)},
      "term degree 1 differs from expression degree 2")),
    (VectorFieldPt, {"terms": ((1, Fraction(2)),)}, ("terms", ()), True, None),
    (VerificationReport,
     {"relation": "bbt", "params": {"g": 1}, "pairings": [("psi_1", Fraction(0))],
      "passed": True, "trivial": False, "millis": 3, "caveat": "c"},
     ("passed", False), False, None),
    (CacheStore, {"entries": {CorrelatorKey(1, (1,), ()): Fraction(1, 24)}, "version": "v1",
                  "trusted": True},
     ("version", "v0"), False, None),
]


@pytest.mark.parametrize("cls, fields, change, frozen, invalid", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, fields, change, frozen, invalid):
    a, b = cls(**fields), cls(**fields)
    assert a == b and a is not b
    name, value = change
    assert a != cls(**{**fields, name: value})
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={getattr(a, k)!r}' for k in fields)})"
    if frozen:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, name, value)
        assert a != b
    if invalid is not None:
        bad, message = invalid
        with pytest.raises(ValueError, match=message):
            cls(**bad)


@pytest.mark.parametrize("cls, fields, invalid",
                         [(row[0], row[1], row[4]) for row in RECORDS if row[4] is not None],
                         ids=[row[0].__name__ for row in RECORDS if row[4] is not None])
def test_make_and_replace_check_like_the_constructor(cls, fields, invalid):
    bad, message = invalid
    with pytest.raises(ValueError) as direct:
        cls(**bad)
    assert str(direct.value) == message
    record = cls(**fields)
    for call in (lambda: record._replace(**bad), lambda: cls._make({**fields, **bad}.values())):
        with pytest.raises(ValueError) as made:
            call()
        assert type(made.value) is ValueError and str(made.value) == message
    # a valid change still builds the record, checked, as its own class
    assert type(record._replace(**fields)) is cls and record._replace(**fields) == record
    assert cls._make(fields.values()) == record


def test_make_and_replace_refuse_a_non_integer_test():
    # both used to build the record without its checks
    with pytest.raises(ValueError, match="non-integer descendent level 1.5"):
        TestMonomial((1,))._replace(psi_exps=(1.5,))
    with pytest.raises(ValueError, match="non-integer descendent level 2.5"):
        TestMonomial._make([(2.5,), ()])


#: class, valid fields, and (a changed field, its refused value, the message)
REFUSALS = [
    (SeparatingStratum, (1, 1, frozenset({1}), (0, 1), (0,)), [
        (0, 1.0, "non-integer genus 1.0"), (1, True, "non-integer genus True"),
        (3, (0, 1.0), "non-integer node exponent 1.0"),
        (4, (0.0,), "non-integer decoration exponent 0.0"),
        (2, frozenset({1.0}), "non-integer marking label 1.0"),
        (0, -1, "genus must be nonnegative"), (3, (-1, 2), "negative decoration exponent"),
        (4, (-1,), "negative decoration exponent"),
        (0, 0, "unstable glued factor"), (1, 0, "unstable glued factor"),
    ]),
    (TestMonomial, ((1, 0), (2,)), [
        (0, (1.0, 0), "non-integer descendent level 1.0"),
        (1, (True,), "non-integer kappa index True"),
        (0, (-1, 0), "negative descendent level"),
        (1, (0,), "kappa index must be positive"),
    ]),
]


@pytest.mark.parametrize("cls, fields, refusals", REFUSALS,
                         ids=[row[0].__name__ for row in REFUSALS])
def test_public_constructors_make_and_replace_refuse_bad_fields(cls, fields, refusals):
    # the pairing layer builds some records unchecked from fields sound by
    # construction; every public way of building one still checks them
    record = cls(*fields)
    for index, value, message in refusals:
        bad = fields[:index] + (value,) + fields[index + 1:]
        for call in (lambda: cls(*bad), lambda: cls._make(bad),
                     lambda: record._replace(**{cls._fields[index]: value})):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message, (cls, index, value)


def test_import_loads_neither_dataclasses_nor_inspect():
    # both are costly imports that no tautrr module needs
    src = str(Path(tautrr.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import tautrr.cache, tautrr.cli, tautrr.engine, tautrr.relations, tautrr.strata, "
        "tautrr.universal\n"
        "assert sys.modules['tautrr'].__file__.startswith(sys.path[0])\n"
        "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_class_expr_builds_its_plan_once():
    expr = ClassExpr.make(AmbientSpace(1, 1), 1, [ONE])
    assert expr._plan is expr._plan
