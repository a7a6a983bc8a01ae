"""Formal class expressions on a fixed moduli space and exact test pairings.

A :class:`ClassExpr` is a rational linear combination of decorated terms of
one common codimension on one ambient space: interior psi/kappa monomials,
one-node separating strata, and pushforwards along the irreducible gluing
map.  Pairing against a psi/kappa test monomial evaluates by pulling the
test back to the stratum factors (psi classes route to the factor carrying
their marking, each kappa index distributes to either factor) and splitting
into a product of two correlator-engine integrals with the node exponents
inserted.

Each expression builds one pairing plan, on first use: its separating
strata grouped by marking split, then by factor 1 (genus and marking
decorations), then by node exponent a.  Split- and group-level work is done
once per split or group, not per term: labels sort once per split, the
node-exponent shift once per group.  A test's kappa parts split over the
two factors once per call, and a split's pullback rows differ only in
them, so each factor decoration is added to the test exponents and sorted
once per split and test.  For each pullback row and group, factor 1's
dimension gate solves for a, so the factor-1 integral is taken once and
only the strata with that a are visited; every factor inserts its node
exponent into its sorted exponents in place.  Products are summed as
integer numerators per denominator and divided once per test.  An
interior or gluing term is planned as one integral (genus, marking
exponents, sorted node exponents, kappa parts).  Every record, the test
too, checks its fields when built (by `_make` and `_replace` as well);
`enumerate_tests`, the relations' boundary sums and the relation builders
skip the repeat check for fields sound by construction (strata differing
only in their node exponents from one checked sibling, expressions of
checked terms of their own degree).  Every integral is read from the
engine's memo, or on a miss from its gated `CorrelatorEngine._psi_kappa`,
with sorted exponents and kappa parts.  `pair_with_tests` pairs a list of
tests in one call; `pair_with_test` is its one-test call.

Canonical text grammar for rendered terms (stable across releases):

    interior          coeff * psi_1^2 psi_3 kappa_2 kappa_1
    separating        coeff * Delta[g1,g2|{1,2}](psi*1^a, psi*2^b)
    irreducible glue  coeff * iota[g,2](psi*1^a, psi*2^b)

with `1` for the empty monomial and coefficients rendered as num/den.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import add
from typing import NamedTuple

from .cache import format_rational
from .engine import (ZERO, CorrelatorEngine, _exact, _integers, _submultisets,
                     _sum_by_denominator, is_stable, moduli_dim)

# Records are named tuples (equality, hash, repr and read-only fields); each checks
# its fields, ints first (engine._integers), in __new__ of a private tuple's subclass.


class _Checked:
    """Makes a record's ``_make``, and so its ``_replace``, build through its checked __new__."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class _AmbientSpace(NamedTuple):
    g: int
    n: int


class AmbientSpace(_Checked, _AmbientSpace):
    """A stable (g, n) moduli space; dimension 3g - 3 + n."""

    __slots__ = ()

    def __new__(cls, g: int, n: int):
        _integers("genus", (g,))
        _integers("marking count", (n,))
        if g < 0 or n < 0:
            raise ValueError("genus and marking count must be nonnegative")
        if not is_stable(g, n):
            raise ValueError("unstable moduli space")
        return super().__new__(cls, g, n)

    @property
    def dim(self) -> int:
        return moduli_dim(self.g, self.n)


class _Monomial(NamedTuple):
    psi_exps: tuple[int, ...]
    kappa_parts: tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return sum(self.psi_exps) + sum(self.kappa_parts)

    def render(self) -> str:
        pieces = [f"psi_{i}" if e == 1 else f"psi_{i}^{e}"
                  for i, e in enumerate(self.psi_exps, start=1) if e]
        pieces += [f"kappa_{b}" for b in self.kappa_parts]
        return " ".join(pieces) or "1"


class _CheckedMonomial(_Checked, _Monomial):
    """Nonnegative int exponents (``_exponent`` in errors), positive int kappa indices."""

    __slots__ = ()
    _exponent = "decoration exponent"

    def __new__(cls, psi_exps: tuple[int, ...], kappa_parts: tuple[int, ...] = ()):
        psi_exps = _integers(cls._exponent, psi_exps)
        if psi_exps and min(psi_exps) < 0:
            raise ValueError(f"negative {cls._exponent}")
        kappa_parts = _integers("kappa index", kappa_parts)
        if kappa_parts and min(kappa_parts) < 1:
            raise ValueError("kappa index must be positive")
        return super().__new__(cls, psi_exps, kappa_parts)


class TestMonomial(_CheckedMonomial):
    """A psi exponent vector plus a kappa partition, used as a pairing probe."""

    __slots__ = ()
    __test__ = False  # not a pytest collection target
    _exponent = "descendent level"


class InteriorTerm(_CheckedMonomial):
    """A psi/kappa monomial supported on all of the ambient space."""

    __slots__ = ()


class _SeparatingStratum(NamedTuple):
    g1: int
    g2: int
    markings1: frozenset[int]
    node_exps: tuple[int, int]
    marking_exps: tuple[int, ...]


class SeparatingStratum(_Checked, _SeparatingStratum):
    """A one-node separating stratum decorated with node and marking exponents.

    The first factor has genus ``g1`` and carries the markings in
    ``markings1`` (1-based labels); its node branch carries
    psi^{node_exps[0]}.  Kappa decorations never attach to stored strata;
    kappa enters only through test pullback.
    """

    __slots__ = ()

    def __new__(cls, g1: int, g2: int, markings1: frozenset[int], node_exps: tuple[int, int],
                marking_exps: tuple[int, ...]):
        node_exps, marking_exps = _decorations(node_exps, marking_exps)
        if min(_integers("genus", (g1, g2))) < 0:
            raise ValueError("genus must be nonnegative")
        n = len(marking_exps)
        if markings1 and (min(_integers("marking label", markings1)) < 1 or max(markings1) > n):
            raise ValueError("marking label outside the ambient marking set")
        n1 = len(markings1)
        # both factors stable: is_stable(g1, n1 + 1) and is_stable(g2, n - n1 + 1)
        if 2 * g1 - 1 + n1 <= 0 or 2 * g2 - 1 + n - n1 <= 0:
            raise ValueError("unstable glued factor")
        return super().__new__(cls, g1, g2, markings1, node_exps, marking_exps)

    @property
    def degree(self) -> int:
        return 1 + sum(self.node_exps) + sum(self.marking_exps)

    def markings2(self) -> frozenset[int]:
        return frozenset(range(1, len(self.marking_exps) + 1)) - self.markings1

    def render(self) -> str:
        labels = "{" + ",".join(str(i) for i in sorted(self.markings1)) + "}"
        a, b = self.node_exps
        body = f"Delta[{self.g1},{self.g2}|{labels}](psi*1^{a}, psi*2^{b})"
        deco = _Monomial(self.marking_exps).render()
        return body if deco == "1" else f"{deco} {body}"


class _NonSeparatingPushforward(NamedTuple):
    source_g: int
    node_exps: tuple[int, int]
    marking_exps: tuple[int, ...]


class NonSeparatingPushforward(_Checked, _NonSeparatingPushforward):
    """Pushforward along the gluing of two markings into one node.

    The source space is (source_g, n + 2) with the two glued markings
    carrying psi^{node_exps}; the term lives on the (source_g + 1, n)
    ambient space.
    """

    __slots__ = ()

    def __new__(cls, source_g: int, node_exps: tuple[int, int], marking_exps: tuple[int, ...]):
        node_exps, marking_exps = _decorations(node_exps, marking_exps)
        if min(_integers("genus", (source_g,))) < 0:
            raise ValueError("genus must be nonnegative")
        if not is_stable(source_g, len(marking_exps) + 2):
            raise ValueError("unstable gluing source")
        return super().__new__(cls, source_g, node_exps, marking_exps)

    @property
    def degree(self) -> int:
        return 1 + sum(self.node_exps) + sum(self.marking_exps)

    def render(self) -> str:
        a, b = self.node_exps
        body = f"iota[{self.source_g},{len(self.marking_exps) + 2}](psi*1^{a}, psi*2^{b})"
        deco = _Monomial(self.marking_exps).render()
        return body if deco == "1" else f"{deco} {body}"


def _decorations(node_exps, marking_exps) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Node and marking exponents as tuples, refusing one that is not an int or is negative."""
    node_exps = _integers("node exponent", node_exps)
    marking_exps = _integers("decoration exponent", marking_exps)
    if min(node_exps) < 0 or marking_exps and min(marking_exps) < 0:
        raise ValueError("negative decoration exponent")
    return node_exps, marking_exps


Term = InteriorTerm | SeparatingStratum | NonSeparatingPushforward


class _ClassExpr(NamedTuple):
    ambient: AmbientSpace
    degree: int
    terms: tuple[tuple[Fraction, Term], ...]


class ClassExpr(_Checked, _ClassExpr):
    """An int or Fraction combination of same-codimension terms on one ambient space."""

    # no __slots__: the instance dict holds the cached _plan

    def __new__(cls, ambient: AmbientSpace, degree: int,
                terms: tuple[tuple[Fraction, Term], ...]):
        _integers("degree", (degree,))
        for coeff, term in terms:
            _exact(coeff)
            if term.degree != degree:
                raise ValueError(
                    f"term degree {term.degree} differs from expression degree {degree}"
                )
            exps = term.psi_exps if isinstance(term, InteriorTerm) else term.marking_exps
            if len(exps) != ambient.n:
                raise ValueError("term marking count differs from the ambient space")
            if isinstance(term, SeparatingStratum) and term.g1 + term.g2 != ambient.g:
                raise ValueError("stratum genera do not add up to the ambient genus")
            if isinstance(term, NonSeparatingPushforward) and term.source_g + 1 != ambient.g:
                raise ValueError("gluing source genus does not match the ambient genus")
        return super().__new__(cls, ambient, degree, terms)

    @classmethod
    def make(cls, ambient: AmbientSpace, degree: int, terms) -> "ClassExpr":
        return cls(ambient, degree, tuple((Fraction(c) if type(c) is int else c, t)
                                          for c, t in terms))

    @cached_property
    def _plan(self):
        """The pairing plan, built on first use (see :func:`_pairing_plan`)."""
        return _pairing_plan(self)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{format_rational(coeff)} * {term.render()}" for coeff, term in self.terms
        )


# ----------------------------------------------------------------------
# enumeration of test monomials
# ----------------------------------------------------------------------


def _exponent_vectors(total: int, n: int):
    """The length-n vectors of nonnegative integers summing to total, descending lex."""
    if n <= 1:
        if n or not total:
            yield (total,) * n
        return
    for first in range(total, -1, -1):
        for tail in _exponent_vectors(total - first, n - 1):
            yield (first,) + tail


def _partitions(total: int):
    """Partitions into descending parts >= 1, in descending lex order: each
    lowers the last part above 1 of the one before and refills greedily."""
    parts, ones = ([total], 0) if total > 1 else ([], total)
    yield tuple(parts) + (1,) * ones
    while parts:
        v = parts.pop()
        if v == 2:
            ones += 2
        else:
            q, rest = divmod(v + ones, v - 1)
            parts += [v - 1] * q + [rest] * (rest > 1)
            ones = int(rest == 1)
        yield tuple(parts) + (1,) * ones


def _tests(n: int, degree: int):
    """(psi exponents, kappa parts) of each test in enumerate_tests' order;
    with no markings only the kappa degree ``degree`` lists anything."""
    for kappa_degree in range(degree + 1) if n else (degree,):
        for psi in _exponent_vectors(degree - kappa_degree, n):
            for kappa in _partitions(kappa_degree):
                yield psi, kappa


def count_tests(n: int, degree: int, ceiling: int) -> int:
    """How many tests enumerate_tests lists on a space with n markings (0
    for a negative degree), counted from the same listing without building
    a TestMonomial.  Past ``ceiling`` the count stops at ``ceiling + 1``."""
    if degree < 0:
        return 0
    return len(list(islice(_tests(n, degree), ceiling + 1)))


def enumerate_tests(ambient: AmbientSpace, degree: int) -> list[TestMonomial]:
    """All psi/kappa test monomials of the given degree, psi-heavy first, then descending lex."""
    if min(_integers("degree", (degree,))) < 0:
        raise ValueError("degree must be nonnegative")
    # _tests lists int exponents >= 0 and kappa parts >= 1, so no test is re-checked
    return [tuple.__new__(TestMonomial, fields) for fields in _tests(ambient.n, degree)]


# ----------------------------------------------------------------------
# pullback and pairing
# ----------------------------------------------------------------------


def _kappa_splits(kappa_parts: tuple[int, ...]):
    """The pullback of a test's kappa parts to a stratum's two factors.

    Each kappa index restricts to (kappa on factor 1) + (kappa on factor
    2), so the kappa multiset splits over its sub-multisets, each split
    counted once per index subset giving it.  Returns the parts ascending
    and rows (factor-1 kappa degree, kappa1, kappa2, multiplicity) with
    kappa parts ascending and an ``int`` multiplicity; they depend on the
    kappa parts only, so one list serves every test and split sharing them.
    """
    ascending = tuple(sorted(kappa_parts))
    return ascending, [(sum(k1), k1, k2, weight) for k2, k1, weight in _submultisets(ascending)]


def _pairing_plan(expr: ClassExpr):
    """The terms of ``expr`` arranged for pairing; built once per expression.

    Returns (integrals, splits).  ``integrals`` lists each interior and
    gluing term as one integral (coefficient numerator, denominator, genus,
    marking exponents, node exponents sorted, kappa parts): test psi classes
    add to the marking exponents and test kappa parts join the kappa parts,
    since kappa classes pull back unchanged along the gluing.  ``splits`` lists
    (factor-1 labels, factor-2 labels, decorations, groups) per marking
    split of the separating terms, each distinct decoration listed once as
    (factor 1 or 2, its marking exponents on that factor's labels, zeros
    included).  A group gathers the strata sharing factor 1 (genus g1,
    decoration index i1) as (g1, g2, i1, shift, strata by node exponent a),
    each stratum as (numerator, denominator, factor-2 decoration index, b).
    Factor 1's dimension gate solves a = shift - (factor-1 test degree).
    """
    integrals = []
    splits = {}  # markings1 -> (left, right, decos, groups, marking_exps -> deco indices)
    for coeff, term in expr.terms:
        if not isinstance(term, SeparatingStratum):
            g, exps, node, kappa = ((expr.ambient.g, term.psi_exps, (), term.kappa_parts)
                                    if isinstance(term, InteriorTerm) else
                                    (term.source_g, term.marking_exps, sorted(term.node_exps), ()))
            integrals.append((coeff.numerator, coeff.denominator, g, exps, tuple(node), kappa))
            continue
        g1, g2, markings1, (a, b), exps = term
        split = splits.get(markings1)
        if split is None:
            split = splits[markings1] = (sorted(markings1), sorted(term.markings2()), {}, {}, {})
        left, right, decos, groups, known = split
        ids = known.get(exps)
        if ids is None:
            deco1, deco2 = tuple([exps[i - 1] for i in left]), tuple([exps[i - 1] for i in right])
            ids = known[exps] = (decos.setdefault((1, deco1), len(decos)),
                                 decos.setdefault((2, deco2), len(decos)), sum(deco1))
        i1, i2, deco_sum = ids
        group = groups.get((g1, i1))
        if group is None:
            group = groups[g1, i1] = (g1, g2, i1, 3 * g1 - 2 + len(left) - deco_sum, {})
        group[4].setdefault(a, []).append((coeff.numerator, coeff.denominator, i2, b))
    return integrals, [(left, right, list(decos), list(groups.values()))
                       for left, right, decos, groups, _ in splits.values()]


def pair_with_tests(expr: ClassExpr, tests, engine: CorrelatorEngine) -> list[Fraction]:
    """Exact pairings of a class expression against a sequence of test monomials, in order.

    A test whose degree is not complementary pairs to 0 (the trivial
    pairing); each value is linear in the expression.  The plan, the engine
    path and each kappa partition's splits are read once per call.  A
    stratum factor's exponents sort once per split and test; its node
    exponent is inserted.  On an unmarked space no exponents are sorted.
    """
    # an empty list builds no plan; checked records take the engine's internal
    # path, a memoized integral read straight from the memo
    integrals, splits = expr._plan if tests else ((), ())
    memo, psi_kappa = engine._memo.get, engine._psi_kappa
    n, complement = expr.ambient.n, expr.ambient.dim - expr.degree
    kappa_splits = {}  # kappa parts -> _kappa_splits(kappa parts)
    values = []
    for t in tests:
        psi, kappa_parts = t
        if len(psi) != n:
            raise ValueError("marking referenced by the test is absent from the ambient space")
        if t.degree != complement:
            values.append(ZERO)
            continue
        ascending, rows = kappa_splits.get(kappa_parts) or kappa_splits.setdefault(
            kappa_parts, _kappa_splits(kappa_parts))
        sums = {}  # denominator -> integer numerator of the terms over it
        for num, den, g, exps, node, kappa in integrals:
            key = (g, tuple(sorted([*map(add, exps, psi), *node])) if n else node,
                   tuple(sorted(kappa + ascending)) if kappa else ascending)
            if (value := memo(key)) is None:
                value = psi_kappa(*key)
            if top := value.numerator:
                d = den * value.denominator
                sums[d] = sums.get(d, 0) + num * top
        for left, right, decos, groups in splits:
            psi1 = [psi[i - 1] for i in left]
            factor_psi = (None, psi1, [psi[i - 1] for i in right])
            factor_exps = [tuple(sorted(map(add, deco, factor_psi[f]))) for f, deco in decos]
            for kappa_degree, k1, k2, mult in rows:
                degree1 = sum(psi1) + kappa_degree
                for g1, g2, i1, shift, by_a in groups:
                    a = shift - degree1
                    strata = by_a.get(a)
                    if strata is None:
                        continue
                    d1 = factor_exps[i1]
                    i = bisect(d1, a)
                    if (f1 := memo(key := (g1, d1[:i] + (a,) + d1[i:], k1))) is None:
                        f1 = psi_kappa(*key)
                    if not (num1 := f1.numerator):
                        continue
                    num1, den1 = mult * num1, f1.denominator
                    for num, den, i2, b in strata:
                        d2 = factor_exps[i2]
                        i = bisect(d2, b)
                        if (f2 := memo(key := (g2, d2[:i] + (b,) + d2[i:], k2))) is None:
                            f2 = psi_kappa(*key)
                        if top := f2.numerator:
                            d = den * den1 * f2.denominator
                            sums[d] = sums.get(d, 0) + num * num1 * top
        values.append(_sum_by_denominator(sums) if sums else ZERO)
    return values


def pair_with_test(expr: ClassExpr, t: TestMonomial, engine: CorrelatorEngine) -> Fraction:
    """Exact pairing of a class expression against one test monomial (see pair_with_tests)."""
    return pair_with_tests(expr, (t,), engine)[0]
