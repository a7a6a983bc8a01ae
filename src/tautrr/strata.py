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
decorations), then by node exponent a.  The pullback of a test is computed
once per marking split.  For each pullback row and group, factor 1's
dimension gate solves for a, so the factor-1 integral is taken once and
only the strata with that a are visited.  Products are summed as integer
numerators per denominator and divided once per pairing.  The test is
checked once per pairing, so the factor integrals take the engine's
internal gated path (`CorrelatorEngine._psi_kappa`) instead of the public
one.

Canonical text grammar for rendered terms (stable across releases):

    interior          coeff * psi_1^2 psi_3 kappa_2 kappa_1
    separating        coeff * Delta[g1,g2|{1,2}](psi*1^a, psi*2^b)
    irreducible glue  coeff * iota[g,2](psi*1^a, psi*2^b)

with `1` for the empty monomial and coefficients rendered as num/den.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .cache import format_rational
from .engine import CorrelatorEngine, _submultisets, _sum_by_denominator, is_stable, moduli_dim

ZERO = Fraction(0)

# Records are named tuples (equality, hash, repr and read-only fields); one that
# checks its fields does so in __new__ of a subclass of a private named tuple.


class _AmbientSpace(NamedTuple):
    g: int
    n: int


class AmbientSpace(_AmbientSpace):
    """A stable (g, n) moduli space; dimension 3g - 3 + n."""

    __slots__ = ()

    def __new__(cls, g: int, n: int):
        if g < 0 or n < 0:
            raise ValueError("genus and marking count must be nonnegative")
        if not is_stable(g, n):
            raise ValueError("unstable moduli space")
        return super().__new__(cls, g, n)

    @property
    def dim(self) -> int:
        return moduli_dim(self.g, self.n)


class TestMonomial(NamedTuple):
    """A psi exponent vector plus a kappa partition, used as a pairing probe."""

    __test__ = False  # not a pytest collection target

    psi_exps: tuple[int, ...]
    kappa_parts: tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return sum(self.psi_exps) + sum(self.kappa_parts)

    def render(self) -> str:
        pieces = []
        for i, e in enumerate(self.psi_exps, start=1):
            if e == 1:
                pieces.append(f"psi_{i}")
            elif e > 1:
                pieces.append(f"psi_{i}^{e}")
        for b in self.kappa_parts:
            pieces.append(f"kappa_{b}")
        return " ".join(pieces) if pieces else "1"


class _InteriorTerm(NamedTuple):
    psi_exps: tuple[int, ...]
    kappa_parts: tuple[int, ...] = ()


class InteriorTerm(_InteriorTerm):
    """A psi/kappa monomial supported on all of the ambient space."""

    __slots__ = ()

    def __new__(cls, psi_exps: tuple[int, ...], kappa_parts: tuple[int, ...] = ()):
        if any(e < 0 for e in psi_exps):
            raise ValueError("negative decoration exponent")
        if any(b < 1 for b in kappa_parts):
            raise ValueError("kappa index must be positive")
        return super().__new__(cls, psi_exps, kappa_parts)

    @property
    def degree(self) -> int:
        return sum(self.psi_exps) + sum(self.kappa_parts)

    def render(self) -> str:
        return TestMonomial(self.psi_exps, self.kappa_parts).render()


class _SeparatingStratum(NamedTuple):
    g1: int
    g2: int
    markings1: frozenset[int]
    node_exps: tuple[int, int]
    marking_exps: tuple[int, ...]


class SeparatingStratum(_SeparatingStratum):
    """A one-node separating stratum decorated with node and marking exponents.

    The first factor has genus ``g1`` and carries the markings in
    ``markings1`` (1-based labels); its node branch carries
    psi^{node_exps[0]}.  Kappa decorations never attach to stored strata;
    kappa enters only through test pullback.
    """

    __slots__ = ()

    def __new__(cls, g1: int, g2: int, markings1: frozenset[int], node_exps: tuple[int, int],
                marking_exps: tuple[int, ...]):
        if min(node_exps) < 0 or any(e < 0 for e in marking_exps):
            raise ValueError("negative decoration exponent")
        if g1 < 0 or g2 < 0:
            raise ValueError("genus must be nonnegative")
        n = len(marking_exps)
        if not all(1 <= i <= n for i in markings1):
            raise ValueError("marking label outside the ambient marking set")
        n1 = len(markings1)
        if not (is_stable(g1, n1 + 1) and is_stable(g2, (n - n1) + 1)):
            raise ValueError("unstable glued factor")
        return super().__new__(cls, g1, g2, markings1, node_exps, marking_exps)

    @property
    def degree(self) -> int:
        return 1 + sum(self.node_exps) + sum(self.marking_exps)

    def markings2(self) -> frozenset[int]:
        return frozenset(range(1, len(self.marking_exps) + 1)) - self.markings1

    def swapped(self) -> "SeparatingStratum":
        """The same stratum with the two factors listed in the other order."""
        return SeparatingStratum(
            self.g2,
            self.g1,
            self.markings2(),
            (self.node_exps[1], self.node_exps[0]),
            self.marking_exps,
        )

    def render(self) -> str:
        labels = "{" + ",".join(str(i) for i in sorted(self.markings1)) + "}"
        a, b = self.node_exps
        body = f"Delta[{self.g1},{self.g2}|{labels}](psi*1^{a}, psi*2^{b})"
        deco = TestMonomial(self.marking_exps).render()
        return body if deco == "1" else f"{deco} {body}"


class _NonSeparatingPushforward(NamedTuple):
    source_g: int
    node_exps: tuple[int, int]
    marking_exps: tuple[int, ...]


class NonSeparatingPushforward(_NonSeparatingPushforward):
    """Pushforward along the gluing of two markings into one node.

    The source space is (source_g, n + 2) with the two glued markings
    carrying psi^{node_exps}; the term lives on the (source_g + 1, n)
    ambient space.
    """

    __slots__ = ()

    def __new__(cls, source_g: int, node_exps: tuple[int, int], marking_exps: tuple[int, ...]):
        if min(node_exps) < 0 or any(e < 0 for e in marking_exps):
            raise ValueError("negative decoration exponent")
        if source_g < 0:
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
        deco = TestMonomial(self.marking_exps).render()
        return body if deco == "1" else f"{deco} {body}"


Term = InteriorTerm | SeparatingStratum | NonSeparatingPushforward


class _ClassExpr(NamedTuple):
    ambient: AmbientSpace
    degree: int
    terms: tuple[tuple[Fraction, Term], ...]


class ClassExpr(_ClassExpr):
    """A rational combination of same-codimension terms on one ambient space."""

    # no __slots__: the instance dict holds the cached _plan

    def __new__(cls, ambient: AmbientSpace, degree: int,
                terms: tuple[tuple[Fraction, Term], ...]):
        for coeff, term in terms:
            if term.degree != degree:
                raise ValueError(
                    f"term degree {term.degree} differs from expression degree {degree}"
                )
            n_term = _term_marking_count(term)
            if n_term != ambient.n:
                raise ValueError("term marking count differs from the ambient space")
            if isinstance(term, SeparatingStratum) and term.g1 + term.g2 != ambient.g:
                raise ValueError("stratum genera do not add up to the ambient genus")
            if isinstance(term, NonSeparatingPushforward) and term.source_g + 1 != ambient.g:
                raise ValueError("gluing source genus does not match the ambient genus")
        return super().__new__(cls, ambient, degree, terms)

    @classmethod
    def make(cls, ambient: AmbientSpace, degree: int, terms) -> "ClassExpr":
        return cls(ambient, degree, tuple((Fraction(c), t) for c, t in terms))

    @classmethod
    def zero(cls, ambient: AmbientSpace, degree: int) -> "ClassExpr":
        return cls(ambient, degree, ())

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


def _term_marking_count(term: Term) -> int:
    return len(term.psi_exps) if isinstance(term, InteriorTerm) else len(term.marking_exps)


# ----------------------------------------------------------------------
# enumeration of test monomials
# ----------------------------------------------------------------------


def _exponent_vectors(total: int, n: int):
    """All length-n vectors of nonnegative integers with the given sum,
    in descending lexicographic order."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for tail in _exponent_vectors(total - first, n - 1):
            yield (first,) + tail


def _partitions(total: int, max_part: int | None = None):
    """Partitions into parts >= 1, parts descending, partitions in
    descending lexicographic order."""
    if total == 0:
        yield ()
        return
    if max_part is None or max_part > total:
        max_part = total
    for first in range(max_part, 0, -1):
        for tail in _partitions(total - first, first):
            yield (first,) + tail


def enumerate_tests(ambient: AmbientSpace, degree: int) -> list[TestMonomial]:
    """All psi/kappa test monomials of the given total degree, in a fixed
    deterministic order (psi-heavy first, then by descending lex)."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    for kappa_degree in range(degree + 1):
        psi_degree = degree - kappa_degree
        for psi in _exponent_vectors(psi_degree, ambient.n):
            for kappa in _partitions(kappa_degree):
                out.append(TestMonomial(psi, kappa))
    return out


# ----------------------------------------------------------------------
# pullback and pairing
# ----------------------------------------------------------------------


def _pullback_rows(t: TestMonomial, left, right):
    """The pullback of ``t`` to a marking split, ready for the engine.

    ``left`` and ``right`` are the ascending marking labels on the two
    factors.  Each kappa index restricts to (kappa on factor 1) + (kappa
    on factor 2), so the kappa multiset splits over its sub-multisets, each
    split counted once per index subset giving it.  Returns rows
    (factor-1 test degree, psi1, psi2, kappa1, kappa2, multiplicity) with
    kappa parts ascending and an ``int`` multiplicity; they depend on ``t``
    and the split only, so one list serves every term of that split.
    """
    psi1 = tuple(t.psi_exps[i - 1] for i in left)
    psi2 = tuple(t.psi_exps[i - 1] for i in right)
    degree = sum(psi1)
    return [(degree + sum(k1), psi1, psi2, k1, k2, weight)
            for k2, k1, weight in _submultisets(tuple(sorted(t.kappa_parts)))]


def _pairing_plan(expr: ClassExpr):
    """The terms of ``expr`` arranged for pairing; built once per expression.

    Returns (others, splits).  ``others`` lists the interior and gluing
    terms as (coefficient numerator, denominator, term).  ``splits`` lists
    one entry (labels on factor 1, labels on factor 2, groups) per marking
    split of the separating terms.  A group gathers the strata sharing
    factor 1 (genus g1 and its marking decorations deco1) as
    (g1, g2, deco1, shift, strata by node exponent a), each stratum kept as
    (coefficient numerator, denominator, factor-2 decorations, b).  Factor
    1's dimension gate solves a = shift - (factor-1 test degree).
    """
    others = []
    splits = {}
    for coeff, term in expr.terms:
        if not isinstance(term, SeparatingStratum):
            others.append((coeff.numerator, coeff.denominator, term))
            continue
        left, right = sorted(term.markings1), sorted(term.markings2())
        deco1 = tuple(term.marking_exps[i - 1] for i in left)
        deco2 = tuple(term.marking_exps[i - 1] for i in right)
        groups = splits.setdefault(term.markings1, (left, right, {}))[2]
        shift = 3 * term.g1 - 2 + len(deco1) - sum(deco1)
        by_a = groups.setdefault((term.g1, deco1), (term.g1, term.g2, deco1, shift, {}))[4]
        a, b = term.node_exps
        by_a.setdefault(a, []).append((coeff.numerator, coeff.denominator, deco2, b))
    return others, [(left, right, list(groups.values()))
                    for left, right, groups in splits.values()]


def _pair_interior(term: InteriorTerm, t: TestMonomial, ambient: AmbientSpace,
                   engine: CorrelatorEngine) -> Fraction:
    merged = tuple(a + b for a, b in zip(term.psi_exps, t.psi_exps))
    return engine.psi_kappa_integral(ambient.g, merged, term.kappa_parts + t.kappa_parts)


def _pair_nonseparating(term: NonSeparatingPushforward, t: TestMonomial,
                        engine: CorrelatorEngine) -> Fraction:
    # kappa test classes pull back unchanged along the gluing; psi test
    # classes are carried by the surviving markings
    d = tuple(x + y for x, y in zip(term.marking_exps, t.psi_exps)) + term.node_exps
    return engine.psi_kappa_integral(term.source_g, d, t.kappa_parts)


def pair_with_test(expr: ClassExpr, t: TestMonomial, engine: CorrelatorEngine) -> Fraction:
    """Exact pairing of a class expression against a test monomial.

    Returns 0 whenever the degrees are not complementary (the trivial
    pairing); the value is linear in the expression.  A test with a
    negative psi exponent or a kappa index below 1 raises ``ValueError``.
    """
    if len(t.psi_exps) != expr.ambient.n:
        raise ValueError("marking referenced by the test is absent from the ambient space")
    if expr.degree + t.degree != expr.ambient.dim:
        return ZERO
    # coerce and check the test once, as the public engine call would per integral
    t = TestMonomial(tuple(map(int, t.psi_exps)), tuple(map(int, t.kappa_parts)))
    if any(x < 0 for x in t.psi_exps):
        raise ValueError("negative descendent level")
    if any(x <= 0 for x in t.kappa_parts):
        raise ValueError("kappa index must be positive")
    others, splits = expr._plan
    sums = {}  # denominator -> integer numerator of the terms over it
    for num, den, term in others:
        if isinstance(term, InteriorTerm):
            value = _pair_interior(term, t, expr.ambient, engine)
        else:
            value = _pair_nonseparating(term, t, engine)
        if value:
            d = den * value.denominator
            sums[d] = sums.get(d, 0) + num * value.numerator
    # Both factors are stable of nonnegative genus (checked on construction)
    # and the test is checked above, so the factor integrals take the
    # engine's internal path with sorted exponents and kappa parts.
    psi_kappa = engine._psi_kappa
    for left, right, groups in splits:
        for degree1, psi1, psi2, k1, k2, mult in _pullback_rows(t, left, right):
            for g1, g2, deco1, shift, by_a in groups:
                a = shift - degree1
                strata = by_a.get(a)
                if strata is None:
                    continue
                f1 = psi_kappa(g1, tuple(sorted([x + y for x, y in zip(deco1, psi1)] + [a])),
                               k1)
                if not f1:
                    continue
                num1, den1 = mult * f1.numerator, f1.denominator
                for num, den, deco2, b in strata:
                    f2 = psi_kappa(g2, tuple(sorted([x + y for x, y in zip(deco2, psi2)] + [b])),
                                   k2)
                    if f2:
                        d = den * den1 * f2.denominator
                        sums[d] = sums.get(d, 0) + num * num1 * f2.numerator
    return _sum_by_denominator(sums)
