"""Flat degeneration of a presented algebra to its toric initial algebra.

Given verified relations among the generator symbols, a weight functional
p on bidegrees is built so that, within each level-homogeneous relation,
the composite order of monomial bidegrees is reflected (reversed in sign)
by the p-values.  Rescaling each variable by tau^(-w_ij) and clearing
denominators turns every relation g_k into a one-parameter family
g~_k(x, tau) with g~(x, 1) = g and g~(x, 0) the initial form.  All the
identities this construction promises are verified here as exact
polynomial equations, never assumed.

Orientation: the initial form collects the monomials of MAXIMAL p-value,
which are exactly the monomials of composite-minimal bidegree (the ones
whose images cancel in the associated graded).  The consistency of these
two descriptions is checked on every call and a mismatch is an error, so
a wrong global orientation cannot fail silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .algebra import (
    BiDegree,
    CompiledPolynomial,
    Polynomial,
    Ring,
    format_polynomial,
    substitute,
)
from .okounkov import SagbiDatum

__all__ = [
    "DegenerationError",
    "RelationError",
    "NoProjectionError",
    "InconsistentProjectionError",
    "FamilyConstructionError",
    "RelationSet",
    "WeightFunctional",
    "FamilyPresentation",
    "monomial_bidegree",
    "build_projection",
    "initial_form",
    "build_family",
]

TAU = "tau"


class DegenerationError(Exception):
    pass


class RelationError(DegenerationError):
    """A relation is not level-homogeneous or does not vanish."""


class NoProjectionError(DegenerationError):
    """No weight functional satisfies the order constraints."""


class InconsistentProjectionError(DegenerationError):
    """p-maximal monomials disagree with the composite-minimal ones."""


class FamilyConstructionError(DegenerationError):
    pass


def monomial_bidegree(exponents, tags) -> BiDegree:
    """Bidegree of a monomial in tagged variables: levels and values add."""
    level = 0
    value = [0] * len(tags[0].value)
    for e, tag in zip(exponents, tags):
        if e:
            level += e * tag.level
            for i, v in enumerate(tag.value):
                value[i] += e * v
    return BiDegree(level, tuple(value))


# ---------------------------------------------------------------------------
# relation sets


@dataclass(frozen=True)
class RelationSet:
    """Relations among the generator symbols of a presentation.

    Each relation must be homogeneous in the level grading (deg x_ij = i)
    and must vanish identically after substituting the representatives;
    both facts are established at construction, exactly.
    """

    datum: SagbiDatum
    relations: tuple

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        ring = self.datum.symbol_ring
        tags = self.tags
        for idx, g in enumerate(self.relations, start=1):
            if g.ring != ring:
                raise RelationError(
                    "relation %d is not over the presentation's symbol ring" % idx
                )
            if g.is_zero():
                raise RelationError("relation %d is the zero polynomial" % idx)
            levels = {monomial_bidegree(e, tags).level for e in g.terms}
            if len(levels) != 1:
                raise RelationError(
                    "relation %d mixes levels %s" % (idx, sorted(levels))
                )
            if not self.datum.substitute(g).is_zero():
                raise RelationError(
                    "relation %d does not vanish on the representatives" % idx
                )

    @cached_property
    def tags(self) -> tuple:
        return tuple(g.bidegree for g in self.datum.generators)

    @property
    def variables(self) -> tuple:
        return self.datum.symbol_ring.variables


# ---------------------------------------------------------------------------
# weight functionals


@dataclass(frozen=True)
class WeightFunctional:
    """Integer functional p on bidegrees, acting by p . (k, u).

    Carries the variable tags of the relation set it was built for, so the
    p-value of a monomial is computable without further context.  Entries
    are even (the construction doubles), which forces every within-relation
    p-gap to be even, in particular never 1.
    """

    p: tuple
    tags: tuple

    def __post_init__(self):
        p = tuple(int(x) for x in self.p)
        object.__setattr__(self, "p", p)
        if any(x % 2 for x in p):
            raise NoProjectionError("weight functional entries must be even")
        for tag in self.tags:
            if len(tag.value) + 1 != len(p):
                raise NoProjectionError(
                    "p has length %d but values have length %d"
                    % (len(p), len(tag.value))
                )

    def pair(self, bd: BiDegree) -> int:
        return self.p[0] * bd.level + sum(
            a * b for a, b in zip(self.p[1:], bd.value)
        )

    def weight_of(self, exponents) -> int:
        return self.pair(monomial_bidegree(exponents, self.tags))

    @property
    def variable_weights(self) -> tuple:
        return tuple(self.pair(tag) for tag in self.tags)

    def verify(self, relations):
        """Check the order constraints against every relation, loudly.

        Within a level-homogeneous relation the composite order on monomial
        bidegrees reduces to lex on values; p must reverse it (composite
        smaller means p-value larger), separate distinct degrees, and keep
        every gap away from 1.
        """
        for idx, g in enumerate(relations, start=1):
            degs = [monomial_bidegree(e, self.tags) for e in g.terms]
            for a, b in combinations(degs, 2):
                if a == b:
                    continue
                pa, pb = self.pair(a), self.pair(b)
                if pa == pb:
                    raise NoProjectionError(
                        "relation %d: p does not separate %s and %s"
                        % (idx, a, b)
                    )
                if (a < b) != (pa > pb):
                    raise NoProjectionError(
                        "relation %d: p does not reverse the composite order"
                        " on %s and %s" % (idx, a, b)
                    )
                if abs(pa - pb) == 1:
                    raise NoProjectionError(
                        "relation %d: p-gap 1 between %s and %s" % (idx, a, b)
                    )


def build_projection(rels: RelationSet) -> WeightFunctional:
    """Order-reversing weight functional for a relation set.

    Nested base-B construction: with B one more than the largest total
    coordinate spread between two monomials of one relation, the functional
    p = 2 (B^n, -B^(n-1), ..., -1) reverses lex on values with gaps of at
    least two.  Doubling keeps every entry and every gap even.  The result
    is deterministic and verified before being returned; an empty relation
    set is allowed and yields the canonical functional with B = 1.
    """
    tags = rels.tags
    n = len(tags[0].value)
    spread = 0
    for g in rels.relations:
        degs = [monomial_bidegree(e, tags) for e in g.terms]
        for a, b in combinations(degs, 2):
            spread = max(
                spread, sum(abs(x - y) for x, y in zip(a.value, b.value))
            )
    base = 1 + spread
    p = (2 * base**n,) + tuple(-2 * base ** (n - j) for j in range(1, n + 1))
    functional = WeightFunctional(p, tags)
    functional.verify(rels.relations)
    return functional


def initial_form(g: Polynomial, p: WeightFunctional) -> Polynomial:
    """Monomials of g with maximal p-value.

    Cross-checked against the valuation picture: the p-maximal monomials
    must be exactly the ones of composite-minimal bidegree.  A mismatch
    means the functional does not reflect the order on this polynomial and
    raises rather than returning a wrong initial form.
    """
    if g.is_zero():
        raise ValueError("the zero polynomial has no initial form")
    degs = {e: monomial_bidegree(e, p.tags) for e in g.terms}
    weights = {e: p.pair(d) for e, d in degs.items()}
    top = max(weights.values())
    by_weight = {e for e, w in weights.items() if w == top}
    least = min(degs.values())
    by_order = {e for e, d in degs.items() if d == least}
    if by_weight != by_order:
        raise InconsistentProjectionError(
            "p-maximal monomials %s differ from composite-minimal ones %s"
            % (sorted(by_weight), sorted(by_order))
        )
    return Polynomial(g.ring, {e: g.terms[e] for e in by_weight})


# ---------------------------------------------------------------------------
# the family


@dataclass(frozen=True)
class FamilyPresentation:
    """The one-parameter family: weights, levels, g~_k, and initial forms.

    family polynomials live in the symbol ring extended by tau (last
    variable).  Invariants are established by build_family; the fields are
    plain data.
    """

    relation_set: RelationSet
    functional: WeightFunctional
    weights: tuple
    levels: tuple
    family: tuple
    initial_forms: tuple

    @property
    def family_ring(self) -> Ring:
        return Ring(self.relation_set.datum.symbol_ring.variables + (TAU,))

    @cached_property
    def _compiled(self) -> tuple:
        """The family relations and all their partial derivatives (relation
        by relation, each by the symbols and then tau), each compiled as one
        stacked system, once per presentation; the arrays are read-only."""
        nv = self.family_ring.nvars
        relations = CompiledPolynomial.stack(self.family, nv)
        partials = CompiledPolynomial.stack(
            [_differentiate(g, v) for g in self.family for v in range(nv)], nv
        )
        for system in (relations, partials):
            for array in (system.exps, system.coeffs, system.magnitudes):
                array.setflags(write=False)
        return relations, partials

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.relation_set.variables),
            "weights": [int(w) for w in self.weights],
            "levels": [int(l) for l in self.levels],
            "relations": [format_polynomial(g) for g in self.relation_set.relations],
            "family": [format_polynomial(g) for g in self.family],
            "initial_forms": [format_polynomial(g) for g in self.initial_forms],
        }


def _differentiate(poly: Polynomial, v: int) -> Polynomial:
    # lowering exponent v by one keeps distinct monomials distinct, so the
    # numerators need no merging, only the final gcd of _make
    num = {}
    for exps, a in poly._num.items():
        k = exps[v]
        if k:
            e = list(exps)
            e[v] = k - 1
            num[tuple(e)] = a * k
    return Polynomial._make(poly.ring, num, poly._den)


def build_family(rels: RelationSet, p: WeightFunctional) -> FamilyPresentation:
    """Rescale the relations into the flat family over the tau-line.

    g~_k is tau^(l_k) g_k(tau^(-w_11) x_11, ...): each monomial of g_k
    picks up tau to the gap between l_k and its own p-value.  Everything
    the construction promises is re-checked on the result as exact
    polynomial identities: nonnegative tau-exponents, g~(x,1) = g,
    g~(x,0) = initial form, and a vanishing tau^1 coefficient.
    """
    p.verify(rels.relations)
    symbol_ring = rels.datum.symbol_ring
    fam_ring = Ring(symbol_ring.variables + (TAU,))
    one = Polynomial.constant(symbol_ring, 1)
    symbols = [Polynomial.variable(symbol_ring, v) for v in symbol_ring.variables]
    levels = []
    family = []
    initials = []
    for idx, g in enumerate(rels.relations, start=1):
        weights = {e: p.weight_of(e) for e in g.terms}
        ell = max(weights.values())
        terms = {}
        for e, c in g.terms.items():
            gap = ell - weights[e]
            if gap < 0:
                raise FamilyConstructionError(
                    "relation %d, monomial %s: negative tau-exponent %d"
                    % (idx, e, gap)
                )
            if gap == 1:
                raise FamilyConstructionError(
                    "relation %d, monomial %s: tau-exponent 1 (the functional"
                    " was not doubled?)" % (idx, e)
                )
            terms[e + (gap,)] = c
        curve = Polynomial(fam_ring, terms)
        init = initial_form(g, p)
        if substitute(curve, symbols + [one], one) != g:
            raise FamilyConstructionError(
                "relation %d: specializing tau = 1 does not recover it" % idx
            )
        if substitute(curve, symbols + [Polynomial.zero(symbol_ring)], one) != init:
            raise FamilyConstructionError(
                "relation %d: specializing tau = 0 misses the initial form" % idx
            )
        levels.append(ell)
        family.append(curve)
        initials.append(init)
    return FamilyPresentation(
        relation_set=rels,
        functional=p,
        weights=p.variable_weights,
        levels=tuple(levels),
        family=tuple(family),
        initial_forms=tuple(initials),
    )

