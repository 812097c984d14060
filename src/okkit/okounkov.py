"""Value semigroups, subduction, and Newton-Okounkov bodies.

A graded presentation is a list of generators f_ij at levels i, each with a
declared valuation vector u_ij, together with a distinguished level-one
section h of value zero.  Representatives are polynomials in intrinsic
chart coordinates standing for f_ij / h^i, so multiplication of classes is
plain polynomial multiplication (optionally followed by reduction modulo a
chart relation).  The extended value of a nonzero class at level k is
(k, v(class)); these pairs are ordered by the composite order from
``algebra``, under which higher level means smaller.

The value semigroup collects the generator values; its Newton-Okounkov
body is the convex hull of the level-normalized values u/k, computed
exactly over the rationals.  Hilbert counts, subduction and slices read
one int64 table of level sets per semigroup, held by it and freed with it.
Nothing is cached for the life of the process, and everything here is
deterministic, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, ge, sub
from typing import NamedTuple

import numpy as np

from . import _lattice
from ._polytope import OkounkovBody, _scaled_hull, _vertices, convex_hull
from .algebra import (
    BiDegree,
    Polynomial,
    Ring,
    SeriesContext,
    UndefinedValuationError,
    monomial_valuation,
    substitute,
)

__all__ = [
    "OkounkovError",
    "PresentationError",
    "NotInSemigroupError",
    "EmptySemigroupError",
    "InsufficientSamplesError",
    "SliceCompletenessWarning",
    "MONOMIAL_BACKEND",
    "SERIES_BACKEND",
    "SagbiGenerator",
    "SagbiDatum",
    "ValueSemigroup",
    "OkounkovBody",
    "GradingHomomorphism",
    "reduce_modulo",
    "subduct",
    "semigroup_hilbert",
    "okounkov_body",
    "degree_check",
    "slice",
]


class OkounkovError(Exception):
    pass


class PresentationError(OkounkovError):
    """A SagbiDatum violates one of its declared invariants."""


class NotInSemigroupError(OkounkovError):
    """A value fell outside the span of the generator values.

    During subduction this signals that the presentation is not actually a
    subalgebra basis for the input: the element's value cannot be matched
    by any product of generators at the right level.
    """


class EmptySemigroupError(OkounkovError):
    pass


class InsufficientSamplesError(OkounkovError):
    pass


class SliceCompletenessWarning(UserWarning):
    """The sliced semigroup's generators may be incomplete."""


MONOMIAL_BACKEND = "monomial"
SERIES_BACKEND = "series"


# ---------------------------------------------------------------------------
# reduction modulo a chart relation


def reduce_modulo(f: Polynomial, modulus: Polynomial | None) -> Polynomial:
    """Remainder of f under division by a single relation.

    The relation's lexicographically largest term is used as the rewriting
    head, so the result is the normal form in the quotient ring and the
    zero test on classes is exact.  With modulus None this is the identity.

    The rewriting runs on f's integer numerators, largest reducible term
    first.  A step replaces the term a x^e by -(a / h) x^(e - head) times
    the tail, h the head's numerator; every other numerator and the
    denominator are first scaled by |h|, so the quotient stays integral
    and a relation with head coefficient +-1 never scales.
    """
    if modulus is None:
        return f
    if modulus.is_zero():
        raise ValueError("zero modulus")
    f._check_ring(modulus)
    head = max(modulus._num)
    h = modulus._num[head]
    scale, sign = abs(h), (1 if h > 0 else -1)
    tail = [(e, sign * c) for e, c in modulus._num.items() if e != head]
    num, den = f._num, f._den
    reducible = {e for e in num if all(map(ge, e, head))}
    if not reducible:
        return f
    num = dict(num)
    while reducible:
        e = max(reducible)
        reducible.remove(e)
        a = num.pop(e)
        if scale != 1:
            for x in num:
                num[x] *= scale
            den *= scale
        shift = tuple(map(sub, e, head))
        for et, c in tail:
            x = tuple(map(add, shift, et))
            s = num.get(x, 0) - a * c
            if s:
                num[x] = s
                if all(map(ge, x, head)):
                    reducible.add(x)
            else:
                del num[x]
                reducible.discard(x)
    return Polynomial._make(f.ring, num, den)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class SagbiGenerator:
    """One generator: level, 1-based index within the level, representative
    polynomial in the intrinsic chart, and its declared valuation."""

    level: int
    index: int
    representative: Polynomial
    value: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(int(x) for x in self.value))
        if self.level < 1:
            raise PresentationError("generator levels start at 1")
        if self.index < 1:
            raise PresentationError("generator indices start at 1")

    @property
    def symbol(self) -> str:
        return "x%d_%d" % (self.level, self.index)

    @property
    def bidegree(self) -> BiDegree:
        return BiDegree(self.level, self.value)


@dataclass(frozen=True)
class SagbiDatum:
    """A graded presentation with valuation data.

    backend selects how representatives are valued: "monomial" takes the
    lexicographically minimal exponent in the chart ring, "series" expands
    through a SeriesContext and returns the order of vanishing (a length-1
    value vector).  Either way :meth:`lead` reads the value and the
    leading coefficient off one reduction.  modulus, when present, is a
    single chart relation; all representatives and intermediate results
    are kept in normal form with respect to it.

    Construction verifies the declared invariants: values are pairwise
    distinct within each level, exactly one level-1 generator has value
    zero (the section), and every declared value matches the backend.
    """

    ring: Ring
    generators: tuple
    backend: str = MONOMIAL_BACKEND
    series_context: SeriesContext | None = None
    modulus: Polynomial | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.backend not in (MONOMIAL_BACKEND, SERIES_BACKEND):
            raise PresentationError("unknown valuation backend %r" % self.backend)
        if self.backend == SERIES_BACKEND and self.series_context is None:
            raise PresentationError("series backend needs a SeriesContext")
        if self.modulus is not None and self.ring.laurent:
            raise PresentationError("chart relations and Laurent rings do not mix")
        if not self.generators:
            raise PresentationError("a presentation needs at least one generator")
        canonical = sorted(self.generators, key=lambda g: (g.level, g.index))
        if list(self.generators) != canonical:
            raise PresentationError("generators must be sorted by (level, index)")

        by_level = {}
        for g in self.generators:
            if not isinstance(g, SagbiGenerator):
                raise PresentationError("generators must be SagbiGenerator")
            if g.representative.ring != self.ring:
                raise PresentationError(
                    "generator %s lives in a different ring" % g.symbol
                )
            if len(g.value) != self.value_dim:
                raise PresentationError(
                    "value of %s has length %d, expected %d"
                    % (g.symbol, len(g.value), self.value_dim)
                )
            by_level.setdefault(g.level, []).append(g)

        for level, gens in sorted(by_level.items()):
            indices = sorted(g.index for g in gens)
            if indices != list(range(1, len(gens) + 1)):
                raise PresentationError(
                    "level %d indices must run 1..%d" % (level, len(gens))
                )
            values = {g.value for g in gens}
            if len(values) != len(gens):
                raise PresentationError(
                    "level %d has repeated values; the images would not be"
                    " a vector space basis" % level
                )

        zero = (0,) * self.value_dim
        sections = [g for g in self.generators if g.level == 1 and g.value == zero]
        if len(sections) != 1:
            raise PresentationError(
                "expected exactly one level-1 generator of value 0, found %d"
                % len(sections)
            )

        for g, (actual, _) in zip(self.generators, self._generator_leads):
            if g.value != actual:
                raise PresentationError(
                    "declared value %s of %s disagrees with the %s backend"
                    " value %s" % (g.value, g.symbol, self.backend, actual)
                )

    # -- derived data --------------------------------------------------------

    @property
    def value_dim(self) -> int:
        if self.backend == SERIES_BACKEND:
            return 1
        return self.ring.nvars

    @property
    def section(self) -> SagbiGenerator:
        zero = (0,) * self.value_dim
        for g in self.generators:
            if g.level == 1 and g.value == zero:
                return g
        raise PresentationError("no section present")

    @cached_property
    def symbol_ring(self) -> Ring:
        return Ring(tuple(g.symbol for g in self.generators))

    @cached_property
    def _generator_leads(self) -> tuple:
        """The leading term (value, coefficient) of each generator."""
        return tuple(self.lead(g.representative) for g in self.generators)

    def semigroup(self) -> "ValueSemigroup":
        """The semigroup of the generators' bidegrees, built once."""
        return self._semigroup

    @cached_property
    def _semigroup(self) -> "ValueSemigroup":
        return ValueSemigroup(tuple(g.bidegree for g in self.generators))

    # -- the valuation interface ----------------------------------------------

    def reduce(self, f: Polynomial) -> Polynomial:
        return reduce_modulo(f, self.modulus)

    def lead(self, f: Polynomial) -> tuple:
        """Leading term (value, coefficient) of the class of f: the value
        vector and the image in the one-dimensional leaf, from one
        reduction."""
        g = self.reduce(f)
        if g.is_zero():
            raise UndefinedValuationError("the zero class has no value")
        if self.backend == MONOMIAL_BACKEND:
            u = monomial_valuation(g)
            return u, g.coefficient(u)
        order, coefficient = self.series_context.lead(g)
        return (order,), coefficient

    def substitute(self, expression: Polynomial) -> Polynomial:
        """Replace each symbol x_ij by its representative through
        :func:`~okkit.algebra.substitute`, then reduce.

        expression lives in symbol_ring; the result lives in the chart ring.
        """
        if expression.ring != self.symbol_ring:
            raise PresentationError("expression is not over the symbol ring")
        one = Polynomial.constant(self.ring, 1)
        images = [g.representative for g in self.generators]
        return self.reduce(substitute(expression, images, one))


# ---------------------------------------------------------------------------
# value semigroups


@dataclass(frozen=True)
class ValueSemigroup:
    """Finitely many generating bidegrees, all at level >= 1.

    group_complete records whether the generators generate the full group
    Z^(n+1) (row-Hermite rank and determinant test).  Bodies and Hilbert
    counts do not need this, but a presentation whose semigroup fails the
    test cannot have one-dimensional leaves on all of R, so the catalog
    requires it.
    """

    generators: tuple
    group_complete: bool = field(init=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not isinstance(g, BiDegree):
                raise TypeError("generators must be BiDegree")
            if g.level < 1:
                raise EmptySemigroupError(
                    "semigroup generators live at level >= 1, got %d" % g.level
                )
        if len(set(gens)) != len(gens):
            raise ValueError("repeated semigroup generator")
        dims = {len(g.value) for g in gens}
        if len(dims) > 1:
            raise ValueError("generators have mixed value dimensions")
        if gens:
            rows = [g.as_tuple() for g in gens]
            complete = _lattice.is_full_lattice(rows, len(gens[0].value) + 1)
        else:
            complete = False
        object.__setattr__(self, "group_complete", complete)

    @property
    def value_dim(self) -> int:
        if not self.generators:
            raise EmptySemigroupError("empty semigroup has no value dimension")
        return len(self.generators[0].value)

    @cached_property
    def _levels(self) -> list:
        """The level tables built so far from level 0 up, by _level_table."""
        return [_trivial_level(len(self.generators[0].value) if self.generators else 0, 1)]


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# a level whose coordinate box has at most this many cells per candidate
# key is deduplicated by scatter over the box, a sparser one by a sort
_SCATTER_BOX = 4


class _Level(NamedTuple):
    """One level set {u : (k, u) in S} of a finitely generated semigroup.

    rows are the values, lexicographically sorted, as read-only int64 rows
    of shape (count, n); lo and hi bound each coordinate (Python ints) and
    keys are the rows' mixed-radix keys (rows - lo) @ place, which sort in
    the same order, so a lookup is one binary search.  first holds, per
    row u, the index of the earliest generator g with u - g.value at level
    k - g.level (0 at level 0).
    """

    rows: np.ndarray
    lo: tuple
    hi: tuple
    place: tuple
    keys: np.ndarray
    first: np.ndarray

    def find(self, u) -> int | None:
        """The row index of the value u, or None when u is not at this level."""
        if not all(a <= x <= b for a, x, b in zip(self.lo, u, self.hi)):
            return None
        key = sum((x - a) * p for x, a, p in zip(u, self.lo, self.place))
        i = int(self.keys.searchsorted(key))
        return i if i < len(self.keys) and self.keys[i] == key else None


def _frozen_level(rows, lo, hi, place, keys, first) -> _Level:
    for column in (rows, keys, first):
        column.flags.writeable = False
    return _Level(rows, lo, hi, place, keys, first)


def _trivial_level(n: int, count: int) -> _Level:
    """Level 0 (count 1: the zero value) or an empty level (count 0: bounds
    with lo > hi, so no value passes a lookup)."""
    rows, keys = np.zeros((count, n), np.int64), np.zeros(count, np.int64)
    bounds = ((1 - count,) * n, (0,) * n, (1,) * n)
    return _frozen_level(rows, *bounds, keys, keys.astype(np.uint8))


def _next_level(gens: tuple, levels: list) -> _Level:
    """Level k = len(levels): the union over generators g, in order, of
    level k - g.level shifted by g.value.  Each source level's rows are
    keyed once, as (rows - lo) @ place on their own lower bounds lo, and
    a generator's block of keys is that base plus the generator's own
    offset.  The kept rows are the distinct keys' mixed-radix digits plus
    the level's lower bounds, and first holds each key's earliest
    generator.

    The distinct keys come by one of two routes, which give the same
    rows, keys and first.  When the level's coordinate box has at most
    _SCATTER_BOX times as many cells as there are candidate keys, each
    block writes its generator's index into a table over the box, later
    generators first so the earliest one is left, and the written cells
    are the keys, already sorted.  A sparse level, whose box is larger,
    takes one stable argsort of all blocks, which keeps each key's first
    block: its memory follows the candidates, not the box.  Raises
    OverflowError when a generator value or the level's key range does
    not fit int64."""
    k = len(levels)
    n = levels[0].rows.shape[1]
    blocks = [
        (i, levels[k - g.level], g.value)
        for i, g in enumerate(gens)
        if g.level <= k and len(levels[k - g.level].rows)
    ]
    if not blocks:
        return _trivial_level(n, 0)
    lo = tuple(min(b.lo[j] + v[j] for _, b, v in blocks) for j in range(n))
    hi = tuple(max(b.hi[j] + v[j] for _, b, v in blocks) for j in range(n))
    spans = [b - a + 1 for a, b in zip(lo, hi)]
    extremes = lo + hi + tuple(x for _, _, v in blocks for x in v)
    if math.prod(spans) > 2**63 or not all(_INT64_MIN <= x <= _INT64_MAX for x in extremes):
        raise OverflowError(
            "level %d of the value semigroup does not fit int64: coordinate"
            " spans %s" % (k, spans)
        )
    place = tuple(math.prod(spans[j + 1:]) for j in range(n))
    bases = {}
    keys = []
    for _, b, v in blocks:
        base = bases.get(id(b))
        if base is None:
            # column by column: a row-wise broadcast over n columns is slower
            base = bases[id(b)] = np.zeros(len(b.rows), dtype=np.int64)
            for j in range(n):
                base += (b.rows[:, j] - b.lo[j]) * place[j]
        # b.lo + v - lo lies in [0, span - b's span), so no key leaves [0, 2^63)
        keys.append(base + sum((a + x - c) * p for a, x, c, p in zip(b.lo, v, lo, place)))
    ids = [i for i, _, _ in blocks]
    dtype = np.min_scalar_type(len(gens))
    box = math.prod(spans)
    if box <= _SCATTER_BOX * sum(map(len, keys)):
        owner = np.full(box, len(gens), dtype=dtype)
        for i, block in zip(ids[::-1], keys[::-1]):
            owner[block] = i
        keys = np.flatnonzero(owner != len(gens))
        first = owner[keys]
    else:
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.empty(len(keys), dtype=bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        keys = keys[new]
        first = np.repeat(np.array(ids, dtype=dtype), [len(b.rows) for _, b, _ in blocks])[order[new]]
    rows = np.empty((len(keys), n), dtype=np.int64)
    for j in range(n):
        rows[:, j] = keys // place[j] % spans[j] + lo[j]
    return _frozen_level(rows, lo, hi, place, keys, first)


def _level_table(S: ValueSemigroup, k: int) -> _Level:
    """Level k of S, building every missing level below it first, lowest
    first, so no call recurses however deep k is.  The levels are kept on
    S and freed with it."""
    levels = S._levels
    while len(levels) <= k:
        levels.append(_next_level(S.generators, levels))
    return levels[k]


def semigroup_hilbert(S: ValueSemigroup, k: int) -> int:
    """Number of distinct values at level k: the length of S's level table.

    The table holds int64 rows; a level whose coordinate box (the product
    of its coordinate spans) or whose generator values do not fit int64
    raises OverflowError naming the level, never a wrapped count.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    return len(_level_table(S, k).rows)


# ---------------------------------------------------------------------------
# subduction


def _decompose(S: ValueSemigroup, k: int, target: tuple):
    """Exponents alpha over S's generators with sum of levels k and sum of
    values target, or None.  Walks S's level table down to level 0, each
    step taking the row's first generator.  That is the highest power of
    the earliest generator that leaves a residual the later generators
    reach: were the residual after c copies of g reachable only with g,
    the walk would have taken g once more."""
    counts = [0] * len(S.generators)
    u = tuple(target)
    while True:
        level = _level_table(S, k)
        i = level.find(u)
        if i is None:
            return None
        if k == 0:
            return tuple(counts)
        j = int(level.first[i])
        counts[j] += 1
        k -= S.generators[j].level
        u = tuple(x - v for x, v in zip(u, S.generators[j].value))


def subduct(f: Polynomial, k: int, datum: SagbiDatum):
    """Rewrite a level-k class as a polynomial in the generators.

    Returns (expression, chain): expression is a Polynomial in the symbols
    x_ij with substitute(expression) == reduce(f) exactly, and chain lists
    the extended value consumed at each step, strictly increasing in the
    composite order.  If some intermediate value is not a sum of generator
    values a NotInSemigroupError is raised; by the subduction argument this
    is precisely a failure of the subalgebra-basis property for f.
    """
    g = datum.reduce(f)
    if g.is_zero():
        raise UndefinedValuationError("cannot subduct the zero class")
    symbol_ring = datum.symbol_ring
    expression = Polynomial.zero(symbol_ring)
    chain = []
    S = datum.semigroup()
    budget = semigroup_hilbert(S, k) + 1
    for _ in range(budget):
        if g.is_zero():
            return expression, chain
        u, coefficient = datum.lead(g)
        step = BiDegree(k, u)
        if chain and not chain[-1] < step:
            raise NotInSemigroupError(
                "subduction failed to increase the value at %s" % (step,)
            )
        alpha = _decompose(S, k, u)
        if alpha is None:
            raise NotInSemigroupError(
                "value (%d, %s) is not a sum of generator values" % (k, u)
            )
        product_lead = Fraction(1)
        product = Polynomial.constant(datum.ring, 1)
        for gen, c, (_, lead) in zip(datum.generators, alpha, datum._generator_leads):
            if c:
                product = product * gen.representative**c
                product_lead *= lead**c
        lam = coefficient / product_lead
        expression = expression + Polynomial._make(
            symbol_ring, {alpha: lam.numerator}, lam.denominator
        )
        g = datum.reduce(g - lam * product)
        chain.append(step)
    raise NotInSemigroupError(
        "subduction did not terminate within %d steps" % budget
    )


# ---------------------------------------------------------------------------
# bodies


def okounkov_body(S: ValueSemigroup) -> OkounkovBody:
    """Exact convex hull of the level-normalized generator values u/k.

    The values go to the hull as integers: each u scaled by L/k, L the lcm
    of the levels, over the one scale L, so no Fraction is built before the
    hull's output."""
    if not S.generators:
        raise EmptySemigroupError("cannot take the body of an empty semigroup")
    scale = math.lcm(*(g.level for g in S.generators))
    points = {tuple(x * (scale // g.level) for x in g.value) for g in S.generators}
    return _scaled_hull(points, scale)


def _hilbert_leading_coefficient(S: ValueSemigroup, n: int, K: int) -> Fraction:
    """n-th finite difference of H_S over k = K-n .. K, divided by n!.

    This is the leading coefficient of a degree-n Hilbert function as soon
    as H_S agrees with its Hilbert polynomial on that window.
    """
    diffs = [Fraction(semigroup_hilbert(S, k)) for k in range(K - n, K + 1)]
    for _ in range(n):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return diffs[0] / math.factorial(n)


def degree_check(S: ValueSemigroup, K: int) -> dict:
    """Compare Hilbert growth against the body's volume.

    The leading coefficient of the Hilbert function is fitted by
    finite differences of H_S over k = K-n .. K (n the body's dimension).
    Returns {"volume", "fitted_leading_coefficient",
    "relative_error"}, all exact rationals (relative_error falls back to
    the absolute error when the volume is zero).
    """
    body = okounkov_body(S)
    n = body.ambient_dim
    if K < n + 1:
        raise InsufficientSamplesError(
            "need K >= %d samples to difference a degree-%d Hilbert"
            " function, got K = %d" % (n + 1, n, K)
        )
    fitted = _hilbert_leading_coefficient(S, n, K)
    vol = body.volume
    if vol != 0:
        err = abs(fitted - vol) / vol
    else:
        err = abs(fitted)
    return {
        "volume": vol,
        "fitted_leading_coefficient": fitted,
        "relative_error": err,
    }


# ---------------------------------------------------------------------------
# GIT slicing


@dataclass(frozen=True)
class GradingHomomorphism:
    """Integer matrix from Z^(n+1) (level, value) to Z^m."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        if not rows:
            raise ValueError("the matrix needs at least one row")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError("ragged matrix")
        if rows[0] == ():
            raise ValueError("the matrix needs at least one column")
        object.__setattr__(self, "matrix", rows)

    @property
    def domain_dim(self) -> int:
        return len(self.matrix[0])

    def apply(self, element) -> tuple:
        vec = element.as_tuple() if isinstance(element, BiDegree) else tuple(element)
        if len(vec) != self.domain_dim:
            raise ValueError("element dimension mismatch")
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in self.matrix)


def _minimal_generators(elements):
    """Drop every element that is a sum of two others from the set."""
    lookup = {(e.level, e.value) for e in elements}
    out = []
    for e in sorted(elements, key=lambda b: (b.level, b.value)):
        decomposable = False
        for a in elements:
            if a.level < e.level:
                rest = (
                    e.level - a.level,
                    tuple(x - y for x, y in zip(e.value, a.value)),
                )
                if rest in lookup:
                    decomposable = True
                    break
        if not decomposable:
            out.append(e)
    return tuple(out)


def _saturation(rows, width: int) -> list:
    """A basis of the integer points of the rational span of the rows (of
    length width): the integer kernel of the integer kernel of their
    transpose.  Its length is the rank of the rows."""

    def transpose(matrix):
        return [list(c) for c in zip(*matrix)] if matrix else [[] for _ in range(width)]

    return _lattice.integer_kernel(transpose(_lattice.integer_kernel(transpose(rows))))


def _sliced_body(body: OkounkovBody, grading: GradingHomomorphism) -> OkounkovBody:
    """Intersect the body with {v : grading(1, v) = 0}, exactly: the hull of
    the vertices of the body's facets together with each grading row as a
    pair of opposite inequalities."""
    rows = list(body.facets)
    for g0, *g in grading.matrix:
        rows += [(g, -g0), ([-x for x in g], g0)]
    points = _vertices(rows, body.ambient_dim)
    return convex_hull(points) if points else OkounkovBody.empty(body.ambient_dim)


def slice(
    S: ValueSemigroup,
    body: OkounkovBody,
    grading: GradingHomomorphism,
    bound: int | None = None,
):
    """Semigroup and body cut down to the kernel of a grading map.

    The sliced body is the exact polytope intersection of the level-1
    affine slice with the kernel: the hull of the vertices of the body's
    inequalities and the kernel's equations (empty, of dim -1, when they
    have none).  The sliced semigroup is found by
    enumerating semigroup elements up to level `bound` (default: lcm of
    the generator levels times n+1) and keeping the kernel elements, then
    dropping decomposable ones.  Completeness of that generator list is
    checked by rank, which must be that of the cone over the sliced body
    (its dimension plus one), by lattice, which must equal its own
    saturation, and for full-dimensional sliced bodies also against
    Hilbert growth; failures are reported with a SliceCompletenessWarning,
    never silently.  A matrix entry or a level's grading image beyond
    int64 raises OverflowError.
    """
    n = S.value_dim if S.generators else body.ambient_dim
    if grading.domain_dim != n + 1:
        raise ValueError(
            "grading matrix has %d columns, expected %d"
            % (grading.domain_dim, n + 1)
        )
    sliced = _sliced_body(body, grading)

    if bound is None:
        levels = [g.level for g in S.generators]
        bound = math.lcm(*levels) * (n + 1) if levels else n + 1
    if not all(_INT64_MIN <= x <= _INT64_MAX for row in grading.matrix for x in row):
        raise OverflowError("grading matrix entries do not fit int64")
    matrix = np.array(grading.matrix, dtype=np.int64)
    kept = []
    for k in range(1, bound + 1):
        level = _level_table(S, k)
        reach = (k,) + tuple(max(-a, b) for a, b in zip(level.lo, level.hi))
        top = max(sum(abs(m) * r for m, r in zip(row, reach)) for row in grading.matrix)
        if len(level.rows) and top > _INT64_MAX:
            raise OverflowError(
                "level %d of the slice does not fit int64: grading images"
                " up to %d" % (k, top)
            )
        images = level.rows @ matrix[:, 1:].T + k * matrix[:, 0]
        kernel = level.rows[~images.any(axis=1)]
        kept.extend(BiDegree(k, u) for u in kernel.tolist())
    gens = _minimal_generators(kept)
    sliced_semigroup = ValueSemigroup(gens)

    generated_rows = [g.as_tuple() for g in gens]
    saturated = _saturation(generated_rows, n + 1)
    complete = len(saturated) == sliced.dim + 1 and _lattice.lattices_equal(
        generated_rows, saturated
    )
    if complete and sliced.dim == n and n >= 1:
        # growth cross-check against the sliced body itself: the Hilbert
        # leading coefficient of an incomplete generator list undershoots
        K = max(n + 1, 4)
        fitted = _hilbert_leading_coefficient(sliced_semigroup, n, K)
        complete = abs(fitted - sliced.volume) <= Fraction(1, 4) * sliced.volume
    if not complete:
        warnings.warn(
            "sliced semigroup generators (bound %d) may be incomplete for"
            " the kernel lattice" % bound,
            SliceCompletenessWarning,
            stacklevel=2,
        )
    return sliced_semigroup, sliced
