"""Value semigroups, subduction, bodies, degree checks, and slicing."""

import gc
import math
import random
import warnings
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okkit.algebra import BiDegree, Polynomial, Ring, parse_polynomial
from okkit.okounkov import (
    EmptySemigroupError,
    GradingHomomorphism,
    InsufficientSamplesError,
    NotInSemigroupError,
    OkounkovBody,
    PresentationError,
    SagbiDatum,
    SagbiGenerator,
    SliceCompletenessWarning,
    ValueSemigroup,
    degree_check,
    okounkov_body,
    reduce_modulo,
    semigroup_hilbert,
    subduct,
)
from okkit import okounkov
from okkit._polytope import convex_hull
from okkit.catalog import load_example
from okkit.okounkov import _decompose, _level_table, _sliced_body
from okkit.okounkov import slice as semigroup_slice

from oracles import (
    brute_semigroup_level,
    candidate_normal_hull,
    chart_sliced_body,
    dfs_decompose,
    fraction_reduce_modulo,
)
from presentations import (
    ALL_DATA,
    elliptic_datum,
    gl3_flag_datum,
    p1_datum,
    p1xp1_datum,
)


@pytest.fixture(scope="module")
def elliptic():
    return elliptic_datum()


@pytest.fixture(scope="module")
def gl3():
    return gl3_flag_datum()


@pytest.fixture(scope="module")
def p1():
    return p1_datum()


@pytest.fixture(scope="module", params=sorted(ALL_DATA))
def any_datum(request):
    return ALL_DATA[request.param]()


# ---------------------------------------------------------------------------
# presentation invariants


class TestDatumValidation:
    def test_catalog_presentations_construct(self, any_datum):
        assert any_datum.section.level == 1

    def test_wrong_declared_value_rejected(self):
        ring = Ring(("u",))
        gens = (
            SagbiGenerator(1, 1, Polynomial.constant(ring, 1), (0,)),
            SagbiGenerator(1, 2, Polynomial.variable(ring, "u"), (2,)),
        )
        with pytest.raises(PresentationError):
            SagbiDatum(ring, gens)

    def test_repeated_level_values_rejected(self):
        ring = Ring(("u",))
        u = Polynomial.variable(ring, "u")
        gens = (
            SagbiGenerator(1, 1, Polynomial.constant(ring, 1), (0,)),
            SagbiGenerator(1, 2, u, (1,)),
            SagbiGenerator(1, 3, 2 * u, (1,)),
        )
        with pytest.raises(PresentationError):
            SagbiDatum(ring, gens)

    def test_missing_section_rejected(self):
        ring = Ring(("u",))
        gens = (SagbiGenerator(1, 1, Polynomial.variable(ring, "u"), (1,)),)
        with pytest.raises(PresentationError):
            SagbiDatum(ring, gens)

    def test_unsorted_generators_rejected(self):
        ring = Ring(("u",))
        gens = (
            SagbiGenerator(1, 2, Polynomial.variable(ring, "u"), (1,)),
            SagbiGenerator(1, 1, Polynomial.constant(ring, 1), (0,)),
        )
        with pytest.raises(PresentationError):
            SagbiDatum(ring, gens)


class TestReduction:
    def test_cubic_rewrite(self, elliptic):
        ring = elliptic.ring
        f = parse_polynomial("x^3", ring)
        assert reduce_modulo(f, elliptic.modulus) == parse_polynomial(
            "z - z^3", ring
        )

    def test_modulus_reduces_to_zero(self, elliptic):
        assert reduce_modulo(elliptic.modulus, elliptic.modulus).is_zero()

    def test_idempotent(self, elliptic):
        ring = elliptic.ring
        f = parse_polynomial("x^4 + x*z - 7", ring)
        once = reduce_modulo(f, elliptic.modulus)
        assert reduce_modulo(once, elliptic.modulus) == once

    def test_degree_four(self, elliptic):
        ring = elliptic.ring
        f = parse_polynomial("x^4", ring)
        assert reduce_modulo(f, elliptic.modulus) == parse_polynomial(
            "x*z - x*z^3", ring
        )

    @pytest.mark.parametrize(
        "variables, modulus",
        [
            (("x", "z"), "x^3 + z^3 - z"),
            (("x", "y"), "2*x^2 - 3*y + 1/2"),
            (("x", "y"), "-2/3*x^2*y + x - 1"),
        ],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, variables, modulus, data):
        # integer rewriting, rescaled by |head| when the relation is not
        # monic, against one Fraction term at a time: same terms, same order
        ring = Ring(variables)
        m = parse_polynomial(modulus, ring)
        exponent = st.tuples(st.integers(0, 6), st.integers(0, 6))
        coefficient = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
        f = Polynomial(ring, data.draw(st.dictionaries(exponent, coefficient, max_size=8)))
        got, expected = reduce_modulo(f, m), fraction_reduce_modulo(f, m)
        assert list(got.terms.items()) == list(expected.terms.items())
        assert got == expected and hash(got) == hash(expected)


# ---------------------------------------------------------------------------
# extended values


class TestExtendedValue:
    def test_section_has_value_zero(self, elliptic):
        h = elliptic.section.representative
        assert elliptic.lead(h)[0] == (0,)

    def test_elliptic_x(self, elliptic):
        x = parse_polynomial("x", elliptic.ring)
        assert elliptic.lead(x)[0] == (1,)

    def test_product_adds(self, elliptic):
        xz = parse_polynomial("x*z", elliptic.ring)
        assert elliptic.lead(xz)[0] == (4,)

    def test_zero_rejected(self, elliptic):
        from okkit.algebra import UndefinedValuationError

        with pytest.raises(UndefinedValuationError):
            elliptic.lead(Polynomial.zero(elliptic.ring))

    def test_gl3_quadratic_section(self, gl3):
        f = parse_polynomial("a^2*c - a*b", gl3.ring)
        assert gl3.lead(f)[0] == (1, 1, 0)

    @pytest.mark.parametrize("name", ["elliptic", "gl3"])
    def test_lead_is_value_and_leading_coefficient(self, name, request):
        # the leading term read independently: the lex-minimal term of the
        # reduced class, or the first nonzero coefficient of its expansion
        # at the escalation cap
        datum = request.getfixturevalue(name)
        rng = random.Random(20261018)
        for _ in range(25):
            sign = rng.choice([-1, 1])
            scalar = Fraction(sign * rng.randint(1, 9), rng.randint(1, 4))
            f = Polynomial.constant(datum.ring, scalar)
            for _ in range(rng.randint(1, 4)):
                f = f * rng.choice(datum.generators).representative
            g = datum.reduce(f)
            if datum.series_context is None:
                u = min(g.terms)
                expected = (u, g.terms[u])
            else:
                ctx = datum.series_context
                series = ctx.expand(g, ctx.cap)
                expected = ((series.order(),), series.coeffs[series.order()])
            assert datum.lead(f) == expected


# ---------------------------------------------------------------------------
# subduction


def random_symbol_expression(datum, rng, max_level):
    """Random nonzero polynomial in the generator symbols with every
    monomial's total level at most max_level."""
    ring = datum.symbol_ring
    levels = [g.level for g in datum.generators]
    terms = {}
    for _ in range(rng.randint(1, 5)):
        budget = rng.randint(1, max_level)
        expo = [0] * len(levels)
        while True:
            choices = [i for i, l in enumerate(levels) if l <= budget]
            if not choices or rng.random() < 0.25:
                break
            i = rng.choice(choices)
            expo[i] += 1
            budget -= levels[i]
        coeff = Fraction(rng.randint(1, 9) * rng.choice([-1, 1]), rng.randint(1, 4))
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + coeff
    f = Polynomial(ring, {e: c for e, c in terms.items() if c})
    if f.is_zero():
        f = Polynomial.monomial(ring, (0,) * len(levels), 1)
    return f


def expression_level(datum, expression):
    levels = [g.level for g in datum.generators]
    return max(
        sum(c * l for c, l in zip(e, levels)) for e in expression.terms
    )


class TestSubduction:
    def test_single_generator(self, elliptic):
        f = elliptic.generators[0].representative
        expression, chain = subduct(f, 1, elliptic)
        assert expression == Polynomial.monomial(elliptic.symbol_ring, (1, 0, 0), 1)
        assert len(chain) == 1

    def test_scalar_multiple(self, p1):
        f = 5 * p1.generators[1].representative
        expression, chain = subduct(f, 1, p1)
        assert expression == Polynomial.monomial(p1.symbol_ring, (0, 1), 5)
        assert chain == [BiDegree(1, (1,))]

    def test_p1_square(self, p1):
        f = parse_polynomial("1 + 2*u + u^2", p1.ring)
        expression, chain = subduct(f, 2, p1)
        expected = parse_polynomial(
            "x1_1^2 + 2*x1_1*x1_2 + x1_2^2", p1.symbol_ring
        )
        assert expression == expected
        assert [c.value for c in chain] == [(0,), (1,), (2,)]

    def test_chain_is_strictly_increasing(self, p1):
        f = parse_polynomial("1 + 2*u + u^2", p1.ring)
        _, chain = subduct(f, 2, p1)
        assert all(a < b for a, b in zip(chain, chain[1:]))

    def test_value_outside_level_raises(self, elliptic):
        f = parse_polynomial("x^2", elliptic.ring)
        with pytest.raises(NotInSemigroupError):
            subduct(f, 1, elliptic)

    def test_elliptic_chart_relation_side(self, elliptic):
        # x^3 equals z - z^3 on the curve: level 3 on both ends
        f = parse_polynomial("x^3", elliptic.ring)
        expression, _ = subduct(f, 3, elliptic)
        assert elliptic.substitute(expression) == elliptic.reduce(f)

    def test_random_combinations_have_zero_residual(self, any_datum):
        rng = random.Random(20260818)
        for _ in range(30):
            expression = random_symbol_expression(any_datum, rng, 4)
            f = any_datum.substitute(expression)
            if f.is_zero():
                continue
            k = expression_level(any_datum, expression)
            recovered, chain = subduct(f, k, any_datum)
            assert any_datum.substitute(recovered) == f
            assert all(a < b for a, b in zip(chain, chain[1:]))
            assert len(chain) <= semigroup_hilbert(any_datum.semigroup(), k)


# ---------------------------------------------------------------------------
# Hilbert counts


class TestHilbert:
    def test_elliptic_first_levels(self, elliptic):
        S = elliptic.semigroup()
        assert semigroup_hilbert(S, 0) == 1
        assert semigroup_hilbert(S, 1) == 3
        assert semigroup_hilbert(S, 2) == 6

    def test_linear_growth(self, elliptic):
        S = elliptic.semigroup()
        for k in range(1, 11):
            assert semigroup_hilbert(S, k) == 3 * k

    def test_gl3_cube_growth(self, gl3):
        S = gl3.semigroup()
        for k in range(5):
            assert semigroup_hilbert(S, k) == (k + 1) ** 3

    def test_matches_bruteforce(self, any_datum):
        S = any_datum.semigroup()
        gens = [(g.level, g.value) for g in S.generators]
        for k in range(7):
            assert semigroup_hilbert(S, k) == len(brute_semigroup_level(gens, k))

    def test_empty_semigroup(self):
        S = ValueSemigroup(())
        assert semigroup_hilbert(S, 0) == 1
        assert semigroup_hilbert(S, 3) == 0

    def test_deep_level_does_not_recurse(self):
        assert semigroup_hilbert(load_example("p1").semigroup, 3000) == 3001

    def test_generator_beyond_int64_raises(self):
        S = ValueSemigroup((BiDegree(1, (0,)), BiDegree(1, (2**70,))))
        with pytest.raises(OverflowError, match="level 1 "):
            semigroup_hilbert(S, 1)

    def test_key_range_beyond_int64_raises(self):
        S = ValueSemigroup((BiDegree(1, (0, 0)), BiDegree(1, (2**32, 2**32))))
        with pytest.raises(OverflowError, match="level 1 "):
            semigroup_hilbert(S, 1)

    def test_overflow_names_the_first_level_that_wraps(self):
        S = ValueSemigroup((BiDegree(1, (0,)), BiDegree(1, (2**62,))))
        assert semigroup_hilbert(S, 1) == 2
        with pytest.raises(OverflowError, match="level 2 "):
            semigroup_hilbert(S, 2)

    def test_group_completeness_flag(self, any_datum):
        assert any_datum.semigroup().group_complete

    def test_semigroup_built_once(self, any_datum):
        assert any_datum.semigroup() is any_datum.semigroup()

    def test_incomplete_group_detected(self):
        S = ValueSemigroup((BiDegree(1, (0,)), BiDegree(1, (2,))))
        assert not S.group_complete


@st.composite
def small_semigroups(draw):
    """(level, value) generators: n from 1 to 3, levels 1 to 3, coordinates
    from -4 to 4."""
    n = draw(st.integers(1, 3))
    value = st.tuples(*[st.integers(-4, 4)] * n)
    return draw(
        st.lists(st.tuples(st.integers(1, 3), value), min_size=1, max_size=4, unique=True)
    )


@st.composite
def sparse_semigroups(draw):
    """small_semigroups plus level-1 generators at zero and with one
    coordinate near 1000: every level's coordinate box then has far more
    cells than the level has candidate keys."""
    gens = draw(small_semigroups())
    n = len(gens[0][1])
    far = draw(st.tuples(*[st.integers(-4, 4)] * (n - 1), st.integers(990, 1010)))
    zero = (1, (0,) * n)
    return gens + [(1, far)] + ([zero] if zero not in gens else [])


@st.composite
def dense_semigroups(draw):
    """Every vertex of the unit cube {0, 1}^n at level 1, n from 1 to 3,
    plus up to three generators at levels 2 and 3 inside the cube they
    scale: level k's box, {0..k}^n, has (k + 1)^n cells for at least
    2^n k^n candidate keys."""
    n = draw(st.integers(1, 3))
    cube = [(1, tuple((i >> j) & 1 for j in range(n))) for i in range(2**n)]
    extra = st.integers(2, 3).flatmap(
        lambda level: st.tuples(st.just(level), st.tuples(*[st.integers(0, level)] * n))
    )
    return cube + draw(st.lists(extra, max_size=3, unique=True))


def assert_levels_match_oracles(gens, top):
    S = ValueSemigroup(tuple(BiDegree(lvl, val) for lvl, val in gens))
    for k in range(top + 1):
        level = brute_semigroup_level(gens, k)
        rows = _level_table(S, k).rows
        assert rows.dtype == "int64" and not rows.flags.writeable
        assert [tuple(r) for r in rows.tolist()] == sorted(level)
        for u in sorted(level):
            assert _decompose(S, k, u) == dfs_decompose(gens, k, u)


class TestLevelTables:
    @given(small_semigroups())
    @settings(max_examples=100, deadline=None)
    def test_levels_match_bruteforce(self, gens):
        S = ValueSemigroup(tuple(BiDegree(lvl, val) for lvl, val in gens))
        for k in range(6):
            rows = _level_table(S, k).rows
            assert rows.dtype == "int64" and not rows.flags.writeable
            expected = sorted(brute_semigroup_level(gens, k))
            assert [tuple(r) for r in rows.tolist()] == expected

    @given(small_semigroups(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_decompose_matches_oracle(self, gens, data):
        S = ValueSemigroup(tuple(BiDegree(lvl, val) for lvl, val in gens))
        n = len(gens[0][1])
        for k in range(5):
            level = brute_semigroup_level(gens, k)
            for u in sorted(level):
                assert _decompose(S, k, u) == dfs_decompose(gens, k, u)
            coordinate = st.integers(-4 * k - 1, 4 * k + 1)
            u = data.draw(st.tuples(*[coordinate] * n))
            if u not in level:
                assert _decompose(S, k, u) is None
                assert dfs_decompose(gens, k, u) is None
            assert _decompose(S, k, (2**70,) * n) is None

    @given(sparse_semigroups())
    @settings(max_examples=40, deadline=None)
    def test_sparse_levels_take_the_sort(self, gens):
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            assert_levels_match_oracles(gens, 4)
        assert argsort.call_count == 4

    @given(dense_semigroups())
    @settings(max_examples=30, deadline=None)
    def test_dense_levels_take_the_scatter(self, gens):
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            assert_levels_match_oracles(gens, 3)
        assert argsort.call_count == 0

    @given(st.one_of(small_semigroups(), sparse_semigroups(), dense_semigroups()))
    @settings(max_examples=60, deadline=None)
    def test_scatter_and_sort_give_the_same_tables(self, gens):
        tables = []
        for box in (0, 10**6):
            S = ValueSemigroup(tuple(BiDegree(lvl, val) for lvl, val in gens))
            with mock.patch.object(okounkov, "_SCATTER_BOX", box):
                tables.append([_level_table(S, k) for k in range(5)])
        for sorted_level, scattered in zip(*tables):
            assert repr(sorted_level) == repr(scattered)
            for a, b in zip(sorted_level, scattered):
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_tables_live_and_die_with_their_semigroup(self):
        S = ValueSemigroup((BiDegree(1, (0, 0)), BiDegree(1, (1, 0)), BiDegree(1, (0, 1))))
        rows = weakref.ref(_level_table(S, 50).rows)
        assert rows() is not None and _level_table(S, 50).rows is rows()
        del S
        gc.collect()
        assert rows() is None


# ---------------------------------------------------------------------------
# bodies


class TestBodies:
    def test_elliptic_segment(self, elliptic):
        body = okounkov_body(elliptic.semigroup())
        assert body.ambient_dim == 1 and body.dim == 1
        assert body.vertices == ((Fraction(0),), (Fraction(3),))
        assert body.volume == 3

    def test_p1_segment(self, p1):
        body = okounkov_body(p1.semigroup())
        assert body.vertices == ((Fraction(0),), (Fraction(1),))
        assert body.volume == 1

    def test_point_body(self):
        body = okounkov_body(ValueSemigroup((BiDegree(1, (0,)),)))
        assert body.dim == 0
        assert body.volume == 0
        assert body.vertices == ((Fraction(0),),)

    def test_gl3_polytope(self, gl3):
        body = okounkov_body(gl3.semigroup())
        assert body.ambient_dim == 3 and body.dim == 3
        assert body.volume == 1
        assert len(body.vertices) == 7
        assert (Fraction(0), Fraction(1), Fraction(0)) not in body.vertices

    def test_empty_raises(self):
        with pytest.raises(EmptySemigroupError):
            okounkov_body(ValueSemigroup(()))

    @given(small_semigroups())
    @settings(max_examples=100, deadline=None)
    def test_integer_points_give_the_rational_hull(self, gens):
        # okounkov_body hands the hull integer values over the lcm of the
        # levels; the body must be the hull of the Fraction points u / k
        body = okounkov_body(ValueSemigroup(tuple(BiDegree(lvl, val) for lvl, val in gens)))
        points = sorted({tuple(Fraction(x, lvl) for x in val) for lvl, val in gens})
        assert repr(body) == repr(convex_hull(points))
        n = len(points[0])
        if body.dim == n:
            assert repr((body.vertices, body.facets, body.volume)) == repr(
                candidate_normal_hull(points, n)
            )

    def test_level_normalization(self, any_datum):
        S = any_datum.semigroup()
        doubled = ValueSemigroup(
            tuple(BiDegree(2 * g.level, tuple(2 * x for x in g.value)) for g in S.generators)
        )
        assert okounkov_body(doubled) == okounkov_body(S)

    def test_vh_cross_consistency(self, any_datum):
        body = okounkov_body(any_datum.semigroup())
        for v in body.vertices:
            assert body.contains(v)
        if body.dim == body.ambient_dim:
            for normal, offset in body.facets:
                tight = [
                    v
                    for v in body.vertices
                    if sum(n * x for n, x in zip(normal, v)) == offset
                ]
                assert len(tight) >= body.ambient_dim

    def test_json_shape(self, elliptic):
        body = okounkov_body(elliptic.semigroup())
        assert body.to_json_dict() == {
            "dim": 1,
            "vertices": [[[0, 1]], [[3, 1]]],
            "facets": [
                {"normal": [-1], "offset": [0, 1]},
                {"normal": [1], "offset": [3, 1]},
            ],
            "volume": [3, 1],
        }

    def test_empty_body_contains_nothing(self):
        body = OkounkovBody.empty(2)
        assert body.dim == -1
        assert not body.contains((0, 0))


# ---------------------------------------------------------------------------
# degree checks


class TestDegreeCheck:
    def test_elliptic_exact(self, elliptic):
        report = degree_check(elliptic.semigroup(), 10)
        assert report["volume"] == 3
        assert report["fitted_leading_coefficient"] == 3
        assert report["relative_error"] == 0

    def test_point_semigroup(self):
        S = ValueSemigroup((BiDegree(1, (0,)),))
        report = degree_check(S, 5)
        assert report["volume"] == 0
        assert report["fitted_leading_coefficient"] == 0
        assert report["relative_error"] == 0

    def test_gl3_window(self, gl3):
        report = degree_check(gl3.semigroup(), 4)
        assert report["relative_error"] <= Fraction(15, 100)

    def test_too_few_samples(self, gl3):
        with pytest.raises(InsufficientSamplesError):
            degree_check(gl3.semigroup(), 3)


# ---------------------------------------------------------------------------
# slicing


class TestSlicing:
    def test_zero_grading_is_identity(self, elliptic):
        S = elliptic.semigroup()
        body = okounkov_body(S)
        grading = GradingHomomorphism(((0, 0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S2, body2 = semigroup_slice(S, body, grading)
        assert sorted(S2.generators, key=lambda g: g.as_tuple()) == sorted(
            S.generators, key=lambda g: g.as_tuple()
        )
        assert body2 == body

    def test_elliptic_diagonal_cut(self, elliptic):
        S = elliptic.semigroup()
        body = okounkov_body(S)
        grading = GradingHomomorphism(((-1, 1),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S2, body2 = semigroup_slice(S, body, grading)
        assert S2.generators == (BiDegree(1, (1,)),)
        assert body2.vertices == ((Fraction(1),),)
        assert body2.volume == 0

    def test_trivial_kernel(self, elliptic):
        S = elliptic.semigroup()
        body = okounkov_body(S)
        grading = GradingHomomorphism(((1, 0), (0, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S2, body2 = semigroup_slice(S, body, grading)
        assert S2.generators == ()
        assert body2.dim == -1

    def test_slice_invariants(self, elliptic):
        S = elliptic.semigroup()
        body = okounkov_body(S)
        grading = GradingHomomorphism(((-1, 1),))
        S2, body2 = semigroup_slice(S, body, grading)
        for g in S2.generators:
            assert grading.apply(g) == (0,)
        for v in body2.vertices:
            assert grading.apply((1,) + v) == (0,)

    def test_incomplete_bound_warns(self, elliptic):
        S = elliptic.semigroup()
        body = okounkov_body(S)
        # kernel u = 2k has no level-1 element, so bound 1 must miss it
        grading = GradingHomomorphism(((-2, 1),))
        with pytest.warns(SliceCompletenessWarning):
            semigroup_slice(S, body, grading, bound=1)

    def test_point_slice_of_gl3_is_complete(self, gl3):
        # y = 2 meets the body only at (0, 2, 0): a 0-dimensional slice of a
        # rank-3 kernel, generated by (1, (0, 2, 0)) alone
        S = gl3.semigroup()
        grading = GradingHomomorphism(((-2, 0, 1, 0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S2, body2 = semigroup_slice(S, okounkov_body(S), grading)
        assert S2.generators == (BiDegree(1, (0, 2, 0)),)
        assert body2.dim == 0

    def test_lower_dimensional_slice_with_small_bound_warns(self, gl3):
        # x = 1/2, y = 3/2 is the point (1/2, 3/2, 0) of the body, whose
        # first semigroup element sits at level 2
        S = gl3.semigroup()
        body = okounkov_body(S)
        grading = GradingHomomorphism(((-1, 2, 0, 0), (-3, 0, 2, 0)))
        with pytest.warns(SliceCompletenessWarning):
            S2, body2 = semigroup_slice(S, body, grading, bound=1)
        assert S2.generators == () and body2.dim == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S2, _ = semigroup_slice(S, body, grading)
        assert S2.generators == (BiDegree(2, (1, 3, 0)),)

    def test_grading_images_beyond_int64_raise(self, elliptic):
        S = elliptic.semigroup()
        grading = GradingHomomorphism(((2**62, 2**62),))
        with pytest.raises(OverflowError, match="level 1 "):
            semigroup_slice(S, okounkov_body(S), grading)

    def test_matrix_entries_beyond_int64_raise(self, elliptic):
        S = elliptic.semigroup()
        grading = GradingHomomorphism(((10**30, -1),))
        with pytest.raises(OverflowError, match="matrix entries"):
            semigroup_slice(S, okounkov_body(S), grading)


BUNDLED_BODIES = {name: load_example(name).body for name in ("p1", "p1xp1", "elliptic", "gl3-flag")}


def small_rationals(bound):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 3))


@st.composite
def bodies(draw):
    """A bundled body, or the hull of a few rational points (of any affine
    dimension) in R^1..R^3."""
    if draw(st.booleans()):
        return BUNDLED_BODIES[draw(st.sampled_from(sorted(BUNDLED_BODIES)))]
    n = draw(st.integers(1, 3))
    return convex_hull(draw(st.lists(st.tuples(*[small_rationals(3)] * n), min_size=1, max_size=7)))


@st.composite
def gradings(draw, body):
    """One or two integer rows (g0, g) on (1, v).  Each row's hyperplane
    passes through the centroid q of some of the body's vertices, or is
    moved off it by one: g0 = -s g . q + shift with s clearing g . q."""
    n = body.ambient_dim
    some = draw(st.lists(st.sampled_from(body.vertices), min_size=1, max_size=4))
    q = [sum(c) / len(some) for c in zip(*some)]
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        g = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        value = sum(a * x for a, x in zip(g, q))
        shift = draw(st.sampled_from([0, 0, 0, 1, -1]))
        rows.append((shift - value.numerator, *(value.denominator * a for a in g)))
    return GradingHomomorphism(tuple(rows))


class TestSlicedBodyReference:
    """The slice as the hull of an H-representation's vertices, against the
    old particular-solution-and-chart construction in tests/oracles.py."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_chart_reference(self, data):
        body = data.draw(bodies())
        grading = data.draw(gradings(body))
        assert repr(_sliced_body(body, grading)) == repr(chart_sliced_body(body, grading))

    def test_huge_body_matches_chart_reference(self):
        """A body near 2^60 over 2^31 - 1 scales its rows past the int64
        bound, so the vertices are found on Python ints."""
        r = 2**31 - 1
        body = convex_hull(
            [(Fraction(2**60 + i, r), Fraction(j * 2**40), Fraction(k, r)) for i, j, k in
             [(0, 0, 0), (r, 0, 0), (0, 1, 0), (0, 0, 1), (r, 1, 1)]]
        )
        x = math.ceil(min(v[0] for v in body.vertices))
        for matrix in [((-x, 1, 0, 0),), ((-x, 1, 0, 0), (0, 0, 1, -(2**40)))]:
            grading = GradingHomomorphism(matrix)
            sliced = _sliced_body(body, grading)
            assert sliced.dim == 3 - len(matrix)
            assert repr(sliced) == repr(chart_sliced_body(body, grading))

    def test_gl3_slice_through_one_vertex(self, gl3):
        body = okounkov_body(gl3.semigroup())
        # y <= 2 on the Gelfand-Tsetlin body, with equality at (0, 2, 0) only
        grading = GradingHomomorphism(((-2, 0, 1, 0),))
        sliced = _sliced_body(body, grading)
        assert sliced.dim == 0
        assert sliced.vertices == ((Fraction(0), Fraction(2), Fraction(0)),)
        assert repr(sliced) == repr(chart_sliced_body(body, grading))

    def test_gl3_slices_of_each_dimension(self, gl3):
        body = okounkov_body(gl3.semigroup())
        for matrix, dim in [
            (((-1, 0, 1, 0),), 2),
            (((-1, 0, 1, 0), (0, 1, 0, -1)), 1),
            (((-3, 0, 1, 0),), -1),
        ]:
            grading = GradingHomomorphism(matrix)
            sliced = _sliced_body(body, grading)
            assert sliced.dim == dim
            assert repr(sliced) == repr(chart_sliced_body(body, grading))
