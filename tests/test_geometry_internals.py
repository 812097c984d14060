"""Integer lattice helpers and the exact hull engine."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from okkit._lattice import (
    hermite_with_transform,
    integer_kernel,
    is_full_lattice,
    lattices_equal,
)
from okkit import _polytope
from okkit._polytope import (
    HullError,
    _det,
    _full_hull,
    _null_space_rows,
    _rank,
    _solve_exact,
    convex_hull,
)

from oracles import (
    brute_semigroup_level,
    candidate_normal_hull,
    dilate,
    lattice_contains,
    lattice_points,
    qhull_vertices,
    qhull_volume,
)


def frac_det(rows):
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


int_matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=1,
        max_size=4,
    )
)


class TestHermite:
    def test_identity_fixed(self):
        eye = [[1, 0], [0, 1]]
        H, U = hermite_with_transform(eye)
        assert H == eye and U == eye

    def test_known_form(self):
        H, U = hermite_with_transform([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert mat_mul(U, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == H
        assert abs(frac_det(U)) == 1
        # echelon with positive pivots
        assert H[0][0] > 0

    @given(int_matrices)
    @settings(max_examples=150, deadline=None)
    def test_transform_is_unimodular_and_consistent(self, a):
        H, U = hermite_with_transform(a)
        assert mat_mul(U, a) == H
        assert abs(frac_det(U)) == 1
        # echelon shape: pivot columns strictly increase, zero rows sink
        last_pivot = -1
        seen_zero = False
        for row in H:
            nz = [j for j, v in enumerate(row) if v != 0]
            if not nz:
                seen_zero = True
                continue
            assert not seen_zero
            assert nz[0] > last_pivot
            assert row[nz[0]] > 0
            last_pivot = nz[0]

    def test_reduction_above_pivots(self):
        H, _ = hermite_with_transform([[3, 1], [0, 5]])
        # entry above the second pivot lies in [0, 5)
        assert 0 <= H[0][1] < 5


class TestKernel:
    def test_simple_relation(self):
        ker = integer_kernel([[1], [1]])
        assert len(ker) == 1
        assert lattice_contains(ker, (1, -1))

    def test_kernel_is_saturated(self):
        # rows (2) and (4): the kernel is generated by (2, -1), and the
        # basis must reach it, not only an index-two sublattice
        ker = integer_kernel([[2], [4]])
        assert lattice_contains(ker, (2, -1))
        assert not lattice_contains(ker, (1, 0))

    @given(int_matrices)
    @settings(max_examples=150, deadline=None)
    def test_kernel_rows_annihilate(self, a):
        for row in integer_kernel(a):
            prod = [sum(r * a[i][j] for i, r in enumerate(row)) for j in range(len(a[0]))]
            assert all(v == 0 for v in prod)


class TestElimination:
    @given(int_matrices, st.data())
    @settings(max_examples=150, deadline=None)
    def test_rank_solve_and_left_kernel_agree(self, a, data):
        rank = _rank(a)
        assert rank == np.linalg.matrix_rank(np.array(a, dtype=float))
        left = _null_space_rows(a)
        assert len(left) == len(a) - rank
        for w in left:
            assert mat_mul([list(w)], a) == [[0] * len(a[0])]
        x0 = data.draw(st.lists(st.integers(-5, 5), min_size=len(a[0]), max_size=len(a[0])))
        rhs = [row[0] for row in mat_mul(a, [[x] for x in x0])]
        x = _solve_exact(a, rhs)
        assert [row[0] for row in mat_mul(a, [[v] for v in x])] == rhs
        for w in left:
            # w . rhs' = |w|^2 != 0 while w . (a x) = 0 for every x
            assert _solve_exact(a, [b + wi for b, wi in zip(rhs, w)]) is None


class TestMembership:
    def test_even_sublattice(self):
        basis = [(2, 0), (0, 2)]
        assert lattice_contains(basis, (4, 6))
        assert not lattice_contains(basis, (1, 0))
        assert not lattice_contains(basis, (3, 2))

    def test_empty_basis(self):
        assert lattice_contains([], (0, 0, 0))
        assert not lattice_contains([], (0, 1, 0))

    def test_fullness(self):
        assert is_full_lattice([(1, 0), (0, 1)], 2)
        assert is_full_lattice([(2, 1), (1, 1)], 2)
        assert not is_full_lattice([(2, 0), (0, 1)], 2)
        assert not is_full_lattice([(1, 1), (1, -1)], 2)
        assert not is_full_lattice([(1, 0)], 2)

    def test_equality(self):
        assert lattices_equal([(1, 0), (0, 1)], [(1, 1), (0, 1)])
        assert not lattices_equal([(1, 0), (0, 1)], [(2, 0), (0, 1)])

    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_equality_is_mutual_containment(self, a, b):
        mutual = all(lattice_contains(b, r) for r in a) and all(
            lattice_contains(a, r) for r in b
        )
        assert lattices_equal(a, b) == mutual
        if a:
            assert lattices_equal(a, [tuple(x + y for x, y in zip(a[0], a[-1]))] + a)

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_integer_combinations_are_members(self, basis, coeffs):
        x = [0, 0, 0]
        for c, b in zip(coeffs, basis):
            x = [xi + c * bi for xi, bi in zip(x, b)]
        assert lattice_contains(basis, x)


# ---------------------------------------------------------------------------
# hulls


GL3_VALUES = [
    (0, 0, 0),
    (0, 0, 1),
    (1, 0, 0),
    (0, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 0),
    (0, 2, 0),
]


class TestHullBasics:
    def test_interval(self):
        h = convex_hull([(0,), (3,), (1,)])
        assert h.dim == 1 and h.ambient_dim == 1
        assert h.vertices == ((Fraction(0),), (Fraction(3),))
        assert h.volume == 3
        assert lattice_points(h) == [(0,), (1,), (2,), (3,)]

    def test_unit_square(self):
        h = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert h.dim == 2
        assert h.volume == 1
        assert len(h.vertices) == 4
        assert len(h.facets) == 4

    def test_triangle_with_edge_point(self):
        h = convex_hull([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)])
        assert h.volume == 2
        assert set(h.vertices) == {
            (Fraction(0), Fraction(0)),
            (Fraction(2), Fraction(0)),
            (Fraction(0), Fraction(2)),
        }

    def test_fractional_area(self):
        h = convex_hull([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))])
        assert h.volume == Fraction(1, 8)

    def test_single_point(self):
        h = convex_hull([(2, 3)])
        assert h.dim == 0
        assert h.volume == 0
        assert h.contains((2, 3))
        assert not h.contains((2, 4))
        assert lattice_points(h) == [(2, 3)]

    def test_ambient_dim_cap(self):
        with pytest.raises(HullError):
            convex_hull([(0, 0, 0, 0), (1, 0, 0, 0)])

    def test_order_invariance(self):
        pts = [(0, 1, 0), (1, 0, 1), (0, 0, 0), (1, 1, 1), (0, 2, 0), (1, 0, 0)]
        a = convex_hull(pts)
        b = convex_hull(list(reversed(pts)))
        assert a == b


class TestDegenerateHulls:
    def test_segment_in_plane(self):
        h = convex_hull([(0, 0), (2, 4)])
        assert h.dim == 1 and h.ambient_dim == 2
        assert h.volume == 0
        assert h.contains((1, 2))
        assert not h.contains((1, 1))
        assert lattice_points(h) == [(0, 0), (1, 2), (2, 4)]

    def test_square_in_space(self):
        h = convex_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        assert h.dim == 2 and h.ambient_dim == 3
        assert h.volume == 0
        assert len(h.vertices) == 4
        assert h.contains((Fraction(1, 2), Fraction(1, 2), 1))
        assert not h.contains((Fraction(1, 2), Fraction(1, 2), 2))
        # the affine hull shows up as an equality pair of facets
        normals = {n for n, _ in h.facets}
        assert (0, 0, 1) in normals and (0, 0, -1) in normals

    def test_collinear_in_space(self):
        h = convex_hull([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)])
        assert h.dim == 1
        assert set(h.vertices) == {
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(3), Fraction(3), Fraction(3)),
        }
        assert lattice_points(h) == [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]


class TestFlagHull:
    def test_shape(self):
        h = convex_hull(GL3_VALUES)
        assert h.dim == 3
        assert h.volume == 1
        assert len(h.vertices) == 7
        assert (Fraction(0), Fraction(1), Fraction(0)) not in h.vertices

    def test_volume_against_qhull(self):
        h = convex_hull(GL3_VALUES)
        assert abs(float(h.volume) - qhull_volume(GL3_VALUES)) < 1e-9

    def test_dilation_counts(self):
        h = convex_hull(GL3_VALUES)
        # Ehrhart count (k + 1)^3 for this polytope
        for k in range(1, 5):
            assert len(lattice_points(dilate(h, k))) == (k + 1) ** 3
        assert dilate(h, 2).volume == 8

    def test_every_input_point_inside(self):
        h = convex_hull(GL3_VALUES)
        assert all(h.contains(p) for p in GL3_VALUES)
        assert set(lattice_points(h)) == set(GL3_VALUES)


def rationals(bound):
    """num / den with |num| <= bound and den in 1..3, so the hull has
    denominators to clear."""
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 3))


small_points_1d = st.lists(st.tuples(rationals(4)), min_size=1, max_size=9)
small_points_2d = st.lists(
    st.tuples(rationals(4), rationals(4)), min_size=1, max_size=9
)
small_points_3d = st.lists(
    st.tuples(rationals(3), rationals(3), rationals(3)),
    min_size=1,
    max_size=8,
)


def assert_vertices_match_qhull(h, pts):
    if h.dim == h.ambient_dim:
        assert {tuple(map(float, v)) for v in h.vertices} == qhull_vertices(pts)


class TestHullProperties:
    @given(small_points_1d)
    @settings(max_examples=60, deadline=None)
    def test_interval_is_min_to_max(self, pts):
        h = convex_hull(pts)
        lo, hi = min(pts), max(pts)
        assert h.dim == (1 if lo != hi else 0)
        assert h.vertices == tuple(sorted({lo, hi}))
        assert h.volume == hi[0] - lo[0]
        assert all(h.contains(p) for p in pts)

    @given(small_points_2d)
    @settings(max_examples=120, deadline=None)
    def test_matches_qhull_2d(self, pts):
        h = convex_hull(pts)
        assert abs(float(h.volume) - qhull_volume(pts)) < 1e-9
        assert all(h.contains(p) for p in pts)
        assert set(h.vertices) <= {tuple(map(Fraction, p)) for p in pts}
        assert_vertices_match_qhull(h, pts)

    @given(small_points_3d)
    @settings(max_examples=80, deadline=None)
    def test_matches_qhull_3d(self, pts):
        h = convex_hull(pts)
        assert abs(float(h.volume) - qhull_volume(pts)) < 1e-9
        assert all(h.contains(p) for p in pts)
        assert_vertices_match_qhull(h, pts)

    @given(small_points_3d)
    @settings(max_examples=60, deadline=None)
    def test_lattice_points_satisfy_facets(self, pts):
        h = convex_hull(pts)
        for q in lattice_points(h):
            assert h.contains(q)
        # integer inputs are themselves lattice points of the hull
        integral = [p for p in pts if all(x.denominator == 1 for x in p)]
        assert {tuple(map(int, p)) for p in integral} <= set(lattice_points(h))


# values of the Gr(2,4) generators 1, a, b, c, d, a*d - b*c in the big cell
GR24_VALUES = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 0)]


def level_points(values, k):
    """The level-k values of the semigroup the values generate at level 1,
    scaled by 1/k into the body."""
    level = brute_semigroup_level([(1, v) for v in values], k)
    return sorted(tuple(Fraction(x, k) for x in v) for v in level)


def rescaled(hull, k, n):
    """A _full_hull triple for the points scaled by k > 0."""
    vertices, facets, volume = hull
    return (
        tuple(tuple(k * x for x in v) for v in vertices),
        tuple((normal, k * b) for normal, b in facets),
        volume * k**n,
    )


@st.composite
def spanning_points(draw):
    """Distinct rational points spanning R^n, n in 1..4, sorted; half of
    them on the grid {0, 1, 2}^n, where edge and face points abound."""
    n = draw(st.integers(1, 4))
    coordinate = draw(st.sampled_from([rationals(3), st.builds(Fraction, st.integers(0, 2))]))
    raw = draw(st.lists(st.tuples(*[coordinate] * n), min_size=n + 1, max_size=11 - n))
    pts = sorted(set(raw))
    assume(_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == n)
    return pts, n


class TestFullHull:
    """The batched integer kernel against the one-candidate-at-a-time
    reference, and exact gates past dimension three."""

    @given(spanning_points())
    @settings(max_examples=60, deadline=None)
    def test_matches_candidate_normal_reference(self, case):
        pts, n = case
        assert repr(_full_hull(pts, n)) == repr(candidate_normal_hull(pts, n))

    @given(spanning_points(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_block_size_changes_nothing(self, case, block):
        pts, n = case
        whole = repr(_full_hull(pts, n))
        with mock.patch.object(_polytope, "_SUBSETS_PER_BLOCK", block):
            assert repr(_full_hull(pts, n)) == whole

    def test_blocks_without_a_spanning_subset(self):
        # the first C(10, 3) subsets are collinear triples, so with blocks
        # of five subsets the first 24 blocks span no plane at all
        line = [(Fraction(i), Fraction(0), Fraction(0)) for i in range(10)]
        pts = line + [(Fraction(20), Fraction(1), Fraction(0)), (Fraction(20), Fraction(0), Fraction(1))]
        with mock.patch.object(_polytope, "_SUBSETS_PER_BLOCK", 5):
            assert repr(_full_hull(pts, 3)) == repr(candidate_normal_hull(pts, 3))

    def test_gr24_level3_memory_is_bounded(self):
        """The 230300 subsets of the level-3 Gr(2,4) points go through in
        blocks: the whole batch at once peaked at about 70 MB."""
        pts = level_points(GR24_VALUES, 3)
        tracemalloc.start()
        try:
            _full_hull(pts, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.lists(
                st.lists(st.lists(st.integers(-50, 50), min_size=k, max_size=k), min_size=k, max_size=k),
                min_size=1,
                max_size=4,
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_det_is_exact(self, stack):
        expected = [frac_det(m) for m in stack]
        assert _det(np.array(stack)).tolist() == expected
        k = len(stack[0])
        huge = np.array(stack, dtype=object) * 2**70
        assert _det(huge).tolist() == [d * 2 ** (70 * k) for d in expected]

    @pytest.mark.parametrize(
        "small",
        [
            [(0, 0), (3, 1), (1, 4), (2, 2)],
            GL3_VALUES,
            GR24_VALUES,
        ],
    )
    def test_huge_coordinates_take_exact_integers(self, small):
        """Past the int64 bound the hull is still the exactly rescaled one:
        once for coordinates times 2^40, once for denominators whose lcm
        is about 2^62."""
        small = sorted({tuple(map(Fraction, p)) for p in small})
        n = len(small[0])
        hull = _full_hull(small, n)
        k = Fraction(2**40)
        assert _full_hull([tuple(k * x for x in p) for p in small], n) == rescaled(hull, k, n)
        # an interior point with denominator 2^31 - 1 next to points over 2^31 + 11
        q, r = 2**31 + 11, 2**31 - 1
        centre = [sum(c) / len(small) for c in zip(*small)]
        inner = tuple((x + (p - x) / r) / q for x, p in zip(centre, small[0]))
        pts = sorted([tuple(x / q for x in p) for p in small] + [inner])
        assert _full_hull(pts, n) == rescaled(hull, Fraction(1, q), n)

    def test_unit_four_simplex(self):
        pts = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(-1, 4)]
        vertices, facets, volume = _full_hull(sorted(pts), 4)
        assert len(vertices) == 5 and len(facets) == 5
        assert volume == Fraction(1, 24)

    @pytest.mark.parametrize("k", [2, 3])
    def test_gr24_body(self, k):
        """Levels 2 and 3 of the Gr(2,4) semigroup (20 and 50 points in
        R^4) span the body of the generators: degree 2 = 4! volume."""
        vertices, facets, volume = _full_hull(level_points(GR24_VALUES, k), 4)
        assert vertices == tuple(sorted(tuple(map(Fraction, v)) for v in GR24_VALUES))
        assert len(facets) == 6
        assert volume == Fraction(1, 12)
