"""Exact rational convex hulls in ambient dimension at most three.

Desk-scale implementation, one algorithm for every dimension n.  The
points are scaled by the common denominator of their coordinates, so every
step runs in integer arithmetic.  Each n-subset of points proposes the
cofactor vector (generalised cross product) of its n - 1 edge vectors as a
facet normal; a candidate is kept when every point lies on one side and
the tight set spans a hyperplane.  Normals are reduced to primitive integer
vectors, so the output is canonical.  The volume is the sum of the
pyramids from the vertex centroid over the facets, each facet measured in
its own n - 1 dimensional coordinates (a point counts as 1).

Degenerate hulls (dimension below the ambient one) are kept in the ambient
space: the affine hull contributes equality pairs to the facet list, the
remaining facets are lifted from the hull computed in internal
coordinates.  The ``volume`` field is always the ambient-dimensional
measure, hence zero for degenerate hulls.

Input point order never matters: points are deduplicated and sorted before
anything else, so equal point sets give byte-identical hulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

__all__ = ["HullError", "OkounkovBody", "convex_hull"]


class HullError(Exception):
    pass


@dataclass(frozen=True)
class OkounkovBody:
    """Rational polytope in both V- and H-representation.

    ambient_dim is the length n of the points; dim is the dimension of the
    polytope itself (-1 for the empty body, from slicing).  vertices are
    tuples of Fractions, sorted lexicographically.  facets are pairs
    (primitive integer normal, rational offset) meaning normal . x <=
    offset; a polytope of dimension below n carries equality pairs for its
    affine hull.  volume is the n-dimensional measure, zero when dim < n.
    """

    ambient_dim: int
    dim: int
    vertices: tuple
    facets: tuple
    volume: Fraction

    @classmethod
    def empty(cls, ambient_dim: int) -> "OkounkovBody":
        unsatisfiable = (((0,) * ambient_dim, Fraction(-1)),)
        return cls(ambient_dim, -1, (), unsatisfiable, Fraction(0))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def contains(self, point, slack=Fraction(0)) -> bool:
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.ambient_dim:
            raise ValueError("point dimension mismatch")
        return all(
            _dot(normal, point) <= offset + slack for normal, offset in self.facets
        )

    def to_json_dict(self) -> dict:
        """The documented serialization: rationals as [numerator,
        denominator] pairs, one pair per coordinate."""
        return {
            "dim": self.ambient_dim,
            "vertices": [
                [[x.numerator, x.denominator] for x in v] for v in self.vertices
            ],
            "facets": [
                {
                    "normal": [int(a) for a in normal],
                    "offset": [offset.numerator, offset.denominator],
                }
                for normal, offset in self.facets
            ],
            "volume": [self.volume.numerator, self.volume.denominator],
        }


# ---------------------------------------------------------------------------
# small exact linear algebra


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _primitive(vec):
    """Scale a rational vector to coprime integers.  The sign pattern is
    preserved: outward orientation is meaningful for facet normals."""
    lcm = math.lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * lcm) for x in vec]
    g = math.gcd(*ints)
    if g == 0:
        return tuple(ints)
    return tuple(v // g for v in ints)


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def _cross(rows, n):
    """Cofactor vector w of n - 1 vectors in R^n: w . x = det(rows + [x])."""
    return tuple(
        (-1) ** (n - 1 + k) * _det([r[:k] + r[k + 1 :] for r in rows])
        for k in range(n)
    )


def _rref(rows):
    """Gauss-Jordan elimination over the rationals, pivots chosen left to
    right.

    Returns the reduced rows (pivot entries are not scaled to one) and the
    pivot column of each leading row; the remaining rows are zero.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = None
        for r in range(row, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        prow = rows[row]
        for r in range(len(rows)):
            if r != row and rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
    return rows, pivots


def _rank(rows):
    return len(_rref(rows)[1])


def _solve_exact(matrix, rhs):
    """One exact solution of matrix @ x = rhs (any rank), or None if the
    system is inconsistent.  Free variables are set to zero, with pivots
    chosen left to right, so the answer is deterministic."""
    n = len(matrix[0]) if matrix else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = _rref(aug)
    if pivots and pivots[-1] == n:
        return None  # a pivot in the right-hand side column
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = reduced[r][n] / reduced[r][col]
    return tuple(x)


def _null_space_rows(matrix):
    """Primitive integer basis of {w : w @ matrix = 0}."""
    ncols = len(matrix)
    reduced, pivots = _rref(zip(*matrix))
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        w = [Fraction(0)] * ncols
        w[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            w[pc] = -reduced[r][free] / reduced[r][pc]
        out.append(_primitive(w))
    return out


def _parametrize(points, dim):
    """Affine coordinates of points whose affine hull has dimension dim.

    Returns (base, basis, coords) with points[i] = base + sum_k
    coords[i][k] * basis[k]; the basis is the first independent run of
    differences from base, so the answer is deterministic.
    """
    base = points[0]
    basis = []
    for p in points[1:]:
        d = _sub(p, base)
        if len(basis) < dim and _rank(basis + [d]) > len(basis):
            basis.append(d)
    matrix = [[b[i] for b in basis] for i in range(len(base))]
    coords = [_solve_exact(matrix, _sub(p, base)) for p in points]
    if any(y is None for y in coords):
        raise HullError("affine parametrization failed")
    return base, basis, coords


# ---------------------------------------------------------------------------
# full-dimensional hulls


def _supporting_facets(points, candidates, n):
    """(normal, offset) pairs whose hyperplane supports the point set with
    a tight set of affine dimension n - 1, oriented outward."""
    final = set()
    for normal in candidates:
        vals = [_dot(normal, p) for p in points]
        if max(vals) == min(vals):
            continue
        for sign in (1, -1):
            nrm = normal if sign == 1 else tuple(-x for x in normal)
            v = vals if sign == 1 else [-x for x in vals]
            b = max(v)
            tight = [p for p, x in zip(points, v) if x == b]
            if len(tight) < n:
                continue
            diffs = [_sub(q, tight[0]) for q in tight[1:]]
            if _rank(diffs) < n - 1:
                continue
            final.add((nrm, b))
    return final


def _extract_vertices(points, facets, n):
    vertices = set()
    for p in points:
        tight = [normal for normal, offset in facets if _dot(normal, p) == offset]
        if len(tight) >= n and _rank(tight) == n:
            vertices.add(p)
    return vertices


def _full_hull(points, n):
    """Sorted vertices, facets and n-volume of the hull of points that
    span R^n, computed on the points scaled to integers."""
    scale = math.lcm(*(x.denominator for p in points for x in p))
    ints = [tuple(int(x * scale) for x in p) for p in points]
    candidates = set()
    for subset in combinations(ints, n):
        normal = _cross([_sub(q, subset[0]) for q in subset[1:]], n)
        if any(normal):
            candidates.add(_primitive(normal))
    facets = _supporting_facets(ints, candidates, n)
    vertices = sorted(_extract_vertices(ints, facets, n))
    centroid = tuple(Fraction(sum(c), len(vertices)) for c in zip(*vertices))
    volume = Fraction(0)
    for normal, offset in facets:
        tight = [v for v in vertices if _dot(normal, v) == offset]
        base, basis, coords = _parametrize(tight, n - 1)
        measure = _full_hull(coords, n - 1)[2] if n > 1 else 1
        height = abs(_dot(_cross(basis, n), _sub(centroid, base)))
        volume += height * measure / n
    return (
        tuple(tuple(Fraction(x, scale) for x in v) for v in vertices),
        tuple(sorted((nrm, Fraction(b, scale)) for nrm, b in facets)),
        volume / scale**n,
    )


# ---------------------------------------------------------------------------
# public entry point


def convex_hull(points, ambient_dim=None) -> OkounkovBody:
    """Exact convex hull of rational points, ambient dimension <= 3.

    Degenerate point sets are handled: the affine hull is encoded as
    equality pairs in the facet list and the hull itself is computed in
    internal coordinates, so vertices and facets always describe the same
    set in the ambient space.
    """
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    if not pts:
        raise HullError("no points")
    n = ambient_dim if ambient_dim is not None else len(pts[0])
    if any(len(p) != n for p in pts):
        raise HullError("inconsistent point dimensions")
    if n > 3:
        raise HullError(
            "exact hulls are implemented for ambient dimension <= 3, got %d" % n
        )
    if n == 0:
        raise HullError("zero-dimensional ambient space")

    dim = _rank([_sub(p, pts[0]) for p in pts[1:]])
    if dim == n:
        vertices, facets, volume = _full_hull(pts, n)
    else:
        vertices, facets = _degenerate_hull(pts, dim, n)
        volume = Fraction(0)
    body = OkounkovBody(n, dim, vertices, facets, volume)
    for v in vertices:
        if not body.contains(v):
            raise HullError("hull vertex violates its own facets")
    return body


def _degenerate_hull(pts, dim, n):
    """Vertices and facets of points spanning dim < n affine dimensions:
    the hull in internal coordinates, lifted, plus the affine hull's
    equality pairs."""
    base, basis, inner_pts = _parametrize(pts, dim)
    # dim 0 (a single point) gives the one vertex () and no facets
    inner_vertices, inner_facets, _ = _full_hull(inner_pts, dim)

    facets = set()
    matrix = [[b[i] for b in basis] for i in range(n)]  # columns span the hull
    for w in _null_space_rows(matrix):
        b = _dot(w, base)
        facets.add((w, b))
        facets.add((tuple(-x for x in w), -b))
    # lift inner facets: an ambient normal nu with basis^T nu = a restricts
    # to the inner functional a on the affine hull
    for a, b_off in inner_facets:
        nu = _solve_exact(basis, a)
        if nu is None:
            raise HullError("facet lift failed")
        prim = _primitive(nu)
        scale = next(Fraction(x) / y for x, y in zip(prim, nu) if y != 0)
        facets.add((prim, scale * (b_off + _dot(nu, base))))
    lifted_vertices = tuple(
        sorted(
            tuple(base[i] + _dot(y, [b[i] for b in basis]) for i in range(n))
            for y in inner_vertices
        )
    )
    return lifted_vertices, tuple(sorted(facets))
