"""Exact rational convex hulls; ``convex_hull`` caps the ambient dimension
at three.

One algorithm for every dimension n, in batched integer numpy arithmetic
on the points scaled by their common denominator.  An n-subset's cofactor
vector (generalised cross product of its n - 1 edges) is nonzero exactly
when the subset spans a hyperplane, and that hyperplane is a facet when
every point lies on one side of it.  The normals, made primitive so the
output is canonical, are deduplicated with their offsets and tested in one
matrix product; a point is a vertex when no other point lies on all of its
facets.  The volume sums the barycentric subdivision, one simplex per flag
of faces.  Every entry is at most n! (2C)^n in absolute value, C the
largest scaled coordinate, so the arrays are int64 below 2^62 and numpy
object arrays of Python ints, exact at any size, above it.

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
from itertools import chain, combinations, islice

import numpy as np

__all__ = ["HullError", "OkounkovBody", "convex_hull"]

# n-subsets turned into hyperplanes at a time, so a hull's working arrays
# stay bounded however many subsets its points have
_SUBSETS_PER_BLOCK = 2**14


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


def _det(a):
    """Determinants of a stack of square matrices, shape (..., k, k), by
    cofactor expansion along the first row.  Exact on object arrays of
    Python ints, and on int64 while every partial sum of k! products of
    entries fits."""
    k = a.shape[-1]
    if k == 0:
        return np.ones(a.shape[:-2], dtype=a.dtype)
    total = 0
    for j in range(k):
        term = a[..., 0, j] * _det(np.delete(a[..., 1:, :], j, axis=-1))
        total = total - term if j % 2 else total + term
    return total


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


def _flags(face, facets):
    """Every chain face > F_1 > ... > {v}, each a facet of the one before,
    as vertex-index sets: the facets of a face are the maximal ones among
    its proper intersections with the hull's facets."""
    if len(face) == 1:
        return [(face,)]
    cuts = {face & f for f in facets} - {face}
    return [
        (face,) + flag
        for cut in cuts
        if not any(cut < other for other in cuts)
        for flag in _flags(cut, facets)
    ]


def _unique_rows(rows):
    """The distinct rows, sorted: each kept where it differs from the one
    before (lexsort, unlike np.unique, also takes object arrays)."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _spanned_planes(pts, subsets):
    """Distinct primitive rows (normal, offset) of the hyperplanes that the
    given n-subsets of pts span, each normal's first nonzero entry
    positive."""
    n = subsets.shape[1]
    # cofactor normal w of each subset's edges: w . x = det(edges + [x])
    edges = pts[subsets[:, 1:]] - pts[subsets[:, :1]]
    normals = np.stack(
        [(-1) ** (n - 1 + k) * _det(np.delete(edges, k, axis=2)) for k in range(n)],
        axis=1,
    )
    spanning = (normals != 0).any(axis=1)
    normals, first = normals[spanning], pts[subsets[spanning, 0]]
    lead = normals[np.arange(len(normals)), (normals != 0).argmax(axis=1)]
    divisor = np.gcd.reduce(normals, axis=1) * np.sign(lead)
    planes = np.column_stack([normals, (normals * first).sum(axis=1)])
    return _unique_rows(planes // divisor[:, None])


def _full_hull(points, n):
    """Sorted vertices, facets and n-volume of the hull of distinct points
    that span R^n (n >= 1), computed on the points scaled to integers."""
    scale = math.lcm(*(x.denominator for p in points for x in p))
    ints = sorted(tuple(int(x * scale) for x in p) for p in points)
    big = max(abs(x) for p in ints for x in p)
    exact64 = math.factorial(n) * (2 * big) ** n < 2**62
    pts = np.array(ints, dtype=np.int64 if exact64 else object)
    indices = chain.from_iterable(combinations(range(len(ints)), n))
    blocks = []
    while len(block := np.fromiter(islice(indices, n * _SUBSETS_PER_BLOCK), np.intp)):
        blocks.append(_spanned_planes(pts, block.reshape(-1, n)))
    planes = _unique_rows(np.concatenate(blocks))
    values = planes[:, :n] @ pts.T
    upper = values.max(axis=1) == planes[:, n]
    lower = values.min(axis=1) == planes[:, n]
    facets = np.concatenate([planes[upper], -planes[lower]])
    tight = np.concatenate([values[upper], -values[lower]]) == facets[:, n:]
    # a point is a vertex when no other point lies on all of its facets
    incidence = tight.astype(np.int64)
    shared = incidence.T @ incidence
    is_vertex = (shared == shared.diagonal()[:, None]).sum(axis=1) == 1
    vertices = [ints[i] for i in np.flatnonzero(is_vertex)]
    faces = [frozenset(np.flatnonzero(row).tolist()) for row in tight[:, is_vertex]]
    # the barycentric subdivision: one simplex per flag of faces F, spanned
    # from the flag's vertex v by the edges |F| (centroid(F) - v)
    flags = _flags(frozenset(range(len(vertices))), faces)
    sums = {f: [sum(c) for c in zip(*(vertices[i] for i in f))] for flag in flags for f in flag}
    simplices = [
        [[s - len(f) * x for s, x in zip(sums[f], vertices[v])] for f in flag]
        for *flag, (v,) in flags
    ]
    dets = _det(np.array(simplices, dtype=object))
    sizes = [math.prod(map(len, flag[:-1])) for flag in flags]
    volume = sum(map(Fraction, map(abs, dets), sizes)) / math.factorial(n)
    return (
        tuple(tuple(Fraction(x, scale) for x in v) for v in vertices),
        tuple(sorted((tuple(f[:n]), Fraction(f[n], scale)) for f in facets.tolist())),
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
    if dim == 0:  # a single point: the one vertex () and no facets
        inner_vertices, inner_facets = ((),), ()
    else:
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
