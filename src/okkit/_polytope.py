"""Exact rational convex hulls; ``convex_hull`` caps the ambient dimension
at three.

One algorithm for every dimension n, in batched integer numpy arithmetic
on integer points over one common scale: ``convex_hull`` scales rational
points once by their common denominator, and ``okounkov.okounkov_body``
hands over its generator values scaled by the lcm of their levels.  An
n-subset's cofactor vector (generalised cross product of its n - 1 edges)
is nonzero exactly when the subset spans a hyperplane, and that
hyperplane is a facet when every point lies on one side of it.  The
normals, made primitive so the output is canonical, are deduplicated with
their offsets and tested in one matrix product; a point is a vertex when
no other point lies on all of its facets.  The volume sums the barycentric
subdivision, one simplex per flag of faces.  Every entry is at most
n! (2C)^n in absolute value, C the largest scaled coordinate, so the
arrays are int64 below 2^62 and numpy object arrays of Python ints, exact
at any size, above it; the volume's determinants take the same test on
their own entries.  Before any Fraction is built, every vertex is checked
against every facet in one integer matrix product.

The same planes tell whether the points span R^n: they do exactly when
some spanned hyperplane has a point off it.  Only degenerate hulls
(dimension below the ambient one) run the Fraction elimination.  They are
kept in the ambient space: one elimination of the points' differences
gives their affine dimension, the affine hull's equality pairs and pivot
coordinates on which the points project one-to-one; the other facets and
the vertices are those of the projected hull, its normals padded with
zeros.  The ``volume`` field is always the ambient-dimensional measure,
hence zero for degenerate hulls.

``_vertices`` goes the other way, from inequalities to vertices, with the
same cofactor kernel: Cramer's rule on every n-subset of rows and one
matrix product to keep the points that satisfy them all.

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
    g = math.gcd(*ints) or 1
    return tuple(v // g for v in ints)


def _det(a):
    """Determinants of a stack of square matrices, shape (..., k, k), by
    cofactor expansion along the first row, in closed form for k <= 2.
    Exact on object arrays of Python ints, and on int64 while every
    partial sum of k! products of entries fits."""
    k = a.shape[-1]
    if k == 0:
        return np.ones(a.shape[:-2], dtype=a.dtype)
    if k == 1:
        return a[..., 0, 0]
    if k == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    total = 0
    for j in range(k):
        others = [c for c in range(k) if c != j]
        term = a[..., 0, j] * _det(a[..., 1:, others])
        total = total - term if j % 2 else total + term
    return total


def _cofactors(a):
    """Generalised cross products of a stack of k x (k + 1) matrices: the
    vectors w with w . x = det(a + [x]), so a @ w = 0, and w != 0 exactly
    when the rows of a are independent."""
    k = a.shape[-2]
    return np.stack(
        [
            (-1) ** (k + j) * _det(a[..., [c for c in range(k + 1) if c != j]])
            for j in range(k + 1)
        ],
        axis=-1,
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
        piv = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
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
    normals = _cofactors(pts[subsets[:, 1:]] - pts[subsets[:, :1]])
    spanning = (normals != 0).any(axis=1)
    normals, first = normals[spanning], pts[subsets[spanning, 0]]
    lead = normals[np.arange(len(normals)), (normals != 0).argmax(axis=1)]
    divisor = np.gcd.reduce(normals, axis=1) * np.sign(lead)
    planes = np.column_stack([normals, (normals * first).sum(axis=1)])
    return _unique_rows(planes // divisor[:, None])


def _integer_hull(pts, n):
    """Vertices, facets and n-volume of the hull of sorted distinct integer
    points in R^n (n >= 1), or None when no hyperplane the points span has
    a point off it, so that they do not span R^n.

    vertices is an array of the vertex rows in order, facets an array of
    rows (primitive outward normal, offset), and volume a Fraction.
    """
    if len(pts) <= n:
        return None
    big = max(abs(x) for p in pts for x in p)
    exact64 = math.factorial(n) * (2 * big) ** n < 2**62
    points = np.array(pts, dtype=np.int64 if exact64 else object)
    indices = chain.from_iterable(combinations(range(len(pts)), n))
    blocks = []
    while len(block := np.fromiter(islice(indices, n * _SUBSETS_PER_BLOCK), np.intp)):
        blocks.append(_spanned_planes(points, block.reshape(-1, n)))
    planes = _unique_rows(np.concatenate(blocks))
    values = planes[:, :n] @ points.T
    upper = values.max(axis=1) == planes[:, n]
    lower = values.min(axis=1) == planes[:, n]
    if not len(planes) or (upper & lower).any():
        return None
    facets = np.concatenate([planes[upper], -planes[lower]])
    tight = np.concatenate([values[upper], -values[lower]]) == facets[:, n:]
    # a point is a vertex when no other point lies on all of its facets
    incidence = tight.astype(np.int64)
    shared = incidence.T @ incidence
    is_vertex = (shared == shared.diagonal()[:, None]).sum(axis=1) == 1
    vertices = [pts[i] for i in np.flatnonzero(is_vertex)]
    faces = [frozenset(np.flatnonzero(row).tolist()) for row in tight[:, is_vertex]]
    # the barycentric subdivision: one simplex per flag of faces F, spanned
    # from the flag's vertex v by the edges |F| (centroid(F) - v), whose
    # entries are at most 2 |F| big
    flags = _flags(frozenset(range(len(vertices))), faces)
    chained = {f for flag in flags for f in flag[:-1]}
    sums = {f: [sum(c) for c in zip(*(vertices[i] for i in f))] for f in chained}
    simplices = [
        [[s - len(f) * x for s, x in zip(sums[f], vertices[v])] for f in flag]
        for *flag, (v,) in flags
    ]
    exact64 = math.factorial(n) * (2 * len(vertices) * big) ** n < 2**62
    dets = _det(np.array(simplices, dtype=np.int64 if exact64 else object)).tolist()
    sizes = [math.prod(map(len, flag[:-1])) for flag in flags]
    common = math.lcm(*sizes)
    total = sum(abs(d) * (common // size) for d, size in zip(dets, sizes))
    return points[is_vertex], facets, Fraction(total, common * math.factorial(n))


def _rational_hull(hull, scale):
    """The vertices, facets and volume of an _integer_hull triple scaled
    down by scale, as Fractions.  First every vertex is checked against
    every facet in one integer matrix product, on the rows the Fractions
    are built from."""
    vertices, facets, volume = hull
    n = vertices.shape[1]
    if not (facets[:, :n] @ vertices.T <= facets[:, n:]).all():
        raise HullError("hull vertex violates its own facets")
    return (
        tuple(tuple(Fraction(x, scale) for x in v) for v in vertices.tolist()),
        tuple((tuple(f[:n]), Fraction(f[n], scale)) for f in sorted(facets.tolist())),
        volume / scale**n,
    )


def _full_hull(points, n):
    """Sorted vertices, facets and n-volume of the hull of distinct rational
    points that span R^n (n >= 1), computed on the points scaled to
    integers."""
    scale = math.lcm(*(x.denominator for p in points for x in p))
    ints = sorted(tuple(int(x * scale) for x in p) for p in points)
    return _rational_hull(_integer_hull(ints, n), scale)


# ---------------------------------------------------------------------------
# vertices of an H-representation


def _vertices(rows, n):
    """Sorted distinct vertices of {x in Q^n : normal . x <= offset for every
    row (integer normal, rational offset)}, a bounded set or empty.

    By Cramer's rule: each n-subset of rows with a nonzero determinant meets
    in one point, kept when it satisfies every row.  The rows are scaled to
    integers one by one; with C the largest scaled entry every number below
    is at most (n + 1)! C^(n + 1) in absolute value, so the arrays are int64
    below 2^62 and numpy object arrays of Python ints above it.
    """
    scaled = []
    for normal, offset in rows:
        offset = Fraction(offset)
        scaled.append([a * offset.denominator for a in normal] + [offset.numerator])
    if len(scaled) < n:
        return []
    big = max(abs(x) for row in scaled for x in row)
    exact64 = math.factorial(n + 1) * big ** (n + 1) < 2**62
    a = np.array(scaled, dtype=np.int64 if exact64 else object)
    indices = chain.from_iterable(combinations(range(len(a)), n))
    subsets = np.fromiter(indices, np.intp).reshape(-1, n)
    # subset rows [N | o] annihilate w, so N x = o at x = w[:n] / -w[n];
    # with w[n] < 0, a row holds at x exactly when it is <= 0 on w
    w = _cofactors(a[subsets])
    w = w[w[:, n] != 0]
    w = w * -np.sign(w[:, n:])
    w = w[(a @ w.T <= 0).all(axis=0)]
    return sorted({tuple(Fraction(x, -row[n]) for x in row[:n]) for row in w.tolist()})


# ---------------------------------------------------------------------------
# public entry point


def convex_hull(points) -> OkounkovBody:
    """Exact convex hull of rational points, ambient dimension <= 3.

    The points are scaled once to integers over their common denominator
    and hulled by :func:`_scaled_hull`.
    """
    pts = {tuple(Fraction(x) for x in p) for p in points}
    scale = math.lcm(*(x.denominator for p in pts for x in p))
    return _scaled_hull({tuple(int(x * scale) for x in p) for p in pts}, scale)


def _scaled_hull(points, scale) -> OkounkovBody:
    """Exact convex hull of the points p / scale, for integer points p and a
    positive integer scale, ambient dimension <= 3.

    The integer hull's own planes tell whether the points span the ambient
    space.  Only when they do not does one Fraction elimination on the
    points' differences give the affine dimension; such a degenerate point
    set keeps its affine hull as equality pairs in the facet list, and its
    other facets and vertices come from the hull of its projection to the
    pivot coordinates, so vertices and facets always describe the same set
    in the ambient space.
    """
    pts = sorted(points)
    if not pts:
        raise HullError("no points")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise HullError("inconsistent point dimensions")
    if n > 3:
        raise HullError(
            "exact hulls are implemented for ambient dimension <= 3, got %d" % n
        )
    if n == 0:
        raise HullError("zero-dimensional ambient space")

    hull = _integer_hull(pts, n)
    if hull is not None:
        return OkounkovBody(n, n, *_rational_hull(hull, scale))
    pts = [tuple(Fraction(x, scale) for x in p) for p in pts]
    reduced, pivots = _rref([_sub(p, pts[0]) for p in pts])
    vertices, facets = _degenerate_hull(pts, reduced, pivots)
    body = OkounkovBody(n, len(pivots), vertices, facets, Fraction(0))
    for v in vertices:
        if not body.contains(v):
            raise HullError("hull vertex violates its own facets")
    return body


def _degenerate_hull(pts, reduced, pivots):
    """Vertices and facets of points whose affine hull has dimension
    len(pivots) < n, given the reduced rows and pivot columns of their
    differences.

    The affine hull gives one equality pair per free column, its normal the
    primitive kernel vector of the reduced rows.  Projection to the pivot
    coordinates is one-to-one on the affine hull: the projected hull's
    vertices map back by lookup and its facet normals by zero padding.
    """
    n = len(pts[0])
    facets = set()
    for free in (c for c in range(n) if c not in pivots):
        w = [Fraction(0)] * n
        w[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            w[col] = -row[free] / row[col]
        w = _primitive(w)
        b = _dot(w, pts[0])
        facets.update([(w, b), (tuple(-x for x in w), -b)])
    if not pivots:  # a single point
        return (pts[0],), tuple(sorted(facets))
    lift = {tuple(p[i] for i in pivots): p for p in pts}
    inner_vertices, inner_facets, _ = _full_hull(list(lift), len(pivots))
    for a, b in inner_facets:
        normal = [0] * n
        for col, x in zip(pivots, a):
            normal[col] = x
        facets.add((tuple(normal), b))
    return tuple(sorted(lift[v] for v in inner_vertices)), tuple(sorted(facets))
