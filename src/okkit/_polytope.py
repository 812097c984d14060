"""Exact rational convex hulls in ambient dimension at most three.

Desk-scale implementation: candidate supporting hyperplanes are enumerated
from point tuples and kept when every input point lies on one side and the
tight set is genuinely a facet.  All arithmetic is in Fractions; normals
are reduced to primitive integer vectors, so the output is canonical.

Degenerate hulls (dimension below the ambient one) are kept in the ambient
space: the affine hull contributes equality pairs to the facet list, the
remaining facets are lifted from the hull computed in internal
coordinates.  The ``volume`` field is always the ambient-dimensional
measure, hence zero for degenerate hulls.

Input point order never matters: points are deduplicated and sorted before
anything else, so equal point sets give byte-identical hulls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = ["HullError", "RationalHull", "convex_hull"]


class HullError(Exception):
    pass


@dataclass(frozen=True)
class RationalHull:
    ambient_dim: int
    dim: int
    vertices: tuple  # tuples of Fractions, sorted lexicographically
    facets: tuple  # (primitive int normal, Fraction offset): normal.x <= offset
    volume: Fraction  # ambient-dimensional measure

    def contains(self, point, slack=Fraction(0)):
        point = tuple(Fraction(x) for x in point)
        return all(_dot(n, point) <= b + slack for n, b in self.facets)

    def dilate(self, k) -> "RationalHull":
        """The scaled hull k * self, k a nonnegative rational."""
        k = Fraction(k)
        if k < 0:
            raise HullError("dilation factor must be nonnegative")
        if k == 0:
            origin = tuple(Fraction(0) for _ in range(self.ambient_dim))
            return convex_hull([origin], self.ambient_dim)
        return RationalHull(
            self.ambient_dim,
            self.dim,
            tuple(sorted(tuple(k * x for x in v) for v in self.vertices)),
            tuple(sorted((n, k * b) for n, b in self.facets)),
            self.volume * k**self.ambient_dim,
        )


# ---------------------------------------------------------------------------
# small exact linear algebra


def _dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _primitive(vec):
    """Scale a rational vector to coprime integers.  The sign pattern is
    preserved: outward orientation is meaningful for facet normals."""
    denoms = [Fraction(x).denominator for x in vec]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(Fraction(x) * lcm) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        return tuple(ints)
    return tuple(v // g for v in ints)


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


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# ---------------------------------------------------------------------------
# cyclic ordering of coplanar points (exact angular sort)


def _cyclic_order(points, sigma):
    """Sort points around their centroid by angle, exactly.

    sigma(u, w) is the sine sign between two direction vectors.  Directions
    from the centroid are pairwise distinct for vertices of a convex
    polygon, which is the only use here.
    """
    n = len(points)
    c = tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))
    rel = [(_sub(p, c), p) for p in points]
    ref = rel[0][0]

    def half(u):
        s = sigma(ref, u)
        if s > 0:
            return 0
        if s < 0:
            return 1
        # parallel to the reference: same side opens the tour, opposite
        # side starts the second half-turn
        return 0 if _dot(ref, u) > 0 else 1

    def cmp(a, b):
        u, w = a[0], b[0]
        ha, hb = half(u), half(w)
        if ha != hb:
            return -1 if ha < hb else 1
        s = sigma(u, w)
        if s > 0:
            return -1
        if s < 0:
            return 1
        return 0

    rel.sort(key=functools.cmp_to_key(cmp))
    return [p for _, p in rel]


# ---------------------------------------------------------------------------
# full-dimensional hulls per ambient dimension


def _hull_1d(points):
    xs = sorted(p[0] for p in points)
    lo, hi = xs[0], xs[-1]
    facets = (((-1,), -lo), ((1,), hi))
    return ((lo,), (hi,)), tuple(sorted(facets)), hi - lo


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
            if n >= 3:
                diffs = [_sub(q, tight[0]) for q in tight[1:]]
                if _rank(diffs) < n - 1:
                    continue
            final.add((nrm, b))
    return final


def _hull_2d(points):
    candidates = set()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = _sub(points[j], points[i])
            if d != (0, 0):
                candidates.add(_primitive((-d[1], d[0])))
    facets = _supporting_facets(points, candidates, 2)
    vertices = _extract_vertices(points, facets, 2)
    ordered = _cyclic_order(
        sorted(vertices), sigma=lambda u, w: u[0] * w[1] - u[1] * w[0]
    )
    area = Fraction(0)
    for i, (x1, y1) in enumerate(ordered):
        x2, y2 = ordered[(i + 1) % len(ordered)]
        area += x1 * y2 - x2 * y1
    return tuple(sorted(vertices)), tuple(sorted(facets)), abs(area) / 2


def _hull_3d(points):
    candidates = set()
    npts = len(points)
    for i in range(npts):
        for j in range(i + 1, npts):
            for k in range(j + 1, npts):
                cr = _cross3(_sub(points[j], points[i]), _sub(points[k], points[i]))
                if cr != (0, 0, 0):
                    candidates.add(_primitive(cr))
    facets = _supporting_facets(points, candidates, 3)
    vertices = _extract_vertices(points, facets, 3)
    centroid = tuple(sum(v[i] for v in vertices) / len(vertices) for i in range(3))
    six_volume = Fraction(0)
    for normal, offset in sorted(facets):
        tight = sorted(v for v in vertices if _dot(normal, v) == offset)
        ordered = _cyclic_order(tight, sigma=lambda u, w, N=normal: _det3(u, w, N))
        v0 = ordered[0]
        for a, b in zip(ordered[1:], ordered[2:]):
            six_volume += abs(
                _det3(_sub(v0, centroid), _sub(a, centroid), _sub(b, centroid))
            )
    return tuple(sorted(vertices)), tuple(sorted(facets)), six_volume / 6


def _extract_vertices(points, facets, n):
    vertices = set()
    for p in points:
        tight = [normal for normal, offset in facets if _dot(normal, p) == offset]
        if len(tight) >= n and _rank(tight) == n:
            vertices.add(p)
    return vertices


# ---------------------------------------------------------------------------
# public entry points


def convex_hull(points, ambient_dim=None) -> RationalHull:
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

    base = pts[0]
    diffs = [_sub(p, base) for p in pts[1:]]
    dim = _rank(diffs) if diffs else 0

    if dim == 0:
        facets = []
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            facets.append((e, base[i]))
            facets.append((tuple(-x for x in e), -base[i]))
        return RationalHull(n, 0, (base,), tuple(sorted(facets)), Fraction(0))

    if dim == n:
        if n == 1:
            vertices, facets, vol = _hull_1d(pts)
        elif n == 2:
            vertices, facets, vol = _hull_2d(pts)
        else:
            vertices, facets, vol = _hull_3d(pts)
        return RationalHull(n, dim, vertices, tuple(sorted(facets)), vol)

    # degenerate: parametrize the affine hull exactly and recurse
    basis = _independent_subset(diffs, dim)
    matrix = [[b[i] for b in basis] for i in range(n)]  # columns span the hull
    inner_pts = []
    for p in pts:
        y = _solve_exact(matrix, _sub(p, base))
        if y is None:
            raise HullError("affine parametrization failed")
        inner_pts.append(y)
    inner = convex_hull(inner_pts, dim)

    facets = set()
    for w in _null_space_rows(matrix):
        b = _dot(w, base)
        facets.add((w, b))
        facets.add((tuple(-x for x in w), -b))
    # lift inner facets: an ambient normal nu with basis^T nu = a restricts
    # to the inner functional a on the affine hull
    bt = [list(b) for b in basis]
    for a, b_off in inner.facets:
        nu = _solve_exact(bt, a)
        if nu is None:
            raise HullError("facet lift failed")
        prim = _primitive(nu)
        scale = None
        for x, y in zip(prim, nu):
            if y != 0:
                scale = Fraction(x) / Fraction(y)
                break
        facets.add((prim, scale * (b_off + _dot(nu, base))))
    lifted_vertices = tuple(
        sorted(
            tuple(
                base[i] + sum(y[k] * basis[k][i] for k in range(dim))
                for i in range(n)
            )
            for y in inner.vertices
        )
    )
    return RationalHull(n, dim, lifted_vertices, tuple(sorted(facets)), Fraction(0))


def _independent_subset(diffs, dim):
    chosen = []
    for d in diffs:
        if _rank(chosen + [d]) > len(chosen):
            chosen.append(d)
            if len(chosen) == dim:
                break
    return chosen
