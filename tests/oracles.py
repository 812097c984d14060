"""Independent oracles the test suite checks library answers against.

Everything here is deliberately implemented the dumb way (brute force,
closed formulas, a second library) so that an agreeing answer actually
means something.  None of this code is imported by the package.
"""

from fractions import Fraction
from math import ceil, floor, gcd, lcm
from itertools import combinations, combinations_with_replacement


def brute_semigroup_level(generators, k):
    """All values at level k of the semigroup generated by ``generators``.

    generators: iterable of (level, value tuple).  Enumerates every multiset
    of generators whose levels sum to k.  Exponential; fine for k <= 8 and a
    handful of generators.
    """
    gens = list(generators)
    out = set()
    if k == 0:
        n = len(gens[0][1]) if gens else 0
        return {(0,) * n}

    def rec(i, remaining, acc):
        if remaining == 0:
            out.add(tuple(acc))
            return
        if i >= len(gens):
            return
        lvl, val = gens[i]
        # skip generator i entirely
        rec(i + 1, remaining, acc)
        if lvl <= remaining:
            rec(i, remaining - lvl, tuple(a + b for a, b in zip(acc, val)))

    n = len(gens[0][1])
    rec(0, k, (0,) * n)
    return out


def dfs_decompose(generators, k, target):
    """Exponents over ``generators`` with levels summing to k and values
    summing to ``target``, or None, by a memoised depth-first search.

    generators: sequence of (level, value tuple).  Greedy and
    deterministic: the highest power of the earliest generator that
    leaves a reachable residual comes first.
    """
    gens = list(generators)
    memo = {}

    def reachable(i, level_left, residual):
        if i == len(gens):
            return level_left == 0 and all(x == 0 for x in residual)
        key = (i, level_left, residual)
        hit = memo.get(key)
        if hit is not None:
            return hit
        lvl, val = gens[i]
        ok = False
        for c in range(level_left // lvl + 1):
            res = tuple(r - c * v for r, v in zip(residual, val))
            if reachable(i + 1, level_left - c * lvl, res):
                ok = True
                break
        memo[key] = ok
        return ok

    if not reachable(0, k, tuple(target)):
        return None
    counts = []
    level_left, residual = k, tuple(target)
    for i, (lvl, val) in enumerate(gens):
        for c in range(level_left // lvl, -1, -1):
            res = tuple(r - c * v for r, v in zip(residual, val))
            if reachable(i + 1, level_left - c * lvl, res):
                counts.append(c)
                level_left -= c * lvl
                residual = res
                break
    return tuple(counts)


def lattice_contains(basis_rows, x):
    """Is x an integer combination of the basis rows?  Reduces x against
    the library's Hermite form, pivot by pivot."""
    from okkit._lattice import hermite_with_transform

    if not basis_rows:
        return all(v == 0 for v in x)
    H, _ = hermite_with_transform(basis_rows)
    x = list(map(int, x))
    n = len(x)
    for row in H:
        if all(v == 0 for v in row):
            break
        col = next(i for i, v in enumerate(row) if v != 0)
        if x[col] != 0:
            if x[col] % row[col] != 0:
                return False
            q = x[col] // row[col]
            for k in range(n):
                x[k] -= q * row[k]
    return all(v == 0 for v in x)


def weyl_dimension_gl3(lam):
    """Dimension of the irreducible GL(3) representation with highest
    weight lam = (l1 >= l2 >= l3), by the Weyl dimension formula:
    prod over i<j of (l_i - l_j + j - i) / (j - i).
    """
    l1, l2, l3 = lam
    num = (l1 - l2 + 1) * (l1 - l3 + 2) * (l2 - l3 + 1)
    den = 1 * 2 * 1
    assert num % den == 0
    return num // den


def shoelace_area(vertices):
    """Exact area of a polygon given vertices in cyclic order."""
    s = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        s += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(s) / 2


def qhull_volume(points):
    """Float volume of the convex hull via scipy's qhull wrapper.

    Independent of the package's exact implementation.  Degenerate inputs
    return 0.
    """
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    if pts.shape[0] <= pts.shape[1]:
        return 0.0
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        return 0.0


def qhull_vertices(points):
    """Float vertices of a full-dimensional hull via qhull, as a set of
    coordinate tuples."""
    import numpy as np
    from scipy.spatial import ConvexHull

    pts = np.asarray(points, dtype=float)
    return {tuple(pts[i]) for i in ConvexHull(pts).vertices}


def directional_derivative(fn, x, direction, h=1e-6):
    """Central finite difference of a scalar function along a direction."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    return (fn(x + h * d) - fn(x - h * d)) / (2 * h)


def all_products_of_generators(gens_exponents, max_total):
    """Multisets of generator indices up to a total count, as tuples."""
    out = []
    for total in range(1, max_total + 1):
        out.extend(combinations_with_replacement(range(gens_exponents), total))
    return out


def lattice_points(hull):
    """All integer points in the hull, in ascending lexicographic order."""
    n = hull.ambient_dim
    los = [min(v[i] for v in hull.vertices) for i in range(n)]
    his = [max(v[i] for v in hull.vertices) for i in range(n)]
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in zip(los, his)]
    out = []

    def rec(idx, acc):
        if idx == n:
            if hull.contains(acc):
                out.append(tuple(acc))
            return
        for x in ranges[idx]:
            rec(idx + 1, acc + [x])

    rec(0, [])
    return out


def dilate(body, k):
    """The scaled polytope k * body, k a positive rational: every vertex
    and facet offset times k, the volume times k^n."""
    k = Fraction(k)
    return type(body)(
        body.ambient_dim,
        body.dim,
        tuple(sorted(tuple(k * x for x in v) for v in body.vertices)),
        tuple(sorted((n, k * b) for n, b in body.facets)),
        body.volume * k**body.ambient_dim,
    )


def substitute_tau(fam, t):
    """The family's polynomials at tau = t, back in the symbol ring: each
    term's coefficient times t to its tau exponent (tau is the last
    variable), summed over the terms that then share a monomial."""
    from okkit.algebra import Polynomial

    out = []
    for g in fam.family:
        terms = {}
        for e, c in g.terms.items():
            terms[e[:-1]] = terms.get(e[:-1], 0) + c * Fraction(t) ** e[-1]
        out.append(Polynomial(fam.relation_set.datum.symbol_ring, terms))
    return out


def _scalar_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _scalar_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def _scalar_cross(rows, n):
    """Cofactor vector w of n - 1 vectors in R^n: w . x = det(rows + [x])."""
    return tuple(
        (-1) ** (n - 1 + k) * _scalar_det([r[:k] + r[k + 1 :] for r in rows])
        for k in range(n)
    )


def _rank(rows):
    from okkit._polytope import _rref

    return len(_rref(rows)[1])


def _solve_exact(matrix, rhs):
    """One exact solution of matrix @ x = rhs (any rank), or None if the
    system is inconsistent.  Free variables are set to zero, with pivots
    chosen left to right, so the answer is deterministic."""
    from okkit._polytope import _rref

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
    from okkit._polytope import _primitive, _rref

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
        d = tuple(x - y for x, y in zip(p, base))
        if len(basis) < dim and _rank(basis + [d]) > len(basis):
            basis.append(d)
    matrix = [[b[i] for b in basis] for i in range(len(base))]
    coords = [_solve_exact(matrix, tuple(x - y for x, y in zip(p, base))) for p in points]
    assert all(y is not None for y in coords), "affine parametrization failed"
    return base, basis, coords


def parametrized_hull(points):
    """The hull as ``convex_hull`` once built it: a rank for the affine
    dimension, and a degenerate set parametrized by a basis of its
    differences, hulled in those coordinates, and each inner facet lifted
    back by its own exact solve plus the affine hull's equality pairs."""
    from okkit._polytope import OkounkovBody, _full_hull, _primitive

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    n = len(pts[0])
    dim = _rank([tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]])
    if dim == n:
        return OkounkovBody(n, dim, *_full_hull(pts, n))
    base, basis, inner_pts = _parametrize(pts, dim)
    if dim == 0:  # a single point: the one vertex () and no facets
        inner_vertices, inner_facets = ((),), ()
    else:
        inner_vertices, inner_facets, _ = _full_hull(inner_pts, dim)
    facets = set()
    matrix = [[b[i] for b in basis] for i in range(n)]  # columns span the hull
    for w in _null_space_rows(matrix):
        b = dot(w, base)
        facets.add((w, b))
        facets.add((tuple(-x for x in w), -b))
    for a, b_off in inner_facets:
        nu = _solve_exact(basis, a)
        prim = _primitive(nu)
        scale = next(Fraction(x) / y for x, y in zip(prim, nu) if y != 0)
        facets.add((prim, scale * (b_off + dot(nu, base))))
    vertices = tuple(
        sorted(
            tuple(base[i] + dot(y, [b[i] for b in basis]) for i in range(n))
            for y in inner_vertices
        )
    )
    return OkounkovBody(n, dim, vertices, tuple(sorted(facets)), Fraction(0))


def chart_sliced_body(body, grading):
    """The slice as ``okounkov._sliced_body`` once built it: a particular
    solution of the grading equations, a kernel chart, one exact solve per
    d-subset of the facets in chart coordinates, and the hull of the
    feasible solutions."""
    from okkit._polytope import OkounkovBody

    n = body.ambient_dim
    m = grading.codomain_dim
    A = [list(row[1:]) for row in grading.matrix]
    rhs = [-row[0] for row in grading.matrix]
    particular = _solve_exact(A, rhs)
    if particular is None:
        return OkounkovBody.empty(n)
    At = [[A[i][j] for i in range(m)] for j in range(n)]
    W = _null_space_rows(At)
    d = len(W)
    if d == 0:
        if body.contains(particular):
            return parametrized_hull([particular])
        return OkounkovBody.empty(n)
    rows = []
    for normal, offset in body.facets:
        coeffs = tuple(sum(Fraction(a) * w for a, w in zip(normal, wrow)) for wrow in W)
        rows.append((coeffs, offset - sum(Fraction(a) * p for a, p in zip(normal, particular))))
    candidates = set()
    for subset in combinations(range(len(rows)), d):
        y = _solve_exact([list(rows[i][0]) for i in subset], [rows[i][1] for i in subset])
        if y is None:
            continue
        if all(sum(c * yi for c, yi in zip(coeffs, y)) <= off for coeffs, off in rows):
            candidates.add(y)
    if not candidates:
        return OkounkovBody.empty(n)
    points = [
        tuple(p + sum(y[j] * W[j][i] for j in range(d)) for i, p in enumerate(particular))
        for y in sorted(candidates)
    ]
    return parametrized_hull(points)


def candidate_normal_hull(points, n):
    """The hull of points spanning R^n, one candidate normal at a time.

    Every n-subset proposes the primitive cofactor normal of its edges; a
    candidate, oriented either way, is a facet when its tight set has
    affine rank n - 1 (an exact Fraction rank), and a point is a vertex
    when the normals of its facets have rank n.  The volume sums the
    pyramids from the vertex centroid, as the library does.  Returns
    (vertices, facets, volume) in the library's ``_full_hull`` format.
    """
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    scale = lcm(*(x.denominator for p in points for x in p))
    ints = [tuple(int(x * scale) for x in p) for p in points]
    candidates = set()
    for subset in combinations(ints, n):
        normal = _scalar_cross([sub(q, subset[0]) for q in subset[1:]], n)
        if any(normal):
            g = gcd(*normal)
            candidates.add(tuple(x // g for x in normal))
    facets = set()
    for normal in candidates:
        vals = [dot(normal, p) for p in ints]
        for sign in (1, -1):
            nrm = tuple(sign * x for x in normal)
            v = [sign * x for x in vals]
            b = max(v)
            tight = [p for p, x in zip(ints, v) if x == b]
            if len(tight) >= n and _rank([sub(q, tight[0]) for q in tight[1:]]) == n - 1:
                facets.add((nrm, b))
    vertices = []
    for p in ints:
        through = [nrm for nrm, b in facets if dot(nrm, p) == b]
        if len(through) >= n and _rank(through) == n:
            vertices.append(p)
    vertices.sort()
    centroid = tuple(Fraction(sum(c), len(vertices)) for c in zip(*vertices))
    volume = Fraction(0)
    for normal, offset in facets:
        face = [v for v in vertices if dot(normal, v) == offset]
        base, basis, coords = _parametrize(face, n - 1)
        measure = candidate_normal_hull(coords, n - 1)[2] if n > 1 else 1
        height = abs(dot(_scalar_cross(basis, n), sub(centroid, base)))
        volume += height * measure / n
    return (
        tuple(tuple(Fraction(x, scale) for x in v) for v in vertices),
        tuple(sorted((nrm, Fraction(b, scale)) for nrm, b in facets)),
        volume / scale**n,
    )


class FractionSeries:
    """A truncated power series as a dense list of Fractions: the library's
    series arithmetic written the plain way, one Fraction operation per
    coefficient pair.  coeffs[i] is the coefficient of u^i."""

    def __init__(self, coeffs, trunc):
        coeffs = [Fraction(c) for c in list(coeffs)[:trunc]]
        self.coeffs = coeffs + [Fraction(0)] * (trunc - len(coeffs))
        self.trunc = trunc

    def __add__(self, other):
        t = min(self.trunc, other.trunc)
        return FractionSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], t)

    def __sub__(self, other):
        t = min(self.trunc, other.trunc)
        return FractionSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], t)

    def __mul__(self, other):
        t = min(self.trunc, other.trunc)
        out = [Fraction(0)] * t
        for i, a in enumerate(self.coeffs[:t]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: t - i]):
                if b != 0:
                    out[i + j] += a * b
        return FractionSeries(out, t)

    def scale(self, c):
        return FractionSeries([c * a for a in self.coeffs], self.trunc)

    def __pow__(self, k):
        result = FractionSeries([1], self.trunc)
        for _ in range(k):
            result = result * self
        return result

    def order(self):
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def __eq__(self, other):
        t = min(self.trunc, other.trunc)
        return self.coeffs[:t] == other.coeffs[:t]


def full_length_sweep(context, trunc):
    """The series table of a SeriesContext as the context builds it, from
    independent parts: explicit variables read off their Fraction terms,
    not substituted, then every implicit one swept from zero at the full
    truncation until a sweep changes nothing (at most trunc + 2 sweeps)."""
    from okkit.algebra import _Series, substitute

    table = {}
    for var, poly in context.assignments.items():
        coeffs = [0] * trunc
        for (k,), c in poly.terms.items():
            if k < trunc:
                coeffs[k] = c
        table[var] = _Series(coeffs, trunc)
    for var in context.implicit:
        table[var] = _Series.zero(trunc)
    one = _Series.constant(1, trunc)
    for _ in range(trunc + 2):
        changed = False
        for var, rhs in context.implicit.items():
            new = substitute(rhs, [table[v] for v in rhs.ring.variables], one)
            if not new == table[var]:
                table[var] = new
                changed = True
        if not changed:
            return table
    raise AssertionError("the implicit series did not stabilize")


def fraction_sum(f, g):
    """f + g with Fraction coefficients, through the checked constructor,
    terms in first-seen order."""
    from okkit.algebra import Polynomial

    terms = dict(f.terms)
    for e, c in g.terms.items():
        s = terms.get(e, Fraction(0)) + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return Polynomial(f.ring, terms)


def fraction_product(f, g):
    """f * g term by term with Fraction coefficients, through the checked
    constructor; a monomial whose sum cancels is dropped and, if it comes
    back, goes to the end, so the term order is the library's."""
    from okkit.algebra import Polynomial

    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return Polynomial(f.ring, out)


def fraction_power(f, k):
    """f ** k as k - 1 products, f ** 0 the constant 1."""
    from okkit.algebra import Polynomial

    if k == 0:
        return Polynomial.constant(f.ring, 1)
    result = f
    for _ in range(k - 1):
        result = fraction_product(result, f)
    return result


def fraction_derivative(f, v):
    """The partial derivative of f by variable v, term by term on its
    Fraction coefficients, through the checked Polynomial constructor."""
    from okkit.algebra import Polynomial

    terms = {}
    for e, c in f.terms.items():
        if e[v]:
            d = list(e)
            d[v] -= 1
            terms[tuple(d)] = c * e[v]
    return Polynomial(f.ring, terms)


def fraction_reduce_modulo(f, modulus):
    """Remainder of f under division by a single relation, one Fraction
    term at a time through the library's arithmetic: the largest reducible
    term e (e >= head entrywise, head the relation's lex-largest term) is
    removed and c x^(e - head) times the relation's tail subtracted, c its
    coefficient over the head's, until no term is reducible."""
    from okkit.algebra import Polynomial

    if modulus is None:
        return f
    if modulus.is_zero():
        raise ValueError("zero modulus")
    head = max(modulus.terms)
    head_coeff = modulus.terms[head]
    tail = Polynomial(
        modulus.ring, {e: c for e, c in modulus.terms.items() if e != head}
    )
    result = f
    while True:
        reducible = [
            e
            for e in result.terms
            if all(a >= b for a, b in zip(e, head))
        ]
        if not reducible:
            return result
        e = max(reducible)
        shift = tuple(a - b for a, b in zip(e, head))
        c = result.terms[e] / head_coeff
        result = result - Polynomial.monomial(result.ring, e, result.terms[e])
        result = result - Polynomial.monomial(result.ring, shift, c) * tail


def kernel_field(J, Y, rank):
    """The flow field through each state's own SVD kernel, the way every
    Dormand-Prince stage once computed it.

    J holds complex chart Jacobians, shape (states, relations, n_w + 1),
    with columns the chart coordinates w and then t; Y the real chart
    states (Re w_0, Im w_0, ..., Re t, Im t); rank the expected Jacobian
    rank.  Per state the kernel K is spanned by the trailing right
    singular vectors, H is the Fubini-Study metric (I - w w^H / one) / one
    on w, one = 1 + |w|^2, and 1 on t; c solves (K^H H K) c = K^H H e_t,
    and V = -K c / Re (K c)_t, as a real chart vector.
    """
    import numpy as np

    out = []
    for Jb, y in zip(J, Y):
        w = np.ascontiguousarray(y, dtype=float).view(complex)[:-1]
        n_w = len(w)
        one = 1.0 + float(np.vdot(w, w).real)
        H = np.eye(n_w + 1, dtype=complex)
        H[:n_w, :n_w] = (np.eye(n_w) - np.outer(w, w.conj()) / one) / one
        K = np.linalg.svd(Jb)[2][rank:].conj().T
        e_t = np.zeros(n_w + 1)
        e_t[-1] = 1.0
        c = np.linalg.solve(K.conj().T @ H @ K, K.conj().T @ H @ e_t)
        Kc = K @ c
        out.append((Kc / -Kc[-1].real).view(float))
    return np.array(out)
