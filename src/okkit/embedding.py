"""Projective realization of the family fibers.

The degree-d slice of the presented algebra has a monomial basis indexed
by weighted compositions: multi-indices alpha over the generator symbols
with sum(alpha_v * level_v) = d.  Each index carries a torus weight (the
sum of the generator values) and a C*-weight (the sum of the functional
weights).  A point x of the intrinsic chart embeds at fiber parameter t
with coordinate t^(omega_alpha) prod f_v(x)^alpha_v / h(x)^d, where h is
the distinguished section; the result is normalized to a deterministic
projective representative.  On (or near) the special fiber the compact
torus acts by phases and the moment map is the lambda-weighted average of
squared coordinate moduli, scaled by 1/d so its image sits in the body of
the value semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import CompiledPolynomial, evaluate_complex, relative_residual
from .degeneration import FamilyPresentation
from .okounkov import SagbiDatum

__all__ = [
    "EmbeddingError",
    "BasisTooLargeError",
    "BaseLocusError",
    "VdBasis",
    "ProjectivePoint",
    "enumerate_vd_basis",
    "embed_point",
    "toric_moment",
    "toric_moments",
    "sample_intrinsic",
]

BASIS_LIMIT = 10**6
BASE_LOCUS_TOLERANCE = 1e-12
RESIDUAL_TOLERANCE = 1e-9


class EmbeddingError(Exception):
    pass


class BasisTooLargeError(EmbeddingError):
    pass


class BaseLocusError(EmbeddingError):
    """The section vanishes at this point; re-sample the chart."""


@dataclass(frozen=True)
class VdBasis:
    """Monomial basis of the degree-d piece, with both weight systems.

    entries are exponent multi-indices over the generator symbols, in
    descending lexicographic order (so for d = 1 they follow the symbols
    themselves); torus_weights[i] and cstar_weights[i] belong to
    entries[i].
    """

    degree: int
    entries: tuple
    torus_weights: tuple
    cstar_weights: tuple

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def value_dim(self) -> int:
        return len(self.torus_weights[0]) if self.entries else 0

    @cached_property
    def _moment_weights(self) -> np.ndarray:
        """torus_weights and a ones column (for the total), read-only."""
        weights = np.ones((self.size, self.value_dim + 1))
        weights[:, :-1] = self.torus_weights
        weights.setflags(write=False)
        return weights


def _composition_count(level_counts, d) -> int:
    """Number of multi-indices with sum(alpha_v * level_v) = d.

    level_counts maps level i to the number n_i of symbols at that level.
    Stars and bars per level, convolved over the split of d.
    """
    levels = sorted(level_counts)

    @lru_cache(maxsize=None)
    def count(pos, budget):
        if pos == len(levels):
            return 1 if budget == 0 else 0
        i = levels[pos]
        n_i = level_counts[i]
        total = 0
        for c in range(budget // i + 1):
            total += math.comb(c + n_i - 1, n_i - 1) * count(
                pos + 1, budget - c * i
            )
        return total

    return count(0, d)


def enumerate_vd_basis(
    datum: SagbiDatum, fam: FamilyPresentation, d: int | None = None
) -> VdBasis:
    """All degree-d monomials in the generator symbols, with weights.

    d defaults to r! for r the top level, the smallest factorial every
    present level divides.  The enumeration is complete and duplicate-free
    by construction and its length is re-checked against the closed-form
    composition count.
    """
    generators = datum.generators
    levels = tuple(g.level for g in generators)
    r = max(levels)
    if d is None:
        d = math.factorial(r)
    if d <= 0:
        raise EmbeddingError("basis degree must be positive")
    for i in sorted(set(levels)):
        if d % i:
            raise EmbeddingError(
                "degree %d is not divisible by generator level %d" % (d, i)
            )

    counts = {}
    for i in levels:
        counts[i] = counts.get(i, 0) + 1
    expected = _composition_count(counts, d)
    if expected > BASIS_LIMIT:
        raise BasisTooLargeError(
            "degree-%d basis has %d entries (limit %d)"
            % (d, expected, BASIS_LIMIT)
        )

    entries = []
    exponents = [0] * len(generators)

    def walk(pos, budget):
        if pos == len(generators):
            if budget == 0:
                entries.append(tuple(exponents))
            return
        step = levels[pos]
        for c in range(budget // step + 1):
            exponents[pos] = c
            walk(pos + 1, budget - c * step)
        exponents[pos] = 0

    walk(0, d)
    entries.sort(reverse=True)
    if len(entries) != expected:
        raise EmbeddingError(
            "enumeration produced %d entries, expected %d"
            % (len(entries), expected)
        )

    values = tuple(g.value for g in generators)
    weights = fam.weights
    torus = []
    cstar = []
    for alpha in entries:
        lam = tuple(
            sum(a * v[i] for a, v in zip(alpha, values))
            for i in range(len(values[0]))
        )
        torus.append(lam)
        cstar.append(sum(a * w for a, w in zip(alpha, weights)))
    return VdBasis(
        degree=d,
        entries=tuple(entries),
        torus_weights=tuple(torus),
        cstar_weights=tuple(cstar),
    )


@dataclass(frozen=True)
class ProjectivePoint:
    """Normalized homogeneous coordinates plus the fiber parameter."""

    z: tuple
    t: complex


_OVERFLOW = "embedded coordinates overflow the float range"


def _normalize(z):
    """Unit norm, largest-modulus coordinate rotated to the positive axis."""
    try:
        nrm = math.sqrt(sum(abs(c) ** 2 for c in z))
    except OverflowError:
        raise EmbeddingError(_OVERFLOW) from None
    if nrm == 0:
        raise EmbeddingError("cannot normalize the zero vector")
    if not math.isfinite(nrm):
        raise EmbeddingError(_OVERFLOW)
    z = [c / nrm for c in z]
    pivot = max(range(len(z)), key=lambda i: abs(z[i]))
    phase = z[pivot] / abs(z[pivot])
    return tuple(c / phase for c in z)


def _power(base: complex, k: int) -> complex:
    if k == 0:
        return 1.0 + 0j
    if base == 0 and k < 0:
        raise ZeroDivisionError("0 raised to a negative power")
    try:
        return base**k
    except OverflowError:
        raise EmbeddingError(_OVERFLOW) from None


def family_residual(fam: FamilyPresentation, symbol_values, t: complex) -> float:
    """Largest relative residual of the family polynomials.

    symbol_values are the (rescaled) values of the generator symbols; the
    last slot of each family exponent is the tau power, evaluated at t.
    Relations whose every term vanishes contribute zero.
    """
    zvec = np.array([complex(v) for v in symbol_values] + [complex(t)])
    return relative_residual(fam._compiled[0], zvec)


def embed_point(
    x,
    datum: SagbiDatum,
    fam: FamilyPresentation,
    t: complex,
    basis: VdBasis,
) -> ProjectivePoint:
    """Embed an intrinsic chart point into the degree-d projective space.

    The coordinate at alpha is t^(omega_alpha) prod f_v(x)^alpha_v / h(x)^d.
    The section value h(x) must stay away from zero, and the embedded point
    must satisfy every family polynomial; both are enforced, the former as
    a re-sample hint and the latter as a hard error.  Coordinates past the
    float range raise EmbeddingError too.
    """
    t = complex(t)
    f_values = [
        evaluate_complex(g.representative, x) for g in datum.generators
    ]
    section = datum.section
    h = next(f for g, f in zip(datum.generators, f_values) if g is section)
    if abs(h) <= BASE_LOCUS_TOLERANCE:
        raise BaseLocusError(
            "section vanishes at this point (|h| = %.3e); re-sample" % abs(h)
        )
    if t == 0 and any(w < 0 for w in basis.cstar_weights):
        raise EmbeddingError(
            "t = 0 is a pole of a negatively weighted coordinate; reach the"
            " special fiber by flowing instead"
        )

    rescaled = [
        _power(t, w) * f / h for w, f in zip(fam.weights, f_values)
    ]
    residual = family_residual(fam, rescaled, t)
    if not residual <= RESIDUAL_TOLERANCE:
        raise EmbeddingError(
            "embedded point misses the family by relative residual %.3e"
            % residual
        )

    scale = _power(h, -basis.degree)
    coords = []
    for alpha, omega in zip(basis.entries, basis.cstar_weights):
        c = _power(t, omega) * scale
        for f, a in zip(f_values, alpha):
            if a:
                c *= _power(f, a)
        coords.append(c)
    return ProjectivePoint(_normalize(coords), t)


def toric_moments(Z: np.ndarray, basis: VdBasis) -> np.ndarray:
    """The moment map at level d on the rows of Z (its first basis.size
    columns): sum |z_a|^2 lambda_a / (d sum |z_a|^2), masses re^2 + im^2.

    Both sums are one running sum over the basis entries in order, so
    rows never mix and a row's value does not depend on the batch;
    0.0 + makes an all-zero sum +0.0, as a loop from zero would.
    """
    masses = Z.real[:, : basis.size] ** 2 + Z.imag[:, : basis.size] ** 2
    weighted = masses[:, :, None] * basis._moment_weights
    sums = 0.0 + np.add.accumulate(weighted, axis=1)[:, -1]
    total = sums[:, -1]
    if not total.all():
        raise EmbeddingError("moment map is undefined at the zero vector")
    return sums[:, :-1] / (basis.degree * total)[:, None]


def toric_moment(point, basis: VdBasis):
    """Weighted average of the torus weights: the moment map at level d.

    The 1/d factor puts the image inside the body of the value
    semigroup.  A batch of one of :func:`toric_moments`, so it returns
    the same bits as the flow's recorded moments.
    """
    z = point.z if isinstance(point, ProjectivePoint) else tuple(point)
    return tuple(toric_moments(np.array([z], dtype=complex), basis)[0].tolist())


# ---------------------------------------------------------------------------
# sampling the intrinsic chart


def _univariate_in_last(modulus, point_prefix):
    """Coefficients (descending) of the modulus as a polynomial in the
    last ring variable, with the other variables fixed."""
    compiled = CompiledPolynomial(modulus)
    zvec = np.array([complex(v) for v in point_prefix] + [1.0 + 0.0j])
    powers = compiled.exps[:, -1]
    degree = int(powers.max())
    coeffs = np.zeros(degree + 1, dtype=complex)
    np.add.at(coeffs, degree - powers, compiled.monomials(zvec) * compiled.coeffs)
    return coeffs


def _polish_root(coeffs, root):
    """root, after up to three Newton steps on the polynomial with
    descending coeffs, taken while its relative residual |p(root)| / sum
    |terms| exceeds 1e-12.

    The eigenvalues np.roots returns are accurate relative to the largest
    root, so a root many decades smaller can come back as 0.
    """
    slope = np.polyder(coeffs)
    for _ in range(3):
        with np.errstate(over="ignore", invalid="ignore"):
            value = complex(np.polyval(coeffs, root))
            scale = float(np.polyval(np.abs(coeffs), abs(root)))
            d = complex(np.polyval(slope, root))
        # met, or past the float range where it cannot be measured
        if d == 0 or not abs(value) > 1e-12 * scale:
            break
        root -= value / d
    return root


def sample_intrinsic(datum: SagbiDatum, count: int, rng, log10_spread: float = 0.0):
    """Random points of the intrinsic chart, on the zero set of the modulus.

    Without a modulus the chart is affine space and coordinates are drawn
    from a complex normal.  With one, the free coordinates are drawn the
    same way and the last variable is solved for with a root chosen by the
    generator and polished by ``_polish_root``, re-drawing when the section
    or the leading coefficient degenerates or a coefficient is not finite.
    Deterministic for a fixed generator state.

    A positive log10_spread multiplies each free coordinate by a radius
    10**uniform(-s, s).  Normal draws cluster around unit modulus, which
    pins the toric moment of the embedded points near one corner of the
    body; spreading the radii over decades exercises the whole image.
    """
    nvars = datum.ring.nvars
    section = datum.section.representative
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 100 * (count + 1):
            raise EmbeddingError("sampling keeps hitting degenerate points")
        if datum.modulus is None:
            free = nvars
        else:
            free = nvars - 1
        draw = rng.standard_normal(2 * free)
        coords = [
            complex(draw[2 * i], draw[2 * i + 1]) for i in range(free)
        ]
        if log10_spread > 0.0:
            radii = 10.0 ** rng.uniform(-log10_spread, log10_spread, free)
            coords = [c * r for c, r in zip(coords, radii)]
        if datum.modulus is not None:
            coeffs = _univariate_in_last(datum.modulus, coords)
            if abs(coeffs[0]) < 1e-12 or not np.isfinite(coeffs).all():
                continue
            roots = np.roots(coeffs)
            pick = int(rng.integers(len(roots)))
            coords.append(_polish_root(coeffs, complex(roots[pick])))
        point = tuple(coords)
        if abs(evaluate_complex(section, point)) <= BASE_LOCUS_TOLERANCE:
            continue
        points.append(point)
    return points
