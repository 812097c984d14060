"""Projective realization of the family fibers.

An entry is realized by its level-one generators, the sections of one
very ample line bundle; each carries a torus weight (its value) and a
C*-weight (its functional weight).  A point x of the intrinsic chart
embeds at fiber parameter t with coordinate t^(omega_v) f_v(x) / h(x) at
generator v, where h is the distinguished section; the result is
normalized to a deterministic projective representative.  On (or near)
the special fiber the compact torus acts by phases and the moment map is
the lambda-weighted average of squared coordinate moduli, whose image
sits in the body of the value semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import CompiledPolynomial, evaluate_complex, relative_residual
from .degeneration import FamilyPresentation
from .okounkov import SagbiDatum

__all__ = [
    "EmbeddingError",
    "BaseLocusError",
    "VdBasis",
    "ProjectivePoint",
    "enumerate_vd_basis",
    "embed_point",
    "toric_moment",
    "toric_moments",
    "sample_intrinsic",
]

BASE_LOCUS_TOLERANCE = 1e-12
RESIDUAL_TOLERANCE = 1e-9


class EmbeddingError(Exception):
    pass


class BaseLocusError(EmbeddingError):
    """The section vanishes at this point; re-sample the chart."""


@dataclass(frozen=True)
class VdBasis:
    """The level-one generators as projective coordinates, with both
    weight systems: torus_weights[i] and cstar_weights[i] belong to the
    i-th generator."""

    torus_weights: tuple
    cstar_weights: tuple

    @property
    def size(self) -> int:
        return len(self.torus_weights)

    @property
    def value_dim(self) -> int:
        return len(self.torus_weights[0]) if self.torus_weights else 0

    @cached_property
    def _moment_weights(self) -> np.ndarray:
        """torus_weights and a ones column (for the total), read-only."""
        weights = np.ones((self.size, self.value_dim + 1))
        weights[:, :-1] = self.torus_weights
        weights.setflags(write=False)
        return weights


def enumerate_vd_basis(datum: SagbiDatum, fam: FamilyPresentation) -> VdBasis:
    """The generators in order, with their values and C*-weights.

    The realization is by level-one sections only, so a generator above
    level one raises EmbeddingError.
    """
    for g in datum.generators:
        if g.level != 1:
            raise EmbeddingError(
                "generator %s has level %d; only level-one generators embed"
                % (g.symbol, g.level)
            )
    return VdBasis(
        torus_weights=tuple(g.value for g in datum.generators),
        cstar_weights=fam.weights,
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
    """Embed an intrinsic chart point into the projective space of the
    generators.

    The coordinate at generator v is t^(omega_v) f_v(x) / h(x).  The
    section value h(x) must stay away from zero, and the embedded point
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

    scale = _power(h, -1)
    coords = [
        _power(t, w) * scale * f for w, f in zip(basis.cstar_weights, f_values)
    ]
    residual = family_residual(fam, coords, t)
    if not residual <= RESIDUAL_TOLERANCE:
        raise EmbeddingError(
            "embedded point misses the family by relative residual %.3e"
            % residual
        )
    return ProjectivePoint(_normalize(coords), t)


def toric_moments(Z: np.ndarray, basis: VdBasis) -> np.ndarray:
    """The moment map on the rows of Z (its first basis.size columns):
    sum |z_a|^2 lambda_a / sum |z_a|^2, masses re^2 + im^2.

    Both sums are one running sum over the generators in order, so
    rows never mix and a row's value does not depend on the batch;
    0.0 + makes an all-zero sum +0.0, as a loop from zero would.
    """
    masses = Z.real[:, : basis.size] ** 2 + Z.imag[:, : basis.size] ** 2
    weighted = masses[:, :, None] * basis._moment_weights
    sums = 0.0 + np.add.accumulate(weighted, axis=1)[:, -1]
    total = sums[:, -1]
    if not total.all():
        raise EmbeddingError("moment map is undefined at the zero vector")
    return sums[:, :-1] / total[:, None]


def toric_moment(point, basis: VdBasis):
    """Weighted average of the torus weights: the moment map, whose image
    lies inside the body of the value semigroup.

    A batch of one of :func:`toric_moments`, so it returns the same bits
    as the flow's recorded moments.
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
    body; spreading the radii over decades exercises the whole image.  A
    negative or NaN spread raises ValueError.
    """
    if not log10_spread >= 0.0:
        raise ValueError("log10_spread must be >= 0, not %r" % log10_spread)
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
