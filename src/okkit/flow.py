"""Gradient flow from a generic fiber down to the toric one.

The family built in :mod:`okkit.degeneration`, embedded as in
:mod:`okkit.embedding`, is a subvariety of P(V_d) x C_t.  Equip the
projective factor with the Fubini-Study metric in affine charts and the
t-line with the flat metric.  The vector field

    V = -P(e_{Re t}) / ||P(e_{Re t})||^2

(P the orthogonal projection onto the tangent space of the family)
moves a point so that Re t decreases at unit speed while Im t stays
constant, and the induced fiber-to-fiber transport is a symplectomorphism
away from the singular locus.  Integrating V from t = eps down to a small
cutoff delta and reading off the toric moment of the endpoint realizes
the moment image of the limit fiber on the generic one.

Everything here works in chart coordinates: a point of P(V_1) x C is a
chart index, the affine coordinates of the remaining symbols, and t.
Only degree-one bases are supported; the family relations are polynomials
in the symbols themselves, so the fiber equations need no re-expression.

Failures are never silent.  flow_to returns a FlowResult whose ``ok``
flag is False and whose ``failure`` string says what happened; the
samples collected up to that point are kept.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from okkit.algebra import CompiledPolynomial, Polynomial, relative_residual
from okkit.degeneration import FamilyPresentation
from okkit.embedding import (
    BaseLocusError,
    EmbeddingError,
    ProjectivePoint,
    VdBasis,
    toric_moment,
    embed_point,
)
from okkit.okounkov import SagbiDatum

__all__ = [
    "IM_PI_TOLERANCE",
    "LINEARITY_TOLERANCE",
    "ChartPoint",
    "FlowConfig",
    "FlowSample",
    "FlowResult",
    "EvalResult",
    "FlowError",
    "SingularPointError",
    "CriticalPointError",
    "RetractionError",
    "DegenerateFormError",
    "IllConditionedWarning",
    "ambient_metric",
    "ambient_symplectic",
    "tangent_frame",
    "gradient_hamiltonian",
    "flow_to",
    "integrable_system_eval",
    "run_batch",
    "poisson_bracket",
    "symplectic_residual",
    "trajectory_csv",
    "diagnostics_dict",
]

# Conservation thresholds checked after every accepted step.
IM_PI_TOLERANCE = 1e-8
LINEARITY_TOLERANCE = 1e-6

# Below this metric norm the projected time gradient counts as critical.
CRITICAL_NORM = 1e-10

# Structural-rank conditioning beyond this emits IllConditionedWarning.
CONDITION_LIMIT = 1e8

# A chart is abandoned when its pivot holds less than this share of the
# largest coordinate modulus.
CHART_SHARE = 0.3

# Central-difference step for derivatives of F along the fiber frame.
FD_STEP = 1e-5


class FlowError(Exception):
    """Base class for flow failures."""


class SingularPointError(FlowError):
    """The family Jacobian dropped rank at the requested point."""


class CriticalPointError(FlowError):
    """The projected time gradient vanished; V is undefined here."""


class RetractionError(FlowError):
    """Gauss-Newton retraction failed to reach the family."""


class DegenerateFormError(FlowError):
    """The restricted symplectic form was too close to singular to invert."""


class IllConditionedWarning(UserWarning):
    """Tangent extraction is close to a rank drop."""


# ---------------------------------------------------------------------------
# chart points


@dataclass(frozen=True)
class ChartPoint:
    """A point of P(V_1) x C_t in an affine chart.

    ``chart`` is the index of the coordinate scaled to one; ``w`` holds
    the remaining coordinates in basis order with the pivot removed.
    """

    chart: int
    w: tuple
    t: complex

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(complex(v) for v in self.w))
        object.__setattr__(self, "t", complex(self.t))
        if self.chart < 0 or self.chart > len(self.w):
            raise ValueError("chart index %d out of range" % self.chart)

    @classmethod
    def from_projective(cls, pt: ProjectivePoint) -> "ChartPoint":
        z = np.asarray(pt.z, dtype=complex)
        pivot = int(np.argmax(np.abs(z)))
        w = np.delete(z / z[pivot], pivot)
        return cls(pivot, tuple(w), pt.t)

    def full_coords(self) -> tuple:
        """Homogeneous coordinates with 1 in the pivot slot."""
        z = list(self.w)
        z.insert(self.chart, 1.0 + 0.0j)
        return tuple(z)

    def to_chart(self, chart: int) -> "ChartPoint":
        if chart == self.chart:
            return self
        z = self.full_coords()
        pivot = z[chart]
        if pivot == 0:
            raise FlowError("coordinate %d vanishes; cannot rechart" % chart)
        scaled = [v / pivot for v in z]
        del scaled[chart]
        return ChartPoint(chart, tuple(scaled), self.t)

    def as_real(self) -> np.ndarray:
        """Layout: Re w_0, Im w_0, ..., Re t, Im t."""
        n = len(self.w)
        y = np.empty(2 * n + 2)
        for j, v in enumerate(self.w):
            y[2 * j] = v.real
            y[2 * j + 1] = v.imag
        y[2 * n] = self.t.real
        y[2 * n + 1] = self.t.imag
        return y

    @classmethod
    def from_real(cls, chart: int, y: np.ndarray) -> "ChartPoint":
        n = (len(y) - 2) // 2
        w = tuple(complex(y[2 * j], y[2 * j + 1]) for j in range(n))
        return cls(chart, w, complex(y[2 * n], y[2 * n + 1]))


# ---------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class FlowConfig:
    """Numerical parameters of one flow computation.

    epsilon, delta  start and terminal values of Re t; 0 < delta < eps < 1
    rtol, atol      embedded RK error control
    retraction_tol  relative family residual accepted after retraction
    max_steps       accepted-step budget per trajectory
    alpha           Lojasiewicz damping exponent, step *= min(1, Re t^alpha)
    seed            recorded with results; sampling outside this module
                    derives per-sample seeds from it
    """

    epsilon: float = 0.5
    delta: float = 1e-4
    rtol: float = 1e-9
    atol: float = 1e-12
    retraction_tol: float = 1e-10
    max_steps: int = 10000
    alpha: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.delta < self.epsilon < 1.0):
            raise ValueError(
                "need 0 < delta < epsilon < 1, got delta=%g epsilon=%g"
                % (self.delta, self.epsilon)
            )
        for name in ("rtol", "atol", "retraction_tol"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")

    def to_json_dict(self):
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "rtol": self.rtol,
            "atol": self.atol,
            "retraction_tol": self.retraction_tol,
            "max_steps": self.max_steps,
            "alpha": self.alpha,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FlowSample:
    """One accepted integration step."""

    s: float
    t: complex
    chart: int
    residual: float
    im_pi: float
    re_lin_err: float
    moment: tuple


@dataclass(frozen=True)
class FlowResult:
    ok: bool
    failure: str | None
    samples: tuple
    terminal: ChartPoint | None
    moment: tuple | None
    steps: int
    max_im_pi: float
    max_re_lin_err: float

    def require_ok(self) -> "FlowResult":
        if not self.ok:
            raise FlowError(self.failure or "flow failed")
        return self


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one integrable-system evaluation.

    F is the Richardson value 2 F(delta/2) - F(delta); convergence is the
    largest componentwise gap between the two cutoffs, an a posteriori
    error estimate.  ``flow`` is the eps -> delta leg, ``continuation``
    the delta -> delta/2 leg (None when the first leg failed).
    """

    ok: bool
    failure: str | None
    F: tuple | None
    convergence: float | None
    flow: FlowResult | None
    continuation: FlowResult | None
    index: int = -1


# ---------------------------------------------------------------------------
# compiled family evaluation


def _differentiate(poly: Polynomial, v: int) -> Polynomial:
    terms = {}
    for exps, c in poly.terms.items():
        k = exps[v]
        if k == 0:
            continue
        e = list(exps)
        e[v] = k - 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + c * k
    return Polynomial(poly.ring, terms)


class _Model:
    """Compiled relations and derivatives of one embedded family."""

    def __init__(self, fam: FamilyPresentation, basis: VdBasis):
        if basis.degree != 1:
            raise FlowError(
                "flow operates in the level-one chart; got basis degree %d"
                % basis.degree
            )
        datum = fam.relation_set.datum
        self.fam = fam
        self.basis = basis
        self.datum = datum
        self.nsym = basis.size
        self.n_w = self.nsym - 1
        nv = self.nsym + 1  # symbols plus tau
        self.relations = [CompiledPolynomial(g) for g in fam.family]
        self.partials = [
            [CompiledPolynomial(_differentiate(g, v)) for v in range(nv)]
            for g in fam.family
        ]
        dim_x = datum.ring.nvars - (1 if datum.modulus is not None else 0)
        # complex dimension of the tangent space of the total family
        self.m = dim_x + 1
        if self.m > self.nsym:
            raise FlowError("family dimension exceeds ambient chart")

    def point_vector(self, cp: ChartPoint) -> np.ndarray:
        z = np.empty(self.nsym + 1, dtype=complex)
        z[: self.nsym] = cp.full_coords()
        z[self.nsym] = cp.t
        return z

    def residual(self, cp: ChartPoint) -> float:
        return relative_residual(self.relations, self.point_vector(cp))

    def constraint_values(self, cp: ChartPoint) -> np.ndarray:
        zv = self.point_vector(cp)
        return np.array([g.value(zv) for g in self.relations], dtype=complex)

    def jacobian(self, cp: ChartPoint, fiber_only: bool) -> np.ndarray:
        """Complex Jacobian in chart coordinates.

        Columns follow the chart layout: the non-pivot symbols in basis
        order, then t unless fiber_only is set.
        """
        zv = self.point_vector(cp)
        cols = [v for v in range(self.nsym) if v != cp.chart]
        if not fiber_only:
            cols.append(self.nsym)
        J = np.empty((len(self.relations), len(cols)), dtype=complex)
        for k, row in enumerate(self.partials):
            for a, v in enumerate(cols):
                J[k, a] = row[v].value(zv)
        return J

    def moment(self, cp: ChartPoint) -> tuple:
        return toric_moment(cp.full_coords(), self.basis)


# ---------------------------------------------------------------------------
# metric, symplectic form, tangent frame


def _fs_metric(w: np.ndarray) -> np.ndarray:
    """Real Fubini-Study metric in an affine chart, plus a flat t block."""
    n = len(w)
    s = float(np.vdot(w, w).real)
    denom = (1.0 + s) ** 2
    G = np.zeros((2 * n + 2, 2 * n + 2))
    for i in range(n):
        for j in range(n):
            h = (-np.conj(w[i]) * w[j]) / denom
            if i == j:
                h += (1.0 + s) / denom
            a, b = h.real, h.imag
            G[2 * i, 2 * j] = a
            G[2 * i, 2 * j + 1] = b
            G[2 * i + 1, 2 * j] = -b
            G[2 * i + 1, 2 * j + 1] = a
    G[2 * n, 2 * n] = 1.0
    G[2 * n + 1, 2 * n + 1] = 1.0
    return G


def _j_matrix(dim: int) -> np.ndarray:
    J = np.zeros((dim, dim))
    for k in range(0, dim, 2):
        J[k, k + 1] = -1.0
        J[k + 1, k] = 1.0
    return J


def ambient_metric(cp: ChartPoint) -> np.ndarray:
    """Product metric (Fubini-Study on the chart, flat on t) at cp."""
    return _fs_metric(np.asarray(cp.w, dtype=complex))


def ambient_symplectic(cp: ChartPoint) -> np.ndarray:
    """Kaehler form of the product metric: W[a,b] = g(J a, b)."""
    G = ambient_metric(cp)
    return _j_matrix(G.shape[0]).T @ G


def _realify(kernel: np.ndarray, cols, chart: int, nsym: int) -> list:
    """Spread complex kernel vectors into real chart vectors.

    Each complex vector yields itself and its multiple by i, giving a
    J-invariant real span.
    """
    n_w = nsym - 1
    # map active column -> real slot pair
    slots = []
    for v in cols:
        if v < nsym:
            j = v if v < chart else v - 1
            slots.append(2 * j)
        else:
            slots.append(2 * n_w)
    out = []
    for kvec in kernel:
        for mult in (1.0, 1.0j):
            vec = np.zeros(2 * n_w + 2)
            for a, base in enumerate(slots):
                c = mult * kvec[a]
                vec[base] = c.real
                vec[base + 1] = c.imag
            out.append(vec)
    return out


def _orthonormalize(vectors: list, G: np.ndarray) -> np.ndarray:
    frame = []
    for v in vectors:
        u = v.astype(float).copy()
        for e in frame:
            u -= (e @ G @ u) * e
        # second pass stabilizes near-dependent inputs
        for e in frame:
            u -= (e @ G @ u) * e
        norm = math.sqrt(max(u @ G @ u, 0.0))
        if norm < 1e-12:
            raise SingularPointError(
                "tangent vectors degenerate during orthonormalization"
            )
        frame.append(u / norm)
    return np.column_stack(frame)


def _frame(model: _Model, cp: ChartPoint, fiber_only: bool) -> np.ndarray:
    nsym = model.nsym
    cols = [v for v in range(nsym) if v != cp.chart]
    if not fiber_only:
        cols.append(nsym)
    expected = model.m - (1 if fiber_only else 0)
    n_cols = len(cols)
    if expected > n_cols:
        raise SingularPointError("expected tangent dimension exceeds chart")
    if model.relations:
        J = model.jacobian(cp, fiber_only)
        _, sigma, Vh = np.linalg.svd(J)
        r_exp = n_cols - expected
        smax = sigma[0] if len(sigma) else 0.0
        if r_exp > 0:
            if len(sigma) < r_exp or sigma[r_exp - 1] <= 1e-10 * max(1.0, smax):
                raise SingularPointError(
                    "family Jacobian has rank below %d at this point" % r_exp
                )
            if sigma[0] / sigma[r_exp - 1] > CONDITION_LIMIT:
                warnings.warn(
                    "tangent extraction is ill conditioned (ratio %.3g)"
                    % (sigma[0] / sigma[r_exp - 1]),
                    IllConditionedWarning,
                    stacklevel=3,
                )
        if len(sigma) > r_exp and sigma[r_exp] > 1e-6 * max(smax, 1e-300):
            raise SingularPointError(
                "family Jacobian rank exceeds the expected %d" % r_exp
            )
        kernel = Vh[r_exp:].conj()
    else:
        kernel = np.eye(n_cols, dtype=complex)
    real_vecs = _realify(kernel, cols, cp.chart, nsym)
    G = ambient_metric(cp)
    return _orthonormalize(real_vecs, G)


def tangent_frame(
    cp: ChartPoint,
    fam: FamilyPresentation,
    basis: VdBasis,
    fiber_only: bool = False,
) -> np.ndarray:
    """Orthonormal real frame of the tangent space at cp.

    Columns are real chart vectors, orthonormal for the product metric.
    By default the frame spans the tangent space of the total family,
    dimension 2 (dim X + 1); with fiber_only the t direction is dropped
    from the constraints and the frame spans the fiber tangent space.

    Raises SingularPointError when the Jacobian rank is off, and emits
    IllConditionedWarning when the structural singular values spread by
    more than a factor of 1e8.
    """
    return _frame(_Model(fam, basis), cp, fiber_only)


def _gradient(model: _Model, cp: ChartPoint):
    E = _frame(model, cp, fiber_only=False)
    slot = 2 * model.n_w  # Re t
    G = ambient_metric(cp)
    coeffs = E.T @ (G[:, slot])  # g(e_Ret, E_k) since G row is e^T G
    nsq = float(coeffs @ coeffs)
    if nsq < CRITICAL_NORM**2:
        raise CriticalPointError(
            "projected time gradient has norm %.3g" % math.sqrt(nsq)
        )
    V = -(E @ coeffs) / nsq
    return V, E


def gradient_hamiltonian(
    cp: ChartPoint, fam: FamilyPresentation, basis: VdBasis
) -> np.ndarray:
    """The flow field V at cp, as a real chart vector.

    Normalized so the derivative of Re t along V is exactly -1; the
    computed value is checked to within 1e-8 before returning.
    """
    V, _ = _gradient(_Model(fam, basis), cp)
    drift = V[len(V) - 2] + 1.0
    if abs(drift) > 1e-8:
        raise FlowError(
            "time derivative of Re t along V is off by %.3g" % abs(drift)
        )
    return V


# ---------------------------------------------------------------------------
# retraction


def _retract(model: _Model, cp: ChartPoint, tol: float, max_iter: int = 20):
    """Gauss-Newton projection back onto the family, t held fixed."""
    if not model.relations:
        return cp
    current = cp
    for _ in range(max_iter):
        if model.residual(current) <= tol:
            return current
        g = model.constraint_values(current)
        J = model.jacobian(current, fiber_only=True)
        step, *_ = np.linalg.lstsq(J, -g, rcond=None)
        w = np.asarray(current.w, dtype=complex) + step
        current = ChartPoint(current.chart, tuple(w), current.t)
    if model.residual(current) <= tol:
        return current
    raise RetractionError(
        "retraction stalled at relative residual %.3g (tolerance %.3g)"
        % (model.residual(current), tol)
    )


# ---------------------------------------------------------------------------
# the integrator

# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


def flow_to(
    cp: ChartPoint,
    target: float,
    cfg: FlowConfig,
    fam: FamilyPresentation,
    basis: VdBasis,
) -> FlowResult:
    """Integrate V from cp until Re t reaches target.

    Embedded RK5(4) with adaptive steps, Lojasiewicz damping by
    min(1, Re t ** alpha), Gauss-Newton retraction after every accepted
    step, and chart switching when the pivot loses dominance.  Records a
    sample per accepted step.  After each step |Im t| and the deviation
    of Re t from linear decay are checked; any violation, as well as
    singular or critical points, retraction failure, step underflow and
    budget exhaustion, produces an ok=False result carrying the samples
    collected so far.
    """
    model = _Model(fam, basis)
    if not (0.0 < target < cp.t.real):
        raise ValueError(
            "target %g must lie strictly between 0 and Re t = %g"
            % (target, cp.t.real)
        )
    if abs(cp.t.imag) > IM_PI_TOLERANCE:
        raise ValueError("starting point has |Im t| = %g" % abs(cp.t.imag))

    start_re = cp.t.real
    s_end = start_re - target
    chart = cp.chart
    y = cp.as_real()
    t_slot = 2 * model.n_w

    samples = []
    max_im = 0.0
    max_lin = 0.0
    steps = 0
    s = 0.0

    def record(point: ChartPoint, s_now: float):
        nonlocal max_im, max_lin
        im = abs(point.t.imag)
        lin = abs(point.t.real - (start_re - s_now))
        max_im = max(max_im, im)
        max_lin = max(max_lin, lin)
        samples.append(
            FlowSample(
                s=s_now,
                t=point.t,
                chart=point.chart,
                residual=model.residual(point),
                im_pi=im,
                re_lin_err=lin,
                moment=model.moment(point),
            )
        )
        return im, lin

    def fail(reason: str) -> FlowResult:
        # y always holds the last accepted (retracted) state
        return FlowResult(
            ok=False,
            failure=reason,
            samples=tuple(samples),
            terminal=ChartPoint.from_real(chart, y) if samples else None,
            moment=None,
            steps=steps,
            max_im_pi=max_im,
            max_re_lin_err=max_lin,
        )

    try:
        record(cp, 0.0)
    except (FlowError, EmbeddingError) as exc:
        return fail("initial point rejected: %s" % exc)
    if samples[0].residual > max(cfg.retraction_tol * 10, 1e-8):
        return fail(
            "initial point misses the family by %.3g" % samples[0].residual
        )

    h = min(0.05, s_end / 4) if s_end > 0 else s_end

    while s < s_end - 1e-15:
        if steps >= cfg.max_steps:
            return fail("step budget %d exhausted at s = %.6g" % (cfg.max_steps, s))
        re_t = y[t_slot]
        damp = min(1.0, max(re_t, 1e-300) ** cfg.alpha)
        h_eff = min(h * damp, s_end - s)
        if h_eff < 1e-14:
            return fail("step size underflow at s = %.6g" % s)

        try:
            k = [None] * 7
            k[0] = _gradient(model, ChartPoint.from_real(chart, y))[0]
            for i in range(1, 7):
                yi = y + h_eff * sum(
                    a * k[j] for j, a in enumerate(_DP_A[i]) if a != 0.0
                )
                k[i] = _gradient(model, ChartPoint.from_real(chart, yi))[0]
        except (SingularPointError, CriticalPointError) as exc:
            return fail(str(exc))

        y5 = y + h_eff * sum(b * k[j] for j, b in enumerate(_DP_B5) if b != 0.0)
        y4 = y + h_eff * sum(b * k[j] for j, b in enumerate(_DP_B4) if b != 0.0)
        sc = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5))
        q = math.sqrt(float(np.mean(((y5 - y4) / sc) ** 2)))

        if q <= 1.0:
            steps += 1
            s += h_eff
            point = ChartPoint.from_real(chart, y5)
            try:
                point = _retract(model, point, cfg.retraction_tol)
            except RetractionError as exc:
                return fail(str(exc))
            y = point.as_real()
            im, lin = record(point, s)
            if im > IM_PI_TOLERANCE:
                return fail("Im t drifted to %.3g" % im)
            if lin > LINEARITY_TOLERANCE:
                return fail("Re t deviates from linear decay by %.3g" % lin)
            # rechart when the pivot is no longer dominant
            full = np.abs(np.asarray(point.full_coords()))
            if full[point.chart] / full.max() < CHART_SHARE:
                point = point.to_chart(int(np.argmax(full)))
                chart = point.chart
                y = point.as_real()
        # standard PI-free step controller
        factor = 0.9 * (1.0 / max(q, 1e-10)) ** 0.2
        h = h * min(5.0, max(0.2, factor))
        h = min(h, 0.25)

    terminal = ChartPoint.from_real(chart, y)
    return FlowResult(
        ok=True,
        failure=None,
        samples=tuple(samples),
        terminal=terminal,
        moment=model.moment(terminal),
        steps=steps,
        max_im_pi=max_im,
        max_re_lin_err=max_lin,
    )


# ---------------------------------------------------------------------------
# integrable system values


def _eval_from_chart(
    cp: ChartPoint,
    cfg: FlowConfig,
    fam: FamilyPresentation,
    basis: VdBasis,
) -> EvalResult:
    first = flow_to(cp, cfg.delta, cfg, fam, basis)
    if not first.ok:
        return EvalResult(False, first.failure, None, None, first, None)
    second = flow_to(first.terminal, cfg.delta / 2, cfg, fam, basis)
    if not second.ok:
        return EvalResult(False, second.failure, None, None, first, second)
    f_value = tuple(
        2.0 * b - a for a, b in zip(first.moment, second.moment)
    )
    conv = max(
        abs(b - a) for a, b in zip(first.moment, second.moment)
    )
    return EvalResult(True, None, f_value, conv, first, second)


def integrable_system_eval(
    x,
    cfg: FlowConfig,
    datum: SagbiDatum,
    fam: FamilyPresentation,
    basis: VdBasis,
) -> EvalResult:
    """Embed x at t = epsilon, flow to the cutoff, read the moment.

    The returned F is Richardson extrapolated over the cutoffs delta and
    delta/2, and ``convergence`` reports their largest componentwise gap.
    Embedding and flow failures come back as ok=False results, never as
    silently missing values.
    """
    try:
        pt = embed_point(x, datum, fam, cfg.epsilon, basis)
    except (BaseLocusError, EmbeddingError) as exc:
        return EvalResult(False, "embedding failed: %s" % exc, None, None, None, None)
    return _eval_from_chart(ChartPoint.from_projective(pt), cfg, fam, basis)


def run_batch(
    xs,
    cfg: FlowConfig,
    datum: SagbiDatum,
    fam: FamilyPresentation,
    basis: VdBasis,
    *,
    workers: int = 1,
) -> list:
    """Evaluate the integrable system on a batch of intrinsic points.

    ``workers`` threads share the batch; results are merged in input
    order regardless of scheduling, and each carries its index.
    """
    points = list(xs)
    if workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    lambda x: integrable_system_eval(x, cfg, datum, fam, basis),
                    points,
                )
            )
    else:
        results = [
            integrable_system_eval(x, cfg, datum, fam, basis) for x in points
        ]
    return [
        EvalResult(
            r.ok, r.failure, r.F, r.convergence, r.flow, r.continuation, i
        )
        for i, r in enumerate(results)
    ]


# ---------------------------------------------------------------------------
# Poisson brackets and symplectic transport


def _fiber_basepoint(
    x, cfg: FlowConfig, datum: SagbiDatum, fam: FamilyPresentation, basis: VdBasis
) -> ChartPoint:
    pt = embed_point(x, datum, fam, cfg.epsilon, basis)
    return ChartPoint.from_projective(pt)


def poisson_bracket(
    i: int,
    j: int,
    x,
    cfg: FlowConfig,
    datum: SagbiDatum,
    fam: FamilyPresentation,
    basis: VdBasis,
) -> float:
    """Poisson bracket {F_i, F_j} at the intrinsic point x.

    Components are 1-based, matching the F_1..F_n columns of the CSV
    export.  Differentials of F are estimated by central differences
    along an orthonormal fiber frame at the embedded point; Hamiltonian
    vectors solve against the restricted Kaehler form, and the value is
    antisymmetrized so {F_i, F_i} is exactly zero.
    """
    n = basis.value_dim
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("component indices must lie in 1..%d" % n)
    model = _Model(fam, basis)
    cp = _fiber_basepoint(x, cfg, datum, fam, basis)
    E = _frame(model, cp, fiber_only=True)
    W_amb = ambient_symplectic(cp)
    W = E.T @ W_amb @ E
    if np.linalg.cond(W) > 1e10:
        raise DegenerateFormError(
            "restricted symplectic form is numerically singular"
        )
    y0 = cp.as_real()
    dF = np.empty((n, E.shape[1]))
    for k in range(E.shape[1]):
        vals = []
        for sign in (1.0, -1.0):
            shifted = ChartPoint.from_real(cp.chart, y0 + sign * FD_STEP * E[:, k])
            shifted = _retract(model, shifted, cfg.retraction_tol)
            outcome = _eval_from_chart(shifted, cfg, fam, basis)
            if not outcome.ok:
                raise FlowError(
                    "perturbed flow failed along frame direction %d: %s"
                    % (k, outcome.failure)
                )
            vals.append(np.asarray(outcome.F))
        dF[:, k] = (vals[0] - vals[1]) / (2 * FD_STEP)
    a_i = np.linalg.solve(W.T, dF[i - 1])
    a_j = np.linalg.solve(W.T, dF[j - 1])
    raw = float(a_j @ W @ a_i)
    raw_swapped = float(a_i @ W @ a_j)
    return 0.5 * (raw - raw_swapped)


def symplectic_residual(
    cp: ChartPoint,
    u: np.ndarray,
    v: np.ndarray,
    cfg: FlowConfig,
    fam: FamilyPresentation,
    basis: VdBasis,
) -> float:
    """Change of the fiber symplectic form under the flow transport.

    u and v are real chart vectors tangent to the fiber at cp (their t
    components should vanish).  Both are pushed forward to the terminal
    fiber by finite differences of the flow map and the pairing is
    compared; zero vectors give exactly zero.

    The pushforward is a central difference of the flow map extrapolated
    over steps h and h/2, at tightened integration tolerances.  The flow
    map can have curvature of order 1e6 at spread-out sample points, so
    a plain O(h^2) difference is not accurate enough at any step size the
    integration noise allows; the extrapolation removes that term.
    """
    model = _Model(fam, basis)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(u) or not np.any(v):
        return 0.0
    omega_start = float(u @ ambient_symplectic(cp) @ v)

    step = 1e-5
    tight = replace(
        cfg,
        rtol=min(cfg.rtol, 1e-11),
        atol=min(cfg.atol, 1e-13),
        retraction_tol=min(cfg.retraction_tol, 1e-11),
    )
    base = flow_to(cp, tight.delta, tight, fam, basis).require_ok()
    ref_chart = base.terminal.chart

    def difference(direction: np.ndarray, h: float) -> np.ndarray:
        ends = []
        for sign in (1.0, -1.0):
            shifted = ChartPoint.from_real(
                cp.chart, cp.as_real() + sign * h * direction
            )
            shifted = _retract(model, shifted, tight.retraction_tol)
            res = flow_to(shifted, tight.delta, tight, fam, basis).require_ok()
            ends.append(res.terminal.to_chart(ref_chart).as_real())
        return (ends[0] - ends[1]) / (2 * h)

    def transported(direction: np.ndarray) -> np.ndarray:
        coarse = difference(direction, step)
        fine = difference(direction, step / 2)
        return (4.0 * fine - coarse) / 3.0

    u_end = transported(u)
    v_end = transported(v)
    omega_end = float(u_end @ ambient_symplectic(base.terminal) @ v_end)
    return abs(omega_end - omega_start)


# ---------------------------------------------------------------------------
# export


def trajectory_csv(results) -> str:
    """Render a batch of EvalResults as CSV, one row per accepted step.

    The F columns hold the toric moment of the current point, which
    converges to F along the trajectory.  Failed samples contribute the
    rows recorded before the failure.
    """
    n = None
    for r in results:
        if r.flow is not None and r.flow.samples:
            n = len(r.flow.samples[0].moment)
            break
    if n is None:
        n = 0
    header = ["sample_id", "s", "t_re", "t_im", "chart", "residual", "Impi", "ReLinErr"]
    header += ["F_%d" % (k + 1) for k in range(n)]
    lines = [",".join(header)]
    for r in results:
        legs = [leg for leg in (r.flow, r.continuation) if leg is not None]
        offset = 0.0
        for leg_no, leg in enumerate(legs):
            for sample in leg.samples:
                if leg_no > 0 and sample.s == 0.0:
                    continue  # the continuation starts where the first leg ended
                row = [
                    "%d" % r.index,
                    "%.17g" % (offset + sample.s),
                    "%.17g" % sample.t.real,
                    "%.17g" % sample.t.imag,
                    "%d" % sample.chart,
                    "%.17g" % sample.residual,
                    "%.17g" % sample.im_pi,
                    "%.17g" % sample.re_lin_err,
                ]
                row += ["%.17g" % f for f in sample.moment]
                lines.append(",".join(row))
            if leg.samples:
                offset += leg.samples[-1].s
    return "\n".join(lines) + "\n"


def diagnostics_dict(results, cfg: FlowConfig) -> dict:
    """Batch summary with per-sample outcomes, ready for serialization."""
    entries = []
    for r in results:
        entry = {
            "id": r.index,
            "ok": r.ok,
            "failure": r.failure,
            "F": list(r.F) if r.F is not None else None,
            "convergence": r.convergence,
        }
        if r.flow is not None:
            entry["steps"] = r.flow.steps
            entry["max_im_pi"] = r.flow.max_im_pi
            entry["max_re_lin_err"] = r.flow.max_re_lin_err
        entries.append(entry)
    return {
        "config": cfg.to_json_dict(),
        "samples": entries,
        "succeeded": sum(1 for r in results if r.ok),
        "total": len(results),
    }
