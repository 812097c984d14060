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

There is one integration path, and it is batched: a round is a fixed
number of numpy calls over the states, with Python loops over states
only where something fails.  The field is closed form and complex, as
the tangent space is.  For one relation it is explicit in the Jacobian
row, with nothing to solve.  Otherwise a Dormand-Prince step takes one
SVD per state, at its first stage: its singular values run the rank
checks and the ill-conditioning warning once per step, and its leading
left singular vectors give a row basis S that compresses the chart
Jacobian J to the expected rank r.  Every stage of the step, the first
included, then projects e_t onto the kernel of A = S J in the metric H
in closed form, with one r x r solve.  Each stage also checks that J
stays in the row space of A (else its rank exceeds r) and that the
compressed system is not singular to working precision (else its rank
is below r).  The integrator is a lockstep Dormand-Prince 5(4): each
state keeps its own chart, step size, counters and failure; the last
stage's field is reused as the next step's first when the state did not
move after it (the SVD still runs there, for S); the retraction takes
one batched minimum-norm Gauss-Newton step per iteration; one pass over
the accepted states records their samples, toric moments included.
``flow_to`` is a batch of one, ``run_batch`` integrates all its
trajectories together, and the Poisson bracket (once per point) and the
symplectic transport flow their perturbed starts as one batch each.
Every batched call works state by state, so a state's result does not
depend on the batch around it.

Tangent frames come from one single-point routine: one SVD of the chart
Jacobian, and the Cholesky factor of the Fubini-Study matrix on its
kernel.  A point whose pivot holds less than CHART_SHARE of the largest
modulus, the integrator's rule for switching charts, gets the frame of
its dominant chart, pushed forward to its own.  The fiber frame is
Kaehler-orthonormal in pairs e, i e, so the Kaehler form restricted to
it is the standard J and a Poisson bracket is a closed-form pairing of
two differentials, with nothing to solve.

Failures are never silent.  flow_to returns a FlowResult whose ``ok``
flag is False and whose ``failure`` string says what happened; the
samples collected up to that point are kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from okkit.algebra import relative_residual
from okkit.degeneration import FamilyPresentation
from okkit.embedding import (
    BaseLocusError,
    EmbeddingError,
    ProjectivePoint,
    VdBasis,
    embed_point,
    toric_moments,
)
from okkit.okounkov import SagbiDatum

__all__ = [
    "DELTA_MIN",
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

# Smallest cutoff delta a FlowConfig accepts.  At the default alpha = 0.5
# the continuation leg from delta to delta/2 starts with a damped step of
# delta^1.5 / 8, which must stay above the 1e-14 step-size floor.
DELTA_MIN = 1e-8

# A leg takes its last step when less than this share of its length would
# be left after a regular one; that step lands exactly on the target.
LEG_TOLERANCE = 1e-12


class FlowError(Exception):
    """Base class for flow failures."""


class SingularPointError(FlowError):
    """The family Jacobian dropped rank at the requested point."""


class CriticalPointError(FlowError):
    """The projected time gradient vanished; V is undefined here."""


class RetractionError(FlowError):
    """Gauss-Newton retraction failed to reach the family."""


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
        return np.array(self.w + (self.t,), dtype=complex).view(float)

    @classmethod
    def from_real(cls, chart: int, y: np.ndarray) -> "ChartPoint":
        z = np.ascontiguousarray(y, dtype=float).view(complex).tolist()
        return cls(chart, z[:-1], z[-1])


# ---------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class FlowConfig:
    """Numerical parameters of one flow computation.

    epsilon, delta  start and terminal values of Re t;
                    DELTA_MIN = 1e-8 <= delta < epsilon < 1
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
        if self.delta < DELTA_MIN:
            raise ValueError(
                "delta=%g is below the smallest supported cutoff %g"
                % (self.delta, DELTA_MIN)
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
    """One leg of the flow.

    ``steps`` counts accepted steps, ``rejected`` rejected ones, and
    ``field_evals`` evaluations of the field V: at most 7 per attempted
    step, fewer where first-same-as-last reuse applies.  The counters
    stay out of the CSV and diagnostics exports.
    """

    ok: bool
    failure: str | None
    samples: tuple
    terminal: ChartPoint | None
    moment: tuple | None
    steps: int
    max_im_pi: float
    max_re_lin_err: float
    rejected: int = 0
    field_evals: int = 0

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


class _Model:
    """Compiled relations and Jacobian of one embedded family.

    The relations form one stacked system, and so do all their partial
    derivatives (relation by relation, each by the symbols and then tau),
    both compiled once per family presentation.  Per chart the partials'
    exponents are kept over the chart coordinates, so the complex
    Jacobians at a batch of chart states are read straight off the real
    layout: one vector-matrix product per state, and a gather of each
    state's chart columns.
    """

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
        self.n_rel = len(fam.family)
        self.relations, partials = fam._compiled
        # Full-coordinate column of each chart coordinate, per chart: the
        # symbols other than the pivot in basis order, then tau.
        self.columns = np.array(
            [[v for v in range(nv) if v != c] for c in range(self.nsym)],
            dtype=np.intp,
        ).reshape(self.nsym, self.nsym)
        # Per chart, the partials' exponents of the chart coordinates (the
        # pivot is 1, so its powers drop out), and the entries of the
        # flattened partials that make up the chart Jacobian.
        self.chart_exps = partials.exps[:, self.columns].transpose(1, 0, 2)
        self.partial_coeffs = partials.coeffs
        offsets = nv * np.arange(self.n_rel)[:, None]
        self.jacobian_entries = np.array(
            [(offsets + cols).ravel() for cols in self.columns], dtype=np.intp
        )
        dim_x = datum.ring.nvars - (1 if datum.modulus is not None else 0)
        # complex dimension of the tangent space of the total family
        self.m = dim_x + 1
        if self.m > self.nsym:
            raise FlowError("family dimension exceeds ambient chart")
        # the expected Jacobian rank, the same with or without the t column
        self.rank = self.n_w + 1 - self.m
        # no relations, or one of rank one: the field needs no SVD
        self.closed_form = self.n_rel == 0 or (self.n_rel == 1 and self.rank == 1)

    def points(self, charts: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Full complex coordinates (symbols, then t) of real chart states."""
        rows = np.arange(len(charts))
        Z = np.empty((len(charts), self.nsym + 1), dtype=complex)
        # the real layout Re w_0, Im w_0, ..., Re t, Im t viewed as complex
        Z[rows[:, None], self.columns[charts]] = np.ascontiguousarray(Y).view(complex)
        Z[rows, charts] = 1.0
        return Z

    def residual(self, Z: np.ndarray) -> np.ndarray:
        return relative_residual(self.relations, Z)

    def jacobian(
        self, charts: np.ndarray, Y: np.ndarray, fiber_only: bool
    ) -> np.ndarray:
        """Complex Jacobians at real chart states, shape (batch, relations, columns).

        Columns follow the chart layout: the non-pivot symbols in basis
        order, then t; fiber_only slices off the t column.
        """
        w = np.ascontiguousarray(Y).view(complex)[:, None, :]
        monomials = (w ** self.chart_exps[charts]).prod(axis=-1)
        full = (monomials[:, None, :] @ self.partial_coeffs)[:, 0]
        J = full[np.arange(len(charts))[:, None], self.jacobian_entries[charts]]
        J = J.reshape(len(charts), self.n_rel, self.nsym)
        return J[:, :, : self.n_w] if fiber_only else J


# ---------------------------------------------------------------------------
# metric, symplectic form, tangent space


def _realify(A: np.ndarray) -> np.ndarray:
    """The real matrix of a complex one on the layout Re, Im, Re, Im, ...

    Entry A_pq becomes the 2x2 block [[Re, -Im], [Im, Re]], so column 2q
    is column q of A and column 2q + 1 is i times it.
    """
    p, q = A.shape
    R = np.empty((2 * p, 2 * q))
    R[0::2, 0::2] = R[1::2, 1::2] = A.real
    R[1::2, 0::2] = A.imag
    R[0::2, 1::2] = -A.imag
    return R


def _fubini_study(cp: ChartPoint) -> np.ndarray:
    """The Hermitian H = (I - w w^H / one) / one, one = 1 + |w|^2, on the
    chart coordinates w, with 1 on t."""
    w = np.asarray(cp.w, dtype=complex)
    one = 1.0 + float(np.vdot(w, w).real)
    H = np.eye(len(w) + 1, dtype=complex)
    H[:-1, :-1] = (np.eye(len(w)) - np.outer(w, w.conj()) / one) / one
    return H


def ambient_metric(cp: ChartPoint) -> np.ndarray:
    """Product metric (Fubini-Study on the chart, flat on t) at cp: the
    real form Re(u^H H v)."""
    return _realify(_fubini_study(cp))


def ambient_symplectic(cp: ChartPoint) -> np.ndarray:
    """Kaehler form of the product metric: W[a,b] = g(J a, b), with J
    multiplication by i, so W[a,b] = Re((i a)^H H b)."""
    return _realify(-1j * _fubini_study(cp))


def _flag(errors: list, mask: np.ndarray, make, *args) -> None:
    """Give the exception make(*args) to every masked state that has none
    yet, building it only when some state is masked."""
    if not mask.any():
        return
    error = make(*args)
    for b in np.flatnonzero(mask):
        errors[b] = errors[b] or error


def _finite(Y: np.ndarray, errors: list) -> np.ndarray:
    """Y, with every state that has a non-finite coordinate flagged in
    errors and set to zero, so that it runs along harmlessly."""
    Y = np.ascontiguousarray(Y)
    if not np.isfinite(Y).all():
        finite = np.isfinite(Y).all(axis=1)
        _flag(errors, ~finite, FlowError, "chart coordinates are not finite")
        Y = np.where(finite[:, None], Y, 0.0)
    return Y


def _rank_below(r_exp: int) -> SingularPointError:
    return SingularPointError("family Jacobian has rank below %d at this point" % r_exp)


def _rank_exceeds(r_exp: int) -> SingularPointError:
    return SingularPointError("family Jacobian rank exceeds the expected %d" % r_exp)


def _rank_checks(sigma: np.ndarray, r_exp: int, errors: list) -> None:
    """Flag the states whose Jacobian rank is not r_exp, and warn about
    ill-conditioned ones, from singular values in decreasing order."""
    smax = sigma[:, 0]
    if r_exp > 0:
        if sigma.shape[1] >= r_exp:
            weakest = sigma[:, r_exp - 1]
        else:
            weakest = np.zeros(len(sigma))
        low = weakest <= 1e-10 * np.maximum(1.0, smax)
        ill = smax > CONDITION_LIMIT * weakest
        if low.any() or ill.any():
            _flag(errors, low, _rank_below, r_exp)
            for b in np.flatnonzero(~low & ill):
                warnings.warn(
                    "tangent extraction is ill conditioned (ratio %.3g)"
                    % (smax[b] / weakest[b]),
                    IllConditionedWarning,
                    stacklevel=2,
                )
    if sigma.shape[1] > r_exp:
        high = sigma[:, r_exp] > 1e-6 * np.maximum(smax, 1e-300)
        _flag(errors, high, _rank_exceeds, r_exp)


def _critical(nsq: np.ndarray, errors: list) -> np.ndarray:
    """Flag the states with nsq < CRITICAL_NORM^2; returns their mask."""
    critical = nsq < CRITICAL_NORM**2
    if critical.any():
        for b in np.flatnonzero(critical):
            errors[b] = errors[b] or CriticalPointError(
                "projected time gradient has norm %.3g" % math.sqrt(max(nsq[b], 0.0))
            )
    return critical


def _row_basis(model: _Model, charts: np.ndarray, Y: np.ndarray, errors: list):
    """Row bases S of the family Jacobians J at a batch of finite chart
    states, returned with J so that ``_field`` at the same states need not
    build it again; (None, None) where the field is closed form and needs
    no S.

    One SVD per state.  Its singular values run the rank checks, flagging
    states in errors and warning about ill-conditioned ones, and S, the
    conjugate transpose of the leading ``model.rank`` left singular
    vectors, compresses the Jacobian to that many rows with the same row
    space.  The row space moves with the point, but over one
    Dormand-Prince step S J keeps full rank, so the S of a step's first
    stage serves all seven.
    """
    if model.closed_form:
        return None, None
    J = model.jacobian(charts, Y, fiber_only=False)
    U, sigma, _ = np.linalg.svd(J)
    _rank_checks(sigma, model.rank, errors)
    return U[:, :, : model.rank].conj().transpose(0, 2, 1), J


def _field(model: _Model, charts: np.ndarray, Y: np.ndarray, S=None, J=None):
    """The flow field at a batch of states, and per state an exception or None.

    V = -P e_t / |P e_t|^2, for P the H-orthogonal projection onto the
    kernel of the chart Jacobian J (H the metric of ``ambient_metric``),
    so that Re t falls at unit speed.

    Multi-relation families (the kernel path) take S from ``_row_basis``,
    the row basis of the Dormand-Prince step's first stage, whose SVD
    runs the rank checks and the ill-conditioning warning once per step;
    when S is None it is taken at Y itself, those checks included.  J,
    when given, is the chart Jacobian at Y that ``_row_basis`` built.  With
    A = S J, r x (n_w + 1), and H^-1 = one (I + w w^H) on the w block and
    1 on t (one = 1 + |w|^2), X = H^-1 A^H and G = A X; one solve gives
    G [y | Z] = [A e_t | A], then v = e_t - X y = P e_t, |P e_t|^2 =
    Re v_t, and V = -v / Re v_t, its Re t entry -1 to within one ulp
    (numpy divides a complex by a real as a product with the reciprocal).
    Two checks run at every stage: Z X, in exact arithmetic the identity,
    must be within 1e-6 of it, else G is singular to working precision
    and the rank below r; and ||J - (J X) Z||_F <= 1e-6 ||J||_F, else J
    leaves the row space of A and its rank exceeds r.

    For one relation of rank one, with row j = (j_w, j_t), that V is
    u = H_w^-1 j_w^H, s_w = Re(j_w u) = one (|j_w|^2 + |j_w w|^2), nsq =
    s_w / (s_w + |j_t|^2), V_w = u j_t / s_w and V_t = -1 exactly; |j| is
    the one singular value to check.  With no relations V = -e_t.
    """
    n, n_w = len(charts), model.n_w
    errors = [None] * n
    Y = _finite(Y, errors)
    if not model.n_rel:
        V = np.zeros((n, 2 * n_w + 2))
        V[:, 2 * n_w] = 1.0
        return -V, errors
    if S is None and not model.closed_form:
        S, J = _row_basis(model, charts, Y, errors)
    elif J is None:
        J = model.jacobian(charts, Y, fiber_only=False)
    w = Y.view(complex)[:, :n_w]
    one = 1.0 + np.add.reduce(Y[:, : 2 * n_w] ** 2, axis=1)
    if model.closed_form:
        j = J[:, 0]
        jw, jt = j[:, :n_w], j[:, n_w]
        p = np.add.reduce(jw * w, axis=1)
        jw_sq = np.add.reduce(jw.real**2 + jw.imag**2, axis=1)
        jt_sq = jt.real**2 + jt.imag**2
        _rank_checks(np.sqrt(jw_sq + jt_sq)[:, None], 1, errors)
        s_w = one * (jw_sq + (p.real**2 + p.imag**2))
        total = s_w + jt_sq
        bad = _critical(s_w / np.where(total > 0, total, 1.0), errors)
        V = np.empty((n, n_w + 1), dtype=complex)
        u = one[:, None] * (jw.conj() + w * p.conj()[:, None])
        V[:, :n_w] = u * (jt / np.where(bad, 1.0, s_w))[:, None]
        V[:, n_w] = -1.0
        return V.view(float), errors
    r = model.rank
    A = S @ J
    X = A.conj().transpose(0, 2, 1).copy()
    Xw = X[:, :n_w]
    Xw += w[:, :, None] * (w.conj()[:, None, :] @ Xw)
    Xw *= one[:, None, None]
    G = A @ X
    if any(errors):
        G[[e is not None for e in errors]] = np.eye(r)
    rhs = np.concatenate((A[:, :, n_w:], A), axis=2)
    try:
        sol = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        # a state whose G is exactly singular keeps Z = 0, which fails
        # the identity test below
        sol = np.zeros_like(rhs)
        for b in range(n):
            try:
                sol[b] = np.linalg.solve(G[b], rhs[b])
            except np.linalg.LinAlgError:
                pass
    y, Z = sol[:, :, :1], sol[:, :, 1:]
    off = np.abs((Z @ X - np.eye(r)).reshape(n, -1).view(float))
    _flag(errors, ~(off.max(axis=1, initial=0.0) <= 1e-6), _rank_below, r)
    R = (J - (J @ X) @ Z).reshape(n, -1).view(float)
    R_sq = np.add.reduce(R * R, axis=1)
    Jf = J.reshape(n, -1).view(float)
    _flag(errors, ~(R_sq <= 1e-12 * np.add.reduce(Jf * Jf, axis=1)), _rank_exceeds, r)
    v = -(X @ y)[:, :, 0]
    v[:, n_w] += 1.0
    nsq = v[:, n_w].real
    critical = _critical(nsq, errors)
    if critical.any():
        nsq = np.where(critical, 1.0, nsq)
    return (v / -nsq[:, None]).view(float), errors


def _single(cp: ChartPoint):
    return np.array([cp.chart], dtype=np.intp), cp.as_real()[None, :]


def _frame(model: _Model, cp: ChartPoint, fiber_only: bool) -> np.ndarray:
    """The real orthonormal frame of ``tangent_frame``, built in cp's
    dominant chart when cp's pivot holds less than CHART_SHARE of the
    largest coordinate modulus, and pushed forward to cp's chart.

    One SVD of the chart Jacobian gives its singular values, for the rank
    checks, and the kernel K, whose conjugate transpose is the trailing
    rows of Vh.  With H the metric of ``ambient_metric`` (its w block when
    fiber_only drops t), M = K^H H K has Cholesky factor L, and E = K L^-H
    is H-orthonormal; an L pivot below 1e-12 counts as degenerate.
    """
    if not np.isfinite(cp.as_real()).all():
        raise FlowError("chart coordinates are not finite")
    z = np.array(cp.full_coords())
    pivot = int(np.argmax(np.abs(z)))
    at = cp.to_chart(pivot) if 1.0 / abs(z[pivot]) < CHART_SHARE else cp
    if model.n_rel:
        _, sigma, Vh = np.linalg.svd(model.jacobian(*_single(at), fiber_only)[0])
        errors = [None]
        _rank_checks(sigma[None], model.rank, errors)
        if errors[0] is not None:
            raise errors[0]
        KH = Vh[model.rank :]
    else:
        KH = np.eye(model.n_w + (0 if fiber_only else 1), dtype=complex)
    H = _fubini_study(at)[: KH.shape[1], : KH.shape[1]]
    degenerate = "tangent vectors degenerate during orthonormalization"
    try:
        L = np.linalg.cholesky(KH @ H @ KH.conj().T)
    except np.linalg.LinAlgError:
        raise SingularPointError(degenerate) from None
    if not (L.diagonal().real >= 1e-12).all():
        raise SingularPointError(degenerate)
    # K L^-H, whose Hermitian conjugate is L^-1 K^H
    E = np.linalg.solve(L, KH).conj().T
    if at is not cp:
        # dw = (dz - w dz_c) / z_c, for dz and z_c in at's chart, w cp's
        # full coordinates and c cp's chart; the t row does not change
        dz = np.insert(E[: model.n_w], pivot, 0.0, axis=0)
        dw = (dz - z[:, None] * dz[cp.chart]) / at.full_coords()[cp.chart]
        E[: model.n_w] = np.delete(dw, cp.chart, axis=0)
    frame = np.zeros((2 * model.n_w + 2, 2 * E.shape[1]))
    frame[: 2 * E.shape[0]] = _realify(E)
    return frame


def tangent_frame(
    cp: ChartPoint,
    fam: FamilyPresentation,
    basis: VdBasis,
    fiber_only: bool = False,
) -> np.ndarray:
    """Orthonormal real frame of the tangent space at cp.

    Columns are real chart vectors, orthonormal for the product metric:
    the frame is the realification of K L^-H, with K the kernel of the
    family Jacobian and L the Cholesky factor of K^H H K, each complex
    column e giving the real columns e and i e.  It equals the
    Gram-Schmidt frame of the realified kernel columns v, i v in their
    order.  By default the frame spans the tangent space of the total
    family, dimension 2 (dim X + 1); with fiber_only the t direction is
    dropped from the constraints and the frame spans the fiber tangent
    space.  When cp's pivot holds less than CHART_SHARE of the largest
    coordinate modulus, the frame is built in the dominant chart and
    pushed forward to cp's, where it would otherwise lose accuracy.

    Raises FlowError when cp is not finite, SingularPointError when the
    Jacobian rank is off or the frame degenerates, and emits
    IllConditionedWarning when the structural singular values spread by
    more than a factor of 1e8.
    """
    return _frame(_Model(fam, basis), cp, fiber_only)


def gradient_hamiltonian(
    cp: ChartPoint, fam: FamilyPresentation, basis: VdBasis
) -> np.ndarray:
    """The flow field V at cp, as a real chart vector.

    Normalized so the derivative of Re t along V is -1: exactly -1 (and
    Im t entry 0) for one relation, else within one ulp of -1, as _field
    divides by minus the Re t entry itself.  A multi-relation family
    takes its row basis from the SVD at cp itself.
    """
    V, errors = _field(_Model(fam, basis), *_single(cp))
    if errors[0] is not None:
        raise errors[0]
    return V[0]


# ---------------------------------------------------------------------------
# retraction


def _min_norm_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of J x = r over a batch.

    By the SVD, with singular values at or below eps * max(J.shape) times
    the largest treated as zero: the cutoff of np.linalg.lstsq with
    rcond=None.  The Jacobians are rank deficient (the gl3-flag fiber
    Jacobian is 9 x 7 of rank 4), so normal equations do not apply.  One
    row j (singular value |j|) steps conj(j) r / |j|^2, or 0 at j = 0.
    """
    if J.shape[1] == 1:
        j = J[:, 0]
        sq = np.add.reduce(j.real**2 + j.imag**2, axis=1)
        return j.conj() * (r[:, 0] / np.where(sq > 0, sq, np.inf))[:, None]
    U, sigma, Vh = np.linalg.svd(J, full_matrices=False)
    kept = sigma > sigma[:, :1] * (np.finfo(float).eps * max(J.shape[1:]))
    coef = (r[:, None, :] @ U.conj())[:, 0] / np.where(kept, sigma, np.inf)
    return (coef[:, None, :] @ Vh.conj())[:, 0]


def _retract(
    model: _Model, charts: np.ndarray, Y: np.ndarray, tol: float, max_iter: int = 20
):
    """Gauss-Newton projection of a batch back onto the family, t held fixed.

    Each iteration takes one batched minimum-norm step for the states
    still above tol.  Returns the projected states with their full
    coordinates and relative residuals, a mask of the states that moved,
    and per state a RetractionError or None.
    """
    Y = np.array(Y, dtype=float)
    Z = model.points(charts, Y)
    G = model.relations.values(Z)
    res = relative_residual(model.relations, Z, G)
    moved = ~(res <= tol)
    todo = np.flatnonzero(res > tol)  # a state with a NaN residual takes no step
    for _ in range(max_iter):
        if not todo.size:
            break
        ct, yt = charts[todo], Y[todo]
        J = model.jacobian(ct, yt, fiber_only=True)
        yt[:, : 2 * model.n_w] += _min_norm_step(J, -G[todo]).view(float)
        Y[todo] = yt
        Z[todo] = zt = model.points(ct, yt)
        G[todo] = gt = model.relations.values(zt)
        res[todo] = rt = relative_residual(model.relations, zt, gt)
        todo = todo[rt > tol]
    errors = [None] * len(Y)
    for b in np.flatnonzero(~(res <= tol)):
        errors[b] = RetractionError(
            "retraction stalled at relative residual %.3g (tolerance %.3g)"
            % (res[b], tol)
        )
    return Y, Z, res, moved, errors


# ---------------------------------------------------------------------------
# the integrator

# Dormand-Prince 5(4) tableau.
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
# Weights of stage j in the increment sums of stages 1..6, of the fifth-
# and of the fourth-order solution: rows 0..5, 6 and 7.
_DP_WEIGHTS = np.array(
    [row + (0.0,) * (7 - len(row)) for row in _DP_A[1:]] + [_DP_B5, _DP_B4]
).T[:, :, None, None]


def _integrate(model: _Model, starts, target: float, cfg: FlowConfig) -> list:
    """Flow a batch of starts down to Re t = target, in lockstep; a start
    with Re t <= target or |Im t| > IM_PI_TOLERANCE raises ValueError.

    Every state keeps its own chart, step size, arc length s, counters
    and failure; each round takes one Dormand-Prince step on every state
    still running, with the seven stages evaluated as batched numpy
    calls.  The increment sums are accumulated stage by stage in tableau
    order, and the last stage point and the fifth-order solution have
    the same weights, so they come out bit for bit alike.  A state is
    only ever combined with itself, and every batched call works state
    by state, so a state's result does not depend on the batch around it.
    """
    for cp in starts:
        if not (0.0 < target < cp.t.real):
            raise ValueError(
                "target %g must lie strictly between 0 and Re t = %g"
                % (target, cp.t.real)
            )
        if abs(cp.t.imag) > IM_PI_TOLERANCE:
            raise ValueError("starting point has |Im t| = %g" % abs(cp.t.imag))
    n = len(starts)
    if not n:
        return []
    dim = 2 * model.n_w + 2
    slot = dim - 2  # Re t
    charts = np.array([cp.chart for cp in starts], dtype=np.intp)
    Y = np.array([cp.as_real() for cp in starts], dtype=float)
    start_re = Y[:, slot].copy()
    s_end = start_re - target
    s = np.zeros(n)
    h = np.minimum(0.05, s_end / 4)
    steps = np.zeros(n, dtype=int)
    rejected = np.zeros(n, dtype=int)
    evals = np.zeros(n, dtype=int)
    samples = [[] for _ in range(n)]
    failure = [None] * n
    running = np.ones(n, dtype=bool)
    # first-same-as-last: a stage-0 field value known exactly, per state
    carried = np.zeros((n, dim))
    carry = np.zeros(n, dtype=bool)

    def fail(b, reason):
        failure[b] = reason
        running[b] = False

    def record(rows, Z, residual):
        """Sample the states of rows at their full coordinates Z; returns
        |Im t| and the deviation of Re t from linear decay."""
        t = Z[:, -1]
        s_now = s[rows]
        im = np.abs(t.imag)
        lin = np.abs(t.real - (start_re[rows] - s_now))
        columns = zip(
            rows.tolist(),
            s_now.tolist(),
            t.tolist(),
            charts[rows].tolist(),
            residual.tolist(),
            im.tolist(),
            lin.tolist(),
            toric_moments(Z, model.basis).tolist(),
        )
        for b, *fields, moment in columns:
            samples[b].append(FlowSample(*fields, tuple(moment)))
        return im, lin

    Z = model.points(charts, Y)
    residual = model.residual(Z)
    with np.errstate(invalid="ignore", over="ignore"):
        record(np.arange(n), Z, residual)
    for b in np.flatnonzero(~(residual <= max(cfg.retraction_tol * 10, 1e-8))):
        fail(b, "initial point misses the family by %.3g" % residual[b])

    while True:
        act = np.flatnonzero(running)
        if not act.size:
            break
        over = steps[act] >= cfg.max_steps
        if np.count_nonzero(over):
            for b in act[over]:
                fail(b, "step budget %d exhausted at s = %.6g" % (cfg.max_steps, s[b]))
            act = act[~over]
            if not act.size:
                continue
        y = Y[act]
        damp = np.minimum(1.0, np.maximum(y[:, slot], 1e-300) ** cfg.alpha)
        remaining = s_end[act] - s[act]
        want = h[act] * damp
        # the step that would leave less than a relative sliver lands exactly
        final = want >= remaining - LEG_TOLERANCE * s_end[act]
        h_eff = np.where(final, remaining, want)
        small = h_eff < 1e-14
        if np.count_nonzero(small):
            for b in act[small]:
                fail(b, "step size underflow at s = %.6g" % s[b])
            act, y, final, h_eff = act[~small], y[~small], final[~small], h_eff[~small]
            if not act.size:
                continue

        # Stages.  A state whose field fails is dropped after the round;
        # until then it runs along on placeholder values.  The row basis
        # of stage 0 serves every stage, so a reused stage 0 still needs it.
        ch = charts[act]
        hh = h_eff[:, None]
        sums = np.zeros((8,) + y.shape)
        reuse = carry[act]
        dead = np.zeros(len(act), dtype=bool)
        # seven evaluations, less a reused stage 0 and any stage after a failure
        evals[act] += 7 - reuse
        for i in range(7):
            if i == 0:
                errors = [None] * len(act)
                S, J = _row_basis(model, ch, y, errors)
                V = carried[act]
                rows = np.flatnonzero(~reuse)
                if rows.size:
                    V[rows], found = (
                        _field(model, ch[rows], y[rows])
                        if S is None
                        else _field(model, ch[rows], y[rows], S[rows], J[rows])
                    )
                    if any(found):
                        for j, exc in zip(rows, found):
                            errors[j] = errors[j] or exc
            else:
                V, errors = _field(model, ch, y + hh * sums[i - 1], S)
            if any(errors):
                for r, exc in enumerate(errors):
                    if exc is not None and not dead[r]:
                        dead[r] = True
                        evals[act[r]] -= 6 - i
                        fail(act[r], str(exc))
            sums += _DP_WEIGHTS[i] * V
            if i == 0:
                first = V
        last = V
        y5 = y + hh * sums[6]
        y4 = y + hh * sums[7]
        if np.count_nonzero(dead):
            live = ~dead
            act, y, final, h_eff = act[live], y[live], final[live], h_eff[live]
            y5, y4, first, last = y5[live], y4[live], first[live], last[live]
            if not act.size:
                continue

        sc = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5))
        q = np.sqrt(np.add.reduce(((y5 - y4) / sc) ** 2, axis=1) / dim)
        accepted = q <= 1.0
        n_acc = np.count_nonzero(accepted)
        if n_acc < len(act):
            # a rejected step retries from the same state: stage 0 is known
            rej = ~accepted
            rejected[act[rej]] += 1
            carried[act[rej]] = first[rej]
            carry[act[rej]] = True
            acc, final, h_eff = act[accepted], final[accepted], h_eff[accepted]
            y5, last = y5[accepted], last[accepted]
        else:
            acc = act
        if n_acc:
            steps[acc] += 1
            s[acc] = np.where(final, s_end[acc], s[acc] + h_eff)
            # the last step of a leg lands on the target fiber
            if np.count_nonzero(final):
                y5[final, slot] = target
            new, Z, res, moved, errors = _retract(
                model, charts[acc], y5, cfg.retraction_tol
            )
            carry[acc] = False
            if any(errors):
                kept = np.array([e is None for e in errors])
                for j in np.flatnonzero(~kept):
                    fail(acc[j], str(errors[j]))
                acc, new, Z, res = acc[kept], new[kept], Z[kept], res[kept]
                moved, last = moved[kept], last[kept]
            Y[acc] = new
            im, lin = record(acc, Z, res)
            drift = im > IM_PI_TOLERANCE
            off = lin > LINEARITY_TOLERANCE
            if drift.any() or off.any():
                for j in np.flatnonzero(drift | off):
                    if drift[j]:
                        fail(acc[j], "Im t drifted to %.3g" % im[j])
                    else:
                        fail(acc[j], "Re t deviates from linear decay by %.3g" % lin[j])
            going = ~(drift | off)
            finished = s[acc] >= s_end[acc]
            running[acc[going & finished]] = False
            going &= ~finished
            # rechart when the pivot is no longer dominant
            rechart = going & (1.0 / np.abs(Z[:, : model.nsym]).max(axis=1) < CHART_SHARE)
            for j in np.flatnonzero(rechart):
                b = acc[j]
                pivot = int(np.argmax(np.abs(Z[j, : model.nsym])))
                point = ChartPoint.from_real(int(charts[b]), Y[b]).to_chart(pivot)
                charts[b] = point.chart
                Y[b] = point.as_real()
            # a state that did not move is the last stage point, whose field is known
            known = going & ~rechart & ~moved
            carried[acc[known]] = last[known]
            carry[acc[known]] = True
        # standard PI-free step controller
        factor = 0.9 * (1.0 / np.maximum(q, 1e-10)) ** 0.2
        h[act] = np.minimum(h[act] * np.minimum(5.0, np.maximum(0.2, factor)), 0.25)

    # a finished state's last sample was taken at its terminal point
    return [
        FlowResult(
            ok=failure[b] is None,
            failure=failure[b],
            samples=tuple(samples[b]),
            terminal=ChartPoint.from_real(int(charts[b]), Y[b]),
            moment=samples[b][-1].moment if failure[b] is None else None,
            steps=int(steps[b]),
            max_im_pi=max([0.0] + [x.im_pi for x in samples[b]]),
            max_re_lin_err=max([0.0] + [x.re_lin_err for x in samples[b]]),
            rejected=int(rejected[b]),
            field_evals=int(evals[b]),
        )
        for b in range(n)
    ]


def flow_to(
    cp: ChartPoint,
    target: float,
    cfg: FlowConfig,
    fam: FamilyPresentation,
    basis: VdBasis,
) -> FlowResult:
    """Integrate V from cp until Re t reaches target.

    A batch of one on the lockstep integrator that ``run_batch`` uses, so
    a point flowed alone and inside a batch give identical results.
    Embedded Dormand-Prince 5(4) with adaptive steps, first-same-as-last
    reuse of the field, Lojasiewicz damping by min(1, Re t ** alpha),
    Gauss-Newton retraction after every accepted step, and chart
    switching when the pivot loses dominance.  The last step lands
    exactly on Re t = target.  Records a sample per accepted step.
    After each step |Im t| and the deviation of Re t from linear decay
    are checked; any violation, as well as singular or critical points,
    retraction failure, step underflow and budget exhaustion, produces
    an ok=False result carrying the samples collected so far.  A start
    that cannot begin the leg (target not below Re t, or Im t nonzero)
    raises ValueError.
    """
    return _integrate(_Model(fam, basis), [cp], target, cfg)[0]


# ---------------------------------------------------------------------------
# integrable system values


def _evaluate(model: _Model, starts, cfg: FlowConfig) -> list:
    """Both legs for a batch of chart points: eps -> delta for all of
    them as one lockstep phase, then delta -> delta/2 for the survivors as
    a second.  Every flow failure is an ok=False result.  An ok first leg
    ends at Re t = delta with |Im t| <= IM_PI_TOLERANCE, so only an
    invalid first start raises ValueError, from ``_integrate``."""
    first = _integrate(model, starts, cfg.delta, cfg)
    out = [None] * len(starts)
    going = []
    for i, leg in enumerate(first):
        if leg.ok:
            going.append(i)
        else:
            out[i] = EvalResult(False, leg.failure, None, None, leg, None)
    second = _integrate(model, [first[i].terminal for i in going], cfg.delta / 2, cfg)
    for i, leg in zip(going, second):
        if not leg.ok:
            out[i] = EvalResult(False, leg.failure, None, None, first[i], leg)
        else:
            a, b = first[i].moment, leg.moment
            out[i] = EvalResult(
                True,
                None,
                tuple(2.0 * y - x for x, y in zip(a, b)),
                max(abs(y - x) for x, y in zip(a, b)),
                first[i],
                leg,
            )
    return out


def _evaluate_points(model: _Model, xs, cfg: FlowConfig, datum: SagbiDatum) -> list:
    """Embed every point at t = epsilon, then evaluate them as one batch."""
    results = [None] * len(xs)
    starts, where = [], []
    for i, x in enumerate(xs):
        try:
            pt = embed_point(x, datum, model.fam, cfg.epsilon, model.basis)
        except (BaseLocusError, EmbeddingError) as exc:
            results[i] = EvalResult(
                False, "embedding failed: %s" % exc, None, None, None, None
            )
            continue
        starts.append(ChartPoint.from_projective(pt))
        where.append(i)
    for i, outcome in zip(where, _evaluate(model, starts, cfg)):
        results[i] = outcome
    return results


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
    return _evaluate_points(_Model(fam, basis), [x], cfg, datum)[0]


def run_batch(
    xs,
    cfg: FlowConfig,
    datum: SagbiDatum,
    fam: FamilyPresentation,
    basis: VdBasis,
) -> list:
    """Evaluate the integrable system on a batch of intrinsic points.

    Every point is embedded, then all trajectories are integrated
    together by the lockstep integrator, one phase per leg; each keeps
    its own step size, chart and counters, so every result equals what
    ``integrable_system_eval`` gives for that point alone, bit for bit.
    Results come back in input order, each carrying its index.
    """
    results = _evaluate_points(_Model(fam, basis), list(xs), cfg, datum)
    return [replace(r, index=i) for i, r in enumerate(results)]


# ---------------------------------------------------------------------------
# Poisson brackets and symplectic transport


def _shifted_starts(model: _Model, cp: ChartPoint, Y: np.ndarray, tol: float):
    """Retract perturbed copies of cp back onto the family, keeping its chart."""
    charts = np.full(len(Y), cp.chart, dtype=np.intp)
    Y, _, _, _, errors = _retract(model, charts, Y, tol)
    return [ChartPoint.from_real(cp.chart, y) for y in Y], errors


# (key, datum, fam, basis, dF) of the last point _differentials computed.
_last_differentials = None


def _point_key(x) -> tuple:
    """x's coordinates exactly, each with its type.

    repr pins every bit of a float, the sign of a zero included, where
    == would take -0.0 for 0.0; the type keeps 1 and 1.0 apart.
    """
    return tuple((type(c), repr(c)) for c in x)


def _differentials(
    x, cfg: FlowConfig, datum: SagbiDatum, fam: FamilyPresentation, basis: VdBasis
):
    """Differential dF of F at x along the fiber frame.

    dF[k] is the central difference of F_{k+1} along the orthonormal
    fiber frame, with all the perturbed evaluations flowed as one batch.
    The frame's columns are g-orthonormal pairs e, i e, and i maps each
    column to plus or minus its partner, so the Kaehler form
    W(a, b) = g(i a, b) restricted to it is the standard J
    (W(e, i e) = g(i e, i e) = 1, zero on every other pair) and dF alone
    fixes every bracket.  The frame's t rows are zero, so the perturbed
    starts keep t = epsilon.

    The last result is held with its key (x's exact coordinates, cfg by
    value, and datum, fam and basis by identity) and returned, read-only,
    while the key matches; a failure raises and holds nothing.
    """
    global _last_differentials
    key = (_point_key(x), cfg)
    held = _last_differentials
    if (
        held is not None
        and held[0] == key
        and held[1] is datum
        and held[2] is fam
        and held[3] is basis
    ):
        return held[4]
    model = _Model(fam, basis)
    cp = ChartPoint.from_projective(embed_point(x, datum, fam, cfg.epsilon, basis))
    E = _frame(model, cp, fiber_only=True)
    y0 = cp.as_real()
    # rows (k, +), (k, -) for every frame direction k
    shifts = [
        y0 + sign * FD_STEP * E[:, k]
        for k in range(E.shape[1])
        for sign in (1.0, -1.0)
    ]
    starts, errors = _shifted_starts(model, cp, np.array(shifts), cfg.retraction_tol)
    outcomes = _evaluate(model, starts, cfg)
    for row, (error, outcome) in enumerate(zip(errors, outcomes)):
        if error is not None:
            raise error
        if not outcome.ok:
            raise FlowError(
                "perturbed flow failed along frame direction %d: %s"
                % (row // 2, outcome.failure)
            )
    values = np.array([outcome.F for outcome in outcomes])
    dF = ((values[0::2] - values[1::2]) / (2 * FD_STEP)).T
    dF.setflags(write=False)
    _last_differentials = (key, datum, fam, basis, dF)
    return dF


def _bracket(dF_i: np.ndarray, dF_j: np.ndarray) -> float:
    """dF_j^T J dF_i, for differentials along frame pairs e, i e; as a
    difference of two dot products it is exactly antisymmetric."""
    return float(dF_j[0::2] @ dF_i[1::2] - dF_j[1::2] @ dF_i[0::2])


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
    along an orthonormal fiber frame at the embedded point, with all the
    perturbed evaluations flowed as one batch.  The restricted Kaehler
    form in that frame is the standard J, so the bracket is dF_j^T J dF_i
    in closed form: exactly antisymmetric, and {F_i, F_i} is exactly 0.

    The differentials depend on the point, not on the pair, so they are
    computed once per point and reused by later calls for
    other pairs at the same x, cfg, datum, fam and basis; only the last
    point is kept.  Warnings such as IllConditionedWarning come from the
    perturbed flows and so fire on the call that computes them only.  A
    point whose flows fail is computed again, and fails again, on every
    call.
    """
    n = basis.value_dim
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("component indices must lie in 1..%d" % n)
    dF = _differentials(x, cfg, datum, fam, basis)
    return _bracket(dF[i - 1], dF[j - 1])


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
    integration noise allows; the extrapolation removes that term.  The
    base flow and the eight perturbed ones run as one batch.
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
    # rows (direction, h, sign) for direction u, v; h = step, step/2; sign +, -
    plan = [
        (d, hh, sign)
        for d in (u, v)
        for hh in (step, step / 2)
        for sign in (1.0, -1.0)
    ]
    y0 = cp.as_real()
    shifts = np.array([y0 + sign * hh * d for d, hh, sign in plan])
    shifted, errors = _shifted_starts(model, cp, shifts, tight.retraction_tol)
    flows = _integrate(model, [cp] + shifted, tight.delta, tight)
    for error, res in zip([None] + errors, flows):
        if error is not None:
            raise error
        res.require_ok()
    base = flows[0]
    ends = [res.terminal.to_chart(base.terminal.chart).as_real() for res in flows[1:]]

    def transported(first: int) -> np.ndarray:
        coarse = (ends[first] - ends[first + 1]) / (2 * step)
        fine = (ends[first + 2] - ends[first + 3]) / (2 * (step / 2))
        return (4.0 * fine - coarse) / 3.0

    u_end = transported(0)
    v_end = transported(4)
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
