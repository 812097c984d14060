"""Gradient flow from a generic fiber down to the toric one.

The family built in :mod:`okkit.degeneration`, embedded as in
:mod:`okkit.embedding`, is a subvariety of P(V_1) x C_t.  Equip the
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
The basis is the level-one generators themselves, so the family
relations, polynomials in the symbols, are the fiber equations as they
stand.

There is one integration path, and it is batched: a round is a fixed
number of numpy calls over the states, with Python loops over states
only where something fails.  The field is closed form and complex, as
the tangent space is.  For one relation it is explicit in the Jacobian
row, with nothing to solve.  Otherwise a Runge-Kutta step takes one
SVD per state, at its first stage: its singular values run the rank
checks and the ill-conditioning warning once per step, and its leading
left singular vectors give a row basis S that compresses the chart
Jacobian J to the expected rank r.  Every stage of the step, the first
included, then projects e_t onto the kernel of A = S J in the metric H
in closed form, with one r x r solve.  Each stage also checks that J
stays in the row space of A (else its rank exceeds r) and that the
compressed system is not singular to working precision (else its rank
is below r).  The integrator is a lockstep DOP853, the eighth-order
Dormand-Prince pair with a fifth- and third-order error estimate: each
state keeps its own chart, step size, counters and failure; a step's
twelve stages share one gather of the states' chart tables; a stage
point whose Jacobian rank exceeds r lies off the family and rejects the
step; a rejected step's retry recomputes stage 0, SVD included, to the
same bits; a step the error test rejects before the state's first
accepted step of the leg shrinks by 0.9 q^(-1/2) (q the error norm), at
the order its error is measured to fall with, and every other step
changes by DOP853's 0.9 q^(-1/8); a state whose field fails is masked
out of the round rather than dropped from its arrays; the retraction
takes one batched minimum-norm Gauss-Newton step per iteration; one pass
over the accepted states records their samples, toric moments included.
Once a state's fiber is the target's to rounding (its relations' terms
that carry tau are below float64's unit roundoff of their relation, and
the first-order transport bound keeps its coordinates within rounding),
the flow is the identity there to working precision, and the state ends
its leg with one exact jump step: Re t set to the target, the chart
coordinates kept, no field evaluated.  The test reads the |z| monomials
the retraction's residual already evaluates.  Families without tau,
such as p1 and p1xp1, jump at the start of every leg.
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

# Lojasiewicz damping exponent: a step is scaled by min(1, Re t ** ALPHA).
ALPHA = 0.5

# Smallest cutoff delta a FlowConfig accepts.  Every leg first tries the
# whole leg as one damped step, and a rejection shrinks a step by at most
# 5x, before the first accepted step as after it; on the continuation leg
# from delta to delta/2 at 1e-8, eight rejections in a row still stay
# above the 1e-14 step-size floor.
DELTA_MIN = 1e-8

# A leg takes its last step when less than this share of its length would
# be left after a regular one; that step lands exactly on the target.
LEG_TOLERANCE = 1e-12

# float64's unit roundoff, the tolerance of both bounds of ``_toric``.
UNIT_ROUNDOFF = 2.0**-53


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
                    DELTA_MIN = 1e-8 <= delta < epsilon < 1.  Each leg's
                    first attempted step is the whole leg, and a step
                    rejected before the first accepted one shrinks by
                    0.9 q^(-1/2), q the error norm (see ``flow_to``)
    rtol, atol      the DOP853 error control.  At the defaults, 1e-10
                    and 1e-13, elliptic F are at least as accurate as with
                    the Dormand-Prince 5(4) pair at 1e-9 and 1e-12 that
                    earlier versions used; a looser atol lets the error
                    of the slowest trajectories grow past it
    retraction_tol  relative family residual accepted after retraction
    max_steps       accepted-step budget per trajectory
    seed            recorded with results; sampling outside this module
                    derives per-sample seeds from it
    """

    epsilon: float = 0.5
    delta: float = 1e-4
    rtol: float = 1e-10
    atol: float = 1e-13
    retraction_tol: float = 1e-10
    max_steps: int = 10000
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

    def to_json_dict(self):
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "rtol": self.rtol,
            "atol": self.atol,
            "retraction_tol": self.retraction_tol,
            "max_steps": self.max_steps,
            "alpha": ALPHA,
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

    ``steps`` counts accepted steps, ``rejected`` rejected ones (the
    error test's and those of stage points off the family), and
    ``field_evals`` evaluations of the field V: 12 per attempted step,
    the retry of a rejected step included, fewer only when a stage fails
    or rejects the step (none after that stage), and 0 for the jump step
    that ends a leg whose fiber is already the target's to rounding (see
    ``flow_to``).  Each accepted step, the jump included,
    records one sample.  The counters stay out of the CSV and diagnostics
    exports.
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
    the delta -> delta/2 leg (None when the first leg failed).  Where the
    fiber at delta is already toric to rounding, the continuation is one
    jump step that keeps the chart coordinates, so F is the moment at
    delta and convergence is 0.
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
    layout: one vector-matrix product per state with its chart's table of
    Jacobian coefficients.
    """

    def __init__(self, fam: FamilyPresentation, basis: VdBasis):
        datum = fam.relation_set.datum
        self.fam = fam
        self.basis = basis
        self.datum = datum
        self.nsym = basis.size
        self.n_w = self.nsym - 1
        nv = self.nsym + 1  # symbols plus tau
        self.n_rel = len(fam.family)
        self.relations, partials = fam._compiled
        # the stacked relations' terms that carry tau, the last variable
        self.tau_terms = np.flatnonzero(self.relations.exps[:, -1] > 0)
        # Full-coordinate column of each chart coordinate, per chart: the
        # symbols other than the pivot in basis order, then tau.
        self.columns = np.array(
            [[v for v in range(nv) if v != c] for c in range(self.nsym)],
            dtype=np.intp,
        ).reshape(self.nsym, self.nsym)
        # Per chart, the partials' exponents of the chart coordinates (the
        # pivot is 1, so its powers drop out), and the coefficient columns
        # of the partials that make up the chart Jacobian, row by row.
        self.chart_exps = partials.exps[:, self.columns].transpose(1, 0, 2)
        offsets = nv * np.arange(self.n_rel)[:, None]
        self.jacobian_coeffs = np.stack(
            [partials.coeffs[:, (offsets + cols).ravel()] for cols in self.columns]
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

    def residual(self, Z: np.ndarray, values=None):
        """Relative residuals at full coordinates Z, with each relation's
        term-magnitude sum and the part of it over the terms that carry
        tau, all from one evaluation of the |z| monomials; values are the
        relations at Z, if known."""
        scale, part = self.relations.scales(np.abs(Z), self.tau_terms)
        return relative_residual(self.relations, Z, values, scale), scale, part

    def tables(self, charts: np.ndarray) -> tuple:
        """Each state's chart table of partial exponents and Jacobian
        coefficients, gathered once so that several Jacobians at states in
        the same charts can share the gather."""
        return self.chart_exps[charts], self.jacobian_coeffs[charts]

    def jacobian(
        self, charts: np.ndarray, Y: np.ndarray, fiber_only: bool, tables=None
    ) -> np.ndarray:
        """Complex Jacobians at real chart states, shape (batch, relations, columns).

        Columns follow the chart layout: the non-pivot symbols in basis
        order, then t; fiber_only slices off the t column.  tables, when
        given, is ``tables(charts)``.
        """
        exps, coeffs = self.tables(charts) if tables is None else tables
        w = np.ascontiguousarray(Y).view(complex)[:, None, :]
        monomials = (w**exps).prod(axis=-1)
        J = (monomials[:, None, :] @ coeffs)[:, 0]
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


class _RankExceeds(SingularPointError):
    """The family Jacobian has a singular value beyond the expected rank:
    at a Dormand-Prince stage point off the family this rejects the step
    rather than failing the trajectory."""


def _rank_exceeds(r_exp: int) -> SingularPointError:
    return _RankExceeds("family Jacobian rank exceeds the expected %d" % r_exp)


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


def _row_basis(
    model: _Model, charts: np.ndarray, Y: np.ndarray, errors: list, tables=None
):
    """Row bases S of the family Jacobians J at a batch of finite chart
    states, returned with J, built once for both; S is None where the
    field is closed form and needs none.  tables, when given, is
    ``model.tables(charts)``.

    One SVD per state.  Its singular values run the rank checks, flagging
    states in errors and warning about ill-conditioned ones, and S, the
    conjugate transpose of the leading ``model.rank`` left singular
    vectors, compresses the Jacobian to that many rows with the same row
    space.  The row space moves with the point, but over one
    Dormand-Prince step S J keeps full rank, so the S of a step's first
    stage serves all twelve; a rejected step's retry takes it again.
    """
    J = model.jacobian(charts, Y, False, tables)
    if model.closed_form:
        return None, J
    U, sigma, _ = np.linalg.svd(J)
    _rank_checks(sigma, model.rank, errors)
    return U[:, :, : model.rank].conj().transpose(0, 2, 1), J


def _field(model: _Model, charts: np.ndarray, Y: np.ndarray, S=None, tables=None):
    """The flow field at a batch of states, per state an exception or None,
    and the row basis S the field was taken with.

    V = -P e_t / |P e_t|^2, for P the H-orthogonal projection onto the
    kernel of the chart Jacobian J (H the metric of ``_fubini_study``),
    so that Re t falls at unit speed.

    Multi-relation families (the kernel path) take S from ``_row_basis``,
    the row basis of the Dormand-Prince step's first stage, whose SVD
    runs the rank checks and the ill-conditioning warning once per step:
    when S is None it is taken at Y itself, those checks included, from
    the one chart Jacobian the field uses, and returned for the later
    stages; otherwise the given S is returned.  It is None on the closed
    forms.  tables, when given, is ``model.tables(charts)``.  With
    A = S J, r x (n_w + 1), and H^-1 = one (I + w w^H) on the w block and
    1 on t (one = 1 + |w|^2), X = H^-1 A^H and G = A X; one solve gives
    G [y | Z] = [A e_t | A], then v = e_t - X y = P e_t, |P e_t|^2 =
    Re v_t, and V = -v / Re v_t, divided component by component on the
    real layout, with its t entry set to exactly -1, as the closed form
    below has it.
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
        return -V, errors, None
    if S is None:
        S, J = _row_basis(model, charts, Y, errors, tables)
    else:
        J = model.jacobian(charts, Y, False, tables)
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
        return V.view(float), errors, None
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
    V = v.view(float) / -nsq[:, None]
    V[:, 2 * n_w :] = (-1.0, 0.0)
    return V, errors, S


def _single(cp: ChartPoint):
    return np.array([cp.chart], dtype=np.intp), cp.as_real()[None, :]


def _frame(model: _Model, cp: ChartPoint, fiber_only: bool) -> np.ndarray:
    """The real orthonormal frame of ``tangent_frame``, built in cp's
    dominant chart when cp's pivot holds less than CHART_SHARE of the
    largest coordinate modulus, and pushed forward to cp's chart.

    One SVD of the chart Jacobian gives its singular values, for the rank
    checks, and the kernel K, whose conjugate transpose is the trailing
    rows of Vh.  With H the metric of ``_fubini_study`` (its w block when
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

    Normalized so the derivative of Re t along V is -1: its Re t entry is
    exactly -1 and its Im t entry exactly 0, on every family.  A
    multi-relation family takes its row basis from the SVD at cp itself.
    """
    V, errors, _ = _field(_Model(fam, basis), *_single(cp))
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
    coordinates and relative residuals, per state a RetractionError or
    None, and the relations' term-magnitude sums at the projected states,
    all terms and those that carry tau, as a pair of arrays.
    """
    Y = np.array(Y, dtype=float)
    Z = model.points(charts, Y)
    G = model.relations.values(Z)
    res, scale, part = model.residual(Z, G)
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
        rt, scale[todo], part[todo] = model.residual(zt, gt)
        res[todo] = rt
        todo = todo[rt > tol]
    errors = [None] * len(Y)
    for b in np.flatnonzero(~(res <= tol)):
        errors[b] = RetractionError(
            "retraction stalled at relative residual %.3g (tolerance %.3g)"
            % (res[b], tol)
        )
    return Y, Z, res, errors, (scale, part)


# ---------------------------------------------------------------------------
# the integrator

# Dormand and Prince's eighth-order pair DOP853 with its fifth- and
# third-order error estimate (Hairer, Norsett and Wanner, Solving Ordinary
# Differential Equations I, section II.10): twelve stages, rows of A
# giving each stage's increment from the stages before it, B the
# eighth-order weights, E5 and E3 the weights of the two error estimates.
# The coefficients are copied from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py, Copyright (c) 2001-2002
# Enthought, Inc. and 2003-2024 SciPy Developers, under the BSD 3-Clause
# license; SciPy is not imported.
_DOP_A = (
    (),
    (
        5.26001519587677318785587544488e-2,
    ),
    (
        1.97250569845378994544595329183e-2,
        5.91751709536136983633785987549e-2,
    ),
    (
        2.95875854768068491816892993775e-2,
        0.0,
        8.87627564304205475450678981324e-2,
    ),
    (
        2.41365134159266685502369798665e-1,
        0.0,
        -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2,
        0.0,
        0.0,
        1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2,
        0.0,
        0.0,
        1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2,
        -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2,
        0.0,
        0.0,
        1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1,
        0.0,
        0.0,
        -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1,
        0.0,
        0.0,
        -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1,
        0.0,
        0.0,
        5.18637242884406370830023853209,
        1.09143734899672957818500254654,
        -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1,
        2.49360555267965238987089396762,
        -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449,
        0.0,
        0.0,
        -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674,
        -8.87285693353062954433549289258,
        1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
_DOP_B = (
    5.42937341165687622380535766363e-2,
    0.0,
    0.0,
    0.0,
    0.0,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
_DOP_E5 = (
    0.1312004499419488073250102996e-1,
    0.0,
    0.0,
    0.0,
    0.0,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
# The third-order estimate's weights are the eighth-order ones less these,
# by stage.
_DOP_BHH = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
_DOP_E3 = tuple(b - _DOP_BHH.get(j, 0.0) for j, b in enumerate(_DOP_B))

# Weights of stage j in the increment sums of stages 1..11, of the
# eighth-order solution and of the two error estimates: rows 0..10, 11,
# 12 (E5) and 13 (E3).
_DOP_WEIGHTS = np.array(
    [row + (0.0,) * (12 - len(row)) for row in _DOP_A[1:]]
    + [_DOP_B, _DOP_E5, _DOP_E3]
).T[:, :, None, None]


def _damping(re_t: np.ndarray) -> np.ndarray:
    """The Lojasiewicz factor min(1, Re t ** ALPHA) that scales each step."""
    return np.minimum(1.0, np.maximum(re_t, 1e-300) ** ALPHA)


def _toric(model: _Model, charts: np.ndarray, Y: np.ndarray, sums) -> np.ndarray:
    """Mask of the states whose fiber is the toric target's to rounding.

    sums are ``_Model.residual``'s term-magnitude sums at the states, of
    each relation's terms and of those that carry tau.  Two bounds must
    hold.  Every relation's tau part is at most UNIT_ROUNDOFF of its whole,
    so moving Re t to the target changes no relation by more than
    rounding.  And with tau the Euclidean norm of the tau parts, the
    first-order transport bound tau (1 + |w|^2) / sigma_r, sigma_r the
    weakest structural singular value of the fiber Jacobian, is at most
    UNIT_ROUNDOFF max(1, max |w_i|): the fiber coordinates would move by
    less than rounding.  Only states that pass the first bound with tau
    nonzero take an SVD.
    """
    scale, part = sums
    toric = (part <= UNIT_ROUNDOFF * scale).all(axis=1)
    if not toric.any():
        return toric
    tau = np.sqrt(np.add.reduce(part * part, axis=1))
    test = np.flatnonzero(toric & (tau > 0.0))
    if test.size:
        y = Y[test]
        J = model.jacobian(charts[test], y, fiber_only=True)
        weakest = np.linalg.svd(J, compute_uv=False)[:, model.rank - 1]
        one = 1.0 + np.add.reduce(y[:, : 2 * model.n_w] ** 2, axis=1)
        size = np.abs(y.view(complex)[:, : model.n_w]).max(axis=1, initial=1.0)
        toric[test] = tau[test] * one <= UNIT_ROUNDOFF * size * weakest
    return toric


def _integrate(model: _Model, starts, target: float, cfg: FlowConfig) -> list:
    """Flow a batch of starts down to Re t = target, in lockstep; a start
    with Re t <= target or |Im t| > IM_PI_TOLERANCE raises ValueError.

    Every state keeps its own chart, step size, arc length s, counters
    and failure; each round takes one DOP853 step on every state still
    running, with the twelve stages evaluated as batched numpy calls that
    share one gather of the states' chart tables.  The increment sums,
    the eighth-order solution and the two error estimates are accumulated
    stage by stage in tableau order.  A state is only ever combined with
    itself, and every batched call works state by state, so a state's
    result does not depend on the batch around it.

    The error norm q is that of DOP853, h |e5|^2 / sqrt((|e5|^2 + 0.01
    |e3|^2) dim), e5 and e3 the fifth- and third-order estimates scaled
    by atol + rtol max(|y|, |y_new|); the step size follows it by the
    factor 0.9 q^(-1/8), clipped to [0.2, 5].  A step rejected before
    the state's first accepted step of the leg shrinks by 0.9 q^(-1/2)
    instead, clipped the same way: the whole-leg first step and its
    first retries are far outside the h^8 regime, and there q falls
    roughly with h^2.  A rejected step retries from the same state, all
    twelve stages again.  A stage point i > 0
    whose Jacobian rank exceeds the expected one lies off the family, and
    rejects the step with the factor 0.2; every other field failure, and
    any failure at stage 0, ends the trajectory.

    ``_toric`` tests a state at the start of the leg, if its residual is
    within retraction_tol, and after each retraction; a state it passes
    takes the jump step of ``flow_to`` in the next round, budget allowing.
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
    # the first damped step is the whole leg; the error test sizes the rest
    h = s_end / _damping(start_re)
    steps = np.zeros(n, dtype=int)
    rejected = np.zeros(n, dtype=int)
    evals = np.zeros(n, dtype=int)
    samples = [[] for _ in range(n)]
    failure = [None] * n
    running = np.ones(n, dtype=bool)

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

    def settle(rows, new, Z, residual):
        """Move the accepted states of rows to new, at full coordinates Z,
        and record their samples; fail those whose Im t drifted or whose
        Re t left linear decay, and stop those at the end of the leg.
        Returns the mask of the rows still going."""
        Y[rows] = new
        im, lin = record(rows, Z, residual)
        drift = im > IM_PI_TOLERANCE
        off = lin > LINEARITY_TOLERANCE
        bad = drift | off
        if bad.any():
            for j in np.flatnonzero(bad):
                if drift[j]:
                    fail(rows[j], "Im t drifted to %.3g" % im[j])
                else:
                    fail(rows[j], "Re t deviates from linear decay by %.3g" % lin[j])
        going = ~bad
        finished = s[rows] >= s_end[rows]
        running[rows[going & finished]] = False
        return going & ~finished

    Z = model.points(charts, Y)
    with np.errstate(invalid="ignore", over="ignore"):
        residual, *sums = model.residual(Z)
        record(np.arange(n), Z, residual)
    for b in np.flatnonzero(~(residual <= max(cfg.retraction_tol * 10, 1e-8))):
        fail(b, "initial point misses the family by %.3g" % residual[b])
    # a state on the family whose fiber is already the target's to rounding
    # ends its leg in one jump: Re t set to the target, w kept
    jump = running & (residual <= cfg.retraction_tol)
    jump[jump] = _toric(model, charts[jump], Y[jump], [a[jump] for a in sums])

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
        leap = jump[act]
        if np.count_nonzero(leap):
            rows = act[leap]
            new = Y[rows]
            new[:, slot] = target
            Z = model.points(charts[rows], new)
            residual = model.residual(Z)[0]
            steps[rows] += 1
            s[rows] = s_end[rows]
            landed = residual <= cfg.retraction_tol
            for j in np.flatnonzero(~landed):
                fail(
                    rows[j],
                    "jump to Re t = %.6g misses the family by %.3g"
                    % (target, residual[j]),
                )
            settle(rows[landed], new[landed], Z[landed], residual[landed])
            act = act[~leap]
            if not act.size:
                continue
        y = Y[act]
        remaining = s_end[act] - s[act]
        want = h[act] * _damping(y[:, slot])
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

        # Stages.  A state whose field fails is dead for the round and one
        # whose stage point leaves the family is rejected; both run along on
        # placeholder values.  The row basis of stage 0 serves every stage.
        ch = charts[act]
        tables = model.tables(ch)
        hh = h_eff[:, None]
        sums = np.zeros((14,) + y.shape)
        dead = np.zeros(len(act), dtype=bool)
        off = np.zeros(len(act), dtype=bool)
        # twelve evaluations, less any stage after a failure or rejection
        evals[act] += 12
        S = None
        for i in range(12):
            V, errors, S = _field(model, ch, y + hh * sums[i - 1] if i else y, S, tables)
            if any(errors):
                for r, exc in enumerate(errors):
                    if exc is None or dead[r] or off[r]:
                        continue
                    evals[act[r]] -= 11 - i
                    if i and isinstance(exc, _RankExceeds):
                        off[r] = True
                    else:
                        dead[r] = True
                        fail(act[r], str(exc))
            sums += _DOP_WEIGHTS[i] * V
        y_new = y + hh * sums[11]
        sc = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        e5_sq = np.add.reduce((sums[12] / sc) ** 2, axis=1)
        e3_sq = np.add.reduce((sums[13] / sc) ** 2, axis=1)
        denom = e5_sq + 0.01 * e3_sq
        q = h_eff * e5_sq / np.sqrt(np.where(denom > 0, denom, 1.0) * dim)
        q[off] = np.inf
        accepted = (q <= 1.0) & ~dead
        # a rejected step retries from the same state, stage 0 included
        rejected[act[~accepted & ~dead]] += 1
        if np.count_nonzero(accepted):
            acc, final, h_eff = act[accepted], final[accepted], h_eff[accepted]
            y_new = y_new[accepted]
            steps[acc] += 1
            s[acc] = np.where(final, s_end[acc], s[acc] + h_eff)
            # the last step of a leg lands on the target fiber
            if np.count_nonzero(final):
                y_new[final, slot] = target
            new, Z, res, errors, sums = _retract(
                model, charts[acc], y_new, cfg.retraction_tol
            )
            if any(errors):
                kept = np.array([e is None for e in errors])
                for j in np.flatnonzero(~kept):
                    fail(acc[j], str(errors[j]))
                acc, new, Z, res = acc[kept], new[kept], Z[kept], res[kept]
                sums = [a[kept] for a in sums]
            going = settle(acc, new, Z, res)
            jump[acc[going]] = _toric(
                model, charts[acc[going]], new[going], [a[going] for a in sums]
            )
            # rechart when the pivot is no longer dominant
            rechart = going & (1.0 / np.abs(Z[:, : model.nsym]).max(axis=1) < CHART_SHARE)
            for j in np.flatnonzero(rechart):
                b = acc[j]
                pivot = int(np.argmax(np.abs(Z[j, : model.nsym])))
                point = ChartPoint.from_real(int(charts[b]), Y[b]).to_chart(pivot)
                charts[b] = point.chart
                Y[b] = point.as_real()
        # the DOP853 step-size controller, with no cap on the step; a step
        # rejected before the state's first accepted one shrinks by the
        # order its error is measured to fall with, not the asymptotic one
        exponent = np.where(steps[act] == 0, 0.5, 0.125)
        factor = 0.9 * (1.0 / np.maximum(q, 1e-10)) ** exponent
        h[act] *= np.minimum(5.0, np.maximum(0.2, factor))

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
    DOP853 with adaptive steps, Lojasiewicz damping by
    min(1, Re t ** ALPHA), Gauss-Newton retraction after every accepted
    step, and chart switching when the pivot loses dominance.  The first
    attempted step is the whole leg, and from there the error test sizes
    the steps, with no cap: a step it rejects, or one with a stage point
    off the family (Jacobian rank above the expected one), is retried
    from the same state, shortened by the controller (by 5x for a stage
    point off the family), and takes all twelve field evaluations again.
    The controller scales a step by 0.9 q^(-1/8), q the error norm,
    except that a step rejected before the leg's first accepted one
    shrinks by 0.9 q^(-1/2); both factors are clipped to [0.2, 5].  The
    last step lands exactly on Re t = target.  Records a sample per
    accepted step.
    A point whose fiber is already the target's to rounding, at the start
    or after a step, ends the leg with one jump step instead: every family
    relation's terms that carry tau sum in magnitude to at most 2^-53
    of all its terms, and the first-order transport bound
    |tau| (1 + |w|^2) / sigma_r (sigma_r the weakest structural singular
    value of the fiber Jacobian) is at most 2^-53 max(1, max |w_i|).  The
    jump sets Re t to the target, keeps w, evaluates no field
    (``field_evals`` counts 0 for it), records one sample and fails the
    leg if the residual there exceeds retraction_tol.  A family without
    tau, such as p1 or p1xp1, flows each leg in that one step.
    After each step |Im t| and the deviation of Re t from linear decay
    are checked; any violation, as well as singular or critical points
    (other than a stage point i > 0 whose rank exceeds the expected one),
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
    Y, _, _, errors, _ = _retract(model, charts, Y, tol)
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
    template = "%d,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%.17g" + ",%.17g" * n
    for r in results:
        legs = [leg for leg in (r.flow, r.continuation) if leg is not None]
        offset = 0.0
        for leg_no, leg in enumerate(legs):
            for sample in leg.samples:
                if leg_no > 0 and sample.s == 0.0:
                    continue  # the continuation starts where the first leg ended
                t = sample.t
                fields = (r.index, offset + sample.s, t.real, t.imag, sample.chart)
                fields += (sample.residual, sample.im_pi, sample.re_lin_err)
                lines.append(template % (fields + sample.moment))
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
