"""Flow module: charts, frames, the field, integration, brackets."""

import copy
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import okkit.flow as flow
from okkit.algebra import CompiledPolynomial
from okkit.catalog import list_examples, load_example
from okkit.degeneration import build_family, build_projection
from okkit.embedding import (
    embed_point,
    enumerate_vd_basis,
    sample_intrinsic,
    toric_moment,
)
from okkit.flow import (
    DELTA_MIN,
    FD_STEP,
    ChartPoint,
    CriticalPointError,
    EvalResult,
    FlowConfig,
    FlowError,
    FlowResult,
    SingularPointError,
    _Model,
    _bracket,
    _differentials,
    _evaluate,
    _point_key,
    ambient_symplectic,
    diagnostics_dict,
    flow_to,
    gradient_hamiltonian,
    integrable_system_eval,
    poisson_bracket,
    run_batch,
    symplectic_residual,
    tangent_frame,
    trajectory_csv,
)

from oracles import fraction_derivative, kernel_field
from presentations import relation_set_for


def product_metric(cp):
    """Fubini-Study on the chart and flat on t at cp, as a real form."""
    return flow._realify(flow._fubini_study(cp))


def pipeline(name):
    rels = relation_set_for(name)
    fam = build_family(rels, build_projection(rels))
    basis = enumerate_vd_basis(rels.datum, fam)
    return rels.datum, fam, basis


@pytest.fixture(scope="module")
def p1():
    return pipeline("p1")


@pytest.fixture(scope="module")
def p1xp1():
    return pipeline("p1xp1")


@pytest.fixture(scope="module")
def elliptic():
    return pipeline("elliptic")


@pytest.fixture(scope="module")
def gl3():
    return pipeline("gl3-flag")


def embedded_chart_point(pipe, x, t=0.5):
    datum, fam, basis = pipe
    return ChartPoint.from_projective(embed_point(x, datum, fam, t, basis))


def relative_residual(polys, z):
    worst = 0.0
    for g in polys:
        num = 0.0 + 0.0j
        den = 0.0
        for exps, c in g.terms.items():
            term = complex(c)
            for zv, e in zip(z, exps):
                term *= zv**e
            num += term
            den += abs(term)
        if den > 1e-300:
            worst = max(worst, abs(num) / den)
    return worst


class TestChartPoint:
    def test_from_projective_picks_dominant_pivot(self, elliptic):
        cp = embedded_chart_point(elliptic, (4.0, _root(4.0)))
        full = np.abs(cp.full_coords())
        assert full[cp.chart] == pytest.approx(full.max())

    def test_full_coords_inserts_unit_pivot(self):
        cp = ChartPoint(1, (2.0 + 1.0j, 0.5), 0.3)
        assert cp.full_coords() == (2.0 + 1.0j, 1.0 + 0.0j, 0.5 + 0.0j)

    def test_chart_round_trip(self):
        cp = ChartPoint(0, (0.4 + 0.1j, 2.0 - 1.0j), 0.25)
        back = cp.to_chart(2).to_chart(0)
        assert back.chart == 0
        np.testing.assert_allclose(back.as_real(), cp.as_real(), atol=1e-15)

    def test_rechart_through_zero_coordinate_fails(self):
        cp = ChartPoint(0, (0.0, 1.0), 0.25)
        with pytest.raises(FlowError, match="vanishes"):
            cp.to_chart(1)

    def test_real_round_trip(self):
        cp = ChartPoint(2, (1.0 + 2.0j, -0.5j), 0.1 + 0.01j)
        again = ChartPoint.from_real(2, cp.as_real())
        assert again == cp

    def test_chart_index_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            ChartPoint(3, (1.0, 2.0), 0.5)


class TestFlowConfig:
    def test_defaults_valid(self):
        cfg = FlowConfig()
        assert 0 < cfg.delta < cfg.epsilon < 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"epsilon": 1.5},
            {"delta": 0.9, "epsilon": 0.5},
            {"delta": 0.0},
            {"rtol": 0.0},
            {"retraction_tol": -1.0},
            {"max_steps": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            FlowConfig(**kw)

    def test_delta_lower_bound(self):
        assert FlowConfig(delta=DELTA_MIN).delta == DELTA_MIN
        with pytest.raises(ValueError, match="smallest supported cutoff"):
            FlowConfig(delta=DELTA_MIN / 2)


class TestMetric:
    def test_identity_at_chart_origin(self):
        cp = ChartPoint(0, (0.0, 0.0), 0.5)
        np.testing.assert_allclose(product_metric(cp), np.eye(6), atol=1e-15)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            cp = ChartPoint(0, tuple(w), 0.4)
            G = product_metric(cp)
            np.testing.assert_allclose(G, G.T, atol=1e-15)
            assert np.linalg.eigvalsh(G).min() > 0

    def test_symplectic_antisymmetric_and_compatible(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        cp = ChartPoint(1, tuple(w), 0.3)
        G = product_metric(cp)
        W = ambient_symplectic(cp)
        np.testing.assert_allclose(W, -W.T, atol=1e-15)
        # compatibility g(Ja, Jb) = g(a, b) via exact block structure
        J = np.zeros_like(G)
        for k in range(0, G.shape[0], 2):
            J[k, k + 1] = -1.0
            J[k + 1, k] = 1.0
        np.testing.assert_allclose(J.T @ G @ J, G, atol=1e-15)


class TestTangentFrame:
    def test_trivial_family_frame_dimension(self, p1):
        _, fam, basis = p1
        cp = embedded_chart_point(p1, (0.7,))
        E = tangent_frame(cp, fam, basis)
        assert E.shape == (4, 4)

    def test_elliptic_frame_dimension(self, elliptic):
        _, fam, basis = elliptic
        cp = embedded_chart_point(elliptic, (1.5, _root(1.5)))
        E = tangent_frame(cp, fam, basis)
        assert E.shape == (6, 4)

    def test_fiber_frame_drops_time_direction(self, elliptic):
        _, fam, basis = elliptic
        cp = embedded_chart_point(elliptic, (1.5, _root(1.5)))
        E = tangent_frame(cp, fam, basis, fiber_only=True)
        assert E.shape == (6, 2)
        # fiber vectors have no t component
        np.testing.assert_allclose(E[4:, :], 0.0, atol=1e-12)

    def test_frame_orthonormal_in_product_metric(self, elliptic):
        _, fam, basis = elliptic
        cp = embedded_chart_point(elliptic, (1.5, _root(1.5)))
        E = tangent_frame(cp, fam, basis)
        G = product_metric(cp)
        np.testing.assert_allclose(E.T @ G @ E, np.eye(4), atol=1e-10)

    def test_cusp_of_special_fiber_is_singular(self, elliptic):
        _, fam, basis = elliptic
        with pytest.raises(SingularPointError, match="rank"):
            tangent_frame(ChartPoint(2, (0.0, 0.0), 0.0), fam, basis)

    def test_gl3_frame_dimension(self, gl3):
        datum, fam, basis = gl3
        x = sample_intrinsic(datum, 1, np.random.default_rng(11))[0]
        cp = embedded_chart_point(gl3, x)
        E = tangent_frame(cp, fam, basis)
        assert E.shape == (16, 8)

    @pytest.mark.parametrize("name", ["p1", "p1xp1", "elliptic", "gl3"])
    def test_fiber_frame_form_is_standard(self, request, name):
        # the closed-form bracket relies on W = E^T W_amb E being J
        pipe = request.getfixturevalue(name)
        datum, fam, basis = pipe
        x = sample_intrinsic(datum, 1, np.random.default_rng(13))[0]
        cp = embedded_chart_point(pipe, x)
        E = tangent_frame(cp, fam, basis, fiber_only=True)
        J = np.kron(np.eye(E.shape[1] // 2), [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(E.T @ ambient_symplectic(cp) @ E, J, atol=1e-12)

    def test_non_finite_point_is_refused_first(self, elliptic):
        # the finiteness check comes before the chart-share rule
        _, fam, basis = elliptic
        for w in ((math.nan, 0.5), (1e-9, math.inf)):
            with pytest.raises(FlowError, match="^chart coordinates are not finite$"):
                tangent_frame(ChartPoint(2, w, 0.5), fam, basis, fiber_only=True)

    def test_small_pivot_chart_frames(self, gl3):
        # A chart whose pivot holds less than CHART_SHARE of the largest
        # modulus builds the frame in the dominant chart and pushes it
        # forward.  Built in place, these frames were 6.6e-6 off
        # orthonormal at pivot shares 1e-6..1e-3, and every state below
        # 1e-6 raised SingularPointError.
        datum, fam, basis = gl3
        model = flow._Model(fam, basis)
        worst = {True: 0.0, False: 0.0}
        counts = {True: 0, False: 0}
        rng = np.random.default_rng(5)
        for x in sample_intrinsic(datum, 20, rng, log10_spread=2.0):
            home = embedded_chart_point(gl3, x)
            z = np.abs(home.full_coords())
            for c in np.flatnonzero(z < 1e-3 * z.max()):
                cp = home.to_chart(int(c))
                E = tangent_frame(cp, fam, basis, fiber_only=True)
                tiny = bool(z[c] < 1e-6 * z.max())
                counts[tiny] += 1
                worst[tiny] = max(worst[tiny], _exact_gram_error(cp, E))
                # the complex columns span the fiber Jacobian's kernel
                J = model.jacobian(*flow._single(cp), fiber_only=True)[0]
                K = E[:-2:2, 0::2] + 1j * E[1:-2:2, 0::2]
                scale = np.linalg.norm(J, axis=1)[:, None] * np.linalg.norm(K, axis=0)
                assert (np.abs(J @ K) <= 1e-10 * scale).all()
        assert counts == {True: 99, False: 18}
        assert worst[True] < 1e-6 and worst[False] < 1e-12


def _exact_gram_error(cp, E):
    """Largest entry of E^T G E - I in exact rational arithmetic, G the
    product metric at cp and E a real frame of pairs e, i e.

    E^T G E is the realification of C = E_c^H H E_c, for E_c the complex
    columns and H = (I - w w^H / one) / one on the chart coordinates w
    (one = 1 + |w|^2) and 1 on t, so C's entries are the ones to check.
    """

    def hdot(u, v):
        """u^H v for vectors of (re, im) pairs."""
        return (
            sum(a * c + b * d for (a, b), (c, d) in zip(u, v)),
            sum(a * d - b * c for (a, b), (c, d) in zip(u, v)),
        )

    w = [(Fraction(v.real), Fraction(v.imag)) for v in cp.w]
    one = 1 + hdot(w, w)[0]
    n_w = len(w)
    cols = [
        [(Fraction(E[2 * r, q]), Fraction(E[2 * r + 1, q])) for r in range(n_w + 1)]
        for q in range(0, E.shape[1], 2)
    ]
    worst = Fraction(0)
    for i, u in enumerate(cols):
        for j, v in enumerate(cols):
            uv, tt = hdot(u[:n_w], v[:n_w]), hdot(u[n_w:], v[n_w:])
            cross = hdot([hdot(w, u[:n_w])], [hdot(w, v[:n_w])])
            re = (uv[0] - cross[0] / one) / one + tt[0] - (i == j)
            im = (uv[1] - cross[1] / one) / one + tt[1]
            worst = max(worst, abs(re), abs(im))
    return float(worst)


def _root(x):
    """A point on the plane cubic fiber over first coordinate x."""
    roots = np.roots([1.0, 0.0, -1.0, x**3])
    return complex(roots[0])


class TestGradient:
    def test_trivial_family_flows_straight_down(self, p1):
        _, fam, basis = p1
        cp = embedded_chart_point(p1, (0.3 - 0.8j,))
        V = gradient_hamiltonian(cp, fam, basis)
        assert abs(V[2] + 1.0) < 1e-12
        assert max(abs(V[0]), abs(V[1]), abs(V[3])) < 1e-10

    def test_unit_speed_in_time(self, elliptic, p1xp1):
        # one relation: the closed-form field moves Re t at exactly unit
        # speed and leaves Im t exactly fixed
        for pipe in (elliptic, p1xp1):
            datum, fam, basis = pipe
            rng = np.random.default_rng(9)
            for x in sample_intrinsic(datum, 10, rng):
                cp = embedded_chart_point(pipe, x)
                V = gradient_hamiltonian(cp, fam, basis)
                assert V[len(V) - 2] == -1.0
                assert V[len(V) - 1] == 0.0

    def test_unit_speed_on_the_kernel_path(self, gl3):
        # the multi-relation field divides on the real layout and sets its
        # t entry, so it too moves Re t at exactly unit speed
        datum, fam, basis = gl3
        rng = np.random.default_rng(9)
        for x in sample_intrinsic(datum, 10, rng, log10_spread=1.0):
            V = gradient_hamiltonian(embedded_chart_point(gl3, x), fam, basis)
            assert V[len(V) - 2] == -1.0
            assert V[len(V) - 1] == 0.0
        model, datum = catalog_model("gl3-flag")
        charts, Y = _kernel_states(model, datum, 41)
        S, _ = flow._row_basis(model, charts, Y, [None] * len(Y))
        for _, V, errors in _stage_points(model, charts, Y, S, 0.125):
            assert errors == [None] * len(Y)
            assert (V[:, -2] == -1.0).all() and (V[:, -1] == 0.0).all()

    def test_projection_matches_finite_differences(self, elliptic):
        datum, fam, basis = elliptic
        x = sample_intrinsic(datum, 1, np.random.default_rng(13))[0]
        cp = embedded_chart_point(elliptic, x)
        E = tangent_frame(cp, fam, basis)
        G = product_metric(cp)
        slot = E.shape[0] - 2
        h = 1e-6
        y = cp.as_real()
        for k in range(E.shape[1]):
            fd = ((y + h * E[:, k])[slot] - (y - h * E[:, k])[slot]) / (2 * h)
            assert abs(float(G[slot] @ E[:, k]) - fd) < 1e-6


    @pytest.mark.parametrize("name, seed", [("elliptic", 83), ("gl3-flag", 89)])
    def test_field_is_projection_through_orthonormal_frame(self, name, seed):
        datum, fam, basis = pipeline(name)
        rng = np.random.default_rng(seed)
        for x in sample_intrinsic(datum, 3, rng, log10_spread=1.0):
            cp = embedded_chart_point((datum, fam, basis), x)
            E = tangent_frame(cp, fam, basis)
            G = product_metric(cp)
            e = np.zeros(E.shape[0])
            e[-2] = 1.0
            coeffs = E.T @ G @ e
            expected = -(E @ coeffs) / (coeffs @ coeffs)
            V = gradient_hamiltonian(cp, fam, basis)
            assert np.abs(V - expected).max() < 1e-12


def catalog_model(name):
    entry = load_example(name)
    fam = build_family(entry.relations, build_projection(entry.relations))
    return flow._Model(fam, enumerate_vd_basis(entry.datum, fam)), entry.datum


class TestModel:
    def test_family_compiled_once(self, monkeypatch):
        model, _ = catalog_model("gl3-flag")
        fam = model.fam
        relations, partials = fam._compiled
        nv = fam.family_ring.nvars
        fresh = CompiledPolynomial.stack(fam.family, nv)
        fresh_partials = CompiledPolynomial.stack(
            [fraction_derivative(g, v) for g in fam.family for v in range(nv)], nv
        )
        assert partials.coeffs.shape[1] == 81  # 9 relations, 8 symbols and tau
        for held, made in ((relations, fresh), (partials, fresh_partials)):
            for name in ("exps", "coeffs", "magnitudes"):
                array = getattr(held, name)
                assert array.tobytes() == getattr(made, name).tobytes()
                assert array.dtype == getattr(made, name).dtype
                assert not array.flags.writeable
        assert model.relations is relations

        def refuse(*args, **kwargs):
            raise AssertionError("the family was compiled again")

        monkeypatch.setattr(CompiledPolynomial, "stack", refuse)
        again = flow._Model(fam, model.basis)
        assert again.relations is relations
        # per chart, the partials' columns of its Jacobian entries, row by row
        assert again.jacobian_coeffs.shape == (8, len(partials.coeffs), 9 * 8)
        for c, cols in enumerate(again.columns):
            entries = [nv * k + v for k in range(9) for v in cols]
            table = again.jacobian_coeffs[c]
            assert table.tobytes() == partials.coeffs[:, entries].tobytes()

    @pytest.mark.parametrize(
        "name", ["p1", "p1xp1", "elliptic", "elliptic-quotient-demo", "gl3-flag"]
    )
    def test_fiber_jacobian_is_column_slice(self, name):
        # in every chart of every bundled entry
        model, datum = catalog_model(name)
        rng = np.random.default_rng(17)
        cps = []
        for x in sample_intrinsic(datum, 3, rng, log10_spread=1.0):
            home = ChartPoint.from_projective(
                embed_point(x, datum, model.fam, 0.5, model.basis)
            )
            cps += [home.to_chart(c) for c in range(model.nsym)]
        charts = np.array([cp.chart for cp in cps], dtype=np.intp)
        Y = np.array([cp.as_real() for cp in cps])
        full = model.jacobian(charts, Y, fiber_only=False)
        fiber = model.jacobian(charts, Y, fiber_only=True)
        assert full.shape == (len(cps), model.n_rel, model.n_w + 1)
        assert fiber.shape == full[:, :, : model.n_w].shape
        assert fiber.tobytes() == full[:, :, : model.n_w].tobytes()


def reference_field(model, charts, Y):
    """The field through each state's own SVD kernel (tests/oracles.py)."""
    J = model.jacobian(charts, Y, fiber_only=False)
    return kernel_field(J, Y, model.rank)


def _one_relation_states(model, datum, seed):
    """Random chart states and embedded family points, each also in every
    other chart whose pivot holds at least CHART_SHARE of the largest
    coordinate."""
    rng = np.random.default_rng(seed)
    n = 40
    Y = rng.standard_normal((n, 2 * model.nsym))
    Y[:, -2], Y[:, -1] = rng.uniform(0.05, 0.95, n), 0.0
    charts = rng.integers(0, model.nsym, n)
    cps = [ChartPoint.from_real(int(c), y) for c, y in zip(charts, Y)]
    for x in sample_intrinsic(datum, 10, rng, log10_spread=1.0):
        for t in (0.5, 0.1):
            pt = embed_point(x, datum, model.fam, t, model.basis)
            cps.append(ChartPoint.from_projective(pt))
    for cp in list(cps):
        z = np.abs(cp.full_coords())
        cps += [
            cp.to_chart(c)
            for c in range(model.nsym)
            if c != cp.chart and z[c] >= flow.CHART_SHARE * z.max()
        ]
    charts = np.array([cp.chart for cp in cps], dtype=np.intp)
    return charts, np.array([cp.as_real() for cp in cps])


ONE_RELATION = ["elliptic", "elliptic-quotient-demo", "p1xp1"]


class TestOneRelationField:
    @pytest.mark.parametrize("name", ONE_RELATION)
    def test_matches_kernel_path(self, name):
        model, datum = catalog_model(name)
        assert model.n_rel == 1
        charts, Y = _one_relation_states(model, datum, 31)
        assert len(set(charts.tolist())) > 1
        V, errors, _ = flow._field(model, charts, Y)
        assert errors == [None] * len(Y)
        expected = reference_field(model, charts, Y)
        scale = np.abs(expected).max(axis=1)
        assert (np.abs(V - expected).max(axis=1) <= 1e-12 * scale).all()
        assert (V[:, -2] == -1.0).all() and (V[:, -1] == 0.0).all()
        # tangent: the relation's row annihilates V
        j = model.jacobian(charts, Y, fiber_only=False)[:, 0]
        assert (np.abs((j * V.view(complex)).sum(axis=1)) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("name", ONE_RELATION)
    def test_state_bits_do_not_depend_on_batch(self, name):
        model, datum = catalog_model(name)
        charts, Y = _one_relation_states(model, datum, 37)
        charts, Y = charts[:50], Y[:50]
        assert len(Y) == 50
        V, _, _ = flow._field(model, charts, Y)
        for b in range(len(Y)):
            alone, _, _ = flow._field(model, charts[b : b + 1], Y[b : b + 1])
            assert alone[0].tobytes() == V[b].tobytes()

    def test_failure_paths_keep_their_messages(self, elliptic):
        _, fam, basis = elliptic
        model = flow._Model(fam, basis)
        good = embedded_chart_point(elliptic, (1.5, _root(1.5)))
        cases = [
            # a^2 c - b^3 - c^3 tau^12 at a = b = 0, c = 1: every partial
            # vanishes at tau = 0, all but the tau one at tau = 0.5
            (ChartPoint(2, (0.0, 0.0), 0.0), SingularPointError,
             "family Jacobian has rank below 1 at this point"),
            (ChartPoint(2, (math.nan, 0.5), 0.5), FlowError,
             "chart coordinates are not finite"),
            (ChartPoint(2, (0.0, 0.0), 0.5), CriticalPointError,
             "projected time gradient has norm 0"),
        ]
        states = [good] + [cp for cp, _, _ in cases] + [good]
        charts = np.array([cp.chart for cp in states], dtype=np.intp)
        Y = np.array([cp.as_real() for cp in states])
        V, errors, _ = flow._field(model, charts, Y)
        assert errors[0] is None and errors[-1] is None
        assert V[0].tobytes() == V[-1].tobytes()
        assert V[0].tobytes() == gradient_hamiltonian(good, fam, basis).tobytes()
        for (cp, kind, text), error in zip(cases, errors[1:-1]):
            assert type(error) is kind and str(error) == text
            with pytest.raises(kind) as raised:
                gradient_hamiltonian(cp, fam, basis)
            assert type(raised.value) is kind and str(raised.value) == text

    def test_no_linear_algebra_routine(self, elliptic, monkeypatch):
        _, fam, basis = elliptic
        model = flow._Model(fam, basis)
        charts, Y = _retraction_batch(elliptic, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called on a one-relation family")

        for routine in ("svd", "solve", "cholesky", "lstsq", "eigh"):
            monkeypatch.setattr(np.linalg, routine, refuse)
        V, errors, _ = flow._field(model, charts, Y)
        assert errors == [None] * len(Y) and np.isfinite(V).all()
        J = model.jacobian(charts, Y, fiber_only=True)
        assert np.isfinite(flow._min_norm_step(J, np.ones((len(Y), 1)))).all()


def _kernel_states(model, datum, seed):
    """gl3-flag chart states: embedded starts at t = 0.5 and 0.65 (log10
    spread 0, 1 and 2), two of each kind and every one with a second chart
    whose pivot holds at least CHART_SHARE of the largest coordinate; the
    retracted central-difference starts of a bracket around two of them;
    and each of these in every such chart."""

    def charts_of(cp):
        z = np.abs(cp.full_coords())
        return [c for c in range(model.nsym) if z[c] >= flow.CHART_SHARE * z.max()]

    rng = np.random.default_rng(seed)
    cps = []
    for spread in (0.0, 1.0, 2.0):
        for t in (0.5, 0.65):
            drawn = []
            for x in sample_intrinsic(datum, 20, rng, log10_spread=spread):
                pt = embed_point(x, datum, model.fam, t, model.basis)
                drawn.append(ChartPoint.from_projective(pt))
            cps += drawn[:2] + [cp for cp in drawn[2:] if len(charts_of(cp)) > 1]
    for cp in cps[1:3]:
        E = flow._frame(model, cp, fiber_only=True)
        shifts = [
            cp.as_real() + sign * FD_STEP * E[:, k]
            for k in range(E.shape[1])
            for sign in (1.0, -1.0)
        ]
        starts, errors = flow._shifted_starts(model, cp, np.array(shifts), 1e-10)
        assert errors == [None] * len(starts)
        cps += starts
    cps += [cp.to_chart(c) for cp in list(cps) for c in charts_of(cp) if c != cp.chart]
    charts = np.array([cp.chart for cp in cps], dtype=np.intp)
    return charts, np.array([cp.as_real() for cp in cps])


def _stage_points(model, charts, Y, S, h):
    """The twelve DOP853 stage points of one step of size h from Y, every
    stage's field taken with the row basis S of the first, and the field
    and errors at each."""
    k = []
    for i in range(12):
        point = Y + h * sum(a * V for a, V in zip(flow._DOP_A[i], k))
        V, errors, _ = flow._field(model, charts, point, S)
        k.append(V)
        yield point, V, errors


class TestKernelField:
    """The multi-relation field: one SVD per step, a compressed solve per
    stage, against the per-stage SVD kernel of tests/oracles.py."""

    def test_matches_per_stage_svd_reference(self):
        model, datum = catalog_model("gl3-flag")
        assert not model.closed_form and model.rank == 4
        charts, Y = _kernel_states(model, datum, 41)
        assert len(set(charts.tolist())) > 1
        errors = [None] * len(Y)
        S, _ = flow._row_basis(model, charts, Y, errors)
        assert errors == [None] * len(Y)
        checked = flagged = 0
        # up to a step of 0.5, which takes the last stages from t = 0.5 to 0
        for h in (0.05, 0.125, 0.25, 0.5):
            for point, V, errors in _stage_points(model, charts, Y, S, h):
                J = model.jacobian(charts, point, fiber_only=False)
                expected = kernel_field(J, point, model.rank)
                sigma = np.linalg.svd(J, compute_uv=False)
                scale = np.abs(expected).max(axis=1)
                for b, error in enumerate(errors):
                    if error is None:
                        assert np.abs(V[b] - expected[b]).max() <= 1e-12 * scale[b]
                        checked += 1
                    else:
                        # a stage point off the family: the per-stage SVD
                        # sees a fifth singular value too
                        assert str(error) == "family Jacobian rank exceeds the expected 4"
                        assert sigma[b, 4] > 1e-7 * sigma[b, 0]
                        flagged += 1
        assert 0 < flagged < 0.2 * (checked + flagged)

    def test_state_bits_do_not_depend_on_batch(self):
        model, datum = catalog_model("gl3-flag")
        charts, Y = _kernel_states(model, datum, 43)
        charts, Y = charts[:30], Y[:30]
        S, _ = flow._row_basis(model, charts, Y, [None] * len(Y))
        # a field given no row basis takes this one and returns it
        assert flow._field(model, charts, Y)[2].tobytes() == S.tobytes()
        stages = list(_stage_points(model, charts, Y, S, 0.125))
        for b in range(len(Y)):
            alone, _ = flow._row_basis(model, charts[b : b + 1], Y[b : b + 1], [None])
            assert alone[0].tobytes() == S[b].tobytes()
            for point, V, _ in stages[::3]:
                mine = flow._field(model, charts[b : b + 1], point[b : b + 1], alone)[0]
                assert mine[0].tobytes() == V[b].tobytes()

    def test_singular_compressed_system_reports_rank_below(self):
        model, datum = catalog_model("gl3-flag")
        charts, Y = _kernel_states(model, datum, 47)
        charts, Y = charts[:3], Y[:3]
        S, _ = flow._row_basis(model, charts, Y, [None] * 3)
        S[0, 2] = 0.0  # G exactly singular: LAPACK reports it
        S[1, 3] = (S[1, 0] + S[1, 1]) / math.sqrt(2.0)  # singular to rounding
        V, errors, _ = flow._field(model, charts, Y, S)
        for error in errors[:2]:
            assert type(error) is SingularPointError
            assert str(error) == "family Jacobian has rank below 4 at this point"
        assert errors[2] is None and np.isfinite(V).all()
        alone, _, _ = flow._field(model, charts[2:], Y[2:], S[2:])
        assert alone[0].tobytes() == V[2].tobytes()

    def test_one_svd_per_step_and_no_cholesky(self, gl3, monkeypatch):
        # at epsilon 0.8 some stage points leave the family, and each such
        # step is retried from the same state, its row basis taken again
        datum, fam, basis = gl3
        cfg = FlowConfig(epsilon=0.8)
        x = sample_intrinsic(datum, 1, np.random.default_rng(31))[0]
        cp = embedded_chart_point(gl3, x, t=cfg.epsilon)
        n_cols = basis.size  # the chart coordinates and t
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            # the retraction's fiber Jacobians have one column fewer
            if a.shape[-1] == n_cols:
                calls.append(a.shape[0])
            return svd(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the flow field ran a Cholesky factorization")

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        res = flow_to(cp, 0.3, cfg, fam, basis)
        assert res.ok and res.steps > 1 and res.rejected > 0
        assert calls == [1] * (res.steps + res.rejected)
        assert res.field_evals > 2 * len(calls)

    def test_one_jacobian_per_stage(self, gl3, monkeypatch):
        # stage 0 takes the field from the Jacobian its row basis was
        # built from, so every attempted step, a retry included, builds the
        # full Jacobian twelve times.  Every full Jacobian reads the round's
        # one gather of the chart tables.
        datum, fam, basis = gl3
        cfg = FlowConfig(epsilon=0.8)
        x = sample_intrinsic(datum, 1, np.random.default_rng(31))[0]
        cp = embedded_chart_point(gl3, x, t=cfg.epsilon)
        full, gathers, own = [], [], []
        jacobian, tables = flow._Model.jacobian, flow._Model.tables

        def counted(self, charts, Y, fiber_only, gathered=None):
            if not fiber_only:
                full.append(len(charts))
                assert gathered is not None
            elif gathered is None:
                own.append(len(charts))
            return jacobian(self, charts, Y, fiber_only, gathered)

        def gather(self, charts):
            gathers.append(len(charts))
            return tables(self, charts)

        monkeypatch.setattr(flow._Model, "jacobian", counted)
        monkeypatch.setattr(flow._Model, "tables", gather)
        res = flow_to(cp, 0.3, cfg, fam, basis)
        assert res.ok and res.steps > 1 and res.rejected > 0
        assert full == [1] * (12 * (res.steps + res.rejected))
        # one gather per round, besides those of the fiber Jacobians of the
        # retraction and the toric test
        assert len(gathers) - len(own) == res.steps + res.rejected

    @pytest.mark.parametrize("name", ["elliptic", "gl3-flag"])
    def test_shared_gather_gives_identical_jacobians(self, name):
        model, datum = catalog_model(name)
        rng = np.random.default_rng(3)
        cps = []
        for x in sample_intrinsic(datum, 4, rng, log10_spread=1.0):
            home = ChartPoint.from_projective(
                embed_point(x, datum, model.fam, 0.5, model.basis)
            )
            cps += [home.to_chart(c) for c in range(model.nsym)]
        charts = np.array([cp.chart for cp in cps], dtype=np.intp)
        Y = np.array([cp.as_real() for cp in cps])
        gathered = model.tables(charts)
        rows = np.arange(0, len(cps), 3)
        part = [a[rows] for a in gathered]
        for fiber_only in (False, True):
            alone = model.jacobian(charts, Y, fiber_only)
            assert model.jacobian(charts, Y, fiber_only, gathered).tobytes() == (
                alone.tobytes()
            )
            sub = model.jacobian(charts[rows], Y[rows], fiber_only, part)
            assert sub.tobytes() == alone[rows].tobytes()
        V, errors, _ = flow._field(model, charts, Y)
        shared, shared_errors, _ = flow._field(model, charts, Y, tables=gathered)
        assert shared.tobytes() == V.tobytes()
        assert [str(e) for e in shared_errors] == [str(e) for e in errors]


class TestTableau:
    """DOP853's coefficients, as copied into okkit.flow."""

    # the nodes c_i of Hairer, Norsett and Wanner, section II.10
    C = (
        0.0,
        0.526001519587677318785587544488e-01,
        0.789002279381515978178381316732e-01,
        0.118350341907227396726757197510,
        0.281649658092772603273242802490,
        1 / 3,
        0.25,
        4 / 13,
        127 / 195,
        0.6,
        6 / 7,
        1.0,
    )

    def test_order_conditions(self):
        assert [len(row) for row in flow._DOP_A] == list(range(12))
        # each row sums to its node up to the rounding of its entries to
        # float64 (up to 7.5e-15 on the rows with entries near 40) and of
        # the node itself
        for row, c in zip(flow._DOP_A, self.C):
            rounding = 0.5 * math.fsum(math.ulp(a) for a in row) + math.ulp(c)
            assert abs(math.fsum(row) - c) <= min(rounding, 1e-14)
        b = flow._DOP_B
        for k in range(1, 9):
            moment = math.fsum(w * c ** (k - 1) for w, c in zip(b, self.C))
            assert abs(moment - 1 / k) <= 1e-15
        for weights in (flow._DOP_E3, flow._DOP_E5):
            assert len(weights) == 12 and abs(math.fsum(weights)) <= 1e-15

    def test_import_leaves_scipy_out(self):
        # the coefficients are literals: importing okkit imports no scipy
        code = "import sys, okkit, okkit.cli; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(flow.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


def _forced_stage_error(monkeypatch, call, error):
    """Make the field's call-th evaluation in a flow give error to the
    first state: call 0 is the first round's stage 0, calls 1..11 its
    later stages."""
    field = flow._field
    calls = []

    def forced(*args, **kwargs):
        V, errors, S = field(*args, **kwargs)
        if len(calls) == call:
            errors[0] = error
        calls.append(len(errors))
        return V, errors, S

    monkeypatch.setattr(flow, "_field", forced)


class TestStageRejection:
    """A stage point off the family rejects the step; every other field
    failure ends the trajectory."""

    def test_rank_exceeds_at_a_stage_rejects_the_step(self, gl3, monkeypatch):
        datum, fam, basis = gl3
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(31))[0]
        cp = embedded_chart_point(gl3, x, t=cfg.epsilon)
        plain = flow_to(cp, 0.3, cfg, fam, basis)
        assert plain.ok and (plain.steps, plain.rejected) == (1, 0)
        _forced_stage_error(monkeypatch, 3, flow._rank_exceeds(4))
        res = flow_to(cp, 0.3, cfg, fam, basis)
        assert res.ok and res.rejected == 1 and res.steps > 1
        assert res.terminal.t.real == 0.3
        # the retry from the same state is a fifth of the whole-leg step
        assert res.samples[1].s == pytest.approx(0.2 * 0.2, rel=1e-14)

    @pytest.mark.parametrize(
        "call, make, text",
        [
            (3, flow._rank_below, "family Jacobian has rank below 4 at this point"),
            (0, flow._rank_exceeds, "family Jacobian rank exceeds the expected 4"),
        ],
    )
    def test_other_field_failures_end_the_trajectory(
        self, gl3, monkeypatch, call, make, text
    ):
        datum, fam, basis = gl3
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(31))[0]
        cp = embedded_chart_point(gl3, x, t=cfg.epsilon)
        _forced_stage_error(monkeypatch, call, make(4))
        res = flow_to(cp, 0.3, cfg, fam, basis)
        assert not res.ok and res.failure == text
        assert (res.steps, res.rejected) == (0, 0)
        # the stages up to the failing one were evaluated
        assert res.field_evals == call + 1

    def test_dead_state_leaves_its_round_untouched(self, elliptic, monkeypatch):
        # in one round, the first state fails at stage 3, the second's whole
        # leg step is rejected and the third's is accepted
        datum, fam, basis = elliptic
        cfg = FlowConfig(epsilon=0.1, delta=0.09)
        xs = sample_intrinsic(datum, 3, np.random.default_rng(1), log10_spread=1.0)
        starts = [embedded_chart_point(elliptic, x, t=0.1) for x in xs]
        alone = [flow_to(cp, 0.09, cfg, fam, basis) for cp in starts]
        assert alone[1].rejected and alone[1].steps > 1
        assert (alone[2].steps, alone[2].rejected) == (1, 0)
        _forced_stage_error(monkeypatch, 3, flow._rank_below(1))
        dead, *live = flow._integrate(flow._Model(fam, basis), starts, 0.09, cfg)
        assert not dead.ok
        assert dead.failure == "family Jacobian has rank below 1 at this point"
        assert (dead.steps, dead.rejected, dead.field_evals) == (0, 0, 4)
        assert dead.terminal == starts[0]
        for mine, batched in zip(alone[1:], live):
            assert repr(batched) == repr(mine)


def test_elliptic_accuracy_at_the_default_tolerances(elliptic):
    # against the same flows at rtol 1e-12, atol 1e-16: measured at most
    # 2.0e-12 here (6.9e-12 over three other seeds), where the
    # Dormand-Prince 5(4) pair at rtol 1e-9, atol 1e-12 was 5.1e-10 off
    datum, fam, basis = elliptic
    xs = sample_intrinsic(datum, 12, np.random.default_rng(1), log10_spread=0.0)
    cfg = FlowConfig(epsilon=0.9)
    tight = replace(cfg, rtol=1e-12, atol=1e-16)
    results = run_batch(xs, cfg, datum, fam, basis)
    references = run_batch(xs, tight, datum, fam, basis)
    assert all(r.ok for r in results + references)
    for r, ref in zip(results, references):
        assert max(abs(a - b) for a, b in zip(r.F, ref.F)) < 1e-11


# Outcomes (ok, failure, accepted and rejected steps of the first leg,
# steps of the second) of sample_intrinsic(gl3-flag, 8, default_rng(1),
# log10_spread) at epsilon 0.8.  Before stage points off the family
# rejected the step, every one of these samples at spread 0 and half of
# them at spread 1 failed with "family Jacobian rank exceeds the expected
# 4" at 0 steps; now such a stage point rejects the step, and every
# sample succeeds.  Since a step rejected before the first accepted one
# shrinks by 0.9 q^(-1/2), some first legs take one step more and some
# one rejection fewer.  The continuation leg takes one step: its fiber is
# toric to rounding, so it jumps.
GL3_EPSILON_08 = {
    0.0: [
        (True, None, 13, 3, 1),
        (True, None, 14, 3, 1),
        (True, None, 14, 3, 1),
        (True, None, 17, 3, 1),
        (True, None, 15, 3, 1),
        (True, None, 12, 2, 1),
        (True, None, 14, 3, 1),
        (True, None, 17, 3, 1),
    ],
    1.0: [
        (True, None, 11, 2, 1),
        (True, None, 17, 3, 1),
        (True, None, 10, 2, 1),
        (True, None, 8, 2, 1),
        (True, None, 16, 3, 1),
        (True, None, 10, 2, 1),
        (True, None, 16, 3, 1),
        (True, None, 20, 3, 1),
    ],
}


@pytest.mark.parametrize("spread", sorted(GL3_EPSILON_08))
def test_gl3_epsilon_08_outcomes_unchanged(gl3, spread):
    datum, fam, basis = gl3
    xs = sample_intrinsic(datum, 8, np.random.default_rng(1), log10_spread=spread)
    results = run_batch(xs, FlowConfig(epsilon=0.8), datum, fam, basis)
    outcomes = [
        (
            r.ok,
            r.failure,
            r.flow.steps,
            r.flow.rejected,
            r.continuation.steps if r.continuation else None,
        )
        for r in results
    ]
    assert outcomes == GL3_EPSILON_08[spread]


class TestContinuation:
    """The delta -> delta/2 leg: its first step is sized after damping,
    so it covers the whole leg, and the error test accepts it."""

    @pytest.mark.parametrize("name", [name for name, _ in list_examples()])
    def test_one_step_on_every_entry(self, name):
        model, datum = catalog_model(name)
        cfg = FlowConfig()
        xs = sample_intrinsic(datum, 4, np.random.default_rng(7), log10_spread=2.0)
        results = run_batch(xs, cfg, datum, model.fam, model.basis)
        legs = [r.continuation for r in results if r.ok]
        assert legs
        for leg in legs:
            assert leg.steps == 1 and leg.rejected == 0
            assert leg.terminal.t.real == cfg.delta / 2

    def test_smallest_cutoff(self, elliptic):
        # the continuation leg is delta/2 = 5e-9 long at Re t = 1e-8, and
        # its first damped step covers all of it
        datum, fam, basis = elliptic
        cfg = FlowConfig(delta=DELTA_MIN)
        x = sample_intrinsic(datum, 1, np.random.default_rng(5))[0]
        r = integrable_system_eval(x, cfg, datum, fam, basis)
        assert r.ok
        assert r.flow.terminal.t.real == DELTA_MIN
        assert r.continuation.terminal.t.real == DELTA_MIN / 2
        assert r.continuation.steps == 1


class TestFlowTo:
    def test_trivial_family_keeps_chart_coordinates(self, p1):
        _, fam, basis = p1
        cfg = FlowConfig()
        cp = embedded_chart_point(p1, (0.7 + 0.2j,), t=cfg.epsilon)
        res = flow_to(cp, cfg.delta, cfg, fam, basis)
        assert res.ok
        assert res.terminal.chart == cp.chart
        drift = np.abs(
            np.asarray(res.terminal.w) - np.asarray(cp.w)
        ).max()
        assert drift < 1e-10
        assert abs(res.terminal.t.real - cfg.delta) < 1e-12
        direct = toric_moment(cp.full_coords(), basis)
        assert max(abs(a - b) for a, b in zip(res.moment, direct)) < 1e-9

    def test_elliptic_reaches_special_fiber_equations(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(17))[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        res = flow_to(cp, cfg.delta, cfg, fam, basis)
        assert res.ok
        assert relative_residual(fam.initial_forms, res.terminal.full_coords()) < 1e-4

    def test_conservation_diagnostics_tight(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(19))[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        res = flow_to(cp, cfg.delta, cfg, fam, basis)
        assert res.ok
        assert res.max_im_pi < 1e-8
        assert res.max_re_lin_err < 1e-6
        assert all(s.residual < 1e-8 for s in res.samples)

    def test_deterministic_repetition(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(23))[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        first = flow_to(cp, cfg.delta, cfg, fam, basis)
        second = flow_to(cp, cfg.delta, cfg, fam, basis)
        assert first.samples == second.samples
        assert first.terminal == second.terminal

    def test_target_validation(self, p1):
        _, fam, basis = p1
        cfg = FlowConfig()
        cp = embedded_chart_point(p1, (0.5,), t=cfg.epsilon)
        with pytest.raises(ValueError, match="target"):
            flow_to(cp, 0.9, cfg, fam, basis)
        with pytest.raises(ValueError, match="target"):
            flow_to(cp, -0.1, cfg, fam, basis)

    def test_imaginary_start_rejected(self, p1):
        _, fam, basis = p1
        cfg = FlowConfig()
        cp = ChartPoint(0, (0.5,), 0.5 + 0.1j)
        with pytest.raises(ValueError, match="Im t"):
            flow_to(cp, cfg.delta, cfg, fam, basis)

    def test_off_family_start_fails_loudly(self, elliptic):
        _, fam, basis = elliptic
        cfg = FlowConfig()
        cp = ChartPoint(0, (0.7, 0.9), 0.5)
        res = flow_to(cp, cfg.delta, cfg, fam, basis)
        assert not res.ok
        assert "misses the family" in res.failure

    def test_step_budget_failure_keeps_samples(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig(max_steps=3)
        x = sample_intrinsic(datum, 1, np.random.default_rng(29))[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        res = flow_to(cp, cfg.delta, cfg, fam, basis)
        assert not res.ok
        assert "budget" in res.failure
        assert res.samples
        assert res.terminal is not None
        assert res.moment is None

    def test_leg_ends_exactly_at_target(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(79), log10_spread=3.0)[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        first = flow_to(cp, cfg.delta, cfg, fam, basis)
        second = flow_to(first.terminal, cfg.delta / 2, cfg, fam, basis)
        legs = ((cp, first, cfg.delta), (first.terminal, second, cfg.delta / 2))
        for start, leg, target in legs:
            assert leg.ok
            assert leg.terminal.t.real == target
            assert leg.samples[-1].s == start.t.real - target
            assert leg.samples[-1].t == leg.terminal.t

    def test_short_leg_whose_whole_first_step_fails_is_retried(self, elliptic):
        # every start first tries the whole leg in one step
        datum, fam, basis = elliptic
        cfg = FlowConfig(epsilon=0.1, delta=0.09)
        xs = sample_intrinsic(datum, 4, np.random.default_rng(1), log10_spread=1.0)
        legs = [
            flow_to(embedded_chart_point(elliptic, x, t=0.1), 0.09, cfg, fam, basis)
            for x in xs
        ]
        assert all(leg.ok and leg.terminal.t.real == 0.09 for leg in legs)
        # the error test turns some whole-leg steps down and passes others
        assert any(leg.rejected and leg.steps > 1 for leg in legs)
        assert any(leg.steps == 1 and not leg.rejected for leg in legs)

    def test_counters_show_twelve_evaluations_per_attempt(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(12))[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        res = flow_to(cp, cfg.delta, cfg, fam, basis)
        assert res.ok and res.rejected > 0
        assert type(res.rejected) is int and type(res.field_evals) is int
        # no stage fails and the leg ends without a jump step, so every
        # attempted step, a retry included, takes twelve evaluations
        assert res.field_evals == 12 * (res.steps + res.rejected)

    def test_gl3_short_flow(self, gl3):
        datum, fam, basis = gl3
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(31))[0]
        cp = embedded_chart_point(gl3, x, t=cfg.epsilon)
        res = flow_to(cp, 0.3, cfg, fam, basis)
        assert res.ok
        assert res.max_im_pi < 1e-8

    @pytest.mark.parametrize(
        "name, epsilon", [("elliptic", 0.5), ("elliptic", 0.9), ("gl3-flag", 0.8)]
    )
    def test_leg_started_off_the_dominant_chart_switches(self, name, epsilon):
        # a start whose pivot holds 5-30% of the largest modulus moves to
        # the dominant chart once it accepts a step, and ends where the leg
        # started in the dominant chart ends
        pipe = pipeline(name)
        datum, fam, basis = pipe
        cfg = FlowConfig(epsilon=epsilon)
        rng = np.random.default_rng(7)
        for x in sample_intrinsic(datum, 40, rng, log10_spread=1.0):
            cp = embedded_chart_point(pipe, x, t=epsilon)
            z = np.abs(cp.full_coords())
            off = np.flatnonzero((z >= 0.05 * z.max()) & (z <= 0.3 * z.max()))
            if off.size:
                break
        start = cp.to_chart(int(off[0]))
        res = flow_to(start, 0.3, cfg, fam, basis)
        home = flow_to(cp, 0.3, cfg, fam, basis)
        assert res.ok and home.ok
        assert res.samples[0].chart == start.chart
        assert any(sample.chart != start.chart for sample in res.samples)
        assert np.abs(np.subtract(res.moment, home.moment)).max() < 1e-11


def _recorded_attempts(monkeypatch):
    """Record every attempted step of a lone flow: per round, Re t of the
    state it starts from and the twelve (point, field) pairs of its stages.
    ``_damping`` runs once at the start of the leg and once per round,
    before the stages."""
    damping, field = flow._damping, flow._field
    starts, rounds = [], []

    def damped(re_t):
        starts.append(float(re_t[0]))
        rounds.append([])
        return damping(re_t)

    def recorded(model, charts, Y, *args, **kwargs):
        V, errors, S = field(model, charts, Y, *args, **kwargs)
        assert len(Y) == 1 and errors == [None]
        rounds[-1].append((np.array(Y[0]), V[0].copy()))
        return V, errors, S

    monkeypatch.setattr(flow, "_damping", damped)
    monkeypatch.setattr(flow, "_field", recorded)
    return starts, rounds


def _error_norm(stages, cfg, dim):
    """The DOP853 error norm q of one attempted step from its twelve stage
    points and fields; the step size is read off stage 1's Re t."""
    (y, _), (y1, _) = stages[:2]
    h = (y[-2] - y1[-2]) / flow._DOP_A[1][0]
    sums = np.zeros((14, dim))
    for i, (_, V) in enumerate(stages):
        sums += flow._DOP_WEIGHTS[i, :, :, 0] * V
    y_new = y + h * sums[11]
    sc = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
    e5_sq = np.sum((sums[12] / sc) ** 2)
    e3_sq = np.sum((sums[13] / sc) ** 2)
    return h, h * e5_sq / math.sqrt((e5_sq + 0.01 * e3_sq) * dim)


class TestStepControl:
    """The step-size controller: a step the error test rejects before the
    state's first accepted step of the leg shrinks by 0.9 q^(-1/2), and
    every other step follows 0.9 q^(-1/8), both clipped to [0.2, 5]."""

    def test_retry_exponent_is_one_half_only_before_the_first_acceptance(
        self, elliptic, monkeypatch
    ):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(12))[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        starts, rounds = _recorded_attempts(monkeypatch)
        res = flow_to(cp, cfg.delta, cfg, fam, basis)
        assert res.ok and res.field_evals == 12 * (res.steps + res.rejected)
        leg_start, starts, rounds = starts[0], starts[1:], rounds[1:]
        assert len(rounds) == res.steps + res.rejected
        dim = len(cp.as_real())
        s_end = leg_start - cfg.delta
        # replay the controller from the observed error norms
        h = s_end / flow._damping(np.array([leg_start]))[0]
        accepted_yet = False
        early = late = 0
        for k, (re_t, stages) in enumerate(zip(starts, rounds)):
            assert len(stages) == 12
            taken, q = _error_norm(stages, cfg, dim)
            want = h * flow._damping(np.array([re_t]))[0]
            assert taken == pytest.approx(min(want, re_t - cfg.delta), rel=1e-9)
            # a rejected step retries from the same state
            accepted = k + 1 == len(rounds) or (
                rounds[k + 1][0][0].tobytes() != stages[0][0].tobytes()
            )
            assert accepted == (q <= 1.0)
            accepted_yet = accepted_yet or accepted
            exponents = (0.125, 0.5) if accepted_yet else (0.5, 0.125)
            factor, other = (
                min(5.0, max(0.2, 0.9 * max(q, 1e-10) ** -e)) for e in exponents
            )
            # count the rejections where the other law gives another step
            if not accepted and abs(other / factor - 1.0) > 1e-3:
                early += not accepted_yet
                late += accepted_yet
            h *= factor
        assert early >= 1 and late >= 1


class TestToricJump:
    """A state whose fiber is the target's to rounding ends its leg with
    one jump step: Re t set to the target, w kept, no field evaluated."""

    @pytest.mark.parametrize("name", ["p1", "p1xp1"])
    def test_tau_free_entry_flows_one_step_per_leg(self, request, name):
        pipe = request.getfixturevalue(name)
        datum, fam, basis = pipe
        cfg = FlowConfig()
        xs = sample_intrinsic(datum, 4, np.random.default_rng(97), log10_spread=1.0)
        for x, r in zip(xs, run_batch(xs, cfg, datum, fam, basis)):
            cp = embedded_chart_point(pipe, x, t=cfg.epsilon)
            mu = toric_moment(cp.full_coords(), basis)
            assert r.ok and r.F == mu and r.convergence == 0.0
            start = cp
            for leg, target in ((r.flow, cfg.delta), (r.continuation, cfg.delta / 2)):
                alone = flow_to(start, target, cfg, fam, basis)
                for res in (leg, alone):
                    assert (res.steps, res.rejected, res.field_evals) == (1, 0, 0)
                    assert res.terminal == ChartPoint(cp.chart, cp.w, target)
                    assert res.moment == mu
                    assert [sample.s for sample in res.samples] == [
                        0.0,
                        start.t.real - target,
                    ]
                start = alone.terminal

    def test_gl3_bracket_flows_jump_at_the_end_of_each_leg(self, gl3, monkeypatch):
        datum, fam, basis = gl3
        outcomes = []
        evaluate = flow._evaluate

        def kept(model, starts, cfg):
            out = evaluate(model, starts, cfg)
            outcomes.extend(out)
            return out

        monkeypatch.setattr(flow, "_evaluate", kept)
        monkeypatch.setattr(flow, "_last_differentials", None)
        x = sample_intrinsic(datum, 1, np.random.default_rng(73))[0]
        poisson_bracket(1, 2, x, FlowConfig(), datum, fam, basis)
        assert len(outcomes) == 2 * (2 * basis.value_dim)
        for r in outcomes:
            assert r.ok
            # leg 1 tries the whole leg in one step, which the error test
            # rejects; the retry (12 evaluations again) is accepted, and
            # then the fiber is toric to rounding, so the leg ends with the
            # jump; the continuation is one jump
            assert (r.flow.steps, r.flow.rejected, r.continuation.steps) == (2, 1, 1)
            assert r.flow.field_evals == 24
            assert r.continuation.field_evals == 0

    def test_leg_to_a_fiber_that_is_not_toric_never_jumps(self, elliptic, monkeypatch):
        # the elliptic family carries tau^12, far above rounding at t = 0.3
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        found = []
        toric = flow._toric

        def spy(*args):
            mask = toric(*args)
            found.extend(mask.tolist())
            return mask

        monkeypatch.setattr(flow, "_toric", spy)
        xs = sample_intrinsic(datum, 4, np.random.default_rng(7), log10_spread=2.0)
        for x in xs:
            cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
            leg = flow_to(cp, 0.3, cfg, fam, basis)
            assert leg.ok and leg.terminal.t.real == 0.3
            assert leg.field_evals >= 6 * leg.steps
        assert found and not any(found)

    def test_tau_share_just_above_roundoff_refuses_the_jump(self, elliptic, monkeypatch):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(5))[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        start = flow_to(cp, cfg.delta, cfg, fam, basis).terminal
        leg = flow_to(start, cfg.delta / 2, cfg, fam, basis)
        assert (leg.steps, leg.field_evals) == (1, 0)
        scales = CompiledPolynomial.scales
        share = np.nextafter(flow.UNIT_ROUNDOFF, 1.0)

        def inflated(self, zabs, split=None):
            if split is None:
                return scales(self, zabs)
            total, _ = scales(self, zabs, split)
            return total, total * share

        monkeypatch.setattr(CompiledPolynomial, "scales", inflated)
        refused = flow_to(start, cfg.delta / 2, cfg, fam, basis)
        assert refused.ok and refused.terminal.t.real == cfg.delta / 2
        assert refused.field_evals > 0

    def test_bounds_at_unit_roundoff(self, elliptic):
        datum, fam, basis = elliptic
        model = _Model(fam, basis)
        x = sample_intrinsic(datum, 1, np.random.default_rng(5))[0]
        cp = embedded_chart_point(elliptic, x, t=1e-4)
        charts, Y = np.array([cp.chart]), cp.as_real()[None, :]

        def toric(scale, share):
            scale = np.full((1, model.n_rel), scale)
            return flow._toric(model, charts, Y, (scale, scale * share))[0]

        above = np.nextafter(flow.UNIT_ROUNDOFF, 1.0)
        # tiny sums pass the transport bound, so the share decides
        assert toric(1e-30, flow.UNIT_ROUNDOFF) and not toric(1e-30, above)
        # sums of order one at that share move w by more than rounding
        assert not toric(1.0, flow.UNIT_ROUNDOFF)
        assert toric(1.0, 0.0)


def _retraction_batch(pipe, seed):
    """Chart states of pipe at t = 0.5: two on the family and three pushed
    off it, so they need Gauss-Newton iterations."""
    datum, fam, basis = pipe
    rng = np.random.default_rng(seed)
    cps = [embedded_chart_point(pipe, x) for x in sample_intrinsic(datum, 5, rng)]
    charts = np.array([cp.chart for cp in cps], dtype=np.intp)
    Y = np.array([cp.as_real() for cp in cps])
    Y[2:, :-2] += 1e-2 * rng.standard_normal((3, Y.shape[1] - 2))
    return charts, Y


class TestRetraction:
    def test_batch_equals_each_state_alone(self, elliptic):
        model = flow._Model(elliptic[1], elliptic[2])
        charts, Y = _retraction_batch(elliptic, 5)
        # a^2 - b^3 - tau^12 in the chart of the third symbol: at a = b = 0
        # every fiber partial vanishes while the relation does not
        charts = np.append(charts, 2)
        Y = np.vstack([Y, ChartPoint(2, (0.0, 0.0), 0.5).as_real()])
        new, Z, res, errors, sums = flow._retract(model, charts, Y, 1e-10)
        assert [e is None for e in errors] == [True] * 5 + [False]
        assert str(errors[-1]) == (
            "retraction stalled at relative residual 1 (tolerance 1e-10)"
        )
        for b in range(len(Y)):
            alone = flow._retract(model, charts[b : b + 1], Y[b : b + 1], 1e-10)
            assert alone[0].tobytes() == new[b].tobytes()
            assert alone[1].tobytes() == Z[b].tobytes()
            assert alone[2].tobytes() == res[b : b + 1].tobytes()
            assert str(alone[3][0]) == str(errors[b])
            for mine, batched in zip(alone[4], sums):
                assert mine.tobytes() == batched[b : b + 1].tobytes()

    def test_gl3_batch_equals_each_state_alone(self, gl3):
        model = flow._Model(gl3[1], gl3[2])
        charts, Y = _retraction_batch(gl3, 6)
        new, Z, res, errors, sums = flow._retract(model, charts, Y, 1e-10)
        assert errors == [None] * 5
        for b in range(len(Y)):
            alone = flow._retract(model, charts[b : b + 1], Y[b : b + 1], 1e-10)
            assert alone[0].tobytes() == new[b].tobytes()
            assert alone[2].tobytes() == res[b : b + 1].tobytes()
            for mine, batched in zip(alone[4], sums):
                assert mine.tobytes() == batched[b : b + 1].tobytes()

    def test_step_matches_lstsq_on_rank_deficient_jacobian(self, gl3):
        model = flow._Model(gl3[1], gl3[2])
        charts, Y = _retraction_batch(gl3, 7)
        J = model.jacobian(charts, Y, fiber_only=True)
        # rank 4 on the family, full column rank off it
        assert J.shape[1:] == (9, 7)
        assert [np.linalg.matrix_rank(j) for j in J] == [4, 4, 7, 7, 7]
        rng = np.random.default_rng(8)
        r = rng.standard_normal((len(J), 9)) + 1j * rng.standard_normal((len(J), 9))
        step = flow._min_norm_step(J, r)
        for j, rhs, x in zip(J, r, step):
            expected = np.linalg.lstsq(j, rhs, rcond=None)[0]
            assert np.abs(x - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_one_row_step_matches_lstsq(self):
        rng = np.random.default_rng(12)
        J = rng.standard_normal((20, 1, 3)) + 1j * rng.standard_normal((20, 1, 3))
        J *= 10.0 ** rng.uniform(-6, 6, (20, 1, 1))
        J[5] = 0.0
        r = rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))
        step = flow._min_norm_step(J, r)
        assert step.shape == (20, 3)
        assert not step[5].any()
        for j, rhs, x in zip(J, r, step):
            expected = np.linalg.lstsq(j, rhs, rcond=None)[0]
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(x - expected).max() <= 1e-12 * scale
            assert flow._min_norm_step(j[None], rhs[None])[0].tobytes() == x.tobytes()

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (math.inf, "initial point misses the family by nan"),
            (-math.inf, "initial point misses the family by nan"),
            (math.nan, "initial point misses the family by nan"),
        ],
    )
    def test_non_finite_start_fails_with_reason(self, elliptic, bad, reason):
        _, fam, basis = elliptic
        cp = ChartPoint(2, (bad, 0.5), 0.5)
        with np.errstate(invalid="ignore", over="ignore"):
            res = flow_to(cp, 0.1, FlowConfig(), fam, basis)
        assert not res.ok
        assert res.failure == reason
        assert res.steps == 0 and len(res.samples) == 1


class TestIntegrableSystemEval:
    def test_p1_matches_direct_moment(self, p1):
        datum, fam, basis = p1
        cfg = FlowConfig()
        rng = np.random.default_rng(37)
        for x in sample_intrinsic(datum, 10, rng):
            out = integrable_system_eval(x, cfg, datum, fam, basis)
            assert out.ok
            direct = toric_moment(
                embed_point(x, datum, fam, cfg.epsilon, basis), basis
            )
            assert abs(out.F[0] - direct[0]) < 1e-6
            assert -1e-6 <= out.F[0] <= 1.0 + 1e-6

    def test_elliptic_values_land_in_segment(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        rng = np.random.default_rng(41)
        for x in sample_intrinsic(datum, 5, rng, log10_spread=2.0):
            out = integrable_system_eval(x, cfg, datum, fam, basis)
            assert out.ok
            assert -1e-2 <= out.F[0] <= 3.0 + 1e-2
            assert out.convergence < 1e-6

    @pytest.mark.parametrize("t", [0.5e-4, 1e-4, 0.5 + 0.1j])
    def test_invalid_start_raises(self, elliptic, t):
        _, fam, basis = elliptic
        cp = ChartPoint(2, (0.5, 0.5), t)
        with pytest.raises(ValueError, match="target|Im t"):
            _evaluate(_Model(fam, basis), [cp], FlowConfig())

    def test_off_variety_point_reported_not_raised(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        out = integrable_system_eval((1.0, 5.0), cfg, datum, fam, basis)
        assert not out.ok
        assert "embedding failed" in out.failure
        assert out.F is None


class TestRunBatch:
    def test_results_carry_input_order(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        xs = sample_intrinsic(datum, 4, np.random.default_rng(43))
        results = run_batch(xs, cfg, datum, fam, basis)
        assert [r.index for r in results] == [0, 1, 2, 3]

    def test_batch_matches_point_by_point(self, elliptic):
        datum, fam, basis = elliptic
        # a step budget that some samples exhaust mid-batch
        cfg = FlowConfig(max_steps=20)
        xs = sample_intrinsic(datum, 6, np.random.default_rng(43), log10_spread=3.0)
        batch = run_batch(xs, cfg, datum, fam, basis)
        assert 0 < sum(r.ok for r in batch) < len(batch)
        for x, r in zip(xs, batch):
            assert_same_evaluation(r, integrable_system_eval(x, cfg, datum, fam, basis))

    def test_batch_matches_point_by_point_across_jumps(self, elliptic, monkeypatch):
        # some states jump to delta from Re t above it, the others
        # integrate to delta and jump at the start of the continuation
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        xs = sample_intrinsic(datum, 8, np.random.default_rng(43), log10_spread=3.0)
        batch = run_batch(xs, cfg, datum, fam, basis)
        found = []
        toric = flow._toric

        def spy(model, charts, Y, sums):
            mask = toric(model, charts, Y, sums)
            found.extend(Y[mask, -2].tolist())  # Re t where a jump was decided
            return mask

        monkeypatch.setattr(flow, "_toric", spy)
        early = []
        for x, r in zip(xs, batch):
            found.clear()
            alone = integrable_system_eval(x, cfg, datum, fam, basis)
            assert_same_evaluation(r, alone)
            assert r.ok and r.continuation.field_evals == 0
            early.append(any(t > cfg.delta for t in found))
        assert any(early) and not all(early)


def assert_same_evaluation(r: EvalResult, alone: EvalResult):
    """A batch's result equals the point's own, leg by leg, bit for bit."""
    assert r.F == alone.F
    assert r.failure == alone.failure
    legs = [leg for leg in (r.flow, r.continuation) if leg]
    alone_legs = [leg for leg in (alone.flow, alone.continuation) if leg]
    assert len(legs) == len(alone_legs)
    for leg, other in zip(legs, alone_legs):
        assert leg.steps == other.steps
        assert leg.rejected == other.rejected
        assert leg.field_evals == other.field_evals
        assert leg.samples == other.samples
        assert leg.terminal == other.terminal


@pytest.fixture()
def evaluations(monkeypatch):
    """Empty the bracket's held point and count the batches it flows."""
    monkeypatch.setattr(flow, "_last_differentials", None)
    calls = []
    evaluate = flow._evaluate

    def counted(model, starts, cfg):
        calls.append(len(starts))
        return evaluate(model, starts, cfg)

    monkeypatch.setattr(flow, "_evaluate", counted)
    return calls


class TestPoissonBracket:
    def test_segre_moments_commute(self, p1xp1):
        datum, fam, basis = p1xp1
        cfg = FlowConfig()
        rng = np.random.default_rng(53)
        for x in sample_intrinsic(datum, 2, rng):
            value = poisson_bracket(1, 2, x, cfg, datum, fam, basis)
            assert abs(value) < 1e-3

    def test_self_bracket_exactly_zero(self, p1xp1):
        datum, fam, basis = p1xp1
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(59))[0]
        assert poisson_bracket(1, 1, x, cfg, datum, fam, basis) == 0.0

    def test_antisymmetry_exact(self, p1xp1):
        datum, fam, basis = p1xp1
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(61))[0]
        ab = poisson_bracket(1, 2, x, cfg, datum, fam, basis)
        ba = poisson_bracket(2, 1, x, cfg, datum, fam, basis)
        assert ab == -ba

    @pytest.mark.parametrize("w", [0.3 + 0.2j, -1.1 + 0.7j])
    def test_positive_control_for_noncommuting_pair(self, p1, w):
        # x = Re w and y = Im w on the Fubini-Study line: {x, y} = -(1 + |w|^2)^2,
        # at least 1.27, far above the 1e-3 gate for commuting pairs
        _, fam, basis = p1
        cp = ChartPoint(0, (w,), 0.5)
        E = tangent_frame(cp, fam, basis, fiber_only=True)
        y0 = cp.as_real()
        up = y0[:, None] + FD_STEP * E
        down = y0[:, None] - FD_STEP * E
        dx, dy = (up[:2] - down[:2]) / (2 * FD_STEP)
        value = _bracket(dx, dy)
        assert value == pytest.approx(-((1 + abs(w) ** 2) ** 2), abs=1e-8)

    def test_component_indices_validated(self, p1xp1):
        datum, fam, basis = p1xp1
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(67))[0]
        with pytest.raises(ValueError, match="1..2"):
            poisson_bracket(0, 1, x, cfg, datum, fam, basis)
        with pytest.raises(ValueError, match="1..2"):
            poisson_bracket(1, 3, x, cfg, datum, fam, basis)

    def test_three_pairs_flow_one_batch(self, gl3, evaluations):
        datum, fam, basis = gl3
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(73))[0]
        for i, j in ((1, 2), (1, 3), (2, 3)):
            poisson_bracket(i, j, x, cfg, datum, fam, basis)
        # one batch of the 2k perturbed starts, k the fiber frame's width
        assert evaluations == [2 * (2 * basis.value_dim)]

    def test_first_legs_stay_within_their_pinned_rounds(self, gl3, monkeypatch):
        # A regression gate on wasted lockstep rounds, in deterministic
        # counts: per bracket batch, the largest leg-1 field_evals is twelve
        # times the rounds its first leg runs.  Summed over these twelve
        # points it was 504 while every rejection shrank a step by
        # 0.9 q^(-1/8), and is 336 with 0.9 q^(-1/2) before the first
        # accepted step.
        datum, fam, basis = gl3
        cfg = FlowConfig()
        monkeypatch.setattr(flow, "_last_differentials", None)
        integrate = flow._integrate
        rounds = []

        def counted(model, starts, target, cfg):
            legs = integrate(model, starts, target, cfg)
            if target == cfg.delta:
                rounds.append(max(leg.field_evals for leg in legs))
            return legs

        monkeypatch.setattr(flow, "_integrate", counted)
        xs = sample_intrinsic(datum, 12, np.random.default_rng(1), log10_spread=1.0)
        for x in xs:
            flow._differentials(x, cfg, datum, fam, basis)
        assert len(rounds) == len(xs)
        assert sum(rounds) <= 336

    def test_reuse_equals_cold_computation(self, p1xp1, evaluations):
        datum, fam, basis = p1xp1
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(79))[0]
        pairs = ((1, 2), (2, 1), (1, 1))
        reused = [poisson_bracket(i, j, x, cfg, datum, fam, basis) for i, j in pairs]
        dF = _differentials(x, cfg, datum, fam, basis)
        assert len(evaluations) == 1
        assert not dF.flags.writeable
        for (i, j), value in zip(pairs, reused):
            flow._last_differentials = None
            cold = poisson_bracket(i, j, x, cfg, datum, fam, basis)
            assert cold.hex() == value.hex()
        assert flow._last_differentials[4].tobytes() == dF.tobytes()
        assert len(evaluations) == 1 + len(pairs)

    def test_changed_key_recomputes(self, p1xp1, evaluations):
        datum, fam, basis = p1xp1
        cfg = FlowConfig()
        x, y = sample_intrinsic(datum, 2, np.random.default_rng(83))
        poisson_bracket(1, 2, x, cfg, datum, fam, basis)
        assert len(evaluations) == 1
        poisson_bracket(1, 2, x, replace(cfg, delta=cfg.delta / 2), datum, fam, basis)
        assert len(evaluations) == 2
        poisson_bracket(1, 2, y, cfg, datum, fam, basis)
        assert len(evaluations) == 3
        twin = copy.copy(fam)
        assert twin == fam and twin is not fam
        poisson_bracket(1, 2, y, cfg, datum, twin, basis)
        assert len(evaluations) == 4
        poisson_bracket(2, 1, y, cfg, datum, twin, basis)
        assert len(evaluations) == 4

    def test_point_key_is_exact(self):
        assert _point_key([1]) != _point_key([1.0])
        assert _point_key([0.0]) != _point_key([-0.0])
        assert _point_key([complex(1, 0.0)]) != _point_key([complex(1, -0.0)])
        assert _point_key([0.1 + 0.2j]) == _point_key([0.1 + 0.2j])

    def test_failing_point_raises_every_call(self, elliptic, evaluations):
        # p1xp1 has no tau, so its flows end every leg in one step; the
        # elliptic fiber at epsilon is far from toric and needs more than one
        datum, fam, basis = elliptic
        cfg = FlowConfig(max_steps=1)
        x = sample_intrinsic(datum, 1, np.random.default_rng(89))[0]
        for _ in range(2):
            with pytest.raises(FlowError, match="perturbed flow failed"):
                poisson_bracket(1, 1, x, cfg, datum, fam, basis)
        assert len(evaluations) == 2
        assert flow._last_differentials is None


class TestSymplecticResidual:
    def test_elliptic_transport_preserves_form(self, elliptic):
        datum, fam, basis = elliptic
        cfg = FlowConfig()
        x = sample_intrinsic(datum, 1, np.random.default_rng(71))[0]
        cp = embedded_chart_point(elliptic, x, t=cfg.epsilon)
        E = tangent_frame(cp, fam, basis, fiber_only=True)
        value = symplectic_residual(cp, E[:, 0], E[:, 1], cfg, fam, basis)
        assert value < 1e-4

    def test_zero_vectors_give_zero(self, elliptic):
        _, fam, basis = elliptic
        cfg = FlowConfig()
        cp = ChartPoint(2, (0.5, 0.5), 0.5)
        zero = np.zeros(6)
        assert symplectic_residual(cp, zero, zero, cfg, fam, basis) == 0.0


class TestExport:
    def make_results(self, pipe, count=2, seed=73):
        datum, fam, basis = pipe
        cfg = FlowConfig()
        xs = sample_intrinsic(datum, count, np.random.default_rng(seed))
        return run_batch(xs, cfg, datum, fam, basis), cfg

    def test_csv_header_and_shape(self, elliptic):
        results, _ = self.make_results(elliptic)
        text = trajectory_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == "sample_id,s,t_re,t_im,chart,residual,Impi,ReLinErr,F_1"
        assert len(lines) > 2
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 9
            int(fields[0])
            int(fields[4])
            for f in fields[1:4] + fields[5:]:
                float(f)

    def test_csv_rows_round_trip_the_samples(self, p1xp1):
        # one row per sample of the first leg, then per sample of the
        # continuation after its start; every float reads back exactly
        results, _ = self.make_results(p1xp1)
        lines = trajectory_csv(results).split("\n")[1:-1]
        rows = [line.split(",") for line in lines]
        expected = []
        for r in results:
            end = r.flow.samples[-1].s
            for x in r.flow.samples:
                expected.append((r.index, x.s, x))
            for x in r.continuation.samples[1:]:
                expected.append((r.index, end + x.s, x))
        assert len(rows) == len(expected)
        for row, (index, s, x) in zip(rows, expected):
            assert int(row[0]) == index and int(row[4]) == x.chart
            values = [s, x.t.real, x.t.imag, x.residual, x.im_pi, x.re_lin_err]
            assert [float(f) for f in row[1:4] + row[5:]] == values + list(x.moment)

    def test_csv_bit_identical_across_runs(self, elliptic):
        first, _ = self.make_results(elliptic)
        second, _ = self.make_results(elliptic)
        assert trajectory_csv(first) == trajectory_csv(second)

    def test_diagnostics_summary(self, elliptic):
        results, cfg = self.make_results(elliptic)
        diag = diagnostics_dict(results, cfg)
        assert diag["total"] == 2
        assert diag["succeeded"] == 2
        assert diag["config"]["epsilon"] == cfg.epsilon
        assert all(e["ok"] for e in diag["samples"])
        assert all(len(e["F"]) == 1 for e in diag["samples"])
