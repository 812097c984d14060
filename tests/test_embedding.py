"""Basis enumeration, projective embedding, torus action, moment map."""

import math
from fractions import Fraction

import numpy as np
import pytest

from okkit.algebra import Polynomial, Ring, evaluate_complex, parse_polynomial
from okkit.degeneration import RelationSet, build_family, build_projection
from okkit.embedding import (
    BaseLocusError,
    BasisTooLargeError,
    EmbeddingError,
    embed_point,
    enumerate_vd_basis,
    family_residual,
    sample_intrinsic,
    toric_moment,
    toric_moments,
)
from okkit.okounkov import SagbiDatum, SagbiGenerator, okounkov_body

from presentations import ALL_DATA, elliptic_datum, p1_datum, relation_set_for


def pipeline(name):
    rels = relation_set_for(name)
    fam = build_family(rels, build_projection(rels))
    basis = enumerate_vd_basis(rels.datum, fam)
    return rels.datum, fam, basis


def weighted_datum():
    """Levels 1 and 2 over one variable: 1, u at level one, u^2 at level two."""
    ring = Ring(("u",))
    one = Polynomial.constant(ring, 1)
    u = Polynomial.variable(ring, "u")
    return SagbiDatum(
        ring,
        (
            SagbiGenerator(1, 1, one, (0,)),
            SagbiGenerator(1, 2, u, (1,)),
            SagbiGenerator(2, 1, u**2, (2,)),
        ),
    )


def weighted_pipeline():
    datum = weighted_datum()
    g = parse_polynomial("x1_2^2 - x2_1", datum.symbol_ring)
    rels = RelationSet(datum, (g,))
    fam = build_family(rels, build_projection(rels))
    basis = enumerate_vd_basis(datum, fam)
    return datum, fam, basis


class TestVdBasis:
    def test_elliptic_level_one_basis(self):
        _, _, basis = pipeline("elliptic")
        assert basis.degree == 1
        assert basis.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert basis.torus_weights == ((0,), (1,), (3,))
        assert basis.cstar_weights == (14, 12, 8)

    def test_weighted_degree_two_basis(self):
        _, _, basis = weighted_pipeline()
        assert basis.degree == 2
        assert basis.entries == ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1))
        assert basis.size == 4

    def test_mixed_levels_torus_weight(self):
        _, _, basis = weighted_pipeline()
        i = basis.entries.index((1, 1, 0))
        assert basis.torus_weights[i] == (1,)

    def test_count_matches_stars_and_bars(self):
        datum, fam, _ = pipeline("gl3-flag")
        basis = enumerate_vd_basis(datum, fam, d=2)
        assert basis.size == math.comb(2 + 7, 7)

    def test_indivisible_degree_rejected(self):
        datum, fam, _ = weighted_pipeline()
        with pytest.raises(EmbeddingError, match="divisible"):
            enumerate_vd_basis(datum, fam, d=3)

    def test_nonpositive_degree_rejected(self):
        datum, fam, _ = pipeline("p1")
        with pytest.raises(EmbeddingError, match="positive"):
            enumerate_vd_basis(datum, fam, d=0)

    def test_overflow_guard(self):
        datum, fam, _ = pipeline("gl3-flag")
        with pytest.raises(BasisTooLargeError):
            enumerate_vd_basis(datum, fam, d=21)


class TestEmbedPoint:
    def test_p1_torus_fixed_point(self):
        datum, fam, basis = pipeline("p1")
        pt = embed_point((0j,), datum, fam, 1, basis)
        assert pt.z == (1, 0)
        assert pt.t == 1

    def test_p1_generic_point(self):
        datum, fam, basis = pipeline("p1")
        pt = embed_point((1 + 0j,), datum, fam, 1, basis)
        s = 1 / math.sqrt(2)
        assert pt.z[0] == pytest.approx(s)
        assert pt.z[1] == pytest.approx(s)

    def test_elliptic_point_satisfies_family(self):
        datum, fam, basis = pipeline("elliptic")
        x = -1.0 + 0j
        z = np.roots([1, 0, -1, -1])[0]
        pt = embed_point((x, complex(z)), datum, fam, 0.5, basis)
        assert np.linalg.norm(pt.z) == pytest.approx(1)

    def test_normalization_is_deterministic(self):
        datum, fam, basis = pipeline("elliptic")
        rng = np.random.default_rng(7)
        for x in sample_intrinsic(datum, 5, rng):
            pt = embed_point(x, datum, fam, 0.7 + 0.1j, basis)
            pivot = max(range(len(pt.z)), key=lambda i: abs(pt.z[i]))
            assert pt.z[pivot].imag == pytest.approx(0, abs=1e-14)
            assert pt.z[pivot].real > 0

    def test_off_variety_point_rejected(self):
        datum, fam, basis = pipeline("elliptic")
        with pytest.raises(EmbeddingError, match="residual"):
            embed_point((1 + 0j, 5 + 0j), datum, fam, 1, basis)

    def test_base_locus_hit(self):
        ring = Ring(("u",))
        one = Polynomial.constant(ring, 1)
        u = Polynomial.variable(ring, "u")
        datum = SagbiDatum(
            ring,
            (
                SagbiGenerator(1, 1, one + u, (0,)),
                SagbiGenerator(1, 2, u, (1,)),
            ),
        )
        rels = RelationSet(datum, ())
        fam = build_family(rels, build_projection(rels))
        basis = enumerate_vd_basis(datum, fam)
        with pytest.raises(BaseLocusError):
            embed_point((-1 + 0j,), datum, fam, 1, basis)

    def test_special_fiber_with_negative_weights_rejected(self):
        datum, fam, basis = pipeline("p1xp1")
        assert min(basis.cstar_weights) < 0
        with pytest.raises(EmbeddingError, match="pole"):
            embed_point((1 + 0j, 1 + 0j), datum, fam, 0, basis)

    def test_special_fiber_embedding_when_weights_allow(self):
        datum, fam, basis = pipeline("p1")
        pt = embed_point((1 + 0j,), datum, fam, 0, basis)
        assert pt.z == (0, 1)
        assert toric_moment(pt, basis) == (pytest.approx(1.0),)

    def test_every_catalog_entry_embeds_cleanly(self):
        rng = np.random.default_rng(20260818)
        for name in ALL_DATA:
            datum, fam, basis = pipeline(name)
            for x in sample_intrinsic(datum, 100, rng):
                pt = embed_point(x, datum, fam, 0.5, basis)
                assert np.linalg.norm(pt.z) == pytest.approx(1)


class TestRescaleAction:
    def test_commutes_with_embedding(self):
        """The C*-action, z_alpha by s^omega_alpha and t by s, then
        renormalized, carries the embedding at t = 1 to the one at t = s."""
        rng = np.random.default_rng(11)
        for name in ("p1xp1", "elliptic"):
            datum, fam, basis = pipeline(name)
            for x in sample_intrinsic(datum, 25, rng):
                mag = 0.5 + rng.random()
                ang = 2 * math.pi * rng.random()
                s = mag * complex(math.cos(ang), math.sin(ang))
                direct = embed_point(x, datum, fam, s, basis)
                pt = embed_point(x, datum, fam, 1, basis)
                z = np.array(pt.z) * np.array([s**w for w in basis.cstar_weights])
                z /= np.linalg.norm(z)
                pivot = int(np.argmax(np.abs(z)))
                z *= abs(z[pivot]) / z[pivot]
                assert s * pt.t == pytest.approx(direct.t)
                for a, b in zip(z, direct.z):
                    assert a == pytest.approx(b, abs=1e-10)


class TestToricMoment:
    def test_single_support_is_vertex(self):
        _, _, basis = pipeline("elliptic")
        assert toric_moment((0, 0, 1), basis) == (pytest.approx(3.0),)
        assert toric_moment((1, 0, 0), basis) == (pytest.approx(0.0),)

    def test_equal_masses_give_midpoint(self):
        _, _, basis = pipeline("elliptic")
        mid = toric_moment((1, 0, 1), basis)
        assert mid == (pytest.approx(1.5),)

    def test_level_normalization_on_weighted_basis(self):
        _, _, basis = weighted_pipeline()
        # mass on x2_1 alone: torus weight (2,) at level d = 2
        i = basis.entries.index((0, 0, 1))
        z = [0] * basis.size
        z[i] = 1
        assert toric_moment(z, basis) == (pytest.approx(1.0),)

    def test_zero_vector_rejected(self):
        _, _, basis = pipeline("p1")
        with pytest.raises(EmbeddingError):
            toric_moment((0, 0), basis)

    def test_image_inside_body(self):
        rng = np.random.default_rng(5)
        slack = Fraction(1, 10**9)
        for name in ("elliptic", "gl3-flag"):
            datum, fam, basis = pipeline(name)
            body = okounkov_body(datum.semigroup())
            for _ in range(50):
                draw = rng.standard_normal(2 * basis.size)
                z = [
                    complex(draw[2 * i], draw[2 * i + 1])
                    for i in range(basis.size)
                ]
                mu = toric_moment(z, basis)
                point = tuple(Fraction(v) for v in mu)
                assert body.contains(point, slack=slack)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(9)
        datum, fam, basis = pipeline("gl3-flag")
        draw = rng.standard_normal(2 * basis.size)
        z = [complex(draw[2 * i], draw[2 * i + 1]) for i in range(basis.size)]
        theta = rng.standard_normal(basis.value_dim)
        rotated = [
            c * np.exp(1j * float(np.dot(theta, lam)))
            for c, lam in zip(z, basis.torus_weights)
        ]
        before = toric_moment(z, basis)
        after = toric_moment(rotated, basis)
        for a, b in zip(before, after):
            assert a == pytest.approx(b, abs=1e-12)


def _spread_rows(rng, count, size, decades):
    """Complex rows whose moduli spread over 10^-decades .. 10^decades."""
    z = rng.standard_normal((count, size)) + 1j * rng.standard_normal((count, size))
    return z * 10.0 ** rng.uniform(-decades, decades, (count, size))


class TestToricMoments:
    @pytest.mark.parametrize("name", ["elliptic", "gl3-flag"])
    def test_rows_equal_toric_moment_bit_for_bit(self, name):
        _, _, basis = pipeline(name)
        Z = _spread_rows(np.random.default_rng(21), 40, basis.size, 4)
        batch = toric_moments(Z, basis)
        for z, row in zip(Z, batch):
            assert toric_moment(tuple(z), basis) == tuple(row.tolist())

    @pytest.mark.parametrize("name", ["elliptic", "gl3-flag"])
    def test_row_bits_do_not_depend_on_batch(self, name):
        _, _, basis = pipeline(name)
        Z = _spread_rows(np.random.default_rng(22), 50, basis.size, 8)
        batch = toric_moments(Z, basis)
        for i in range(len(Z)):
            alone = toric_moments(Z[i : i + 1], basis)[0]
            assert alone.tobytes() == batch[i].tobytes()

    @pytest.mark.parametrize("name", ["p1xp1", "elliptic", "gl3-flag"])
    @pytest.mark.parametrize("decades", [0, 8])
    def test_matches_exact_fractions(self, name, decades):
        _, _, basis = pipeline(name)
        Z = _spread_rows(np.random.default_rng(23 + decades), 30, basis.size, decades)
        for z, row in zip(Z, toric_moments(Z, basis)):
            masses = [Fraction(c.real) ** 2 + Fraction(c.imag) ** 2 for c in z]
            total = basis.degree * sum(masses)
            for i, value in enumerate(row):
                exact = sum(m * lam[i] for m, lam in zip(masses, basis.torus_weights))
                exact /= total
                assert abs(Fraction(value) - exact) <= Fraction(1, 10**15) * abs(exact)

    def test_zero_row_rejected(self):
        _, _, basis = pipeline("p1")
        with pytest.raises(EmbeddingError):
            toric_moments(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), basis)


class TestSampling:
    def test_deterministic_given_seed(self):
        datum = elliptic_datum()
        a = sample_intrinsic(datum, 10, np.random.default_rng(3))
        b = sample_intrinsic(datum, 10, np.random.default_rng(3))
        assert a == b

    def test_elliptic_samples_lie_on_curve(self):
        datum = elliptic_datum()
        pts = sample_intrinsic(datum, 20, np.random.default_rng(4))
        for pt in pts:
            assert abs(evaluate_complex(datum.modulus, pt)) < 1e-8

    def test_unconstrained_chart(self):
        datum = ALL_DATA["gl3-flag"]()
        pts = sample_intrinsic(datum, 7, np.random.default_rng(6))
        assert len(pts) == 7
        assert all(len(p) == 3 for p in pts)

    def test_zero_count(self):
        assert sample_intrinsic(p1_datum(), 0, np.random.default_rng(0)) == []


class TestFamilyResidual:
    def test_exact_point_has_tiny_residual(self):
        datum, fam, basis = pipeline("p1xp1")
        u, v = 0.7 + 0.2j, -1.1 + 0.5j
        rescaled = [1, v, u, u * v]
        # tau-free family: weights cancel at t = 1
        assert family_residual(fam, rescaled, 1) < 1e-15

    def test_off_point_has_large_residual(self):
        datum, fam, basis = pipeline("p1xp1")
        assert family_residual(fam, [1, 2, 3, 7], 1) > 1e-2

    def test_no_relations_means_zero(self):
        datum, fam, basis = pipeline("p1")
        assert family_residual(fam, [123, 456], 0.5) == 0.0
