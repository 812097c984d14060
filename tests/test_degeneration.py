"""Weight functionals, initial forms, and the one-parameter family."""

from fractions import Fraction

import pytest

from okkit.algebra import BiDegree, Polynomial, Ring, evaluate_complex, parse_polynomial
from okkit import degeneration
from okkit.degeneration import (
    FamilyConstructionError,
    FamilyPresentation,
    InconsistentProjectionError,
    NoProjectionError,
    RelationError,
    RelationSet,
    WeightFunctional,
    build_family,
    build_projection,
    initial_form,
    monomial_bidegree,
)
from okkit.okounkov import SagbiDatum, SagbiGenerator

from oracles import fraction_derivative, substitute_tau
from presentations import (
    ALL_DATA,
    elliptic_datum,
    gl3_flag_datum,
    p1_datum,
    p1xp1_datum,
    relation_set_for,
)


def twisted_cubic_datum():
    """1, u, u^2 + u^3: one generator whose value drops under cubing."""
    ring = Ring(("u",))
    one = Polynomial.constant(ring, 1)
    u = Polynomial.variable(ring, "u")
    return SagbiDatum(
        ring,
        (
            SagbiGenerator(1, 1, one, (0,)),
            SagbiGenerator(1, 2, u, (1,)),
            SagbiGenerator(1, 3, u**2 + u**3, (2,)),
        ),
    )


def twisted_cubic_relations():
    datum = twisted_cubic_datum()
    g = parse_polynomial(
        "x1_1^2*x1_3 - x1_1*x1_2^2 - x1_2^3", datum.symbol_ring
    )
    return RelationSet(datum, (g,))


class TestRelationSet:
    def test_catalog_sets_construct(self):
        for name in ALL_DATA:
            rels = relation_set_for(name)
            assert all(not g.is_zero() for g in rels.relations)

    def test_levels(self):
        def levels(name):
            rels = relation_set_for(name)
            return [
                {monomial_bidegree(e, rels.tags).level for e in g.terms}
                for g in rels.relations
            ]

        assert levels("elliptic") == [{3}]
        assert levels("gl3-flag") == [{2}] * 9
        assert levels("p1") == []

    def test_mixed_levels_rejected(self):
        datum = p1xp1_datum()
        g = parse_polynomial("x1_1*x1_4 - x1_2", datum.symbol_ring)
        with pytest.raises(RelationError, match="mixes levels"):
            RelationSet(datum, (g,))

    def test_nonvanishing_rejected(self):
        datum = p1xp1_datum()
        g = parse_polynomial("x1_1*x1_4 - x1_2^2", datum.symbol_ring)
        with pytest.raises(RelationError, match="does not vanish"):
            RelationSet(datum, (g,))

    def test_zero_relation_rejected(self):
        datum = p1_datum()
        with pytest.raises(RelationError, match="zero"):
            RelationSet(datum, (Polynomial.zero(datum.symbol_ring),))

    def test_foreign_ring_rejected(self):
        datum = p1_datum()
        other = Ring(("a", "b"))
        with pytest.raises(RelationError, match="symbol ring"):
            RelationSet(datum, (parse_polynomial("a - b", other),))

    def test_monomial_bidegree_adds(self):
        tags = (BiDegree(1, (0, 2)), BiDegree(2, (3, -1)))
        assert monomial_bidegree((2, 1), tags) == BiDegree(4, (3, 3))


class TestBuildProjection:
    def test_elliptic_functional(self):
        rels = relation_set_for("elliptic")
        p = build_projection(rels)
        assert p.p == (14, -2)
        assert p.variable_weights == (14, 12, 8)

    def test_gl3_functional(self):
        rels = relation_set_for("gl3-flag")
        p = build_projection(rels)
        assert p.p == (128, -32, -8, -2)
        assert p.variable_weights == (128, 126, 96, 120, 94, 118, 88, 112)

    def test_empty_relations_give_canonical_functional(self):
        rels = relation_set_for("p1")
        p = build_projection(rels)
        assert p.p == (2, -2)
        assert p.variable_weights == (2, 0)

    def test_all_monomials_tied_give_smallest_functional(self):
        rels = relation_set_for("p1xp1")
        p = build_projection(rels)
        assert p.p == (2, -2, -2)

    def test_deterministic(self):
        a = build_projection(relation_set_for("gl3-flag"))
        b = build_projection(relation_set_for("gl3-flag"))
        assert a == b

    def test_entries_even(self):
        for name in ALL_DATA:
            p = build_projection(relation_set_for(name))
            assert all(x % 2 == 0 for x in p.p)

    def test_within_relation_gaps_even_and_not_one(self):
        for name in ALL_DATA:
            rels = relation_set_for(name)
            p = build_projection(rels)
            for g in rels.relations:
                weights = sorted({p.weight_of(e) for e in g.terms})
                for a, b in zip(weights, weights[1:]):
                    assert (b - a) % 2 == 0
                    assert b - a != 1

    def test_odd_entries_rejected(self):
        with pytest.raises(NoProjectionError, match="even"):
            WeightFunctional((3, -2), (BiDegree(1, (0,)),))

    def test_length_mismatch_rejected(self):
        with pytest.raises(NoProjectionError, match="length"):
            WeightFunctional((2, -2, -2), (BiDegree(1, (0,)),))

    def test_verify_flags_wrong_sign(self):
        ring = Ring(("y1", "y2"))
        tags = (BiDegree(1, (0,)), BiDegree(1, (1,)))
        g = parse_polynomial("y1^2 - y1*y2", ring)
        with pytest.raises(NoProjectionError, match="reverse"):
            WeightFunctional((4, 2), tags).verify([g])

    def test_verify_flags_no_separation(self):
        ring = Ring(("y1", "y2"))
        tags = (BiDegree(1, (0,)), BiDegree(1, (1,)))
        g = parse_polynomial("y1^2 - y1*y2", ring)
        with pytest.raises(NoProjectionError, match="separate"):
            WeightFunctional((4, 0), tags).verify([g])

    def test_two_degree_example_any_valid_functional(self):
        # degrees (2,(0,)) and (2,(1,)) inside one relation: the built
        # functional must reverse lex, with an even gap of at least two
        ring = Ring(("y1", "y2"))
        tags = (BiDegree(1, (0,)), BiDegree(1, (1,)))
        g = parse_polynomial("y1^2 - y1*y2", ring)
        for p in ((4, -2), (2, -2), (10, -6)):
            WeightFunctional(p, tags).verify([g])


class TestInitialForm:
    def test_elliptic_cuspidal_cubic(self):
        rels = relation_set_for("elliptic")
        p = build_projection(rels)
        init = initial_form(rels.relations[0], p)
        assert init == parse_polynomial(
            "x1_1^2*x1_3 - x1_2^3", rels.datum.symbol_ring
        )

    def test_staircase_two_by_two_determinant(self):
        ring = Ring(("x11", "x12", "x21", "x22"))
        tags = (
            BiDegree(1, (0, 0)),
            BiDegree(1, (1, 0)),
            BiDegree(1, (0, 2)),
            BiDegree(1, (1, 1)),
        )
        g = parse_polynomial("x11*x22 - x12*x21", ring)
        p = WeightFunctional((8, -4, -2), tags)
        p.verify([g])
        assert initial_form(g, p) == parse_polynomial("x11*x22", ring)

    def test_gl3_initial_forms(self):
        rels = relation_set_for("gl3-flag")
        p = build_projection(rels)
        ring = rels.datum.symbol_ring
        expected = {
            2: "x1_1*x1_7 + x1_3*x1_4",
            3: "x1_2*x1_7 + x1_4*x1_5",
            5: "x1_1*x1_8 + x1_4^2",
            6: "x1_2*x1_8 + x1_4*x1_6",
        }
        for k, g in enumerate(rels.relations, start=1):
            init = initial_form(g, p)
            if k in expected:
                assert init == parse_polynomial(expected[k], ring)
            else:
                # the remaining quadrics are tied across both monomials
                assert init == g

    def test_inconsistent_functional_is_loud(self):
        ring = Ring(("y1", "y2"))
        tags = (BiDegree(1, (0,)), BiDegree(1, (1,)))
        g = parse_polynomial("y1^2 - y1*y2", ring)
        with pytest.raises(InconsistentProjectionError):
            initial_form(g, WeightFunctional((4, 2), tags))

    def test_zero_polynomial_rejected(self):
        rels = relation_set_for("elliptic")
        p = build_projection(rels)
        with pytest.raises(ValueError):
            initial_form(Polynomial.zero(rels.datum.symbol_ring), p)


class TestBuildFamily:
    def test_elliptic_family(self):
        rels = relation_set_for("elliptic")
        p = build_projection(rels)
        fam = build_family(rels, p)
        assert fam.weights == (14, 12, 8)
        assert fam.levels == (36,)
        assert fam.family[0] == parse_polynomial(
            "x1_1^2*x1_3 - x1_2^3 - x1_3^3*tau^12", fam.family_ring
        )
        assert fam.initial_forms[0] == parse_polynomial(
            "x1_1^2*x1_3 - x1_2^3", rels.datum.symbol_ring
        )

    def test_gap_four_gives_tau_to_the_fourth(self):
        rels = twisted_cubic_relations()
        p = WeightFunctional((2, -4), rels.tags)
        fam = build_family(rels, p)
        assert fam.family[0] == parse_polynomial(
            "x1_1^2*x1_3 - x1_1*x1_2^2 - x1_2^3*tau^4", fam.family_ring
        )

    def test_tied_relation_is_tau_free(self):
        rels = relation_set_for("p1xp1")
        fam = build_family(rels, build_projection(rels))
        assert fam.family[0] == parse_polynomial(
            "x1_1*x1_4 - x1_2*x1_3", fam.family_ring
        )
        assert fam.initial_forms[0] == rels.relations[0]

    def test_empty_relations(self):
        rels = relation_set_for("p1")
        fam = build_family(rels, build_projection(rels))
        assert fam.family == ()
        assert fam.levels == ()
        assert fam.weights == (2, 0)

    def test_gl3_identities(self):
        rels = relation_set_for("gl3-flag")
        fam = build_family(rels, build_projection(rels))
        ring = rels.datum.symbol_ring
        for k, curve in enumerate(fam.family):
            at_one = substitute_tau(fam, 1)[k]
            at_zero = substitute_tau(fam, 0)[k]
            assert at_one == rels.relations[k]
            assert at_zero == fam.initial_forms[k]
            # tau never appears linearly
            assert all(e[-1] != 1 for e in curve.terms)
            assert at_one.ring == ring

    def test_bad_functional_rejected_up_front(self):
        rels = relation_set_for("elliptic")
        with pytest.raises(NoProjectionError):
            build_family(rels, WeightFunctional((14, 2), rels.tags))

    def test_lift_that_drifts_from_the_relation_is_caught(self, monkeypatch):
        # a family polynomial whose coefficients are not the relation's
        # must fail the tau = 1 specialization
        class Doubled(Polynomial):
            def __init__(self, ring, terms):
                super().__init__(ring, {e: 2 * c for e, c in terms.items()})

        rels = relation_set_for("elliptic")
        p = build_projection(rels)
        monkeypatch.setattr(degeneration, "Polynomial", Doubled)
        with pytest.raises(
            FamilyConstructionError,
            match=r"^relation 1: specializing tau = 1 does not recover it$",
        ):
            build_family(rels, p)

    @pytest.mark.parametrize("mutant", ["initial_form", "weight_of"])
    def test_wrong_initial_form_is_caught(self, monkeypatch, mutant):
        # the tau = 0 fiber must be the initial form: an initial form that
        # keeps every monomial, or tau-exponents all zero, both miss it
        rels = relation_set_for("elliptic")
        p = build_projection(rels)
        if mutant == "initial_form":
            monkeypatch.setattr(degeneration, "initial_form", lambda g, p: g)
        else:
            monkeypatch.setattr(WeightFunctional, "weight_of", lambda self, e: 0)
        with pytest.raises(
            FamilyConstructionError,
            match=r"^relation 1: specializing tau = 0 misses the initial form$",
        ):
            build_family(rels, p)

    @pytest.mark.parametrize("name", sorted(ALL_DATA))
    def test_partials_match_fraction_reference(self, name):
        # the numerator-level derivative stores what the checked
        # constructor would, in the same term order
        rels = relation_set_for(name)
        fam = build_family(rels, build_projection(rels))
        ring = fam.family_ring
        extra = Polynomial(
            ring, {(2, 1) + (0,) * (ring.nvars - 2): Fraction(1, 2), (0,) * ring.nvars: 5}
        )
        for g in fam.family + (extra,):
            for v in range(ring.nvars):
                made = degeneration._differentiate(g, v)
                expected = fraction_derivative(g, v)
                assert made == expected
                assert list(made._num.items()) == list(expected._num.items())
                assert made._den == expected._den

    def test_json_round_trip_shape(self):
        rels = relation_set_for("elliptic")
        fam = build_family(rels, build_projection(rels))
        blob = fam.to_json_dict()
        assert blob["variables"] == ["x1_1", "x1_2", "x1_3"]
        assert blob["weights"] == [14, 12, 8]
        assert blob["levels"] == [36]
        assert blob["relations"] == ["x1_1^2*x1_3 - x1_2^3 - x1_3^3"]
        assert blob["family"] == ["x1_1^2*x1_3 - x1_2^3 - x1_3^3*tau^12"]
        assert blob["initial_forms"] == ["x1_1^2*x1_3 - x1_2^3"]


class TestSpecializeFiber:
    """The family at exact values of tau, by the test-side substitution."""

    def test_exact_endpoints(self):
        for name in ALL_DATA:
            rels = relation_set_for(name)
            fam = build_family(rels, build_projection(rels))
            assert substitute_tau(fam, 1) == list(rels.relations)
            assert substitute_tau(fam, 0) == list(fam.initial_forms)

    def test_exact_interior_point(self):
        rels = twisted_cubic_relations()
        fam = build_family(rels, WeightFunctional((2, -4), rels.tags))
        fiber = substitute_tau(fam, Fraction(1, 2))[0]
        assert fiber.coefficient((0, 3, 0)) == Fraction(-1, 16)
        assert fiber.coefficient((2, 0, 1)) == 1

    def test_evaluate(self):
        rels = relation_set_for("p1xp1")
        fam = build_family(rels, build_projection(rels))
        fiber = substitute_tau(fam, Fraction(1, 2))[0]
        # Segre relation vanishes on rank-one points
        assert evaluate_complex(fiber, (1 + 0j, 2j, 3 + 0j, 6j)) == pytest.approx(0)
