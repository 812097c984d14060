"""Exact-arithmetic layer: composite order, polynomials, valuations, grammar."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okkit.algebra import (
    BiDegree,
    CompiledPolynomial,
    DimensionError,
    EvaluationError,
    InconclusiveValuationError,
    ParseError,
    Polynomial,
    Ring,
    SeriesContext,
    UndefinedValuationError,
    _Series,
    compare_composite,
    evaluate_complex,
    format_polynomial,
    monomial_valuation,
    parse_polynomial,
    relative_residual,
    substitute,
)
from okkit.catalog import load_example

from oracles import (
    FractionSeries,
    fraction_power,
    fraction_product,
    fraction_sum,
    full_length_sweep,
)

XY = Ring(("x", "y"))
XY_LAURENT = Ring(("x", "y"), laurent=True)
U = Ring(("u",))


# ---------------------------------------------------------------------------
# composite order


def test_composite_level_switch():
    # higher level is the SMALLER element
    assert compare_composite(BiDegree(2, (0,)), BiDegree(1, (0,))) == -1


def test_composite_lex_within_level():
    assert compare_composite(BiDegree(1, (0, 1)), BiDegree(1, (0, 2))) == -1


def test_composite_reflexive():
    assert compare_composite(BiDegree(3, (5, -2)), BiDegree(3, (5, -2))) == 0


def test_composite_length_mismatch():
    with pytest.raises(DimensionError):
        compare_composite(BiDegree(1, (0,)), BiDegree(1, (0, 0)))


bidegrees = st.builds(
    BiDegree,
    st.integers(min_value=0, max_value=50),
    st.tuples(*[st.integers(min_value=-50, max_value=50)] * 3),
)


@settings(max_examples=200)
@given(bidegrees, bidegrees, bidegrees)
def test_composite_total_and_translation_invariant(a, b, c):
    cab = compare_composite(a, b)
    assert cab == -compare_composite(b, a)
    assert cab == compare_composite(a + c, b + c)
    if cab == 0:
        assert a.as_tuple() == b.as_tuple()


@settings(max_examples=100)
@given(bidegrees, bidegrees, bidegrees)
def test_composite_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c


# ---------------------------------------------------------------------------
# polynomial arithmetic


def random_polynomial(rng, ring, max_deg=6, max_terms=6, laurent=False):
    terms = {}
    lo = -max_deg if laurent else 0
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(lo, max_deg) for _ in range(ring.nvars))
        num = rng.randint(1, 9) * rng.choice([-1, 1])
        terms[e] = Fraction(num, rng.randint(1, 9))
    return Polynomial(ring, terms)


def test_poly_add_sub_roundtrip_bulk():
    rng = random.Random(7)
    for _ in range(300):
        f = random_polynomial(rng, XY)
        g = random_polynomial(rng, XY)
        assert (f + g) - g == f


def test_poly_no_zero_terms_stored():
    f = Polynomial(XY, {(1, 0): Fraction(1)}) - Polynomial(XY, {(1, 0): Fraction(1)})
    assert f.terms == {}
    assert f.is_zero()


def test_poly_pow_matches_repeated_mul():
    rng = random.Random(3)
    f = random_polynomial(rng, XY, max_deg=3, max_terms=3)
    assert f ** 3 == f * f * f
    assert f ** 0 == Polynomial.constant(XY, 1)
    with pytest.raises(ValueError):
        f ** -1
    with pytest.raises(ValueError):
        _Series([1, 1], 4) ** -1


def test_laurent_guard():
    with pytest.raises(ValueError):
        Polynomial(XY, {(-1, 0): Fraction(1)})
    # fine in a Laurent ring
    Polynomial(XY_LAURENT, {(-1, 0): Fraction(1)})


# ---------------------------------------------------------------------------
# monomial valuation


def test_monomial_valuation_constant():
    assert monomial_valuation(Polynomial.constant(XY, 7)) == (0, 0)


def test_monomial_valuation_min_of_exponents():
    f = parse_polynomial("u^2 + u^5", U)
    assert monomial_valuation(f) == (2,)


def test_monomial_valuation_product_derived():
    # (u + u^2) * u^3 expands to u^4 + u^5; the minimum exponent is 4,
    # matching v(u + u^2) + v(u^3) = 1 + 3
    f = parse_polynomial("u + u^2", U) * parse_polynomial("u^3", U)
    assert monomial_valuation(f) == (4,)


def test_monomial_valuation_zero_error():
    with pytest.raises(UndefinedValuationError):
        monomial_valuation(Polynomial.zero(XY))


def test_monomial_valuation_axioms_bulk():
    # the three axioms plus one-dimensional leaves, on seeded random pairs
    rng = random.Random(11)
    ring = Ring(("x", "y", "z", "w"))
    for _ in range(1000):
        f = random_polynomial(rng, ring, max_deg=6)
        g = random_polynomial(rng, ring, max_deg=6)
        vf, vg = monomial_valuation(f), monomial_valuation(g)
        assert monomial_valuation(f * g) == tuple(
            a + b for a, b in zip(vf, vg)
        )
        if not (f + g).is_zero():
            assert monomial_valuation(f + g) >= min(vf, vg)
        lam = Fraction(rng.randint(1, 9))
        assert monomial_valuation(f * lam) == vf
        if vf == vg:
            # one-dimensional leaves: the ratio of bottom coefficients cancels
            lam = f.terms[vf] / g.terms[vg]
            h = f - g * lam
            assert h.is_zero() or monomial_valuation(h) > vf


# ---------------------------------------------------------------------------
# series valuation


def elliptic_context(truncation=64):
    ring = Ring(("x", "z"))
    u_ring = Ring(("u",))
    return SeriesContext(
        "u",
        {"x": parse_polynomial("u", u_ring)},
        implicit={"z": parse_polynomial("x^3 + z^3", ring)},
        truncation=truncation,
    )


def test_series_uniformizer_has_order_one():
    ctx = elliptic_context()
    x = parse_polynomial("x", Ring(("x", "z")))
    assert ctx.lead(x) == (1, 1)


def test_series_constant_has_order_zero():
    ctx = elliptic_context()
    one = Polynomial.constant(Ring(("x", "z")), 1)
    assert ctx.lead(one) == (0, 1)


def test_series_implicit_branch():
    # z = x^3 + z^3 solved iteratively: z = u^3 w with w = 1 + u^6 w^3,
    # whose coefficients are the Fuss-Catalan numbers C(3k, k) / (2k + 1),
    # so z = u^3 + u^9 + 3u^15 + 12u^21 + ... and nothing else to order 64
    ctx = elliptic_context()
    ring = Ring(("x", "z"))
    z = parse_polynomial("z", ring)
    assert ctx.lead(z) == (3, 1)
    s = ctx.expand(z)
    assert s.trunc == 64
    expected = [0] * 64
    for k in range(11):
        expected[6 * k + 3] = math.comb(3 * k, k) // (2 * k + 1)
    assert expected[3::6][:5] == [1, 1, 3, 12, 55]
    assert expected[63] == 1430715
    assert s.coeffs == expected


def test_series_valuation_multiplicative():
    ctx = elliptic_context()
    ring = Ring(("x", "z"))
    rng = random.Random(5)
    for _ in range(50):
        f = random_polynomial(rng, ring, max_deg=4, max_terms=4)
        g = random_polynomial(rng, ring, max_deg=4, max_terms=4)
        try:
            vf, cf = ctx.lead(f)
            vg, cg = ctx.lead(g)
        except InconclusiveValuationError:
            continue
        assert ctx.lead(f * g) == (vf + vg, cf * cg)


def test_series_lead_escalates_past_first_truncation():
    # at truncation 4 every coefficient of z^2 and 3*z^3 vanishes; their
    # leading terms sit at orders 6 and 9, after one and two doublings
    ctx = elliptic_context(truncation=4)
    ring = Ring(("x", "z"))
    for text, expected in (("z^2", (6, 1)), ("3*z^3", (9, 3))):
        f = parse_polynomial(text, ring)
        assert ctx.expand(f).order() is None
        assert ctx.lead(f) == expected
        full = ctx.expand(f, ctx.cap)
        assert (full.order(), full.coeffs[full.order()]) == expected


def test_series_cached_powers_change_no_expansion():
    # expand keeps the powers of each table per truncation and ring
    # variables; every expansion must equal a substitution with a fresh
    # cache, at the working order and after an escalation to a second table
    ctx = elliptic_context(truncation=8)
    ring = Ring(("x", "z"))
    rng = random.Random(97)
    for _ in range(10):
        f = random_polynomial(rng, ring, max_deg=5)
        for trunc in (8, 16):
            table = ctx._table(trunc)
            images = [table["x"], table["z"]]
            plain = substitute(f, images, _Series.constant(1, trunc))
            assert ctx.expand(f, trunc).coeffs == plain.coeffs
    assert set(ctx._powers) == {(8, ("x", "z")), (16, ("x", "z"))}
    assert all(len(key) == 2 for cache in ctx._powers.values() for key in cache)


def assert_same_tables(table, reference):
    assert sorted(table) == sorted(reference)
    for var, series in reference.items():
        assert (table[var].num, table[var].den, table[var].trunc) == (
            series.num,
            series.den,
            series.trunc,
        )


@pytest.mark.parametrize("name", ["elliptic", "elliptic-quotient-demo"])
def test_catalog_series_match_the_full_length_sweep(name):
    # the implicit sweeps grow their truncation; the table at the working
    # order must be the one full-length sweeps from zero reach
    ctx = load_example(name).datum.series_context
    assert ctx.implicit and set(ctx._tables) == {64}
    assert_same_tables(ctx._tables[64], full_length_sweep(ctx, 64))


def test_growing_sweeps_match_the_full_length_sweep():
    # two implicit variables feeding each other, at truncations that are no
    # power of two, and escalations that start from a held table
    ring = Ring(("x", "z", "w"))
    ctx = SeriesContext(
        "u",
        {"x": parse_polynomial("u + 2/3*u^2", Ring(("u",)))},
        implicit={
            "z": parse_polynomial("x^3 + w^2 + z^2", ring),
            "w": parse_polynomial("x^2 - 1/2*x*z", ring),
        },
        truncation=5,
        cap=100,
    )
    for trunc in (5, 12, 100, 3, 40):
        assert_same_tables(ctx._table(trunc), full_length_sweep(ctx, trunc))


def test_implicit_series_that_never_settles_raises():
    # z = 1 + z has no fixed point: every sweep adds one to the constant
    ring = Ring(("x", "z"))
    with pytest.raises(InconclusiveValuationError, match="did not stabilize"):
        SeriesContext(
            "u",
            {"x": parse_polynomial("u", Ring(("u",)))},
            implicit={"z": parse_polynomial("1 + z", ring)},
        )


def test_substitution_refuses_laurent_exponents():
    # u^-1 cannot be expanded as a power series, nor the inverse of a
    # polynomial image written as a polynomial
    ctx = elliptic_context(truncation=8)
    f = parse_polynomial("x^-1*z + 1", Ring(("x", "z"), laurent=True))
    with pytest.raises(EvaluationError):
        ctx.expand(f)
    with pytest.raises(EvaluationError):
        ctx.lead(f)
    x, y = Polynomial.variable(XY, "x"), Polynomial.variable(XY, "y")
    one = Polynomial.constant(XY, 1)
    g = parse_polynomial("x*y^-2", XY_LAURENT)
    with pytest.raises(EvaluationError):
        substitute(g, [x + y, y], one)


def test_series_inconclusive_is_loud():
    # x^3 + z^3 - z is identically zero on the branch: every coefficient
    # vanishes, and the backend must refuse rather than guess
    ctx = elliptic_context(truncation=16)
    ring = Ring(("x", "z"))
    f = parse_polynomial("x^3 + z^3 - z", ring)
    with pytest.raises(InconclusiveValuationError):
        ctx.lead(f)


def test_series_assignment_refuses_laurent_exponents():
    # u^-1 has no place in a power series in u
    laurent_u = Ring(("u",), laurent=True)
    with pytest.raises(EvaluationError, match="Laurent exponent"):
        SeriesContext("u", {"x": parse_polynomial("u + u^-1", laurent_u)})


def test_series_assignment_in_another_ring_is_refused_at_construction():
    # an explicit assignment must be a polynomial in the parameter alone
    for ring in (Ring(("t",)), Ring(("u", "t"))):
        with pytest.raises(ValueError, match="polynomials in the parameter"):
            SeriesContext("u", {"x": parse_polynomial("t^2", ring)})


def test_series_zero_input_error():
    ctx = elliptic_context()
    with pytest.raises(UndefinedValuationError):
        ctx.lead(Polynomial.zero(Ring(("x", "z"))))


# ---------------------------------------------------------------------------
# integer kernels against the Fraction references

# Denominators past 2^64, alone and in any pair: two of them share no
# factor, so a common denominator is their product.
BIG_DENOMINATORS = (2**61 - 1, 2**31 - 1, 10**18 + 9, 3**40)

coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(max_denominator=12).filter(lambda c: abs(c) < 50),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**20), max_value=10**20),
        st.sampled_from(BIG_DENOMINATORS),
    ),
)
# mostly zeros, as the series of a branch are
series_coefficients = st.one_of(st.just(Fraction(0)), coefficients)


def _same_series(s, ref):
    assert s.trunc == ref.trunc
    assert s.coeffs == ref.coeffs
    assert s.order() == ref.order()
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(series_coefficients, max_size=14),
    st.lists(series_coefficients, max_size=14),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=14),
    coefficients,
    st.integers(min_value=0, max_value=4),
)
def test_series_matches_fraction_reference(a, b, ta, tb, c, k):
    s, t = _Series(a, ta), _Series(b, tb)
    ref_s, ref_t = FractionSeries(a, ta), FractionSeries(b, tb)
    _same_series(s, ref_s)
    _same_series(s + t, ref_s + ref_t)
    _same_series(s - t, ref_s - ref_t)
    _same_series(s * t, ref_s * ref_t)
    _same_series(s * c, ref_s.scale(c))
    _same_series(s**k, ref_s**k)
    assert (s == t) == (ref_s == ref_t)
    # sums that cancel: back to s exactly, and to zero over denominator 1
    assert (s + t) - t == s
    zero = s - s
    _same_series(zero, FractionSeries([], ta))
    assert zero.den == 1


def test_series_equality_across_denominators():
    # equal up to the shorter truncation, with different lowest-terms
    # denominators because the longer one carries a 1/3 past it
    third = Fraction(1, 3)
    s = _Series([Fraction(1, 2), 0, third], 3)
    t = _Series([Fraction(1, 2), 0], 2)
    assert s.den == 6 and t.den == 2
    assert s == t and t == s
    assert not (s == _Series([Fraction(1, 2), 1], 2))


@st.composite
def polynomial_pairs(draw):
    """f and g over XY_LAURENT; g reuses some of f's monomials with the
    opposite coefficient, so f + g cancels there."""
    def terms(n):
        return {
            (
                draw(st.integers(min_value=-3, max_value=3)),
                draw(st.integers(min_value=-3, max_value=3)),
            ): draw(coefficients)
            for _ in range(n)
        }

    f = terms(draw(st.integers(min_value=0, max_value=6)))
    g = terms(draw(st.integers(min_value=0, max_value=6)))
    for e, c in f.items():
        if draw(st.booleans()):
            g[e] = -c
    return Polynomial(XY_LAURENT, f), Polynomial(XY_LAURENT, g)


@settings(max_examples=100, deadline=None)
@given(polynomial_pairs(), st.integers(min_value=0, max_value=3))
def test_polynomial_arithmetic_matches_fraction_reference(pair, k):
    f, g = pair
    minus_g = Polynomial(g.ring, {e: -c for e, c in g.terms.items()})
    for got, ref in (
        (f + g, fraction_sum(f, g)),
        (f - g, fraction_sum(f, minus_g)),
        (-g, minus_g),
        (f * g, fraction_product(f, g)),
    ):
        # the same terms, in the same order
        assert list(got.terms.items()) == list(ref.terms.items())
    assert f**k == fraction_power(f, k)
    # arithmetic stores only what the checked constructor would; terms is
    # one cached read-only view, and the hash is that of ring and terms
    for h in (f + g, f - g, -g, f * g, f * Fraction(3, 7), f**k):
        checked = Polynomial(h.ring, h.terms)
        assert h == checked and hash(h) == hash(checked)
        assert hash(h) == hash((h.ring, frozenset(h.terms.items())))
        assert all(type(c) is Fraction and c != 0 for c in h.terms.values())
        assert h.terms is h.terms
        with pytest.raises(TypeError):
            h.terms[(0, 0)] = Fraction(1)


def test_polynomial_product_past_64_bit_denominators():
    p, q = BIG_DENOMINATORS[0], BIG_DENOMINATORS[2]
    assert math.lcm(p, q) > 2**64
    f = Polynomial(XY, {(1, 0): Fraction(1, p), (0, 1): Fraction(1, q)})
    g = Polynomial(XY, {(1, 0): Fraction(1, p), (0, 1): Fraction(-1, q)})
    h = f * g
    assert list(h.terms.items()) == list(fraction_product(f, g).terms.items())
    assert h.terms == {(2, 0): Fraction(1, p * p), (0, 2): Fraction(-1, q * q)}


@st.composite
def substitutions(draw):
    """A polynomial over XY with a constant term, divided by 2..12 so that
    its denominator is rarely 1, and polynomial and series images for x
    and y."""
    terms = {
        (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        ): draw(coefficients)
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    }
    terms[(0, 0)] = draw(coefficients) or Fraction(1)
    f = Polynomial(XY, terms) * Fraction(1, draw(st.integers(2, 12)))
    polys = [
        Polynomial(
            XY_LAURENT,
            {
                (
                    draw(st.integers(min_value=-2, max_value=2)),
                    draw(st.integers(min_value=-2, max_value=2)),
                ): draw(coefficients)
                for _ in range(draw(st.integers(min_value=0, max_value=3)))
            },
        )
        for _ in range(2)
    ]
    trunc = draw(st.integers(min_value=1, max_value=10))
    series = [draw(st.lists(series_coefficients, max_size=trunc)) for _ in range(2)]
    return f, polys, trunc, series


@settings(max_examples=100, deadline=None)
@given(substitutions())
def test_substitute_matches_fraction_reference(case):
    f, polys, trunc, series = case
    # polynomial images, against products and sums term by term
    one = Polynomial.constant(XY_LAURENT, 1)
    ref = Polynomial.zero(XY_LAURENT)
    for e, c in f.terms.items():
        term = one * c
        for image, k in zip(polys, e):
            term = fraction_product(term, fraction_power(image, k))
        ref = fraction_sum(ref, term)
    assert substitute(f, polys, one) == ref
    # series images, against the dense Fraction series
    got = substitute(f, [_Series(s, trunc) for s in series], _Series([1], trunc))
    ref_images = [FractionSeries(s, trunc) for s in series]
    ref = FractionSeries([], trunc)
    for e, c in f.terms.items():
        term = FractionSeries([c], trunc)
        for image, k in zip(ref_images, e):
            term = term * image**k
        ref = ref + term
    _same_series(got, ref)


# ---------------------------------------------------------------------------
# complex evaluation


def test_evaluate_simple():
    f = parse_polynomial("x + y", XY)
    assert evaluate_complex(f, (1, 2j)) == 1 + 2j


def test_evaluate_square():
    f = parse_polynomial("x^2", XY)
    assert evaluate_complex(f, (3, 100)) == 9


def test_evaluate_root_of_cubic():
    f = parse_polynomial("x^3 + 1", Ring(("x",)))
    assert evaluate_complex(f, (-1,)) == 0


def test_evaluate_laurent_zero_guard():
    f = Polynomial(XY_LAURENT, {(-1, 0): Fraction(1)})
    with pytest.raises(EvaluationError):
        evaluate_complex(f, (0, 1))
    assert evaluate_complex(f, (2, 1)) == 0.5


def test_evaluate_length_mismatch():
    with pytest.raises(EvaluationError):
        evaluate_complex(parse_polynomial("x", XY), (1,))


def test_relative_residual_of_a_nan_point_is_nan():
    system = CompiledPolynomial.stack(
        [parse_polynomial("x^2 - y", XY), parse_polynomial("y - 1", XY)], 2
    )
    rows = np.array([[1, 1], [2, 4], [math.nan, 1]], dtype=complex)
    r = relative_residual(system, rows)
    assert r[0] == 0 and r[1] == pytest.approx(3 / 5)
    assert math.isnan(r[2])
    # y - 1 does not involve x: only the point itself shows the NaN
    only_y = CompiledPolynomial.stack([parse_polynomial("y - 1", XY)], 2)
    assert math.isnan(relative_residual(only_y, rows[2]))


# ---------------------------------------------------------------------------
# grammar round-trip


def test_grammar_spec_example():
    f = parse_polynomial("3/2*x^2*y^-1 + 5", XY_LAURENT)
    assert f.coefficient((2, -1)) == Fraction(3, 2)
    assert f.coefficient((0, 0)) == 5
    assert format_polynomial(f) == "3/2*x^2*y^-1 + 5"


def test_grammar_signs_and_constants():
    for text in ["0", "-1", "x - y", "-x + 2", "1/3", "x^2 - 2*x + 1"]:
        f = parse_polynomial(text, XY)
        assert parse_polynomial(format_polynomial(f), XY) == f


def test_grammar_rejects_junk():
    for text in ["", "x +", "3//2", "q", "x^", "1 2"]:
        with pytest.raises(ParseError):
            parse_polynomial(text, XY)


@st.composite
def polynomials(draw):
    n_terms = draw(st.integers(min_value=1, max_value=5))
    terms = {}
    for _ in range(n_terms):
        e = (
            draw(st.integers(min_value=-4, max_value=4)),
            draw(st.integers(min_value=-4, max_value=4)),
        )
        num = draw(st.integers(min_value=-20, max_value=20))
        den = draw(st.integers(min_value=1, max_value=12))
        terms[e] = Fraction(num, den)
    return Polynomial(XY_LAURENT, terms)


@settings(max_examples=200)
@given(polynomials())
def test_grammar_roundtrip_property(f):
    assert parse_polynomial(format_polynomial(f), XY_LAURENT) == f
