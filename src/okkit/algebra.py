"""Exact arithmetic foundation: rationals, Laurent polynomials, the composite
order on N x Z^n, and two valuation backends with one-dimensional leaves.

Everything here is immutable after construction, so it can be shared
freely.  Values are exact: coefficients enter and leave as Fractions, and
the kernels work on integers in between.  A polynomial is a map from
exponent tuples to integer numerators over one common denominator, and a
truncated series a list of integer numerators over one; arithmetic runs
on the numerators and brings each result to lowest terms with one gcd.
A polynomial's ``terms``, its coefficients as Fractions, is a read-only
view built on first access and cached.  :func:`substitute` is the one
exact evaluator: it puts polynomials or truncated series in place of a
polynomial's variables, and serves series expansion (the explicit
assignments of a series context among it), subduction checks and the
family's specializations alike.  Complex doubles appear only
through :class:`CompiledPolynomial`, the one numeric evaluator, which
:func:`evaluate_complex` wraps with input checks.

Conventions fixed once for the whole package:

* the monomial backend returns the lex-MINIMAL exponent of a nonzero
  polynomial (think "order of vanishing along a flag"),
* the series backend returns the order of vanishing of a polynomial at a
  point, computed on truncated power series with doubling escalation.

Both satisfy v(fg) = v(f) + v(g) and v(f+g) >= min(v(f), v(g)), and both
have one-dimensional leaves: equal values can always be cancelled by
subtracting a scalar multiple.  So a nonzero f has a single leading term,
its value and its leading coefficient; :meth:`SeriesContext.lead` returns
the pair from one expansion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Ring",
    "Polynomial",
    "BiDegree",
    "SeriesContext",
    "AlgebraError",
    "DimensionError",
    "UndefinedValuationError",
    "InconclusiveValuationError",
    "EvaluationError",
    "ParseError",
    "CompiledPolynomial",
    "substitute",
    "compare_composite",
    "monomial_valuation",
    "evaluate_complex",
    "relative_residual",
    "parse_polynomial",
    "format_polynomial",
]


class AlgebraError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class DimensionError(AlgebraError):
    pass


class UndefinedValuationError(AlgebraError):
    """The zero element has no valuation."""


class InconclusiveValuationError(AlgebraError):
    """All computed series coefficients vanished up to the escalation cap.

    Raised instead of silently returning a wrong order.
    """


class EvaluationError(AlgebraError):
    pass


class ParseError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# rings and polynomials


@dataclass(frozen=True)
class Ring:
    """Descriptor of a (Laurent) polynomial ring: named variables, Laurent flag."""

    variables: tuple
    laurent: bool = False

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        for v in self.variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v):
                raise ValueError("bad variable name %r" % (v,))

    @property
    def nvars(self):
        return len(self.variables)

    def index(self, name):
        return self.variables.index(name)


def _as_rational(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("coefficients must be exact rationals, got %r" % type(c))


_set = object.__setattr__


def _power(base, k):
    """base ** k by repeated squaring, or None for k = 0, where the caller
    supplies its own unit."""
    if k < 0:
        raise ValueError("negative power")
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


class Polynomial:
    """Immutable multivariate (Laurent) polynomial with exact rational
    coefficients.

    Stored as integer numerators over one positive common denominator, in
    lowest terms: a map exponent tuple -> nonzero int and a denominator
    that shares no factor with all of them (1 for the zero polynomial), so
    equal polynomials store equal data.  Arithmetic works on the
    numerators and normalizes each result with one gcd.  :attr:`terms`,
    the map exponent tuple -> Fraction, is a read-only view built on first
    access and cached.

    No zero coefficients are stored.  Negative exponents are rejected unless
    the ring's Laurent flag is set.
    """

    __slots__ = ("ring", "_num", "_den", "_terms", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[tuple, Fraction]):
        clean = {}
        n = ring.nvars
        for e, c in terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != n:
                raise DimensionError(
                    "exponent length %d does not match ring with %d variables"
                    % (len(e), n)
                )
            if not ring.laurent and any(x < 0 for x in e):
                raise ValueError("negative exponent in a non-Laurent ring")
            c = _as_rational(c)
            if c != 0:
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so this is already in lowest terms
        den = lcm(*(c.denominator for c in clean.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._fill(ring, num, den, MappingProxyType(clean))

    def _fill(self, ring, num, den, terms):
        _set(self, "ring", ring)
        _set(self, "_num", num)
        _set(self, "_den", den)
        _set(self, "_terms", terms)
        _set(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _make(cls, ring, num, den):
        """The polynomial num / den from a dict of nonzero integer
        numerators keyed by valid exponent tuples of the ring, and den > 0,
        brought to lowest terms.  The results of arithmetic come from here;
        num is kept, not copied."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: a // g for e, a in num.items()}
                den //= g
        f = object.__new__(cls)
        f._fill(ring, num, den, None)
        return f

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only map exponent tuple -> nonzero Fraction coefficient."""
        t = self._terms
        if t is None:
            d = self._den
            t = MappingProxyType({e: Fraction(a, d) for e, a in self._num.items()})
            _set(self, "_terms", t)
        return t

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls._make(ring, {}, 1)

    @classmethod
    def constant(cls, ring, c):
        c = _as_rational(c)
        num = {(0,) * ring.nvars: c.numerator} if c else {}
        return cls._make(ring, num, c.denominator)

    @classmethod
    def variable(cls, ring, name):
        e = [0] * ring.nvars
        e[ring.index(name)] = 1
        return cls._make(ring, {tuple(e): 1}, 1)

    @classmethod
    def monomial(cls, ring, exponents, coeff=1):
        return cls(ring, {tuple(exponents): _as_rational(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self._num

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise DimensionError("polynomials from different rings")

    def _combine(self, other, sign):
        """self + sign * other on numerators over the lcm of the two
        denominators; other's new monomials follow self's, in their order."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        self._check_ring(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            den, t, q = d1, dict(self._num), sign
        else:
            den = lcm(d1, d2)
            p, q = den // d1, sign * (den // d2)
            t = {e: a * p for e, a in self._num.items()}
        for e, b in other._num.items():
            b *= q
            a = t.get(e)
            if a is None:
                t[e] = b
            elif a + b:
                t[e] = a + b
            else:
                del t[e]
        return Polynomial._make(self.ring, t, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(
            self.ring, {e: -a for e, a in self._num.items()}, self._den
        )

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_rational(other)
            if c == 0:
                return Polynomial.zero(self.ring)
            a = c.numerator
            return Polynomial._make(
                self.ring,
                {e: a * v for e, v in self._num.items()},
                c.denominator * self._den,
            )
        self._check_ring(other)
        right = list(other._num.items())
        out = {}
        for e1, a in self._num.items():
            for e2, b in right:
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + a * b
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial._make(self.ring, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k):
        p = _power(self, k)
        return Polynomial.constant(self.ring, 1) if p is None else p

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring == other.ring
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        return "Polynomial(%s)" % format_polynomial(self)

    def coefficient(self, exponents):
        return Fraction(self._num.get(tuple(exponents), 0), self._den)


# ---------------------------------------------------------------------------
# the composite order on N x Z^n


@dataclass(frozen=True, order=False)
class BiDegree:
    """Element (m, u) of N x Z^n.

    Comparisons use the composite order: (m, u) <= (m', u') iff m > m', or
    m = m' and u lexicographically <= u'.  Note the switch: a HIGHER level is
    a SMALLER element.  This is the order under which the extended valuation
    of a sum is at least the minimum of the two values.
    """

    level: int
    value: tuple

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        object.__setattr__(self, "value", tuple(int(x) for x in self.value))

    def __add__(self, other):
        if len(self.value) != len(other.value):
            raise DimensionError("value length mismatch")
        return BiDegree(
            self.level + other.level,
            tuple(a + b for a, b in zip(self.value, other.value)),
        )

    def __lt__(self, other):
        return compare_composite(self, other) < 0

    def __le__(self, other):
        return compare_composite(self, other) <= 0

    def __gt__(self, other):
        return compare_composite(self, other) > 0

    def __ge__(self, other):
        return compare_composite(self, other) >= 0

    def as_tuple(self):
        return (self.level,) + self.value


def compare_composite(a: BiDegree, b: BiDegree) -> int:
    """Compare two bidegrees in the composite order.

    Returns -1, 0 or 1.  Total and translation invariant:
    compare(a, b) == compare(a + c, b + c).
    """
    if len(a.value) != len(b.value):
        raise DimensionError(
            "cannot compare values of lengths %d and %d"
            % (len(a.value), len(b.value))
        )
    if a.level != b.level:
        # higher level is SMALLER
        return -1 if a.level > b.level else 1
    if a.value == b.value:
        return 0
    return -1 if a.value < b.value else 1


# ---------------------------------------------------------------------------
# monomial valuation backend


def monomial_valuation(f: Polynomial) -> tuple:
    """Lex-minimal exponent of a nonzero (Laurent) polynomial.

    This is a valuation with one-dimensional leaves on the polynomial ring:
    v(fg) = v(f) + v(g) because lex is compatible with addition of exponents,
    and v(f+g) >= min since cancellation can only remove the bottom term.
    """
    if f.is_zero():
        raise UndefinedValuationError("the zero polynomial has no valuation")
    return min(f._num)


# ---------------------------------------------------------------------------
# truncated power series and the series valuation backend


class _Series:
    """Dense truncated power series in one parameter, exact coefficients.

    The coefficient of u^i is num[i] / den: a list of trunc integer
    numerators over one positive common denominator, in lowest terms (den
    and the numerators share no factor).  Everything at order >= trunc is
    unknown.  Only what the valuation backend needs: ring operations and
    order-of-vanishing queries.  ``_Series(coeffs, trunc)`` takes exact
    rationals; the operations build their results with :meth:`_make`.
    """

    __slots__ = ("num", "den", "trunc")

    def __init__(self, coeffs: Sequence[Fraction], trunc: int):
        coeffs = [_as_rational(c) for c in list(coeffs)[:trunc]]
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        self.num = num + [0] * (trunc - len(num))
        self.den = den
        self.trunc = trunc

    @classmethod
    def _make(cls, num, den, trunc):
        """The series num / den from trunc integers and den > 0, brought to
        lowest terms."""
        g = gcd(den, *num)
        s = object.__new__(cls)
        s.num = num if g == 1 else [a // g for a in num]
        s.den = den // g
        s.trunc = trunc
        return s

    @classmethod
    def zero(cls, trunc):
        return cls._make([0] * trunc, 1, trunc)

    @classmethod
    def constant(cls, c, trunc):
        return cls([c], trunc)

    @property
    def coeffs(self):
        """The coefficients as Fractions; coeffs[i] belongs to u^i."""
        return [Fraction(a, self.den) for a in self.num]

    def _combine(self, other, sign):
        t = min(self.trunc, other.trunc)
        den = lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return _Series._make(
            [a * p + b * q for a, b in zip(self.num[:t], other.num[:t])], den, t
        )

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_rational(other)
            a = c.numerator
            return _Series._make(
                [a * b for b in self.num], c.denominator * self.den, self.trunc
            )
        t = min(self.trunc, other.trunc)
        out = [0] * t
        right = [(j, b) for j, b in enumerate(other.num[:t]) if b]
        for i, a in enumerate(self.num[:t]):
            if a:
                for j, b in right:
                    if i + j >= t:
                        break
                    out[i + j] += a * b
        return _Series._make(out, self.den * other.den, t)

    def __pow__(self, k):
        p = _power(self, k)
        return _Series.constant(1, self.trunc) if p is None else p

    def order(self):
        """Index of the first nonzero coefficient, or None if all vanish."""
        for i, a in enumerate(self.num):
            if a:
                return i
        return None

    def __eq__(self, other):
        t = min(self.trunc, other.trunc)
        if self.den == other.den:
            return self.num[:t] == other.num[:t]
        p, q = other.den, self.den
        return all(a * p == b * q for a, b in zip(self.num[:t], other.num[:t]))


def substitute(poly: Polynomial, images: Sequence, one, powers=None):
    """poly with images[i] in place of its variable i, exactly.

    The images are Polynomials or truncated series of one ring, whose unit
    is one.  The sum runs over poly's integer numerators and is divided by
    its denominator once.  powers caches images[i] ** k under (i, k), for
    one call unless the caller passes a dict for images it keeps fixed.  A
    negative exponent raises EvaluationError.
    """
    if powers is None:
        powers = {}
    out = None
    for e, a in poly._num.items():
        term = one
        for i, k in enumerate(e):
            if k == 0:
                continue
            if k < 0:
                raise EvaluationError("Laurent exponent under a substitution")
            power = powers.get((i, k))
            if power is None:
                power = powers[i, k] = images[i] ** k
            term = power if term is one else term * power
        if a != 1:
            term = term * a
        out = term if out is None else out + term
    if out is None:
        return one * 0
    return out if poly._den == 1 else out * Fraction(1, poly._den)


class SeriesContext:
    """Local expansion data for the series valuation backend.

    Maps each ambient variable to a truncated power series in the local
    parameter.  The explicit assignments are polynomials in the parameter;
    some variables may instead be defined implicitly as the fixed point of
    ``var = rhs(vars)``, found by iteration, which converges whenever each
    occurrence of the unknown in ``rhs`` carries positive order (the
    substitution is then a contraction in the u-adic metric).

    ``truncation`` is the working order; when :meth:`lead` finds only zero
    coefficients the context escalates by doubling up to ``cap`` and
    recomputes, then gives up loudly.

    Every series comes from :func:`substitute`: the explicit assignments
    with the parameter's series u in place of the parameter, the sweeps
    and :meth:`expand` with the table in place of the ambient variables.
    Only :meth:`expand` keeps powers across calls, since a sweep changes
    its table.
    """

    def __init__(
        self,
        parameter: str,
        assignments: Mapping[str, Polynomial],
        implicit: Mapping[str, Polynomial] | None = None,
        truncation: int = 64,
        cap: int = 256,
    ):
        if truncation > cap:
            raise ValueError("truncation order exceeds the escalation cap")
        if truncation < 2:
            raise ValueError("truncation order too small")
        if any(list(f.ring.variables) != [parameter] for f in assignments.values()):
            raise ValueError(
                "explicit assignments must be polynomials in the parameter"
            )
        self.parameter = parameter
        self.assignments = dict(assignments)
        self.implicit = dict(implicit or {})
        self.truncation = truncation
        self.cap = cap
        self._tables = {}  # truncation order -> {var: _Series}
        self._powers = {}  # (truncation order, ring variables) -> power cache
        self._table(truncation)

    # -- series construction ------------------------------------------------

    def _table(self, trunc):
        """Every variable's series to order trunc, built once and cached.

        Each explicit assignment is the substitution of u = _Series([0, 1])
        for the parameter; each implicit variable starts at zero, and the
        sweeps run at the full order trunc until one changes nothing.  The
        fixed point mod u^trunc is unique when the substitution contracts,
        so the start does not matter.
        """
        if trunc in self._tables:
            return self._tables[trunc]
        one, u = _Series.constant(1, trunc), [_Series([0, 1], trunc)]
        table = {var: substitute(f, u, one) for var, f in self.assignments.items()}
        table.update((var, _Series.zero(trunc)) for var in self.implicit)
        self._sweep(table, trunc)
        self._tables[trunc] = table
        return table

    def _sweep(self, table, trunc):
        """Substitute the table into each implicit right-hand side, in place,
        until nothing changes; at most trunc + 2 sweeps."""
        one = _Series.constant(1, trunc)
        for _ in range(trunc + 2):
            changed = False
            for var, rhs in self.implicit.items():
                new = substitute(rhs, [table[v] for v in rhs.ring.variables], one)
                if not (new == table[var]):
                    table[var] = new
                    changed = True
            if not changed:
                return
        raise InconclusiveValuationError(
            "implicit series for %s did not stabilize at order %d"
            % (sorted(self.implicit), trunc)
        )

    def expand(self, poly: Polynomial, trunc: int | None = None) -> _Series:
        """Expand an ambient polynomial to a truncated series."""
        trunc = trunc or self.truncation
        table, variables = self._table(trunc), poly.ring.variables
        images = [table[v] for v in variables]
        powers = self._powers.setdefault((trunc, variables), {})
        return substitute(poly, images, _Series.constant(1, trunc), powers)

    def lead(self, poly: Polynomial) -> tuple:
        """Leading term (order, coefficient) of a nonzero polynomial.

        One expansion per truncation order tried: the working order, then
        doubling up to the cap.  A coefficient below the truncation order
        does not depend on that order, so the first nonzero one found is
        exact.  Zero raises UndefinedValuationError; a polynomial whose
        coefficients all vanish up to the cap raises
        InconclusiveValuationError rather than an invented value.
        """
        if poly.is_zero():
            raise UndefinedValuationError("the zero function has no valuation")
        trunc = self.truncation
        while True:
            series = self.expand(poly, trunc)
            o = series.order()
            if o is not None:
                return o, Fraction(series.num[o], series.den)
            if trunc >= self.cap:
                raise InconclusiveValuationError(
                    "every coefficient vanished to order %d; raise the cap or"
                    " check for an identically zero representative" % self.cap
                )
            trunc = min(2 * trunc, self.cap)


# ---------------------------------------------------------------------------
# numeric evaluation


class CompiledPolynomial:
    """A polynomial flattened to exponent and coefficient arrays, evaluated
    at complex points.

    Terms are kept in sorted exponent order, so evaluation is
    deterministic.  ``CompiledPolynomial(f)`` holds one polynomial and
    ``coeffs`` has shape (T,); :meth:`stack` folds several polynomials over
    the union of their terms into one exponent array and a (T, k)
    coefficient matrix, zero where a polynomial lacks a term, so one
    product evaluates all k of them.  Points may carry leading batch axes:
    z has shape (..., nvars).  No input checks: :func:`evaluate_complex`
    is the checked entry point.
    """

    __slots__ = ("exps", "coeffs", "magnitudes")

    def __init__(self, poly: Polynomial):
        items = sorted(poly.terms.items())
        self.exps = np.array(
            [e for e, _ in items], dtype=np.int64
        ).reshape(len(items), poly.ring.nvars)
        self.coeffs = np.array([complex(c) for _, c in items], dtype=complex)
        self.magnitudes = np.abs(self.coeffs)

    @classmethod
    def stack(cls, polys: Sequence[Polynomial], nvars: int) -> "CompiledPolynomial":
        """The polynomials of a system over one ring, folded together."""
        exps = sorted({e for f in polys for e in f.terms})
        row = {e: i for i, e in enumerate(exps)}
        out = cls.__new__(cls)
        out.exps = np.array(exps, dtype=np.int64).reshape(len(exps), nvars)
        out.coeffs = np.zeros((len(exps), len(polys)), dtype=complex)
        for k, f in enumerate(polys):
            for e, c in f.terms.items():
                out.coeffs[row[e], k] = complex(c)
        out.magnitudes = np.abs(out.coeffs)
        return out

    def monomials(self, z: np.ndarray) -> np.ndarray:
        """Value of each term's monomial at z, in term order."""
        return (z[..., None, :] ** self.exps).prod(axis=-1)

    def value(self, zvec: np.ndarray) -> complex:
        if not len(self.coeffs):
            return 0.0 + 0.0j
        return complex(self.monomials(zvec) @ self.coeffs)

    def values(self, z: np.ndarray) -> np.ndarray:
        """Every polynomial of a stack at z, shape (..., k).

        One vector-matrix product per point, so a point's values do not
        depend on the batch around it.
        """
        return (self.monomials(z)[..., None, :] @ self.coeffs)[..., 0, :]

    def scales(self, zabs: np.ndarray, split=None):
        """Sum of term magnitudes of each polynomial of a stack at |z|, the
        denominators of relative residuals.

        With split, an index array of terms, also returns the part of each
        sum over those terms, from the same monomials.
        """
        terms = (zabs[..., None, :] ** self.exps).prod(axis=-1)
        total = (terms[..., None, :] @ self.magnitudes)[..., 0, :]
        if split is None:
            return total
        return total, (terms[..., None, split] @ self.magnitudes[split])[..., 0, :]


def relative_residual(
    system: CompiledPolynomial, z: np.ndarray, values=None, scales=None
):
    """Largest |g(z)| / sum |terms of g at z| over a stacked system.

    Relations whose terms all vanish at z (scale below 1e-300) are skipped,
    so no relations, or none that can be measured, give 0; a point with a
    non-finite coordinate gives NaN.  A batch of points (shape (...,
    nvars)) gives an array of residuals.  values and scales, when given,
    are ``system.values(z)`` and ``system.scales(abs(z))`` already computed.
    """
    if values is None:
        values = system.values(z)
    denom = system.scales(np.abs(z)) if scales is None else scales
    measured = denom >= 1e-300
    ratio = np.abs(values) / np.where(measured, denom, 1.0)
    worst = np.where(measured, ratio, 0.0).max(axis=-1, initial=0.0)
    worst = np.where(np.isfinite(z).all(axis=-1), worst, np.nan)
    return float(worst) if worst.ndim == 0 else worst


def evaluate_complex(f: Polynomial, point: Sequence[complex]) -> complex:
    """Evaluate at a complex point, deterministically (sorted term order).

    Laurent exponents require the matching coordinate to be nonzero.
    """
    if len(point) != f.ring.nvars:
        raise EvaluationError(
            "point length %d does not match ring with %d variables"
            % (len(point), f.ring.nvars)
        )
    zvec = np.array([complex(z) for z in point], dtype=complex)
    compiled = CompiledPolynomial(f)
    if np.any((compiled.exps < 0) & (zvec == 0)):
        raise EvaluationError("zero coordinate with negative exponent")
    return compiled.value(zvec)


# ---------------------------------------------------------------------------
# canonical text grammar
#
#   poly   := [-] term (('+' | '-') term)*
#   term   := coeff | coeff '*' factors | factors
#   factors:= factor ('*' factor)*
#   factor := var ('^' int)?
#   coeff  := int ('/' int)?
#
# Canonical printing sorts terms by descending lex exponent and always
# round-trips: parse(format(f)) == f.

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("unexpected input at %r" % text[pos : pos + 10])
            break
        if m.lastgroup == "num":
            out.append(("num", int(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse the canonical grammar, e.g. ``3/2*x^2*y^-1 + 5``."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty polynomial text")
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def parse_int():
        kind, val = peek()
        sign = 1
        if kind == "op" and val == "-":
            take()
            sign = -1
        kind, val = peek()
        if kind != "num":
            raise ParseError("expected an integer")
        take()
        return sign * val

    def parse_term(sign):
        coeff = Fraction(sign)
        exps = [0] * ring.nvars
        saw_factor = False
        expect_factor = True
        while expect_factor:
            kind, val = peek()
            if kind == "num":
                take()
                c = Fraction(val)
                k2, v2 = peek()
                if k2 == "op" and v2 == "/":
                    take()
                    k3, v3 = peek()
                    if k3 != "num":
                        raise ParseError("expected a denominator")
                    take()
                    if v3 == 0:
                        raise ParseError("zero denominator")
                    c /= v3
                coeff *= c
                saw_factor = True
            elif kind == "name":
                take()
                if val not in ring.variables:
                    raise ParseError("unknown variable %r" % val)
                k = 1
                k2, v2 = peek()
                if k2 == "op" and v2 == "^":
                    take()
                    k = parse_int()
                exps[ring.index(val)] += k
                saw_factor = True
            else:
                raise ParseError("expected a coefficient or variable")
            kind, val = peek()
            if kind == "op" and val == "*":
                take()
                expect_factor = True
            else:
                expect_factor = False
        if not saw_factor:
            raise ParseError("empty term")
        return Polynomial.monomial(ring, exps, coeff)

    result = Polynomial.zero(ring)
    sign = 1
    kind, val = peek()
    if kind == "op" and val in "+-":
        take()
        sign = -1 if val == "-" else 1
    while True:
        result = result + parse_term(sign)
        kind, val = peek()
        if kind is None:
            break
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
        else:
            raise ParseError("expected '+' or '-', got %r" % (val,))
    return result


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form; inverse of parse_polynomial on its image."""
    if f.is_zero():
        return "0"
    pieces = []
    for e in sorted(f.terms, reverse=True):
        c = f.terms[e]
        factors = []
        for name, k in zip(f.ring.variables, e):
            if k == 0:
                continue
            factors.append(name if k == 1 else "%s^%d" % (name, k))
        abs_c = abs(c)
        if not factors:
            body = _format_coeff(abs_c)
        elif abs_c == 1:
            body = "*".join(factors)
        else:
            body = _format_coeff(abs_c) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)
