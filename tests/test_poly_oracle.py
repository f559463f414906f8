"""Multi-term gcd and exact division, and the rational root and
root-of-unity tests of ``specsim`` built on them, against sympy as an
oracle.

sympy is a test-only dependency: without it this module is skipped.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellalg.exactring import (BRAUER_VARS, CoeffFraction, poly_divexact,
                               poly_gcd, poly_mul)
from cellalg.specsim import _divides_unity_poly, _linear_roots

sympy = pytest.importorskip("sympy")


def multi_term_polys(nvars, max_size=4):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.integers(-12, 12).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=2, max_size=max_size)


def _sympy_gcd(a, b, nvars):
    """sympy's gcd over the integers as an exponent dict: content times
    primitive part, leading coefficient positive under lex order."""
    gens = sympy.symbols(f"x0:{nvars}")
    g = sympy.gcd(sympy.Poly.from_dict(a, *gens),
                  sympy.Poly.from_dict(b, *gens))
    return {exp: int(c) for exp, c in g.as_dict().items()}


@pytest.mark.parametrize("nvars", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multi_term_gcd_matches_sympy(nvars, data):
    # a shared multi-term factor and an integer content make the gcd
    # nontrivial; the sign of the content is drawn too
    g = data.draw(multi_term_polys(nvars, max_size=3))
    scale = {(0,) * nvars: data.draw(st.integers(-6, 6).filter(bool))}
    a = poly_mul(poly_mul(data.draw(multi_term_polys(nvars)), g), scale)
    b = poly_mul(data.draw(multi_term_polys(nvars)), g)
    if len(a) < 2 or len(b) < 2:  # cancellation left a single term
        return
    assert poly_gcd(a, b, nvars) == _sympy_gcd(a, b, nvars)
    assert poly_gcd(b, a, nvars) == _sympy_gcd(a, b, nvars)


@pytest.mark.parametrize("nvars", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_division_by_a_multi_term_divisor_inverts_mul(nvars, data):
    a = data.draw(multi_term_polys(nvars))
    b = data.draw(multi_term_polys(nvars))
    assert poly_divexact(poly_mul(a, b), b, nvars) == a


# (dividend, multi-term divisor, nvars): b does not divide a
INEXACT_CASES = [
    # (q^2 + 1) / (q + 1): the remainder 2 shows only in the constant term
    ({(2,): 1, (0,): 1}, {(1,): 1, (0,): 1}, 1),
    # (q^3 + q) / (q^2 - 1): the remainder 2q shows below the divisor's degree
    ({(3,): 1, (1,): 1}, {(2,): 1, (0,): -1}, 1),
    # (2q^2 + 2qr + r) / (2q + 2r): the leading coefficient divides, and the
    # remainder r is left in degree 0 in q
    ({(2, 0): 2, (1, 1): 2, (0, 1): 1}, {(1, 0): 2, (0, 1): 2}, 2),
    # (2q^2 + 3qr) / (2q + 2): the leading coefficient divides, and the next
    # coefficient 3r - 2 is not divisible by 2
    ({(2, 0): 2, (1, 1): 3}, {(1, 0): 2, (0, 0): 2}, 2),
    # (q r^2 + q) / (q r + q): an inner division over Z[r] leaves a remainder
    ({(1, 2): 1, (1, 0): 1}, {(1, 1): 1, (1, 0): 1}, 2),
]


@pytest.mark.parametrize("a,b,nvars", INEXACT_CASES)
def test_inexact_multi_term_division_raises(a, b, nvars):
    # over the integers b divides a iff the rational quotient is integral
    # and leaves no remainder (Gauss's lemma)
    gens = sympy.symbols(f"x0:{nvars}")
    quo, rem = sympy.div(sympy.Poly.from_dict(a, *gens),
                         sympy.Poly.from_dict(b, *gens), domain="QQ")
    assert not rem.is_zero or not all(c.is_integer for c in quo.coeffs())
    with pytest.raises(ValueError):
        poly_divexact(a, b, nvars)


# -- rational roots and roots of unity ----------------------------------------

def _linear_split_by_sympy(expr, z):
    """The rational roots of a polynomial expression in z with multiplicity,
    sorted, and the degree left after dividing them out, from sympy's
    factorization over Q."""
    poly = sympy.Poly(expr, z)
    roots = []
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            b, a = factor.all_coeffs()
            roots += [Fraction(int(-a.p * b.q), int(a.q * b.p))] * mult
    return sorted(roots), poly.degree() - len(roots)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# a z^2 + b z + c with no real root, so irreducible over Q
quadratics = st.tuples(st.integers(1, 4), st.integers(-4, 4),
                       st.integers(1, 6)).filter(
                           lambda t: t[1] ** 2 < 4 * t[0] * t[2])


@settings(max_examples=80, deadline=None)
@given(roots=st.lists(rationals, max_size=5), zeros=st.integers(0, 2),
       repeated=st.lists(rationals, max_size=1),
       quadratic=st.none() | quadratics,
       scale=st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                          max_denominator=12).filter(bool))
def test_linear_roots_match_sympy(roots, zeros, repeated, quadratic, scale):
    # a product of rational linear factors (zero and repeated roots too)
    # times an optional quadratic with no real root and a rational constant
    z = sympy.Symbol("z")
    zz = CoeffFraction.var("z", BRAUER_VARS)

    def const(c):
        return CoeffFraction.const(Fraction(c), BRAUER_VARS)

    x, expr = const(scale), sympy.Rational(scale.numerator, scale.denominator)
    for r in roots + repeated * 2 + [Fraction(0)] * zeros:
        x = x * (zz - const(r))
        expr *= z - sympy.Rational(r.numerator, r.denominator)
    if quadratic is not None:
        a, b, c = quadratic
        x = x * (const(a) * zz * zz + const(b) * zz + const(c))
        expr *= a * z ** 2 + b * z + c
    assert _linear_roots(x) == _linear_split_by_sympy(expr, z)


def test_linear_roots_with_coefficients_of_other_denominators():
    # (z - 2)(2z - 1)/2 = z^2 - 5/2 z + 1: the middle coefficient has a
    # denominator that the end coefficients lack
    x = CoeffFraction.var("z", BRAUER_VARS)
    one = CoeffFraction.const(1, BRAUER_VARS)
    two = CoeffFraction.const(2, BRAUER_VARS)
    p = (x - two) * (two * x - one) / two
    assert _linear_roots(p) == ([Fraction(1, 2), Fraction(2)], 0)


def test_linear_roots_of_large_constant_terms_stay_fast():
    # trial division up to the square root of p(0) = 3^40 5^40 or 10^20 + 1
    # would not finish; the roots come from p-adic lifting of the
    # squarefree part instead, whose size the multiplicities do not reach
    z = sympy.Symbol("z")
    zz = CoeffFraction.var("z", BRAUER_VARS)

    def const(c):
        return CoeffFraction.const(c, BRAUER_VARS)

    cases = [((zz - const(3)) ** 40 * (zz + const(5)) ** 40
              * (zz * zz + const(1)) ** 3,
              (z - 3) ** 40 * (z + 5) ** 40 * (z ** 2 + 1) ** 3),
             (zz * zz + const(10 ** 20 + 1), z ** 2 + 10 ** 20 + 1)]
    for x, expr in cases:
        start = time.perf_counter()
        split = _linear_roots(x)
        assert time.perf_counter() - start < 1
        assert split == _linear_split_by_sympy(expr, z)


# integer polynomials whose leading coefficients reach 10^14 and beyond:
# linear factors b z - a with large b, times a random integer polynomial
BIG = st.integers(10 ** 14, 10 ** 22)
COEFFS = st.integers(-60, 60) | st.integers(-10 ** 20, 10 ** 20)


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6).filter(bool)
                                  | BIG,
                                  st.integers(1, 40) | BIG),
                        max_size=3),
       rest=st.lists(COEFFS, max_size=4),
       top=st.integers(1, 60) | BIG, sign=st.sampled_from((1, -1)))
def test_linear_roots_of_large_leading_coefficients_match_sympy(
        factors, rest, top, sign):
    z = sympy.Symbol("z")
    zz = CoeffFraction.var("z", BRAUER_VARS)

    def const(c):
        return CoeffFraction.const(c, BRAUER_VARS)

    x = const(sign * top) * zz ** len(rest)
    expr = sign * top * z ** len(rest)
    for k, c in enumerate(rest):
        x = x + const(c) * zz ** k
        expr += c * z ** k
    for a, b in factors:
        x = x * (const(b) * zz - const(a))
        expr *= b * z - a
    assert _linear_roots(x) == _linear_split_by_sympy(expr, z)


def test_linear_roots_need_no_divisors_of_the_leading_coefficient():
    # the root 1/b has b = 10^30, or the Mersenne prime 2^89 - 1: trial
    # division up to the square root of b would run for hours
    zz = CoeffFraction.var("z", BRAUER_VARS)
    for b in (10 ** 30, 2 ** 89 - 1):
        x = (CoeffFraction.const(b, BRAUER_VARS) * zz
             - CoeffFraction.const(1, BRAUER_VARS)) * (
                 zz - CoeffFraction.const(2, BRAUER_VARS))
        assert _linear_roots(x) == ([Fraction(1, b), Fraction(2)], 0)


BOUND = 12


def _unity_order_by_sympy(coeffs):
    x = sympy.Symbol("x")
    p = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
            for i, c in enumerate(coeffs))
    if sympy.degree(p, x) == 0:
        return None
    return next((k for k in range(1, BOUND + 1)
                 if sympy.rem(x ** k - 1, p, x) == 0), None)


@pytest.mark.parametrize("coeffs", [
    [2, 2], [Fraction(1, 2), Fraction(1, 2)], [3, 0, 3], [-1, 1],
    [1, 1, 1], [Fraction(3, 2), 0, 0, Fraction(-3, 2)], [0, 1], [2, 0, 1],
    [5],
])
def test_divides_unity_poly_not_monic_or_not_primitive(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    assert (_divides_unity_poly(coeffs, BOUND)
            == _unity_order_by_sympy(coeffs))


@settings(max_examples=80, deadline=None)
@given(orders=st.lists(st.integers(1, BOUND), min_size=1, max_size=3,
                       unique=True),
       extra=st.lists(st.integers(-3, 3), max_size=3),
       scale=st.fractions(max_denominator=6).filter(bool))
def test_divides_unity_poly_matches_sympy(orders, extra, scale):
    # cyclotomic factors make divisors of x^k - 1 likely; an extra factor
    # and a rational constant make non-divisors and non-monic inputs
    x = sympy.Symbol("x")
    p = sympy.Rational(scale.numerator, scale.denominator) * sympy.Mul(
        *(sympy.cyclotomic_poly(d, x) for d in orders))
    p *= sum(c * x ** i for i, c in enumerate(extra + [1]))
    coeffs = [Fraction(int(c.p), int(c.q))
              for c in reversed(sympy.Poly(p, x).all_coeffs())]
    assert (_divides_unity_poly(coeffs, BOUND)
            == _unity_order_by_sympy(coeffs))
