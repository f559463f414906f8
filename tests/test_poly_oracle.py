"""Multi-term gcd and exact division against sympy as an oracle.

sympy is a test-only dependency: without it this module is skipped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellalg.exactring import poly_divexact, poly_gcd, poly_mul

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
