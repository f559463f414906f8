"""Tests for exact fraction-field arithmetic and specializations."""

import contextlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cellalg import exactring
from cellalg.exactring import (
    BMW_VARS,
    BRAUER_VARS,
    CoeffFraction,
    PoleError,
    Specialization,
    _join,
    _poly_sign_norm,
    _split,
    _upoly_divexact,
    _upoly_gcd,
    bmw_frac,
    bmw_z,
    brauer_frac,
    parse_fraction,
    poly_divexact,
    poly_gcd,
    poly_mul,
    ring,
)
from cellalg.specsim import CERTIFICATE_POINT


def test_self_division_is_one():
    x = bmw_frac("q - q^-1")
    assert (x / x).is_one()


def test_loop_parameter_quotient():
    num = bmw_frac("(q+r)(q*r-1)")
    den = bmw_frac("r(q+1)(q-1)")
    assert num / den == bmw_z()


def test_cubic_expansion_in_z():
    # (z-1)(z-1)(z+2), expanded independently by hand: z^3 - 3z + 2
    prod = brauer_frac("(z-1)") * brauer_frac("(z-1)") * brauer_frac("(z+2)")
    assert prod == brauer_frac("z^3 - 3z + 2")


def test_specialize_variable():
    s = Specialization.parse("z=4", BRAUER_VARS)
    assert s.apply(brauer_frac("z")).as_rational() == 4


def test_specialize_polynomial_value():
    s = Specialization.parse("z=4", BRAUER_VARS)
    val = s.apply(brauer_frac("(z-1)^2(z+2)"))
    assert val.as_rational() == 54


def test_symbolic_substitution_into_determinant():
    det = bmw_frac("(r-1)^2(r+1)^2(q^3+r)(q^3*r-1)/(r^3(q-1)^3(q+1)^3)")
    s = Specialization.parse("r=-q^-3", BMW_VARS)
    val = s.apply(det)
    assert val.vars == ("q",)
    assert not val.is_zero()
    # the factor q^3*r - 1 becomes -2 under the substitution
    factor = s.apply(bmw_frac("q^3*r-1"))
    assert factor == parse_fraction("-2", ("q",))


def test_pole_detection():
    s = Specialization.parse("z=1", BRAUER_VARS)
    with pytest.raises(PoleError):
        s.apply(brauer_frac("z/(z-1)"))


def test_unit_check_bmw_specialization():
    for text, label in (("q=1,r=2", "q-q^-1"), ("q=-1,r=2", "q-q^-1"),
                        ("q=0,r=2", "q"), ("q=2,r=0", "r"), ("q=1", "q-q^-1"),
                        ("q=-1", "q-q^-1"), ("q=0", "q"), ("r=0", "r"),
                        ("r=q-q", "r")):
        with pytest.raises(ValueError) as refused:
            Specialization.parse(text, BMW_VARS)
        assert str(refused.value) == \
            "specialization does not invert " + label
    Specialization.parse("q=2,r=3", BMW_VARS)  # fine
    Specialization.parse("q=-1/2,r=1", BMW_VARS)


def _random_fraction(rng, vars):
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, 2) for _ in vars)
            terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
        terms = {e: c for e, c in terms.items() if c}
        return terms or {tuple(0 for _ in vars): 1}

    num = rand_poly()
    den = rand_poly()
    return CoeffFraction(vars, num, den)


@pytest.mark.parametrize("vars", [BMW_VARS, BRAUER_VARS])
def test_canonical_form_roundtrip(vars):
    rng = random.Random(20260823)
    for _ in range(50):
        a = _random_fraction(rng, vars)
        b = _random_fraction(rng, vars)
        assert a + b - b == a
        assert (a + b).num == (b + a).num and (a + b).den == (b + a).den
        if not b.is_zero():
            assert (a / b) * b == a


def test_specialize_is_homomorphism():
    rng = random.Random(99)
    s = Specialization.parse("q=3,r=1/2", BMW_VARS)
    for _ in range(30):
        a = _random_fraction(rng, BMW_VARS)
        b = _random_fraction(rng, BMW_VARS)
        try:
            sa, sb = s.apply(a), s.apply(b)
            sab = s.apply(a * b)
            s_sum = s.apply(a + b)
        except PoleError:
            continue
        assert sab == sa * sb
        assert s_sum == sa + sb


def test_fraction_string_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_fraction(rng, BMW_VARS)
        assert parse_fraction(str(a), BMW_VARS) == a


def test_string_form_examples():
    assert str(bmw_frac("(q^2-1)/q")) == "(q^2-1)/q"
    assert str(brauer_frac("0")) == "0"
    assert str(bmw_frac("q^-1")) == "1/q"


def test_rational_specialization_values():
    s = Specialization.parse("q=2,r=3", BMW_VARS)
    assert s.apply(bmw_z()).as_rational() == Fraction(25, 9)


# -- properties ----------------------------------------------------------------------

@st.composite
def fractions_over(draw, vars, degree=4):
    """Random reduced fractions with small integer polynomials, times a
    Laurent monomial."""
    exps = st.tuples(*[st.integers(0, degree)] * len(vars))
    coeffs = st.integers(-30, 30).filter(bool)
    num = draw(st.dictionaries(exps, coeffs, max_size=4))
    den = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
    shift = draw(st.tuples(*[st.integers(-degree, degree)] * len(vars)))
    return (CoeffFraction(vars, num, den)
            * CoeffFraction.monomial(vars, **dict(zip(vars, shift))))


@pytest.mark.parametrize("vars", [BMW_VARS, BRAUER_VARS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_printed_fraction_parses_back(vars, data):
    # the disk cache stores matrices as printed strings
    x = data.draw(fractions_over(vars))
    assert parse_fraction(str(x), vars) == x


@settings(max_examples=60, deadline=None)
@given(x=fractions_over(BMW_VARS, degree=1), e=st.integers(-5, 5))
def test_power_matches_repeated_product(x, e):
    assume(e >= 0 or not x.is_zero())
    base = x if e >= 0 else x.inverse()
    expected = CoeffFraction.const(1, BMW_VARS)
    for _ in range(abs(e)):
        expected = expected * base
    assert x ** e == expected


def test_oversize_power_is_rejected():
    for text, vars in (("q^99999999", BMW_VARS),
                       ("((2^999)^999)^999", BRAUER_VARS),
                       ("(q^9+r)^-99", BMW_VARS)):
        with pytest.raises(ValueError, match="power too large"):
            parse_fraction(text, vars)
    assert parse_fraction("q^170", BMW_VARS) == \
        CoeffFraction.monomial(BMW_VARS, q=170)
    with pytest.raises(ValueError, match="power too large"):
        parse_fraction("q^171", BMW_VARS)


@pytest.mark.parametrize("vars", [BMW_VARS, BRAUER_VARS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_form_is_unique(vars, data):
    x = data.draw(fractions_over(vars, degree=3))
    y = data.draw(fractions_over(vars, degree=3))
    values = [(x + y) - y]
    if not y.is_zero():
        values.append((x * y) / y)
    for value in values:
        assert (value.num, value.den) == (x.num, x.den)


# -- field axioms --------------------------------------------------------------------
# Each value is compared by its canonical (num, den) pair as well as by ==,
# so two reduced forms of one value would fail.

FIELD_VARS = [BMW_VARS, BRAUER_VARS, ()]


def _same(x, y):
    return (x.num, x.den) == (y.num, y.den) and x == y


def _three(data, vars):
    return [data.draw(fractions_over(vars, degree=2)) for _ in range(3)]


@pytest.mark.parametrize("vars", FIELD_VARS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_addition_and_multiplication_are_associative_and_commutative(
        vars, data):
    a, b, c = _three(data, vars)
    assert _same((a + b) + c, a + (b + c))
    assert _same(a + b, b + a)
    assert _same((a * b) * c, a * (b * c))
    assert _same(a * b, b * a)


@pytest.mark.parametrize("vars", FIELD_VARS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_multiplication_distributes_over_addition(vars, data):
    a, b, c = _three(data, vars)
    assert _same(a * (b + c), a * b + a * c)
    assert _same((a + b) * c, a * c + b * c)


@pytest.mark.parametrize("vars", FIELD_VARS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_and_subtraction(vars, data):
    a = data.draw(fractions_over(vars, degree=3))
    b = data.draw(fractions_over(vars, degree=3))
    assert _same((a - b) + b, a)
    if not a.is_zero():
        assert _same(a * a.inverse(), CoeffFraction.const(1, vars))


@pytest.mark.parametrize("vars", FIELD_VARS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_inverse_matches_reducing_constructor(vars, data):
    # the swap with a sign fix gives the form the reducing constructor gives
    x = data.draw(fractions_over(vars, degree=3))
    assume(not x.is_zero())
    expected = CoeffFraction(x.vars, x.den, x.num)
    got = x.inverse()
    assert (got.vars, got.num, got.den) == \
        (expected.vars, expected.num, expected.den)


@st.composite
def _operands(draw, vars):
    """Zero, one, a polynomial (denominator 1) or a general fraction: the
    operands that take the gcd-free paths of +, - and * and the rest."""
    kind = draw(st.sampled_from(["zero", "one", "polynomial", "fraction"]))
    if kind in ("zero", "one"):
        return CoeffFraction.const(int(kind == "one"), vars)
    x = draw(fractions_over(vars, degree=2))
    return CoeffFraction(vars, x.num, exactring.poly_const(1, len(vars))) \
        if kind == "polynomial" else x


@pytest.mark.parametrize("vars", FIELD_VARS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gcd_free_paths_match_cross_multiplication(vars, data):
    # each result against the textbook formula, reduced by the constructor
    a, b = data.draw(_operands(vars)), data.draw(_operands(vars))
    left, right = poly_mul(a.num, b.den), poly_mul(b.num, a.den)
    den = poly_mul(a.den, b.den)
    for value, num in ((a + b, exactring.poly_add(left, right)),
                       (a - b, exactring.poly_sub(left, right)),
                       (a * b, poly_mul(a.num, b.num))):
        assert _same(value, CoeffFraction(vars, num, den))


# -- one-pass substitution against term-by-term evaluation ---------------------------

def _termwise_substitute(x, assignment):
    """The evaluation that CoeffFraction.substitute replaced, kept as an
    oracle: one fraction product and sum (with its gcd) per term."""
    images = [assignment[name] for name in x.vars]
    target = images[0].vars

    def evaluate(p):
        acc = CoeffFraction.const(0, target)
        for exp, c in p.items():
            term = CoeffFraction.const(c, target)
            for img, e in zip(images, exp):
                if e:
                    term = term * img ** e
            acc = acc + term
        return acc

    num, den = evaluate(x.num), evaluate(x.den)
    if den.is_zero():
        raise PoleError("denominator vanishes")
    return num / den


NUMERIC = [Fraction(v) for v in ("-2", "-1", "0", "1", "2", "3", "1/2",
                                 "-1/3")]
BRAUER_IMAGES = ["z", "z+1", "z^2-1", "(z+1)/(z-2)", "3/z"]


@st.composite
def specializations(draw, vars):
    """Numeric and symbolic specializations that Specialization accepts."""
    if vars == BRAUER_VARS:
        if draw(st.booleans()):
            return Specialization(vars, {"z": draw(st.sampled_from(NUMERIC))})
        image = parse_fraction(draw(st.sampled_from(BRAUER_IMAGES)), vars)
        return Specialization(vars, {"z": image}, vars)
    if draw(st.booleans()):
        text = "r={}q^{}".format(draw(st.sampled_from(("", "-"))),
                                 draw(st.integers(-6, 6)))
    else:
        text = "q={},r={}".format(
            draw(st.sampled_from([v for v in NUMERIC if abs(v) != 1 and v])),
            draw(st.sampled_from([v for v in NUMERIC if v])))
    return Specialization.parse(text, vars)


# Specs that specsim.gram_rank_certify composes with a certificate point
# (its coordinates go, in order, to the variables the spec leaves free):
# none, partial and symbolic ones, and r = 1/(q-3), which has a pole at q = 3.
COMPOSED = {
    BMW_VARS: ["", "q=2", "r=13", "r=-q^3", "r=q^-2", "r=1/(q-3)"],
    BRAUER_VARS: [""],
}


@st.composite
def point_specializations(draw, vars):
    """The numeric specializations that gram_rank_certify evaluates at: a
    spec of COMPOSED at CERTIFICATE_POINT."""
    spec = Specialization.parse(draw(st.sampled_from(COMPOSED[vars])), vars)
    at = {v: CoeffFraction.const(c, ())
          for v, c in zip(spec.target_vars, CERTIFICATE_POINT)}
    return Specialization(vars, {name: img.substitute(at)
                                 for name, img in spec.assignment.items()})


@pytest.mark.parametrize("vars", [BMW_VARS, BRAUER_VARS])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_substitute_matches_termwise_evaluation(vars, data):
    x = data.draw(fractions_over(vars, degree=3))
    spec = data.draw(st.one_of(specializations(vars),
                               point_specializations(vars)))
    try:
        expected = _termwise_substitute(x, spec.assignment)
    except PoleError:
        with pytest.raises(PoleError):
            spec.apply(x)
        return
    got = spec.apply(x)
    assert (got.vars, got.num, got.den) == \
        (expected.vars, expected.num, expected.den)


@pytest.mark.parametrize("point", [CERTIFICATE_POINT, (23, 29), (31, 37),
                                   (3, 5), (2, 13)])
@pytest.mark.parametrize("text", COMPOSED[BMW_VARS])
def test_point_composition_matches_termwise_evaluation(text, point):
    # the step of gram_rank_certify: each image goes to a rational point
    spec = Specialization.parse(text, BMW_VARS)
    at = {v: CoeffFraction.const(c, ())
          for v, c in zip(spec.target_vars, point)}
    poles = 0
    for img in spec.assignment.values():
        try:
            expected = _termwise_substitute(img, at)
        except PoleError:
            poles += 1
            with pytest.raises(PoleError):
                img.substitute(at)
            continue
        got = img.substitute(at)
        assert (got.vars, got.num, got.den) == \
            (expected.vars, expected.num, expected.den)
    assert poles == (text == "r=1/(q-3)" and point[0] == 3)


def test_substitute_poles_match_termwise_evaluation():
    x = brauer_frac("(z+2)/(z^2-3z+2)")
    for value, pole in ((1, True), (2, True), (-2, False), (3, False)):
        spec = Specialization(BRAUER_VARS, {"z": value})
        if pole:
            with pytest.raises(PoleError):
                _termwise_substitute(x, spec.assignment)
            with pytest.raises(PoleError):
                spec.apply(x)
        else:
            assert spec.apply(x) == _termwise_substitute(x, spec.assignment)
    # a symbolic image can also make the denominator vanish identically
    spec = Specialization.parse("r=q", BMW_VARS)
    with pytest.raises(PoleError):
        spec.apply(bmw_frac("1/(q-r)"))


# -- single-term images: the term map against the polynomial pass -------------------

@st.composite
def single_term_assignments(draw, vars):
    """Laurent-monomial images c*x^k/d of every source variable, with x the
    first source variable and c among 0, +-1 and others.  (At a rational
    point every image takes the polynomial pass.)"""
    target = vars[:1]
    out = {}
    for name in vars:
        c = draw(st.sampled_from([0, 1, -1, 2, -3, 5, 12]))
        d = draw(st.sampled_from([1, 1, 2, 3, 7]))
        k = draw(st.integers(-4, 4))
        out[name] = (CoeffFraction.const(Fraction(c, d), target)
                     * CoeffFraction.monomial(target, **{target[0]: k}))
    return out


def _both_passes(x, assignment):
    """(term map, polynomial pass) of x under ``assignment``, each reduced
    to canonical (vars, num, den), or None where the denominator
    vanishes."""
    images = [assignment[name] for name in x.vars]
    target = images[0].vars
    R = ring(len(target))
    tops = list(map(max, zip(*x.num, *x.den)))
    out = []
    for method in (CoeffFraction._map_terms, CoeffFraction._map_polys):
        num, den = method(x, images, tops, R)
        value = R.fraction(target, num, den) if den else None
        out.append(None if value is None
                   else (value.vars, value.num, value.den))
    return out


@pytest.mark.parametrize("vars", [BMW_VARS, BRAUER_VARS])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_term_map_matches_polynomial_pass(vars, data):
    x = data.draw(fractions_over(vars, degree=4))
    assignment = data.draw(single_term_assignments(vars))
    terms, polys = _both_passes(x, assignment)
    assert terms == polys
    if terms is None:
        with pytest.raises(PoleError):
            x.substitute(assignment)
    else:
        got = x.substitute(assignment)
        assert (got.vars, got.num, got.den) == terms


POLE_ENTRIES = {
    BMW_VARS: ["1/(q-r)", "1/(q+r)", "1/(q*r-1)", "1/(2q-1)", "r/(q-2)",
               "1/(q^2-r)"],
    BRAUER_VARS: ["1/z", "1/(z-1)", "1/(2z+1)", "1/(z+3)", "z/(z^2-4)"],
}


def _apply_matrix_visits(spec, matrix, general):
    """The distinct entries that ``spec.apply_matrix`` specializes, in
    order, and its result as canonical triples or the PoleError text; with
    ``general``, every entry takes the polynomial pass."""
    seen = []
    apply = Specialization.apply

    def recording(self, x):
        seen.append(x)
        return apply(self, x)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(Specialization, "apply",
                                              recording))
        if general:
            stack.enter_context(mock.patch.object(
                CoeffFraction, "_map_terms", CoeffFraction._map_polys))
        try:
            rows = spec.apply_matrix(matrix)
        except PoleError as exc:
            return seen, str(exc)
    return seen, [[(y.vars, y.num, y.den) for y in row] for row in rows]


@pytest.mark.parametrize("vars", [BMW_VARS, BRAUER_VARS])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_apply_matrix_term_map_matches_polynomial_pass(vars, data):
    assignment = data.draw(single_term_assignments(vars))
    target = next(iter(assignment.values())).vars
    try:
        spec = Specialization(vars, assignment, target)
    except ValueError:  # q, r or q - 1/q not invertible
        assume(False)
    entry = st.one_of(
        fractions_over(vars, degree=2),
        st.sampled_from(POLE_ENTRIES[vars]).map(
            lambda text: parse_fraction(text, vars)))
    ncols = data.draw(st.integers(1, 4))
    matrix = data.draw(st.lists(st.lists(entry, min_size=ncols,
                                         max_size=ncols),
                                min_size=1, max_size=4))
    assert _apply_matrix_visits(spec, matrix, False) == \
        _apply_matrix_visits(spec, matrix, True)


# -- the single-term shortcut in poly_gcd and poly_divexact --------------------------

def polys(nvars, min_size=1, max_size=4):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.integers(-40, 40).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=max_size)


def _prs_gcd(a, b, nvars):
    """The primitive-PRS gcd that poly_gcd runs when both sides have two or
    more terms (for no variables, the gcd of ring(0))."""
    if not nvars:
        return {(): ring(0).gcd(a[()], b[()])}
    g = _upoly_gcd(_split(a, nvars), _split(b, nvars), ring(nvars - 1))
    return _poly_sign_norm(_join(g, nvars))


def _rec_divexact(a, b, nvars):
    """The long division over ring(nvars - 1) that poly_divexact runs for a
    multi-term divisor (for no variables, the division of ring(0))."""
    if not nvars:
        q = ring(0).divexact(a.get((), 0), b.get((), 0))
        return {(): q} if q else {}
    if not a:
        return {}
    return _join(_upoly_divexact(_split(a, nvars), _split(b, nvars),
                                 ring(nvars - 1)), nvars)


@pytest.mark.parametrize("nvars", [0, 1, 2])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_single_term_gcd_matches_prs(nvars, data):
    term = data.draw(polys(nvars, max_size=1))
    other = data.draw(polys(nvars))
    for a, b in ((term, other), (other, term)):
        assert poly_gcd(a, b, nvars) == _prs_gcd(a, b, nvars)


@pytest.mark.parametrize("nvars", [0, 1, 2])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_division_by_a_term_matches_recursive_division(nvars, data):
    a = data.draw(polys(nvars, min_size=0))
    b = data.draw(polys(nvars, max_size=1))
    assert poly_divexact(poly_mul(a, b), b, nvars) == a
    try:
        expected = _rec_divexact(a, b, nvars)
    except ValueError:
        with pytest.raises(ValueError):
            poly_divexact(a, b, nvars)
    else:
        assert poly_divexact(a, b, nvars) == expected


def test_nested_gcds_call_the_current_poly_gcd(monkeypatch):
    # ring(1) is built before poly_gcd is rebound, as when a tracer is
    # installed in a warm process; the bivariate PRS still reaches the new
    # binding for its coefficient gcds over Z[r], and after the undo only
    # the original runs
    a, b = bmw_frac("(q+r)(q*r-1)"), bmw_frac("(q+r)(q*r+2)")
    ring(1)
    seen = []

    def counting(x, y, nvars):
        seen.append(nvars)
        return original(x, y, nvars)

    original = exactring.poly_gcd
    monkeypatch.setattr(exactring, "poly_gcd", counting)
    assert (a / b) == bmw_frac("(q*r-1)/(q*r+2)")
    assert seen[0] == 2 and 1 in seen
    monkeypatch.undo()
    seen.clear()
    a / b
    assert seen == []


def test_inexact_division_by_a_term_raises():
    cases = [({(): 5}, {(): 3}, 0),                      # coefficient
             ({(2,): 6, (1,): 3}, {(1,): 2}, 1),         # one coefficient
             ({(0, 1): 2, (1, 1): 4}, {(1, 0): 2}, 2),   # exponent
             ({(3, 0): -7}, {(0, 1): -7}, 2)]
    for a, b, nvars in cases:
        with pytest.raises(ValueError):
            poly_divexact(a, b, nvars)
        with pytest.raises(ValueError):
            _rec_divexact(a, b, nvars)
