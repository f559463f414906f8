"""Exact arithmetic in fields of fractions of integer polynomial rings.

All coefficients appearing in the algebra engines are values of
:class:`CoeffFraction`: reduced fractions of integer-coefficient
polynomials in a fixed, named variable tuple (``("q", "r")`` or
``("z",)``).  The representation is canonical -- numerator and
denominator share no polynomial factor and the leading coefficient of
the denominator is positive under lexicographic monomial order -- so
equality of values is equality of representations.

Polynomials have one format, in this module and in every caller (the
rational roots of ``specsim`` too): dicts {exponent tuple: int coefficient}.
When either argument of ``poly_gcd`` is a single term (a constant or c*x^e)
the gcd is read off the coefficients and the lowest exponents, and
``poly_divexact`` divides by a single-term divisor term by term; most
reductions are of this kind.  Two multi-term polynomials go to a primitive
polynomial remainder sequence (PRS; Brown, J. ACM 18, 1971) and a long
division, each written once for polynomials in the first variable with
coefficients in ``ring(nvars - 1)``, so coefficient gcds and divisions
recurse through the same ``poly_gcd``/``poly_divexact`` down to ints.

Specializations substitute variables either by rationals or by
symbolic expressions in the remaining variables (for example
``r -> -q^-3``); symbolic substitutions are applied before any numeric
evaluation.  A substitution is one pass over numerator and denominator,
scaled by the image denominators, with one reduction at the end; when every
image is one term over one term, the pass maps each term by int coefficient
powers and a shift of its exponent, with no polynomial products.

``ring(nvars)`` names the operations of that pass and of the Bareiss kernel
in :mod:`cellalg.linalg`: polynomial dicts in general, and plain ints when
no variable is left.  So values at a rational point run on Python ints
(``*``, ``-``, exact ``//`` and one ``math.gcd``) through the same code.

``Combination`` is the one linear structure of the elements of ``hecke``,
``brauer`` and ``bmw``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd as int_gcd
from typing import Callable, NamedTuple


# ---------------------------------------------------------------------------
# Raw polynomial arithmetic on dicts {exponent-tuple: int-coefficient}.
# ---------------------------------------------------------------------------

def poly_const(c: int, nvars: int) -> dict:
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def poly_var(index: int, nvars: int) -> dict:
    exp = [0] * nvars
    exp[index] = 1
    return {tuple(exp): 1}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def poly_neg(a: dict) -> dict:
    return {exp: -c for exp, c in a.items()}


def poly_sub(a: dict, b: dict) -> dict:
    return poly_add(a, poly_neg(b))


def poly_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(exp, 0) + ca * cb
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
    return out


def poly_lead(a: dict) -> tuple:
    """Lexicographically largest exponent tuple (the leading monomial)."""
    return max(a)


def poly_lead_coeff(a: dict) -> int:
    return a[poly_lead(a)]


# -- multi-term gcd and exact division --------------------------------------
#
# A polynomial in nvars variables is read as a univariate polynomial in the
# first variable whose coefficients lie in ring(nvars - 1): polynomial dicts
# in one fewer variable, or ints at the bottom.  Coefficient gcds and
# divisions recurse through that ring.

def _split(a: dict, nvars: int) -> list:
    """Coefficients of a nonzero a in its first variable, lowest degree
    first, as elements of ring(nvars - 1)."""
    if nvars == 1:
        out = [0] * (max(a)[0] + 1)
        for (d,), c in a.items():
            out[d] = c
        return out
    out = [{} for _ in range(max(a)[0] + 1)]
    for exp, c in a.items():
        out[exp[0]][exp[1:]] = c
    return out


def _join(coeffs: list, nvars: int) -> dict:
    """Inverse of _split."""
    if nvars == 1:
        return {(d,): c for d, c in enumerate(coeffs) if c}
    return {(d,) + exp: c for d, p in enumerate(coeffs) for exp, c in p.items()}


def _primitive(a: list, R: Ring) -> tuple:
    """Content (gcd of the coefficients, up to a unit) and primitive part of
    a nonzero a."""
    one = R.const(1)
    g = None
    for c in a:
        if c:
            g = c if g is None else R.gcd(g, c)
            if g == one:
                return g, a
    return g, [R.divexact(c, g) for c in a]


def _upoly_prem(a: list, b: list, R: Ring) -> list:
    """Pseudo-remainder of a by b: lc(b)^k * a reduced below the degree of
    b, trailing zeros trimmed."""
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        lr = a[-1]
        d = len(a) - 1 - db
        a = [R.mul(lb, c) for c in a[:-1]]
        for i, c in enumerate(b[:-1]):
            if c:
                a[d + i] = R.sub(a[d + i], R.mul(lr, c))
        while a and not a[-1]:
            a.pop()
    return a


def _upoly_gcd(a: list, b: list, R: Ring) -> list:
    """gcd, up to a unit, of nonzero a and b in R[x] by the primitive
    polynomial remainder sequence."""
    ca, a = _primitive(a, R)
    cb, b = _primitive(b, R)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:  # a primitive constant b is a unit
        r = _upoly_prem(a, b, R)
        if not r:
            break
        a, b = b, _primitive(r, R)[1]
    g = R.gcd(ca, cb)
    return [R.mul(g, c) for c in b]


def _upoly_divexact(a: list, b: list, R: Ring) -> list:
    """a / b in R[x] by long division; raises ValueError on a remainder."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    quo = [R.const(0)] * (len(a) - db)
    for d in range(len(quo) - 1, -1, -1):
        c = a[d + db]
        if c:
            c = quo[d] = R.divexact(c, lb)
            for i, bc in enumerate(b[:-1]):
                if bc:
                    a[d + i] = R.sub(a[d + i], R.mul(c, bc))
    if any(a[:db]):
        raise ValueError("inexact polynomial division")
    return quo


def poly_gcd(a: dict, b: dict, nvars: int) -> dict:
    if not a:
        return _poly_sign_norm(b)
    if not b:
        return _poly_sign_norm(a)
    if len(a) == 1 or len(b) == 1:
        # a single term is divisible only by terms: the gcd is the gcd of
        # all coefficients times the lowest power of each variable
        exp = tuple(map(min, zip(*a, *b)))
        return {exp: int_gcd(*a.values(), *b.values())}
    g = _upoly_gcd(_split(a, nvars), _split(b, nvars), ring(nvars - 1))
    return _poly_sign_norm(_join(g, nvars))


def poly_divexact(a: dict, b: dict, nvars: int) -> dict:
    if not a:
        return {}
    if len(b) == 1:
        (eb, cb), = b.items()
        out = {}
        for ea, ca in a.items():
            exp = tuple(x - y for x, y in zip(ea, eb))
            if ca % cb or min(exp, default=0) < 0:
                raise ValueError("inexact division by a term")
            out[exp] = ca // cb
        return out
    q = _upoly_divexact(_split(a, nvars), _split(b, nvars), ring(nvars - 1))
    return _join(q, nvars)


@lru_cache(maxsize=None)
def _unit_poly(nvars: int) -> dict:
    """The constant polynomial 1, shared: compare with it, never change it."""
    return poly_const(1, nvars)


def _poly_sign_norm(a: dict) -> dict:
    if a and poly_lead_coeff(a) < 0:
        return poly_neg(a)
    return a


# ---------------------------------------------------------------------------
# The ring of numerators and denominators, by variable count
# ---------------------------------------------------------------------------

class Ring(NamedTuple):
    """Operations on the numerators and denominators of CoeffFraction in a
    given number of variables.  Zero is falsy in every ring."""

    const: Callable     # int -> element
    add: Callable
    mul: Callable
    sub: Callable
    divexact: Callable  # raises ValueError on a remainder
    gcd: Callable       # positive on a nonzero argument
    total: Callable     # sum of a list of elements
    elem: Callable      # polynomial dict -> element
    fraction: Callable  # (vars, num, den) -> reduced CoeffFraction


def _int_divexact(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ValueError("inexact integer division")
    return q


def _int_fraction(vars: tuple, num: int, den: int) -> "CoeffFraction":
    """The canonical constant num/den: one gcd, positive denominator."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = int_gcd(num, den)
    if den < 0:
        g = -g
    return CoeffFraction(vars, {(): num // g} if num else {}, {(): den // g},
                         _reduced=True)


def _poly_total(polys: list) -> dict:
    acc: dict = {}
    for p in polys:
        for k, v in p.items():
            acc[k] = acc.get(k, 0) + v
    return {k: v for k, v in acc.items() if v}


@lru_cache(maxsize=None)
def ring(nvars: int) -> Ring:
    """Polynomial dicts in ``nvars`` variables, or Python ints when there
    are none (the value at a rational point)."""
    if not nvars:
        return Ring(int, operator.add, operator.mul, operator.sub,
                    _int_divexact, int_gcd, sum, lambda p: p.get((), 0),
                    _int_fraction)
    # poly_gcd is looked up at each call, as at every other call site, so
    # rebinding exactring.poly_gcd (cellbench's tracer) reaches the nested
    # coefficient gcds too, and undoing it leaves none behind in this cache
    return Ring(partial(poly_const, nvars=nvars), poly_add, poly_mul,
                poly_sub, partial(poly_divexact, nvars=nvars),
                lambda a, b: poly_gcd(a, b, nvars), _poly_total, lambda p: p,
                CoeffFraction)


# ---------------------------------------------------------------------------
# CoeffFraction
# ---------------------------------------------------------------------------

class PoleError(ArithmeticError):
    """A denominator vanished under a specialization."""


class CoeffFraction:
    """Reduced fraction of integer polynomials in a fixed variable tuple."""

    __slots__ = ("vars", "num", "den", "_hash")

    def __init__(self, vars: tuple, num: dict, den: dict, *, _reduced: bool = False):
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.vars = tuple(vars)
        if not _reduced:
            num, den = self._reduce(num, den, len(self.vars))
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def _reduce(num: dict, den: dict, nvars: int):
        if not num:
            return {}, poly_const(1, nvars)
        g = poly_gcd(num, den, nvars)
        if g != poly_const(1, nvars):
            num = poly_divexact(num, g, nvars)
            den = poly_divexact(den, g, nvars)
        if poly_lead_coeff(den) < 0:
            num, den = poly_neg(num), poly_neg(den)
        return num, den

    # -- constructors -----------------------------------------------------
    @classmethod
    def const(cls, c, vars: tuple) -> "CoeffFraction":
        if isinstance(c, Fraction):
            return cls(vars, poly_const(c.numerator, len(vars)),
                       poly_const(c.denominator, len(vars)))
        return cls(vars, poly_const(int(c), len(vars)),
                   poly_const(1, len(vars)), _reduced=True)

    @classmethod
    def var(cls, name: str, vars: tuple) -> "CoeffFraction":
        i = vars.index(name)
        return cls(vars, poly_var(i, len(vars)), poly_const(1, len(vars)),
                   _reduced=True)

    @classmethod
    def monomial(cls, vars: tuple, **powers) -> "CoeffFraction":
        """Laurent monomial, e.g. monomial(("q","r"), q=2, r=-1) == q^2/r."""
        nv = len(vars)
        num = [0] * nv
        den = [0] * nv
        for name, e in powers.items():
            i = vars.index(name)
            if e >= 0:
                num[i] = e
            else:
                den[i] = -e
        return cls(vars, {tuple(num): 1}, {tuple(den): 1}, _reduced=True)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den == _unit_poly(len(self.vars))

    def is_constant(self) -> bool:
        nv = len(self.vars)
        zero = (0,) * nv
        return (all(e == zero for e in self.num) and
                all(e == zero for e in self.den))

    def as_rational(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        nv = len(self.vars)
        zero = (0,) * nv
        return Fraction(self.num.get(zero, 0), self.den.get(zero, 0))

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "CoeffFraction"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    # A zero operand, a factor 1, and two polynomials (denominator 1) need no
    # gcd: the result is already canonical.

    def __add__(self, other: "CoeffFraction") -> "CoeffFraction":
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den == _unit_poly(len(self.vars)):
            return CoeffFraction(self.vars, poly_add(self.num, other.num),
                                 self.den, _reduced=True)
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return CoeffFraction(self.vars, num, poly_mul(self.den, other.den))

    def __sub__(self, other: "CoeffFraction") -> "CoeffFraction":
        return self + (-other)

    def __neg__(self) -> "CoeffFraction":
        return CoeffFraction(self.vars, poly_neg(self.num), self.den, _reduced=True)

    def __mul__(self, other: "CoeffFraction") -> "CoeffFraction":
        self._check(other)
        if not self.num or other.is_one():
            return self
        if not other.num or self.is_one():
            return other
        if self.den == other.den == _unit_poly(len(self.vars)):
            return CoeffFraction(self.vars, poly_mul(self.num, other.num),
                                 self.den, _reduced=True)
        return CoeffFraction(self.vars, poly_mul(self.num, other.num),
                             poly_mul(self.den, other.den))

    def __truediv__(self, other: "CoeffFraction") -> "CoeffFraction":
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return CoeffFraction(self.vars, poly_mul(self.num, other.den),
                             poly_mul(self.den, other.num))

    def inverse(self) -> "CoeffFraction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return CoeffFraction(self.vars, self.den, self.num)

    def __pow__(self, e: int) -> "CoeffFraction":
        """Power by repeated squaring."""
        base = self.inverse() if e < 0 else self
        e = abs(e)
        out = None
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return CoeffFraction.const(1, self.vars) if out is None else out

    def size(self) -> int:
        """Total degree plus coefficient bit length, summed over numerator
        and denominator: a measure of how fast powers of self grow."""
        return sum(max(sum(e) for e in p) + max(abs(c).bit_length()
                                                 for c in p.values())
                   for p in (self.num, self.den) if p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffFraction):
            return NotImplemented
        return (self.vars == other.vars and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars,
                               frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    # -- substitution / evaluation ------------------------------------------
    def substitute(self, assignment: dict) -> "CoeffFraction":
        """Evaluate with each variable mapped to a CoeffFraction (all images
        must share one variable tuple).  Raises PoleError if the denominator
        vanishes.

        With image n_i/d_i and D_i the degree of variable i in num and den,
        both are multiplied by prod d_i^D_i, so each term c*x^e becomes
        c * prod n_i^e_i * d_i^(D_i - e_i); one reduction at the end gives
        the canonical form.  When every image is one term over one term (a
        rational, or a Laurent monomial such as -q^-3), that is an int
        coefficient and a shifted exponent (``_map_terms``); otherwise the
        pass multiplies in ``ring`` of the target variable count
        (``_map_polys``), on ints at a rational point.
        """
        images = []
        target_vars = None
        for name in self.vars:
            img = assignment[name]
            if not isinstance(img, CoeffFraction):
                raise TypeError("assignment values must be CoeffFraction")
            if target_vars is None:
                target_vars = img.vars
            elif img.vars != target_vars:
                raise ValueError("inconsistent target variable tuples")
            images.append(img)
        if target_vars is None:
            target_vars = ()
        R = ring(len(target_vars))
        tops = list(map(max, zip(*self.num, *self.den)))
        if all(len(img.num) <= 1 and len(img.den) == 1 for img in images):
            num, den = self._map_terms(images, tops, R)
        else:
            num, den = self._map_polys(images, tops, R)
        if not den:
            raise PoleError(f"denominator vanishes under {assignment}")
        return R.fraction(target_vars, num, den)

    def _map_terms(self, images, tops, R):
        """Numerator and denominator in ``R`` under images c_i x^a_i /
        (d_i x^b_i): the term c*x^e goes to c * prod c_i^e_i d_i^(D_i - e_i)
        times x to the power sum e_i (a_i - b_i), and both sides are then
        divided by the highest power of each variable that divides them.
        At a rational point (no target variable) both are plain int sums."""
        nt = len(images[0].vars) if images else 0
        zero = (0,) * nt
        maps = []  # per variable: c_i, d_i, D_i and a_i - b_i
        for img, top in zip(images, tops):
            (a, c), = img.num.items() or ((zero, 0),)
            (b, d), = img.den.items()
            maps.append((c, d, top, tuple(map(operator.sub, a, b))))
        if not nt:  # a rational point: two sums of ints
            sums = []
            for p in (self.num, self.den):
                total = 0
                for exp, k in p.items():
                    for (c, d, top, _), e in zip(maps, exp):
                        k *= c ** e * d ** (top - e)
                    total += k
                sums.append(total)
            return sums
        sides = []
        for p in (self.num, self.den):
            out: dict = {}
            for exp, k in p.items():
                key = zero
                for (c, d, top, shift), e in zip(maps, exp):
                    k *= c ** e * d ** (top - e)
                    if e:
                        key = tuple(x + e * y for x, y in zip(key, shift))
                out[key] = out.get(key, 0) + k
            sides.append({key: k for key, k in out.items() if k})
        low = tuple(map(min, zip(*sides[0], *sides[1])))
        if any(low):
            sides = [{tuple(map(operator.sub, key, low)): k
                      for key, k in side.items()} for side in sides]
        return R.elem(sides[0]), R.elem(sides[1])

    def _map_polys(self, images, tops, R):
        """Numerator and denominator in ``R`` under any images n_i/d_i."""
        const, mul, elem = R.const, R.mul, R.elem
        one = const(1)
        tables = []  # per variable: powers of n_i and of d_i, and D_i
        for img, top in zip(images, tops):
            nums, dens = [one], [one]
            if top:
                n_i, d_i = elem(img.num), elem(img.den)
                for _ in range(top):
                    nums.append(mul(nums[-1], n_i))
                    dens.append(mul(dens[-1], d_i))
            tables.append((nums, dens, top))
        num, den = [], []  # the terms of each, then their sums
        for p, out in ((self.num, num), (self.den, den)):
            for exp, c in p.items():
                term = const(c)
                for (nums, dens, top), e in zip(tables, exp):
                    if e:
                        term = mul(term, nums[e])
                    if e != top:
                        term = mul(term, dens[top - e])
                out.append(term)
        return R.total(num), R.total(den)

    # -- formatting -----------------------------------------------------------
    def __repr__(self):
        return f"CoeffFraction({self})"

    def __str__(self):
        num_s = poly_str(self.num, self.vars)
        nv = len(self.vars)
        if self.den == poly_const(1, nv):
            return num_s
        den_s = poly_str(self.den, self.vars)
        if len(self.num) > 1 or any(c < 0 for c in self.num.values()):
            num_s = f"({num_s})"
        # parenthesize the denominator unless it is a bare atom such as
        # "q", "q^2" or "3"; "/" must bind to the whole denominator
        if not (den_s.isdigit() or _is_atom_power(den_s)):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"


class Combination:
    """Finitely supported map basis key -> nonzero CoeffFraction over the
    class attribute ``VARS``, at a fixed rank ``n``: the linear structure of
    the algebra elements, whose subclasses add constructors and ``__mul__``.
    An operand of another class or another ``n`` raises ValueError."""

    __slots__ = ("n", "terms")
    VARS: tuple = ()

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls, n: int):
        return cls(n, {})

    def _check(self, other):
        if type(other) is not type(self):
            raise ValueError(f"cannot combine {type(self).__name__} "
                             f"with {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return type(self)(self.n, terms)

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __neg__(self):
        return type(self)(self.n, {k: -c for k, c in self.terms.items()})

    def scale(self, c: CoeffFraction):
        return type(self)(self.n, {k: x * c for k, x in self.terms.items()})

    def coeff(self, key) -> CoeffFraction:
        return self.terms.get(key) or CoeffFraction.const(0, self.VARS)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))


def _is_atom_power(s: str) -> bool:
    head, _, tail = s.partition("^")
    return head.isalpha() and (tail == "" or tail.isdigit())


def poly_str(p: dict, vars: tuple) -> str:
    """Canonical human-readable polynomial string, lex-descending terms."""
    if not p:
        return "0"
    parts = []
    for exp in sorted(p, reverse=True):
        c = p[exp]
        factors = []
        for name, e in zip(vars, exp):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


# ---------------------------------------------------------------------------
# Expression parsing (canonical fraction strings, --spec values, tests)
# ---------------------------------------------------------------------------

# Bound on |e| * base.size() for a power in parsed text (a variable has
# size 3, so q^170 is the largest power of q).  Printed generator matrices
# and the specializations in use stay far below it; the bound keeps a short
# string such as "q^99999999" from asking for unbounded work.
MAX_POWER_SIZE = 512

# Bound on the size() of each image in a parsed specialization.  The work on
# specialized matrices grows with the degree and coefficient size of the
# images: the Bareiss determinant of the BMW n = 4, lambda = (2) Gram form
# under r = (q-1)^85 (size 168, within the power bound) runs for minutes,
# and grows about fourfold from r = (q-1)^12 (size 23) to r = (q-1)^24
# (size 47).  The images in use have size at most 7 (r = q^-5).
MAX_SPEC_SIZE = 32


class _Parser:
    """Recursive-descent parser for +,-,*,/,^,(), integers and variables."""

    def __init__(self, text: str, vars: tuple):
        self.text = text
        self.pos = 0
        self.vars = vars

    def parse(self) -> CoeffFraction:
        value = self._expr()
        self._skip()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at {self.pos}: {self.text!r}")
        return value

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> CoeffFraction:
        sign = 1
        while self._peek() in ("+", "-"):
            if self._peek() == "-":
                sign = -sign
            self.pos += 1
        value = self._term()
        if sign < 0:
            value = -value
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> CoeffFraction:
        value = self._factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                value = value * self._factor()
            elif ch == "/":
                self.pos += 1
                value = value / self._factor()
            elif ch == "(" or ch.isalpha():
                # juxtaposition, e.g. "(z-1)(z+2)" or "2q"
                value = value * self._factor()
            else:
                return value

    def _factor(self) -> CoeffFraction:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            e = self._int()
            if abs(e) * base.size() > MAX_POWER_SIZE:
                raise ValueError(f"power too large: ({base})^{e}")
            base = base ** e
        return base

    def _int(self) -> int:
        self._skip()
        start = self.pos
        if self._peek() in ("+", "-"):
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise ValueError(f"expected integer at {start} in {self.text!r}")
        return int(self.text[start:self.pos])

    def _atom(self) -> CoeffFraction:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            if self._peek() != ")":
                raise ValueError(f"unbalanced parenthesis in {self.text!r}")
            self.pos += 1
            return value
        if ch == "-":
            self.pos += 1
            return -self._atom()
        if ch.isdigit():
            return CoeffFraction.const(self._int(), self.vars)
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.vars:
                raise ValueError(f"unknown variable {name!r} (have {self.vars})")
            return CoeffFraction.var(name, self.vars)
        raise ValueError(f"unexpected character {ch!r} at {self.pos} in {self.text!r}")


def parse_fraction(text: str, vars: tuple) -> CoeffFraction:
    try:
        return _Parser(text, vars).parse()
    except ZeroDivisionError:
        raise ValueError(f"division by zero in {text!r}") from None


# ---------------------------------------------------------------------------
# Rings and specializations used by the algebra engines
# ---------------------------------------------------------------------------

BMW_VARS = ("q", "r")
BRAUER_VARS = ("z",)


def bmw_frac(text: str) -> CoeffFraction:
    return parse_fraction(text, BMW_VARS)


def brauer_frac(text: str) -> CoeffFraction:
    return parse_fraction(text, BRAUER_VARS)


def bmw_z() -> CoeffFraction:
    """The loop parameter of the two-parameter algebra, expressed in q, r."""
    return bmw_frac("(q+r)(q*r-1)/(r(q+1)(q-1))")


class Specialization:
    """Assignment of ring variables to rationals and/or symbolic expressions.

    ``assignment`` maps each source variable to a CoeffFraction over
    ``target_vars`` (possibly the empty tuple, i.e. a rational).  For the
    two-parameter ring the images of q, r and q - q^-1 must be units; this
    is checked at construction.
    """

    def __init__(self, source_vars: tuple, assignment: dict, target_vars: tuple = ()):
        self.source_vars = tuple(source_vars)
        self.target_vars = tuple(target_vars)
        self.assignment = {}
        for name in self.source_vars:
            if name in assignment:
                img = assignment[name]
                if isinstance(img, (int, Fraction)):
                    img = CoeffFraction.const(img, self.target_vars)
            else:
                if name not in self.target_vars:
                    raise ValueError(f"no image for variable {name!r}")
                img = CoeffFraction.var(name, self.target_vars)
            if img.vars != self.target_vars:
                raise ValueError("image variable tuple mismatch")
            self.assignment[name] = img
        if self.source_vars == BMW_VARS:
            q = self.assignment["q"]
            r = self.assignment["r"]
            for label, value in (("q", q), ("r", r),
                                 ("q-q^-1", q - q.inverse() if not q.is_zero() else q)):
                if value.is_zero():
                    raise ValueError(f"specialization does not invert {label}")

    @classmethod
    def parse(cls, text: str, source_vars: tuple) -> "Specialization":
        """Parse forms like "z=4", "z=1/2", "r=-q^-3", "q=2,r=3"."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        raw: dict = {}
        for part in parts:
            if "=" not in part:
                raise ValueError(f"malformed specialization part {part!r}")
            name, value = part.split("=", 1)
            name = name.strip()
            if name in raw:
                raise ValueError(f"variable {name!r} assigned twice")
            raw[name] = value.strip()
        assigned = set(raw)
        if not assigned.issubset(set(source_vars)):
            raise ValueError(f"unknown variables in specialization: "
                             f"{sorted(assigned - set(source_vars))}")
        target_vars = tuple(v for v in source_vars if v not in assigned)
        assignment = {name: parse_fraction(value, target_vars)
                      for name, value in raw.items()}
        for name, img in assignment.items():
            if img.size() > MAX_SPEC_SIZE:
                raise ValueError(f"image of {name} too large: size "
                                 f"{img.size()} > {MAX_SPEC_SIZE}")
        return cls(source_vars, assignment, target_vars)

    def apply(self, x: CoeffFraction) -> CoeffFraction:
        if x.vars != self.source_vars:
            raise ValueError("value does not live over the source ring")
        return x.substitute(self.assignment)

    def apply_matrix(self, rows) -> list:
        """``apply`` on every entry of a matrix, once per distinct entry:
        Gram and generator matrices repeat a few distinct values.  Entries
        are visited in row order, so the first one with a pole raises the
        PoleError that entry-by-entry application would raise."""
        images = {}
        out = []
        for row in rows:
            new = []
            for x in row:
                y = images.get(x)
                if y is None:
                    y = images[x] = self.apply(x)
                new.append(y)
            out.append(new)
        return out

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.assignment.items())
        return f"Specialization({body})"


def specialize(x: CoeffFraction, s: Specialization) -> CoeffFraction:
    """Ring homomorphism applied to one value; PoleError on vanishing
    denominator."""
    return s.apply(x)
