"""Exact arithmetic in fields of fractions of integer polynomial rings.

All coefficients appearing in the algebra engines are values of
:class:`CoeffFraction`: reduced fractions of integer-coefficient
polynomials in a fixed, named variable tuple (``("q", "r")`` or
``("z",)``).  The representation is canonical -- numerator and
denominator share no polynomial factor and the leading coefficient of
the denominator is positive under lexicographic monomial order -- so
equality of values is equality of representations.

Specializations substitute variables either by rationals or by
symbolic expressions in the remaining variables (for example
``r -> -q^-3``); symbolic substitutions are applied before any numeric
evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd


# ---------------------------------------------------------------------------
# Raw polynomial arithmetic on dicts {exponent-tuple: int-coefficient}.
# ---------------------------------------------------------------------------

def poly_zero() -> dict:
    return {}


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


def poly_scale(a: dict, c: int) -> dict:
    if c == 0:
        return {}
    return {exp: k * c for exp, k in a.items()}


def poly_lead(a: dict) -> tuple:
    """Lexicographically largest exponent tuple (the leading monomial)."""
    return max(a)


def poly_lead_coeff(a: dict) -> int:
    return a[poly_lead(a)]


# -- recursive dense representation, used only for gcd and exact division ---
#
# A polynomial in k variables is an int (k == 0) or a list of
# polynomials in k-1 variables, indexed by the degree in the first
# variable (always non-empty, trailing zeros trimmed except for [zero]).

def _to_rec(a: dict, nvars: int):
    if nvars == 0:
        return a.get((), 0)
    if not a:
        return [0] if nvars == 1 else [_to_rec({}, nvars - 1)]
    deg = max(exp[0] for exp in a)
    slices: list = [dict() for _ in range(deg + 1)]
    for exp, c in a.items():
        slices[exp[0]][exp[1:]] = c
    return [_to_rec(s, nvars - 1) for s in slices]


def _from_rec(p, nvars: int) -> dict:
    if nvars == 0:
        return {(): p} if p else {}
    out: dict = {}
    for d, coeff in enumerate(p):
        for exp, c in _from_rec(coeff, nvars - 1).items():
            out[(d,) + exp] = c
    return out


def _r_is_zero(p) -> bool:
    if isinstance(p, int):
        return p == 0
    return all(_r_is_zero(c) for c in p)


def _r_trim(p):
    if isinstance(p, int):
        return p
    p = [_r_trim(c) for c in p]
    while len(p) > 1 and _r_is_zero(p[-1]):
        p.pop()
    return p


def _r_add(a, b):
    if isinstance(a, int):
        return a + b
    n = max(len(a), len(b))
    zero = _r_zero_like(a[0])
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(_r_add(x, y))
    return _r_trim(out)


def _r_zero_like(p):
    if isinstance(p, int):
        return 0
    return [_r_zero_like(p[0])]


def _r_neg(a):
    if isinstance(a, int):
        return -a
    return [_r_neg(c) for c in a]


def _r_mul(a, b):
    if isinstance(a, int):
        return a * b
    zero = _r_zero_like(a[0])
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if _r_is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = _r_add(out[i + j], _r_mul(x, y))
    return _r_trim(out)


def _r_divexact(a, b):
    """Exact division; raises ValueError when b does not divide a."""
    if isinstance(a, int):
        if b == 0 or a % b:
            raise ValueError("inexact integer division")
        return a // b
    if _r_is_zero(a):
        return _r_zero_like(a)
    if _r_is_zero(b):
        raise ValueError("division by zero polynomial")
    rem = a
    quo = [_r_zero_like(a[0])] * (len(a) - len(b) + 1)
    while not _r_is_zero(rem):
        if len(rem) < len(b):
            raise ValueError("inexact polynomial division")
        c = _r_divexact(rem[-1], b[-1])
        d = len(rem) - len(b)
        quo[d] = c
        sub = [_r_zero_like(c)] * d + [_r_mul(c, bc) for bc in b]
        rem = _r_trim(_r_add(rem, _r_neg(sub)))
        if len(rem) >= d + len(b) and not _r_is_zero(rem[-1]):
            raise ValueError("inexact polynomial division")
        if _r_is_zero(rem):
            break
    return _r_trim(quo)


def _r_content(a):
    """gcd of the coefficients of a (an element one level down)."""
    if isinstance(a, int):
        return abs(a)
    acc = None
    for c in a:
        if _r_is_zero(c):
            continue
        acc = c if acc is None else _r_gcd(acc, c)
    if acc is None:
        return _r_zero_like(a[0])
    return acc


def _r_prem(a, b):
    """Pseudo-remainder of a by b in (R[rest])[x]."""
    rem = a
    lb = b[-1]
    db = len(b) - 1
    while not _r_is_zero(rem) and len(rem) - 1 >= db:
        lr = rem[-1]
        d = len(rem) - 1 - db
        rem = [_r_mul(lb, c) for c in rem]
        sub = [_r_zero_like(lr)] * d + [_r_mul(lr, bc) for bc in b]
        rem = _r_trim(_r_add(rem, _r_neg(sub)))
        if isinstance(rem, list) and len(rem) - 1 >= db + d and not _r_is_zero(rem[-1]):
            raise AssertionError("pseudo-division failed to reduce degree")
    return rem


def _r_gcd(a, b):
    if isinstance(a, int):
        return int_gcd(a, b)
    a = _r_trim(a)
    b = _r_trim(b)
    if _r_is_zero(a):
        return _r_abs(b)
    if _r_is_zero(b):
        return _r_abs(a)
    ca, cb = _r_content(a), _r_content(b)
    a = [_r_divexact(c, ca) for c in a]
    b = [_r_divexact(c, cb) for c in b]
    cg = _r_gcd(ca, cb)
    # primitive PRS
    while True:
        if len(a) < len(b):
            a, b = b, a
        r = _r_prem(a, b)
        if _r_is_zero(r):
            break
        cr = _r_content(r)
        r = _r_trim([_r_divexact(c, cr) for c in r])
        a, b = b, r
    return _r_mul_scalar(_r_abs(_r_trim(b)), cg)


def _r_mul_scalar(g, cg):
    """Multiply g by cg where cg lives one recursion level below g."""
    if isinstance(g, int):
        return g * cg
    return _r_trim([_r_mul(c, cg) for c in g])


def _r_abs(a):
    """Normalize so the leading coefficient is positive (recursively by sign
    of the integer leading coefficient under lex order)."""
    if isinstance(a, int):
        return abs(a)
    if _r_sign(a) < 0:
        return _r_neg(a)
    return a


def _r_sign(a) -> int:
    if isinstance(a, int):
        return (a > 0) - (a < 0)
    for c in reversed(a):
        if not _r_is_zero(c):
            return _r_sign(c)
    return 0


def poly_gcd(a: dict, b: dict, nvars: int) -> dict:
    if not a:
        return _poly_sign_norm(b)
    if not b:
        return _poly_sign_norm(a)
    g = _r_gcd(_to_rec(a, nvars), _to_rec(b, nvars))
    return _poly_sign_norm(_from_rec(_r_trim(g), nvars))


def poly_divexact(a: dict, b: dict, nvars: int) -> dict:
    if not a:
        return {}
    q = _r_divexact(_to_rec(a, nvars), _to_rec(b, nvars))
    return _from_rec(_r_trim(q), nvars)


def _poly_sign_norm(a: dict) -> dict:
    if a and poly_lead_coeff(a) < 0:
        return poly_neg(a)
    return a


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
        nv = len(self.vars)
        return self.num == poly_const(1, nv) and self.den == poly_const(1, nv)

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

    def __add__(self, other: "CoeffFraction") -> "CoeffFraction":
        self._check(other)
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return CoeffFraction(self.vars, num, poly_mul(self.den, other.den))

    def __sub__(self, other: "CoeffFraction") -> "CoeffFraction":
        self._check(other)
        num = poly_sub(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return CoeffFraction(self.vars, num, poly_mul(self.den, other.den))

    def __neg__(self) -> "CoeffFraction":
        return CoeffFraction(self.vars, poly_neg(self.num), self.den, _reduced=True)

    def __mul__(self, other: "CoeffFraction") -> "CoeffFraction":
        self._check(other)
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
        vanishes."""
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
        assert target_vars is not None or not self.vars
        if target_vars is None:
            target_vars = ()
        num = _poly_eval(self.num, images, target_vars)
        den = _poly_eval(self.den, images, target_vars)
        if den.is_zero():
            raise PoleError(f"denominator vanishes under {assignment}")
        return num / den

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


def _is_atom_power(s: str) -> bool:
    head, _, tail = s.partition("^")
    return head.isalpha() and (tail == "" or tail.isdigit())


def _poly_eval(p: dict, images: list, target_vars: tuple) -> CoeffFraction:
    acc = CoeffFraction.const(0, target_vars)
    for exp, c in p.items():
        term = CoeffFraction.const(c, target_vars)
        for img, e in zip(images, exp):
            if e:
                term = term * img ** e
        acc = acc + term
    return acc


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

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.assignment.items())
        return f"Specialization({body})"


def specialize(x: CoeffFraction, s: Specialization) -> CoeffFraction:
    """Ring homomorphism applied to one value; PoleError on vanishing
    denominator."""
    return s.apply(x)
