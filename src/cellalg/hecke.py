"""The Iwahori-Hecke algebra H_n(q^2) of the symmetric group.

Elements are ``exactring.Combination``s on the word basis {X_w : w in S_n};
``HeckeElement`` adds only its constructors and product.  The module provides
the cellular (Murphy) basis c_{uv} = X_{d(u)}* c_lambda X_{d(v)}, the change
of basis to it (``to_murphy``), cell ("Specht") modules as quotient
coordinates on the standard tableaux of ``combin.enumerate_std``, the
Murphy-layer projection ``cell_row`` shared by both towers and the Specht
modules, Jucys-Murphy elements D_i, and the permutation-module elements
attached to semistandard tableaux.

The Murphy rows c_{uv} and the change of basis live on the operations of
``exactring.ring``: Laurent polynomials in ring(1) at generic q (the BMW
tower), Python ints in ring(0) at q = 1 (the Brauer tower).  A row is formed
in its ring by ``_murphy_row``, at generic q one letter of d(v) at a time and
at q = 1 as one product per row-stabilizer element, and ``murphy_element``
is its CoeffFraction view; the change of basis is one elimination of those
rows and one replay per X_u.  ``to_murphy`` adds the ring columns of the
terms that share a coefficient, and the numerators times those sums of the
coefficients that share a denominator, so it forms one fraction per
(distinct denominator, coordinate), not per term.

Coefficients live in the two-variable fraction field on ("q", "r") so that
these elements embed directly into the tangle-algebra computations; the
variable r never occurs in anything produced here.  Powers of q are formed
directly as ``CoeffFraction.monomial``.
"""

from functools import lru_cache
from itertools import permutations as _iter_perms

from .combin import (
    Permutation,
    StdTableau,
    cell_index,
    check_partition,
    dominance,
    dominance_key,
    enumerate_std,
    partitions_of,
    path_dominance,
    path_of_tableau,
    superstandard,
    tab_perm,
)
from .exactring import (BMW_VARS, BRAUER_VARS, CoeffFraction, Combination,
                        Ring, poly_add, poly_mul, ring)

HK_VARS = BMW_VARS


def _const(c) -> CoeffFraction:
    return CoeffFraction.const(c, HK_VARS)


@lru_cache(maxsize=None)
def _delta() -> CoeffFraction:
    return (CoeffFraction.monomial(HK_VARS, q=1)
            - CoeffFraction.monomial(HK_VARS, q=-1))


class HeckeElement(Combination):
    """Finitely supported map Permutation -> coefficient, fixed rank n."""

    __slots__ = ()
    VARS = HK_VARS

    @classmethod
    def one(cls, n: int) -> "HeckeElement":
        return cls(n, {Permutation.identity(n): _const(1)})

    @classmethod
    def x(cls, w: Permutation) -> "HeckeElement":
        return cls(w.n, {w: _const(1)})

    @classmethod
    def gen(cls, i: int, n: int) -> "HeckeElement":
        return cls.x(Permutation.s(i, n))

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        self._check(other)
        out = HeckeElement.zero(self.n)
        for w, c in other.terms.items():
            piece = self.scale(c)
            for i in w.reduced_word():
                piece = hk_mul_gen(piece, i, "right")
            out = out + piece
        return out

    def __repr__(self):
        if not self.terms:
            return "HeckeElement(0)"
        bits = ["({})*X{}".format(c, list(w.img))
                for w, c in sorted(self.terms.items(), key=lambda t: t[0].img)]
        return " + ".join(bits)


def hk_mul_gen(h: HeckeElement, i: int, side: str = "right") -> HeckeElement:
    """Multiply by the generator X_i on the given side."""
    if not 1 <= i < h.n:
        raise ValueError("generator index out of range")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    delta = _delta()
    terms = {}

    def put(w, c):
        if w in terms:
            terms[w] = terms[w] + c
        else:
            terms[w] = c

    for w, c in h.terms.items():
        if side == "right":
            ws = w.rmul_s(i)
            longer = w.inverse()(i) < w.inverse()(i + 1)
        else:
            ws = w.lmul_s(i)
            longer = w(i) < w(i + 1)
        put(ws, c)
        if not longer:
            put(w, c * delta)
    return HeckeElement(h.n, terms)


def hk_star(h: HeckeElement) -> HeckeElement:
    """The anti-involution X_w -> X_{w^{-1}}."""
    return HeckeElement(h.n, {w.inverse(): c for w, c in h.terms.items()})


@lru_cache(maxsize=None)
def row_stabilizer(mu, n: int) -> tuple:
    """All permutations fixing each row of the superstandard mu-filling."""
    mu = check_partition(mu)
    t = superstandard(mu, n)
    blocks = [list(row) for row in t.rows]
    fixed = tuple(range(1, n + 1))

    perms = [Permutation.identity(n)]
    for block in blocks:
        new = []
        for assignment in _iter_perms(block):
            img = list(fixed)
            for pos, val in zip(block, assignment):
                img[pos - 1] = val
            new.append(Permutation(img))
        perms = [p * b for p in perms for b in new]
    return tuple(perms)


def hk_c_mu(mu, n: int) -> HeckeElement:
    """c_mu = sum over the row stabilizer of q^{l(w)} X_w."""
    return HeckeElement(n, {w: CoeffFraction.monomial(HK_VARS, q=w.length())
                            for w in row_stabilizer(mu, n)})


# -- Murphy basis ------------------------------------------------------------

@lru_cache(maxsize=None)
def murphy_index(n: int):
    """Ordered index [(lambda, u, v)] for the cellular basis of H_n."""
    out = []
    for lam in sorted(partitions_of(n), key=dominance_key):
        tabs = enumerate_std(lam, n)
        for u in tabs:
            for v in tabs:
                out.append((lam, u, v))
    return tuple(out)


def murphy_element(lam, u: StdTableau, v: StdTableau) -> HeckeElement:
    """c_{uv} = X_{d(u)}* c_lambda X_{d(v)}, the CoeffFraction view of its
    Laurent row (``_murphy_row`` in ring(1))."""
    return HeckeElement(u.n, {
        Permutation(img): _fraction(x, HK_VARS)
        for img, x in _murphy_row(lam, u, v, ring(1)).items()})


@lru_cache(maxsize=None)
def _perm_order(n: int):
    perms = sorted((Permutation(img) for img in _iter_perms(range(1, n + 1))),
                   key=lambda p: p.img)
    return tuple(perms), {p: i for i, p in enumerate(perms)}


# -- change of basis to the Murphy basis ---------------------------------------
#
# The Murphy basis is a Z[q, q^-1]-basis of H_m (Murphy 1995; Mathas 1999,
# ch. 3), so the change of basis needs no fraction field.  The matrix of the
# c_{st} over the X_w is eliminated once per (m, ring) by sparse Gauss-Jordan
# that pivots only on units and records its steps; the coordinates of a
# single X_u replay those steps on the unit vector at u.  Elimination and
# replay take their operations from one exactring ring: ring(1), Laurent
# polynomials {(k,): c} with k of either sign and units +-q^k, at generic q
# (the BMW tower), and ring(0), Python ints with units +-1, at q = 1 (the
# Brauer tower).  The rows c_{st} are formed in the same ring by
# ``_murphy_row``, with no HeckeElement product.  A column is memoised as
# {position in murphy_index(m): ring value}, each distinct value stored once.
# ``to_murphy`` groups the terms of its input by coefficient and adds the ring
# columns of each group; the numerators of the coefficients with one
# denominator D, times those sums, add up as polynomials, and each position
# forms one fraction per D.


def _murphy_ring(vars: tuple) -> Ring:
    """ring(1) at generic q over HK_VARS (the BMW tower), ring(0) at q = 1
    over BRAUER_VARS."""
    if vars == HK_VARS:
        return ring(1)
    if vars == BRAUER_VARS:
        return ring(0)
    raise ValueError("no Murphy change of basis over {}".format(vars))


def _lift(x, vars: tuple) -> dict:
    """A nonzero ring value as a polynomial dict over vars, the exponent of
    q possibly negative."""
    if type(x) is int:
        return {(0,) * len(vars): x}
    pad = (0,) * (len(vars) - 1)
    return {(k,) + pad: c for (k,), c in x.items()}


def _over(num: dict, den: dict, vars: tuple) -> CoeffFraction:
    """The canonical num/den, both multiplied by the power of the first
    variable that clears the negative exponents of num."""
    low = min(e[0] for e in num)
    if low < 0:
        num = {(e[0] - low,) + e[1:]: c for e, c in num.items()}
        den = {(e[0] - low,) + e[1:]: c for e, c in den.items()}
    return CoeffFraction(vars, num, den)


def _fraction(x, vars: tuple) -> CoeffFraction:
    """The canonical CoeffFraction of a nonzero ring value."""
    return _over(_lift(x, vars), {(0,) * len(vars): 1}, vars)


def _unit_inverse(x):
    """The inverse of a ring value that is a unit (+-1, or +-q^k in
    ring(1)), else None."""
    if type(x) is int:
        return x if x in (1, -1) else None
    if x is not None and len(x) == 1:
        ((k,), c), = x.items()
        if c in (1, -1):
            return {(-k,): c}
    return None


def _murphy_row(lam, s: StdTableau, t: StdTableau, R: Ring) -> dict:
    """c_{st} = X_{d(s)}* c_lambda X_{d(t)} in R, as {one-line image of w:
    nonzero coefficient of X_w}.

    X_{d(s)^-1} X_w = X_{d(s)^-1 w} for w in the row stabilizer, since d(s)
    is a distinguished coset representative and lengths add; X_{d(t)} then
    acts one letter at a time, X_w X_i = X_{w s_i} if l(w s_i) > l(w), else
    X_{w s_i} + delta X_w, with delta = q - q^-1 in ring(1).  In ring(0)
    delta = 0, so the row is X_{d(s)^-1 w d(t)} with coefficient 1 for each
    w in the row stabilizer.
    """
    d = tab_perm(s).inverse()
    if R is ring(0):
        dt = tab_perm(t)
        return {(d * w * dt).img: 1 for w in row_stabilizer(lam, s.n)}
    add, mul = R.add, R.mul
    delta = {(1,): 1, (-1,): -1}  # q - q^-1
    row = {(d * w).img: {(w.length(),): 1}
           for w in row_stabilizer(lam, s.n)}
    for i in tab_perm(t).reduced_word():
        out = {}
        for img, c in row.items():
            a, b = img.index(i), img.index(i + 1)
            swapped = list(img)
            swapped[a], swapped[b] = i + 1, i
            swapped = tuple(swapped)
            out[swapped] = add(out[swapped], c) if swapped in out else c
            if a > b:  # w s_i is shorter than w
                c = mul(c, delta)
                out[img] = add(out[img], c) if img in out else c
        row = out
    return {img: x for img, x in row.items() if x}


# each distinct ring value of the memoised steps and columns, stored once
_SHARED: dict = {}


def _intern(x):
    return _SHARED.setdefault(
        x if type(x) is int else tuple(sorted(x.items())), x)


@lru_cache(maxsize=None)
def _murphy_steps(m: int, vars: tuple) -> tuple:
    """Sparse Gauss-Jordan of the Murphy-to-X_w matrix of H_m in its ring.

    Rows are the X_w in ``_perm_order`` and columns the c_{st} in
    ``murphy_index``.  Column j pivots on the sparsest row (ties to the lower
    row number) whose entry is a unit; that row is scaled by the inverse
    unit and cleared from every other row, so nothing is divided.  Returns
    one (pivot row, inverse unit, ((row, factor), ...)) per column.
    """
    R = _murphy_ring(vars)
    mul, sub, zero = R.mul, R.sub, R.const(0)
    perms = _perm_order(m)[0]
    if len(murphy_index(m)) != len(perms):
        raise AssertionError("cellular basis size must be m!")
    pos = {w.img: i for i, w in enumerate(perms)}
    rows = [{} for _ in perms]
    for j, (lam, u, v) in enumerate(murphy_index(m)):
        for img, x in _murphy_row(lam, u, v, R).items():
            rows[pos[img]][j] = x
    free = set(range(len(rows)))
    steps = []
    for j in range(len(rows)):
        units = [i for i in free if _unit_inverse(rows[i].get(j)) is not None]
        if not units:
            raise AssertionError(
                "no unit pivot in column {} of the Murphy matrix".format(j))
        p = min(units, key=lambda i: (len(rows[i]), i))
        free.remove(p)
        inv = _unit_inverse(rows[p][j])
        pivot = rows[p] = {k: mul(inv, x) for k, x in rows[p].items()}
        cleared = []
        for i, row in enumerate(rows):
            if i == p or j not in row:
                continue
            f = row.pop(j)
            for k, x in pivot.items():
                if k != j:
                    y = sub(row.get(k, zero), mul(f, x))
                    if y:
                        row[k] = y
                    else:
                        row.pop(k, None)
            # a few distinct factors recur thousands of times
            cleared.append((i, _intern(f)))
        steps.append((p, inv, tuple(cleared)))
    return tuple(steps)


@lru_cache(maxsize=None)
def _murphy_column(m: int, vars: tuple, u: Permutation) -> dict:
    """Murphy coordinates {position in murphy_index(m): nonzero ring value}
    of X_u, by replaying the elimination steps on the unit vector at u."""
    R = _murphy_ring(vars)
    mul, sub, zero = R.mul, R.sub, R.const(0)
    steps = _murphy_steps(m, vars)
    b = {_perm_order(m)[1][u]: R.const(1)}
    for p, inv, cleared in steps:
        x = b.get(p)
        if x is None:
            continue
        x = b[p] = mul(inv, x)
        for i, f in cleared:  # b[i] -= f * x, dropping a zero entry
            y = sub(b.get(i, zero), mul(f, x))
            if y:
                b[i] = y
            else:
                b.pop(i, None)
    return {j: _intern(b[p]) for j, (p, _, _) in enumerate(steps) if p in b}


def to_murphy(m: int, part: dict, vars: tuple) -> dict:
    """Murphy coordinates {(lambda, s, t): c} of sum c * X_u over the
    permutations u of 1..m, at generic q over HK_VARS and at q = 1 (the
    symmetric group) over BRAUER_VARS.

    The ring columns of the u that share a coefficient are added first.
    Coefficients that share a denominator D then add their numerators times
    those sums as polynomials, so each coordinate forms one fraction per
    distinct D.
    """
    R = _murphy_ring(vars)
    groups = {}
    for u, c in part.items():
        groups.setdefault(c, []).append(u)
    by_den = {}  # denominator -> (denominator, {position: numerator})
    for c, us in groups.items():
        acc = {}
        for u in us:
            for j, x in _murphy_column(m, vars, u).items():
                acc[j] = R.add(acc[j], x) if j in acc else x
        den, sums = by_den.setdefault(frozenset(c.den.items()), (c.den, {}))
        for j, x in acc.items():
            if x:
                p = poly_mul(c.num, _lift(x, vars))
                sums[j] = poly_add(sums[j], p) if j in sums else p
    out = {}
    for den, sums in by_den.values():
        for j, p in sums.items():
            if p:
                c = _over(p, den, vars)
                out[j] = out[j] + c if j in out else c
    index = murphy_index(m)
    return {index[j]: c for j, c in out.items() if not c.is_zero()}


def hk_to_murphy(h: HeckeElement) -> dict:
    """Coordinates of h in the cellular basis: (lambda, u, v) -> coeff."""
    return to_murphy(h.n, h.terms, HK_VARS)


def murphy_to_hk(coords: dict, n: int) -> HeckeElement:
    out = HeckeElement.zero(n)
    for (lam, u, v), c in coords.items():
        out = out + murphy_element(lam, u, v).scale(c)
    return out


# -- Murphy-layer projection for the cell modules of both towers --------------

@lru_cache(maxsize=None)
def _cell_columns(lam, n: int) -> dict:
    """Column of (t.hat(), u) in the row over cell_index(lam, n)."""
    return {(t.hat(), u): j for j, (t, u) in enumerate(cell_index(lam, n))}


def cell_row(upper: dict, lam, n: int, zero) -> list:
    """One row of a generator matrix on the cell module S^lambda.

    ``upper`` is the image of one basis vector modulo the next filtration
    layer, as the nonzero coefficients {(u, v): c} of the chain words
    E_1 E_3 ... E_{2f-1} u v: u permutes the m = |lambda| upper letters
    (relabelled 1..m) and v is a distinguished coset representative.  The
    upper part of each coset is expanded in the Murphy basis of H_m by
    ``to_murphy(m, {u: c}, zero.vars)``, which returns the nonzero
    coordinates {(mu, s, t): c}.  Coordinates on more dominant shapes lie
    deeper in the filtration and are dropped; the lambda-layer coordinate
    c_{t^lambda t} is the entry at (t, v) of the row over
    cell_index(lam, n).
    """
    lam = check_partition(lam)
    m = sum(lam)
    cols = _cell_columns(lam, n)
    t_hat = superstandard(lam, n).hat()
    by_v = {}
    for (u, v), c in upper.items():
        by_v.setdefault(v, {})[u] = c
    row = [zero] * len(cols)
    for v, part in by_v.items():
        if m <= 1:
            # trivial upper group: every u is the identity
            if any(not u.is_identity() for u in part):
                raise AssertionError("nontrivial upper part at m<=1")
            row[cols[(t_hat, v)]] = next(iter(part.values()))
            continue
        for (mu, s, t), c in to_murphy(m, part, zero.vars).items():
            rel = dominance(mu, lam)
            if rel == "dominates":
                continue  # lies in the more-dominant part of the filtration
            if rel != "equal":
                raise AssertionError(
                    "cell expansion escaped below the filtration layer")
            if s != t_hat:
                raise AssertionError(
                    "left tableau must stay maximal in the cell layer")
            row[cols[(t, v)]] = c
    return row


# -- Specht (cell) modules ----------------------------------------------------

def specht_action_matrix(lam, n: int, h: HeckeElement):
    """Matrix of h acting on the cell module C^lambda (rows = images).

    Row s expresses (c_lambda X_{d(s)}) h in the Murphy basis of C^lambda,
    indexed like enumerate_std(lam, n): the f = 0 ``cell_row``, whose only
    coset representative is the identity.
    """
    lam = check_partition(lam)
    c_lam, one = hk_c_mu(lam, n), Permutation.identity(n)
    rows = []
    for s in enumerate_std(lam, n):
        elt = c_lam * HeckeElement.x(tab_perm(s)) * h
        rows.append(cell_row({(w, one): c for w, c in elt.terms.items()},
                             lam, n, _const(0)))
    return rows


# -- Jucys-Murphy elements -----------------------------------------------------

@lru_cache(maxsize=None)
def hk_jm(i: int, n: int) -> HeckeElement:
    """D_1 = 1 and D_i = X_{i-1} D_{i-1} X_{i-1}."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    if i == 1:
        return HeckeElement.one(n)
    x = HeckeElement.gen(i - 1, n)
    return x * hk_jm(i - 1, n) * x


def hk_jm_sum(i: int, n: int) -> HeckeElement:
    """The transposition sum form: sum_{k<i} X_{(k,i)}."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    out = HeckeElement.zero(n)
    for k in range(1, i):
        out = out + HeckeElement.x(Permutation.transposition(k, i, n))
    return out


def hk_content(t: StdTableau, k: int) -> CoeffFraction:
    """The eigenvalue q^{2(j-i)} where k sits in box (i,j) of t."""
    i, j = t.position_of(k)
    return CoeffFraction.monomial(HK_VARS, q=2 * (j - i))


def tab_dominance(s: StdTableau, t: StdTableau) -> str:
    """Dominance on standard tableaux via levelwise shape dominance."""
    return path_dominance(path_of_tableau(s), path_of_tableau(t))


# -- permutation modules --------------------------------------------------------

def hk_semistd_elt(S, t: StdTableau, mu) -> HeckeElement:
    """The sum over {s : mu(s) = S} of q^{l(d(s))} c_{st}."""
    from .combin import type_map

    nu = S.shape
    if t.shape != nu:
        raise ValueError("incompatible shapes")
    n = t.n
    out = HeckeElement.zero(n)
    for s in enumerate_std(nu, n):
        if type_map(s, mu) == S:
            coeff = CoeffFraction.monomial(HK_VARS, q=tab_perm(s).length())
            out = out + murphy_element(nu, s, t).scale(coeff)
    return out
