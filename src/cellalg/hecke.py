"""The Iwahori-Hecke algebra H_n(q^2) of the symmetric group.

Elements are stored on the word basis {X_w : w in S_n}.  The module provides
the cellular (Murphy) basis c_{uv} = X_{d(u)}* c_lambda X_{d(v)}, the change
of basis to it (``to_murphy``: a sparse elimination over Z[q, q^-1], or over
Z at q = 1 for the Brauer tower), cell ("Specht") modules as quotient
coordinates, the Murphy-layer projection ``cell_row`` shared by both towers,
Jucys-Murphy elements D_i, and the permutation-module elements attached to
semistandard tableaux.

Coefficients live in the two-variable fraction field on ("q", "r") so that
these elements embed directly into the tangle-algebra computations; the
variable r never occurs in anything produced here.
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
from .exactring import (BMW_VARS, BRAUER_VARS, CoeffFraction, poly_const,
                        poly_mul, poly_sub)

HK_VARS = BMW_VARS


def _const(c) -> CoeffFraction:
    return CoeffFraction.const(c, HK_VARS)


def _q() -> CoeffFraction:
    return CoeffFraction.var("q", HK_VARS)


@lru_cache(maxsize=None)
def _delta() -> CoeffFraction:
    q = _q()
    return q - q.inverse()


@lru_cache(maxsize=None)
def _q_power(k: int) -> CoeffFraction:
    return _q() ** k


class HeckeElement:
    """Finitely supported map Permutation -> coefficient, fixed rank n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "HeckeElement":
        return cls(n, {Permutation.identity(n): _const(1)})

    @classmethod
    def x(cls, w: Permutation) -> "HeckeElement":
        return cls(w.n, {w: _const(1)})

    @classmethod
    def gen(cls, i: int, n: int) -> "HeckeElement":
        return cls.x(Permutation.s(i, n))

    # -- linear structure -------------------------------------------------
    def _check(self, other: "HeckeElement"):
        if self.n != other.n:
            raise ValueError("rank mismatch")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms[w] + c if w in terms else c
        return HeckeElement(self.n, terms)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.n, {w: -c for w, c in self.terms.items()})

    def scale(self, c: CoeffFraction) -> "HeckeElement":
        return HeckeElement(self.n, {w: x * c for w, x in self.terms.items()})

    def coeff(self, w: Permutation) -> CoeffFraction:
        return self.terms.get(w, _const(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElement) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

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
        if longer:
            put(ws, c)
        else:
            put(ws, c)
            put(w, c * delta)
    return HeckeElement(h.n, terms)


def hk_star(h: HeckeElement) -> HeckeElement:
    """The anti-involution X_w -> X_{w^{-1}}."""
    return HeckeElement(h.n, {w.inverse(): c for w, c in h.terms.items()})


def row_stabilizer(mu, n: int):
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
    return perms


def hk_c_mu(mu, n: int) -> HeckeElement:
    """c_mu = sum over the row stabilizer of q^{l(w)} X_w."""
    terms = {}
    for w in row_stabilizer(mu, n):
        terms[w] = _q_power(w.length())
    return HeckeElement(n, terms)


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
    """c_{uv} = X_{d(u)}* c_lambda X_{d(v)}."""
    n = u.n
    c = hk_c_mu(lam, n)
    left = hk_star(HeckeElement.x(tab_perm(u)))
    return left * c * HeckeElement.x(tab_perm(v))


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
# that pivots only on units +-q^k and records its steps; the coordinates of a
# single X_u replay those steps on the unit vector at u.  Laurent polynomials
# are exactring polynomial dicts {(k,): c} with k of either sign; at q = 1
# every exponent collapses to (), so the same code runs over Z.


def _at_q1(vars: tuple) -> bool:
    """Generic q over HK_VARS (the BMW tower), q = 1 over BRAUER_VARS."""
    if vars == HK_VARS:
        return False
    if vars == BRAUER_VARS:
        return True
    raise ValueError("no Murphy change of basis over {}".format(vars))


def _laurent(c: CoeffFraction, at_q1: bool) -> dict:
    """A coefficient in Z[q, q^-1] as a Laurent polynomial dict."""
    (k, r), d = next(iter(c.den.items()))
    if len(c.den) > 1 or d != 1 or r or any(e[1] for e in c.num):
        raise AssertionError("Murphy coefficient outside Z[q, q^-1]")
    if at_q1:
        return poly_const(sum(c.num.values()), 0)
    return {(e[0] - k,): x for e, x in c.num.items()}


@lru_cache(maxsize=None)
def _laurent_fraction(terms: tuple, vars: tuple) -> CoeffFraction:
    """The canonical CoeffFraction of a nonzero Laurent polynomial, given by
    its sorted terms: the numerator shifted by the lowest negative exponent,
    over that power of q; at q = 1 an integer.  Memoised, so the few values
    that fill the Murphy columns are shared, not repeated."""
    if _at_q1(vars):
        return CoeffFraction.const(dict(terms)[()], vars)
    low = min(0, terms[0][0][0])
    return CoeffFraction(vars, {(k - low, 0): c for (k,), c in terms},
                         {(-low, 0): 1}, _reduced=True)


def _is_unit(p) -> bool:
    return p is not None and len(p) == 1 and abs(next(iter(p.values()))) == 1


def _sub_product(vec: dict, k, f: dict, x: dict):
    """vec[k] -= f * x in a sparse vector of polynomial dicts, dropping a
    zero entry."""
    y = poly_sub(vec.get(k, {}), poly_mul(f, x))
    if y:
        vec[k] = y
    else:
        vec.pop(k, None)


@lru_cache(maxsize=None)
def _murphy_steps(m: int, vars: tuple) -> tuple:
    """Sparse Gauss-Jordan of the Murphy-to-X_w matrix of H_m in its ring.

    Rows are the X_w in ``_perm_order`` and columns the c_{st} in
    ``murphy_index``.  Column j pivots on the sparsest row (ties to the lower
    row number) whose entry is a unit +-q^k; that row is scaled by the
    inverse unit and cleared from every other row, so nothing is divided.
    Returns one (pivot row, inverse unit, ((row, factor), ...)) per column.
    """
    at_q1 = _at_q1(vars)
    perms, pos = _perm_order(m)
    if len(murphy_index(m)) != len(perms):
        raise AssertionError("cellular basis size must be m!")
    rows = [{} for _ in perms]
    for j, (lam, u, v) in enumerate(murphy_index(m)):
        for w, c in murphy_element(lam, u, v).terms.items():
            x = _laurent(c, at_q1)
            if x:
                rows[pos[w]][j] = x
    free = set(range(len(rows)))
    steps = []
    shared = {}  # a few distinct factors recur thousands of times
    for j in range(len(rows)):
        units = [i for i in free if _is_unit(rows[i].get(j))]
        if not units:
            raise AssertionError(
                "no unit pivot in column {} of the Murphy matrix".format(j))
        p = min(units, key=lambda i: (len(rows[i]), i))
        free.remove(p)
        inv = {tuple(-k for k in e): c for e, c in rows[p][j].items()}
        pivot = rows[p] = {k: poly_mul(inv, x) for k, x in rows[p].items()}
        cleared = []
        for i, row in enumerate(rows):
            if i == p or j not in row:
                continue
            f = row.pop(j)
            for k, x in pivot.items():
                if k != j:
                    _sub_product(row, k, f, x)
            f = shared.setdefault(tuple(sorted(f.items())), f)
            cleared.append((i, f))
        steps.append((p, inv, tuple(cleared)))
    return tuple(steps)


@lru_cache(maxsize=None)
def _murphy_column(m: int, vars: tuple, u: Permutation) -> dict:
    """Murphy coordinates {(lambda, s, t): c} of X_u, by replaying the
    elimination steps on the unit vector at u."""
    steps = _murphy_steps(m, vars)
    b = {_perm_order(m)[1][u]: poly_const(1, 0 if _at_q1(vars) else 1)}
    for p, inv, cleared in steps:
        x = b.get(p)
        if x is None:
            continue
        x = b[p] = poly_mul(inv, x)
        for i, f in cleared:
            _sub_product(b, i, f, x)
    index = murphy_index(m)
    return {index[j]: _laurent_fraction(tuple(sorted(b[p].items())), vars)
            for j, (p, _, _) in enumerate(steps) if p in b}


def to_murphy(m: int, part: dict, vars: tuple) -> dict:
    """Murphy coordinates {(lambda, s, t): c} of sum c * X_u over the
    permutations u of 1..m, at generic q over HK_VARS and at q = 1 (the
    symmetric group) over BRAUER_VARS."""
    out = {}
    for u, c in part.items():
        for key, x in _murphy_column(m, vars, u).items():
            term = c * x
            out[key] = out[key] + term if key in out else term
    return {key: c for key, c in out.items() if not c.is_zero()}


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


def cell_row(upper: dict, lam, n: int, to_murphy, zero) -> list:
    """One row of a generator matrix on the cell module S^lambda.

    ``upper`` is the image of one basis vector modulo the next filtration
    layer, as the nonzero coefficients {(u, v): c} of the chain words
    E_1 E_3 ... E_{2f-1} u v: u permutes the m = |lambda| upper letters
    (relabelled 1..m) and v is a distinguished coset representative.  The
    upper part of each coset is expanded in the Murphy basis of H_m by
    ``to_murphy(m, {u: c}, zero.vars)``, which returns the nonzero
    coordinates {(mu, s, t): c}.  Coordinates on more dominant shapes lie deeper in the
    filtration and are dropped; the lambda-layer coordinate c_{t^lambda t}
    is the entry at (t, v) of the row over cell_index(lam, n).
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

def specht_basis(lam, n: int):
    return enumerate_std(lam, n)


def specht_action_matrix(lam, n: int, h: HeckeElement):
    """Matrix of h acting on the cell module C^lambda (rows = images).

    Row s of the result expresses (c_lambda X_{d(s)}) h in the Murphy basis
    of C^lambda, with coordinates indexed like specht_basis(lam, n).
    """
    lam = check_partition(lam)
    tabs = specht_basis(lam, n)
    col_of = {t: j for j, t in enumerate(tabs)}
    c_lam = hk_c_mu(lam, n)
    t_lam = superstandard(lam, n)
    zero = _const(0)
    rows = []
    for s in tabs:
        elt = c_lam * HeckeElement.x(tab_perm(s)) * h
        row = [zero] * len(tabs)
        for (mu, u, v), c in hk_to_murphy(elt).items():
            if mu == lam:
                if u != t_lam:
                    raise AssertionError(
                        "left tableau must stay maximal in the cell layer")
                row[col_of[v]] = c
            elif dominance(mu, lam) != "dominates":
                raise AssertionError(
                    "product escaped below the cell filtration layer")
        rows.append(row)
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
    return _q_power(2 * (j - i))


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
            coeff = _q_power(tab_perm(s).length())
            out = out + murphy_element(nu, s, t).scale(coeff)
    return out
