"""The Birman-Murakami-Wenzl algebra B_n(q,r), and the chain-word engine
that gives the cell modules of both towers.

A chain word is E_1 E_3 ... E_{2f-1} T_x with x an arbitrary permutation.
The engine multiplies a chain word by T_i or E_i modulo the next filtration
layer, and normalizes a chain word into the canonical shape
E-chain * T_u * T_v with u in the upper subgroup <s_i : 2f < i < n> and v a
distinguished coset representative.  Projecting the upper part onto its
Murphy-basis layer (``hecke.cell_row``) then yields the action of any
combination of generator words on each cell module (``cell_rows``).

The engine runs over a variable tuple.  Over ``BMW_VARS`` it is B_n(q,r)
with loop value ``bmw_z()``.  Over ``BRAUER_VARS`` it has q = r = 1, so
q - q^{-1} = 0 and T_i = T_i^{-1} is the transposition s_i, and loop
value z: every relation it uses is then a relation of the Brauer algebra
B_n(z), which is how ``brauer`` gets its cell modules.  ``bmw_gen_matrix``
is the one table of generator matrices for both towers, keyed by the
variable tuple: the matrix of T_i^{-1} = T_i - (q - q^{-1})(1 - E_i) is
derived from those of T_i and E_i, and at q = 1 it is the matrix of T_i.

``BmwElement`` is the ``exactring.Combination`` on the cellular basis
monomials.  Products go through the faithful direct sum of all cell-module
representations, which ``towers`` builds for both towers: the matrices of a
generator word (``towers.rho_of_word``), of an element
(``towers.element_rho``) and of a Jucys-Murphy operator
(``towers.jm_matrix``); the coordinates of a product are read back from its
cell-module matrices by ``towers.cellular_terms``.
The defining relations are certified as matrix identities and the basis
count matches (2n-1)!!, so the matrix model is the presented algebra.
"""

from functools import lru_cache
from typing import NamedTuple

from .combin import (
    Permutation,
    StdTableau,
    cell_index,
    check_partition,
    layer_shapes,
    superstandard,
    tab_perm,
)
from .exactring import BMW_VARS, CoeffFraction, Combination, bmw_z
from .hecke import cell_row, row_stabilizer


class _Params(NamedTuple):
    one: CoeffFraction
    q: CoeffFraction
    r: CoeffFraction
    rinv: CoeffFraction
    delta: CoeffFraction  # q - q^{-1}
    z: CoeffFraction  # the loop value


@lru_cache(maxsize=None)
def _params(vars: tuple) -> _Params:
    """The engine's constants over vars, which is part of every memo key."""
    one = CoeffFraction.const(1, vars)
    if vars == BMW_VARS:
        q, r = CoeffFraction.var("q", vars), CoeffFraction.var("r", vars)
        return _Params(one, q, r, r.inverse(), q - q.inverse(), bmw_z())
    return _Params(one, one, one, one, one - one, CoeffFraction.var("z", vars))


# -- the chain-word engine -------------------------------------------------------
#
# All single-word operations return a tuple of (permutation, coefficient)
# pairs, understood modulo the ideal generated by the (f+1)-fold E-chain.

def _merge(pairs):
    acc = {}
    for x, c in pairs:
        acc[x] = acc[x] + c if x in acc else c
    return tuple((x, c) for x, c in acc.items() if not c.is_zero())


def _scaled(pairs, c):
    return tuple((x, d * c) for x, d in pairs)


def _longer_right(x: Permutation, i: int) -> bool:
    xi = x.inverse()
    return xi(i) < xi(i + 1)


def _longer_left(x: Permutation, j: int) -> bool:
    return x(j) < x(j + 1)


@lru_cache(maxsize=None)
def _lstr(s, x: Permutation, n: int, f: int, vars: tuple):
    """E-chain * T_{j_1}^{e_1} ... T_{j_m}^{e_m} * T_x modulo the next layer.

    ``s`` is the string of (index, sign) pairs ordered outermost first, with
    strictly decreasing indices.  The string is resolved innermost first,
    keeping the outer letters as explicit context: an E_j produced by the
    quadratic relation does not commute with the adjacent outer letter, so
    it must be absorbed into the chain before the context is released.
    """
    if not s:
        return ((x, _params(vars).one),)
    j, sign = s[-1]
    rest = s[:-1]
    sx = x.lmul_s(j)
    delta = _params(vars).delta
    # T_j T_x = T_{s_j x} when s_j x is longer, and T_j^{-1} T_x likewise
    # when it is shorter
    if _longer_left(x, j) == (sign == 1):
        return _lstr(rest, sx, n, f, vars)
    out = list(_lstr(rest, sx, n, f, vars))
    if sign == 1:
        out.extend(_scaled(_lstr(rest, x, n, f, vars), delta))
        out.extend(_scaled(_lstr_e(rest, j, sx, n, f, vars),
                           -delta * _params(vars).rinv))
    else:  # T_j^{-1} = T_j - (q - q^{-1})(1 - E_j)
        out.extend(_scaled(_lstr(rest, x, n, f, vars), -delta))
        out.extend(_scaled(_lstr_e(rest, j, x, n, f, vars), delta))
    return _merge(out)


@lru_cache(maxsize=None)
def _lstr_e(s, j: int, y: Permutation, n: int, f: int, vars: tuple):
    """E-chain * (string s) * E_j * T_y modulo the next layer.

    All string indices exceed j.  For j above the chain the whole term
    falls into the next filtration layer.  For odd j in the chain, E_j
    commutes up to the adjacent letter j+1, which it absorbs as r^{sign};
    for even j the pair relation E_{j-1} E_j = E_{j-1} T_j T_{j-1} trades
    E_j for two more string letters.
    """
    assert all(idx > j for idx, _ in s)
    if j >= 2 * f + 1:
        return ()
    if j % 2 == 1:  # j odd, j <= 2f - 1
        if not s:
            return ((y, _params(vars).z),)
        j1, e1 = s[-1]
        if j1 == j + 1:
            p = _params(vars)
            return _scaled(_lstr(s[:-1], y, n, f, vars),
                           p.r if e1 == 1 else p.rinv)
        # every string letter commutes with E_j
        return _scaled(_lstr(s, y, n, f, vars), _params(vars).z)
    # j even, j <= 2f
    return _lstr(s + ((j, 1), (j - 1, 1)), y, n, f, vars)


@lru_cache(maxsize=None)
def _emul(x: Permutation, i: int, n: int, f: int, vars: tuple):
    """E-chain * T_x * E_i modulo the next layer."""
    xi = x.inverse()
    k, l = xi(i), xi(i + 1)
    if l < k:
        return _scaled(_emul(x.rmul_s(i), i, n, f, vars), _params(vars).rinv)
    if l == k + 1:
        if k % 2 == 1 and k <= 2 * f - 1:
            return ((x, _params(vars).z),)
        if k % 2 == 0 and k <= 2 * f:
            return _lstr_e((), k, x, n, f, vars)
        return ()
    # l > k + 1: the strand between positions k and l is threaded out
    if k > 2 * f:
        return ()
    wp = Permutation.from_word(range(k + 1, l), n) * x

    def eps(j):
        return 1 if x(j) > i + 1 else -1

    string = tuple((j, eps(j)) for j in range(l - 1, k, -1))
    return _lstr_e(string, k, wp, n, f, vars)


@lru_cache(maxsize=None)
def _rmul(x: Permutation, i: int, n: int, f: int, vars: tuple):
    """E-chain * T_x * T_i modulo the next layer."""
    sx = x.rmul_s(i)
    one, delta = _params(vars).one, _params(vars).delta
    if _longer_right(x, i):
        return ((sx, one),)
    out = [(sx, one), (x, delta)]
    out.extend(_scaled(_emul(sx, i, n, f, vars), -delta * _params(vars).rinv))
    return _merge(out)


@lru_cache(maxsize=None)
def _normalize(x: Permutation, n: int, f: int, vars: tuple):
    """Write the chain word E T_x as sum of E T_u T_v with u upper and v a
    distinguished coset representative, modulo the next layer.

    Returns a tuple of ((u, v), coefficient) pairs.
    """
    delta, rinv = _params(vars).delta, _params(vars).rinv
    done = []
    work = [(Permutation.identity(n), x, _params(vars).one)]
    while work:
        u, v, c = work.pop()
        # phase 1: pull upper descents of v into u
        i = None
        for j in range(2 * f + 1, n):
            if v(j) > v(j + 1):
                i = j
                break
        if i is not None:
            sv = v.lmul_s(i)
            work.append((u.rmul_s(i), sv, c))
            if not _longer_right(u, i):
                work.append((u, sv, c * delta))
                # the E_i cross term dies in the next layer
            continue
        # phase 2: sort within pairs (each swap absorbs into the chain as r^{-1})
        i = None
        for p in range(1, f + 1):
            if v(2 * p - 1) > v(2 * p):
                i = 2 * p - 1
                break
        if i is not None:
            work.append((u, v.lmul_s(i), c * rinv))
            continue
        # phase 3: order the chain pairs by their smaller entry.  A single
        # step acts on the window of two adjacent pairs whose right pair
        # holds the smallest misplaced entry; writing the window part of v
        # as sigma * (sorted window), the factor E T_sigma reduces by one
        # of three local identities, depending on how the pairs interleave:
        #   fully crossed   E T_{s s' s'' s}          = E
        #   nested          E T_{s s'}                = E T_{s s''}
        #   partly crossed  E T_{s s'' s'}            = E T_s
        #                     + delta E T_{s s''} - delta E
        # (s = middle, s' = left, s'' = right window generator; each follows
        # from E_a T_b T_a = E_a E_b, E_a T_b E_a = r E_a, E_a E_b E_a = E_a.)
        step = None
        mins = [min(v(2 * j - 1), v(2 * j)) for j in range(1, f + 1)]
        for j in range(f):
            tail_min = min(mins[j:])
            if mins[j] != tail_min:
                step = mins.index(tail_min, j + 1)  # 0-based pair to move left
                break
        if step is not None:
            p = 2 * step - 1  # leftmost window position
            vals = sorted(v(p + t) for t in range(4))
            img = list(v.img)
            for t in range(4):
                img[p - 1 + t] = vals[t]
            v_sorted = Permutation(img)
            rank = tuple(vals.index(v(p + t)) + 1 for t in range(4))
            tau1 = v_sorted.lmul_s(p + 1)
            tau2 = v_sorted.lmul_s(p + 2).lmul_s(p + 1)
            if rank == (3, 4, 1, 2):
                work.append((u, v_sorted, c))
            elif rank == (2, 3, 1, 4):
                work.append((u, tau2, c))
            elif rank == (2, 4, 1, 3):
                work.append((u, v_sorted, -c * delta))
                work.append((u, tau1, c))
                work.append((u, tau2, c * delta))
            else:
                raise AssertionError("impossible window pattern")
            continue
        done.append(((u, v), c))
    acc = {}
    for key, c in done:
        acc[key] = acc[key] + c if key in acc else c
    return tuple((key, c) for key, c in acc.items() if not c.is_zero())


# -- cell modules ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _seed_terms(lam, n: int, t: StdTableau, u: Permutation, vars: tuple):
    """m_lambda T_{d(t)} T_u as chain words (lengths are additive)."""
    d, q = tab_perm(t), _params(vars).q
    return tuple((w * d * u, q ** w.length())
                 for w in row_stabilizer(lam, n))


def _hat_perm(u: Permutation, f: int, m: int) -> Permutation:
    """Restrict an upper-subgroup permutation to letters 1..m (shift by 2f)."""
    return Permutation([u(i + 2 * f) - 2 * f for i in range(1, m + 1)])


def _upper_terms(terms, n: int, f: int, vars: tuple) -> dict:
    """Normalized chain-word terms as {(upper part on 1..m, coset rep): c}."""
    m = n - 2 * f
    out = {}
    for x, c in terms:
        for (u, v), d in _normalize(x, n, f, vars):
            key = (_hat_perm(u, f, m), v)
            out[key] = out[key] + c * d if key in out else c * d
    return {key: c for key, c in out.items() if not c.is_zero()}


def _apply_gen_terms(terms, gen, n: int, f: int, vars: tuple):
    kind, i = gen
    out = []
    for x, c in terms:
        if kind == "T":
            out.extend(_scaled(_rmul(x, i, n, f, vars), c))
        elif kind == "E":
            out.extend(_scaled(_emul(x, i, n, f, vars), c))
        else:
            raise ValueError("unknown generator kind {!r}".format(kind))
    return _merge(out)


def cell_rows(lam, n: int, vars: tuple, element) -> list:
    """Matrix of sum c * word on the cell module S^lambda over vars (rows =
    images), for element a sequence of (word, c) pairs whose words are
    sequences of ("T", i) and ("E", i) letters.  Each row is projected by
    ``hecke.cell_row`` once."""
    lam = check_partition(lam)
    f = (n - sum(lam)) // 2
    zero = CoeffFraction.const(0, vars)
    rows = []
    for t, u in cell_index(lam, n):
        seed = _seed_terms(lam, n, t, u, vars)
        out = []
        for word, c in element:
            terms = seed
            for gen in word:
                terms = _apply_gen_terms(terms, gen, n, f, vars)
            out.extend(_scaled(terms, c))
        rows.append(cell_row(_upper_terms(_merge(out), n, f, vars),
                             lam, n, zero))
    return rows


# precomputed action matrices may be installed here (keyed by
# (vars, lam, n, kind, i)), e.g. from an on-disk structure-constant cache
_gen_matrix_overrides: dict = {}


def bmw_gen_matrix(lam, n: int, kind: str, i: int, vars: tuple = BMW_VARS):
    """Matrix of the generator T_i, T_i^{-1} or E_i (kind "T", "Tinv" or
    "E") on the cell module S^lambda over vars (rows = images)."""
    lam = check_partition(lam)
    if not 1 <= i < n:
        raise ValueError("generator index out of range")
    if kind == "Tinv" and _params(vars).delta.is_zero():
        kind = "T"  # T_i^{-1} = T_i at q = 1
    cached = _gen_matrix_overrides.get((vars, lam, n, kind, i))
    if cached is not None:
        return cached
    return _gen_matrix_compute(lam, n, kind, i, vars)


@lru_cache(maxsize=None)
def _gen_matrix_compute(lam, n: int, kind: str, i: int, vars: tuple):
    if kind == "Tinv":
        # T_i^{-1} = T_i - (q - q^{-1})(1 - E_i), from T_i and E_i as
        # bmw_gen_matrix gives them, so cache overrides are used
        delta = _params(vars).delta
        rows = [[x + delta * y for x, y in zip(t_row, e_row)]
                for t_row, e_row in zip(bmw_gen_matrix(lam, n, "T", i, vars),
                                        bmw_gen_matrix(lam, n, "E", i, vars))]
        for a, row in enumerate(rows):
            row[a] = row[a] - delta
        return rows
    return cell_rows(lam, n, vars, [(((kind, i),), _params(vars).one)])


# -- the full algebra on cellular coordinates ------------------------------------------

@lru_cache(maxsize=None)
def bmw_cell_index(n: int):
    out = []
    for lam in layer_shapes(n):
        idx = cell_index(lam, n)
        for sv in idx:
            for tu in idx:
                out.append((lam, sv, tu))
    return tuple(out)


class BmwElement(Combination):
    """An element of B_n(q,r) in cellular coordinates.

    ``terms`` maps monomials (lambda, (s,v), (t,u)) to coefficients; the
    monomial is the basis element T_v* T_{d(s)}* m_lambda T_{d(t)} T_u.
    """

    __slots__ = ()
    VARS = BMW_VARS

    def __mul__(self, other: "BmwElement") -> "BmwElement":
        return bmw_mul(self, other)

    def __repr__(self):
        return "BmwElement(n={}, {} terms)".format(self.n, len(self.terms))


# ``towers`` imports this module, so the functions below import it when
# first called.

def bmw_to_cellular(n: int, rho) -> BmwElement:
    """Cellular coordinates of an element given by its cell-module matrices
    (the layer-by-layer solve of ``towers.cellular_terms``)."""
    from .towers import cellular_terms
    return BmwElement(n, cellular_terms("bmw", n, rho))


def bmw_word(word, n: int) -> BmwElement:
    """The product of a sequence of generators in the cellular basis."""
    from .towers import rho_of_word
    return bmw_to_cellular(n, rho_of_word("bmw", n, word))


def bmw_mul(a: BmwElement, b: BmwElement) -> BmwElement:
    from .towers import _rho_mul, element_rho
    a._check(b)
    return bmw_to_cellular(a.n, _rho_mul(element_rho("bmw", a.n, a.terms),
                                         element_rho("bmw", b.n, b.terms)))


def bmw_star(e: BmwElement) -> BmwElement:
    """The anti-involution: swap the two monomial indices."""
    return BmwElement(e.n, {(lam, tu, sv): c
                            for (lam, sv, tu), c in e.terms.items()})


def bmw_m_lambda(lam, n: int) -> BmwElement:
    """m_lambda as a cellular element (the diagonal seed monomial)."""
    lam = check_partition(lam)
    t = superstandard(lam, n)
    one = Permutation.identity(n)
    return BmwElement(n, {(lam, (t, one), (t, one)): _params(BMW_VARS).one})


def bmw_jm(i: int, n: int) -> BmwElement:
    """The operator L_i (L_1 = 1, L_i = T_{i-1} L_{i-1} T_{i-1})."""
    from .towers import jm_matrix
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    return bmw_to_cellular(n, {lam: jm_matrix("bmw", lam, n, i)
                               for lam in layer_shapes(n)})
