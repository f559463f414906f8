"""The Birman-Murakami-Wenzl algebra B_n(q,r).

Everything is built on a "chain word" rewriting engine: a chain word is
E_1 E_3 ... E_{2f-1} T_x with x an arbitrary permutation, and the engine
knows how to multiply a chain word by T_i, T_i^{-1} or E_i modulo the next
filtration layer, and how to normalize a chain word into the canonical
shape E-chain * T_u * T_v with u in the upper subgroup <s_i : 2f < i < n>
and v a distinguished coset representative.  Projecting the upper part
onto its Murphy-basis layer (``hecke.cell_row``, shared with the Brauer
tower) then yields the action of the algebra on each cell module.

Exact coordinates on the full cellular basis are recovered by a linear
solve against the faithful direct sum of all cell-module representations;
the defining relations are certified as matrix identities and the basis
count matches (2n-1)!!, so the matrix model is the presented algebra.
"""

from functools import lru_cache

from .combin import (
    Permutation,
    StdTableau,
    cell_index,
    check_partition,
    layer_shapes,
    superstandard,
    tab_perm,
)
from .exactring import BMW_VARS, CoeffFraction, bmw_z
from .hecke import cell_row, row_stabilizer, to_murphy
from .linalg import identity_matrix, invert_fraction_free, mat_mul


def _const(c) -> CoeffFraction:
    return CoeffFraction.const(c, BMW_VARS)


@lru_cache(maxsize=None)
def _q_power(k: int) -> CoeffFraction:
    return CoeffFraction.var("q", BMW_VARS) ** k


@lru_cache(maxsize=None)
def _r_power(k: int) -> CoeffFraction:
    return CoeffFraction.var("r", BMW_VARS) ** k


@lru_cache(maxsize=None)
def _delta() -> CoeffFraction:
    q = CoeffFraction.var("q", BMW_VARS)
    return q - q.inverse()


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
def _lstr(s, x: Permutation, n: int, f: int):
    """E-chain * T_{j_1}^{e_1} ... T_{j_m}^{e_m} * T_x modulo the next layer.

    ``s`` is the string of (index, sign) pairs ordered outermost first, with
    strictly decreasing indices.  The string is resolved innermost first,
    keeping the outer letters as explicit context: an E_j produced by the
    quadratic relation does not commute with the adjacent outer letter, so
    it must be absorbed into the chain before the context is released.
    """
    if not s:
        return ((x, _const(1)),)
    j, sign = s[-1]
    rest = s[:-1]
    sx = x.lmul_s(j)
    delta = _delta()
    if sign == 1:
        if _longer_left(x, j):
            return _lstr(rest, sx, n, f)
        out = list(_scaled(_lstr(rest, sx, n, f), _const(1)))
        out.extend(_scaled(_lstr(rest, x, n, f), delta))
        out.extend(_scaled(_lstr_e(rest, j, sx, n, f),
                           -delta * _r_power(-1)))
        return _merge(out)
    # T_j^{-1} = T_j - (q - q^{-1})(1 - E_j)
    if not _longer_left(x, j):
        return _lstr(rest, sx, n, f)
    out = list(_scaled(_lstr(rest, sx, n, f), _const(1)))
    out.extend(_scaled(_lstr(rest, x, n, f), -delta))
    out.extend(_scaled(_lstr_e(rest, j, x, n, f), delta))
    return _merge(out)


@lru_cache(maxsize=None)
def _lstr_e(s, j: int, y: Permutation, n: int, f: int):
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
            return ((y, bmw_z()),)
        j1, e1 = s[-1]
        if j1 == j + 1:
            return _scaled(_lstr(s[:-1], y, n, f), _r_power(e1))
        # every string letter commutes with E_j
        return _scaled(_lstr(s, y, n, f), bmw_z())
    # j even, j <= 2f
    return _lstr(s + ((j, 1), (j - 1, 1)), y, n, f)


@lru_cache(maxsize=None)
def _emul(x: Permutation, i: int, n: int, f: int):
    """E-chain * T_x * E_i modulo the next layer."""
    xi = x.inverse()
    k, l = xi(i), xi(i + 1)
    if l < k:
        return _scaled(_emul(x.rmul_s(i), i, n, f), _r_power(-1))
    if l == k + 1:
        if k % 2 == 1 and k <= 2 * f - 1:
            return ((x, bmw_z()),)
        if k % 2 == 0 and k <= 2 * f:
            return _lstr_e((), k, x, n, f)
        return ()
    # l > k + 1: the strand between positions k and l is threaded out
    if k > 2 * f:
        return ()
    wp = Permutation.from_word(range(k + 1, l), n) * x

    def eps(j):
        return 1 if x(j) > i + 1 else -1

    string = tuple((j, eps(j)) for j in range(l - 1, k, -1))
    return _lstr_e(string, k, wp, n, f)


@lru_cache(maxsize=None)
def _rmul(x: Permutation, i: int, sign: int, n: int, f: int):
    """E-chain * T_x * T_i^{sign} modulo the next layer."""
    sx = x.rmul_s(i)
    delta = _delta()
    if sign == 1:
        if _longer_right(x, i):
            return ((sx, _const(1)),)
        out = [(sx, _const(1)), (x, delta)]
        out.extend(_scaled(_emul(sx, i, n, f), -delta * _r_power(-1)))
        return _merge(out)
    if not _longer_right(x, i):
        return ((sx, _const(1)),)
    out = [(sx, _const(1)), (x, -delta)]
    out.extend(_scaled(_emul(x, i, n, f), delta))
    return _merge(out)


@lru_cache(maxsize=None)
def _normalize(x: Permutation, n: int, f: int):
    """Write the chain word E T_x as sum of E T_u T_v with u upper and v a
    distinguished coset representative, modulo the next layer.

    Returns a tuple of ((u, v), coefficient) pairs.
    """
    delta = _delta()
    rinv = _r_power(-1)
    done = []
    work = [(Permutation.identity(n), x, _const(1))]
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
            usi = u.rmul_s(i)
            if _longer_right(u, i):
                work.append((usi, sv, c))
            else:
                work.append((usi, sv, c))
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
def _row_stabilizer_perms(lam, n: int):
    return tuple(row_stabilizer(check_partition(lam), n))


def _seed_terms(lam, n: int, t: StdTableau, u: Permutation):
    """m_lambda T_{d(t)} T_u as chain words (lengths are additive)."""
    d = tab_perm(t)
    return tuple((w * d * u, _q_power(w.length()))
                 for w in _row_stabilizer_perms(lam, n))


def _hat_perm(u: Permutation, f: int, m: int) -> Permutation:
    """Restrict an upper-subgroup permutation to letters 1..m (shift by 2f)."""
    return Permutation([u(i + 2 * f) - 2 * f for i in range(1, m + 1)])


def _upper_terms(terms, n: int, f: int) -> dict:
    """Normalized chain-word terms as {(upper part on 1..m, coset rep): c}."""
    m = n - 2 * f
    out = {}
    for x, c in terms:
        for (u, v), d in _normalize(x, n, f):
            key = (_hat_perm(u, f, m), v)
            out[key] = out[key] + c * d if key in out else c * d
    return {key: c for key, c in out.items() if not c.is_zero()}


def _apply_gen_terms(terms, gen, n: int, f: int):
    kind, i = gen
    out = []
    for x, c in terms:
        if kind == "T":
            out.extend(_scaled(_rmul(x, i, 1, n, f), c))
        elif kind == "Tinv":
            out.extend(_scaled(_rmul(x, i, -1, n, f), c))
        elif kind == "E":
            out.extend(_scaled(_emul(x, i, n, f), c))
        else:
            raise ValueError("unknown generator kind {!r}".format(kind))
    return _merge(out)


# precomputed action matrices may be installed here (keyed by
# (lam, n, kind, i)), e.g. from an on-disk structure-constant cache
_gen_matrix_overrides: dict = {}


def bmw_gen_matrix(lam, n: int, kind: str, i: int):
    """Matrix of a generator on the cell module S^lambda (rows = images)."""
    lam = check_partition(lam)
    if not 1 <= i < n:
        raise ValueError("generator index out of range")
    cached = _gen_matrix_overrides.get((lam, n, kind, i))
    if cached is not None:
        return cached
    return _bmw_gen_matrix_compute(lam, n, kind, i)


@lru_cache(maxsize=None)
def _bmw_gen_matrix_compute(lam, n: int, kind: str, i: int):
    f = (n - sum(lam)) // 2
    zero = _const(0)
    rows = []
    for t, u in cell_index(lam, n):
        terms = _apply_gen_terms(_seed_terms(lam, n, t, u), (kind, i), n, f)
        rows.append(cell_row(_upper_terms(terms, n, f), lam, n, to_murphy,
                             zero))
    return rows


def bmw_word_matrix(lam, n: int, word):
    """Matrix of a product of generators on S^lambda."""
    lam = check_partition(lam)
    out = identity_matrix(len(cell_index(lam, n)), BMW_VARS)
    for kind, i in word:
        out = mat_mul(out, bmw_gen_matrix(lam, n, kind, i))
    return out


def perm_word(w: Permutation, inverse: bool = False):
    word = w.reduced_word()
    if inverse:
        word = tuple(reversed(word))
    return [("T", i) for i in word]


# -- Jucys-Murphy operators -----------------------------------------------------------

@lru_cache(maxsize=None)
def bmw_jm_matrix(lam, n: int, k: int):
    """Matrix of L_k on S^lambda; L_1 = 1 and L_k = T_{k-1} L_{k-1} T_{k-1}."""
    lam = check_partition(lam)
    if not 1 <= k <= n:
        raise ValueError("index out of range")
    if k == 1:
        return identity_matrix(len(cell_index(lam, n)), BMW_VARS)
    t = bmw_gen_matrix(lam, n, "T", k - 1)
    return mat_mul(mat_mul(t, bmw_jm_matrix(lam, n, k - 1)), t)


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


def _rho_word(n: int, word):
    """Block-diagonal matrices of a generator word on all cell modules."""
    return {lam: bmw_word_matrix(lam, n, word)
            for lam in layer_shapes(n)}


def _rho_mul(a, b):
    return {lam: mat_mul(a[lam], b[lam]) for lam in a}


def _rho_scale(a, c):
    return {lam: [[cell * c for cell in row] for row in a[lam]] for lam in a}


def _rho_add(a, b):
    return {lam: [[x + y for x, y in zip(ra, rb)]
                  for ra, rb in zip(a[lam], b[lam])] for lam in a}


def rho_identity(n: int):
    return {lam: identity_matrix(len(cell_index(lam, n)), BMW_VARS)
            for lam in layer_shapes(n)}


def rho_of_word(n: int, word):
    out = rho_identity(n)
    for kind, i in word:
        out = _rho_mul(out, _rho_word(n, [(kind, i)]))
    return out


def _rho_m_lambda(lam, n: int):
    from .towers import m_lambda_matrix
    return {mu: m_lambda_matrix("bmw", lam, n, mu) for mu in layer_shapes(n)}


@lru_cache(maxsize=None)
def _monomial_rho(n: int, monomial):
    """Cell-module matrices of a single cellular basis element."""
    lam, (s, v), (t, u) = monomial
    word = (perm_word(v, inverse=True) + perm_word(tab_perm(s),
                                                   inverse=True))
    rho = rho_of_word(n, word)
    rho = _rho_mul(rho, _rho_m_lambda(lam, n))
    return _rho_mul(rho, rho_of_word(n, perm_word(tab_perm(t))
                                     + perm_word(u)))


@lru_cache(maxsize=None)
def _gram_inverse(lam, n: int):
    from .towers import gram_matrix
    return invert_fraction_free(gram_matrix("bmw", lam, n))


class BmwElement:
    """An element of B_n(q,r) in cellular coordinates.

    ``terms`` maps monomials (lambda, (s,v), (t,u)) to coefficients; the
    monomial is the basis element T_v* T_{d(s)}* m_lambda T_{d(t)} T_u.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls, n: int) -> "BmwElement":
        return cls(n, {})

    def __eq__(self, other) -> bool:
        return (isinstance(other, BmwElement) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "BmwElement") -> "BmwElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return BmwElement(self.n, out)

    def __sub__(self, other: "BmwElement") -> "BmwElement":
        return self + other.scale(_const(-1))

    def scale(self, c: CoeffFraction) -> "BmwElement":
        return BmwElement(self.n, {k: x * c for k, x in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "BmwElement") -> "BmwElement":
        return bmw_mul(self, other)

    def __repr__(self):
        return "BmwElement(n={}, {} terms)".format(self.n, len(self.terms))


def bmw_element_rho(e: BmwElement):
    """Cell-module matrices of an element (block-diagonal model)."""
    acc = None
    for m, c in e.terms.items():
        piece = _rho_scale(_monomial_rho(e.n, m), c)
        acc = piece if acc is None else _rho_add(acc, piece)
    if acc is None:
        return _rho_scale(rho_identity(e.n), _const(0))
    return acc


def bmw_to_cellular(n: int, rho) -> BmwElement:
    """Cellular coordinates of an element given by its cell-module matrices.

    Solves layer by layer, least dominant first: a basis element indexed by
    ((s,v),(t,u)) at layer lambda acts on S^lambda as the outer product of
    the Gram column at (s,v) with the unit vector at (t,u), and acts as zero
    on every strictly less dominant module.  So the residual block on
    S^lambda determines the lambda-layer coefficients through the inverse
    Gram matrix; subtracting the full block-diagonal action of each
    determined monomial and checking that the residual vanishes certifies
    the answer exactly.
    """
    residual = {lam: [list(row) for row in rho[lam]] for lam in rho}
    terms = {}
    for lam in reversed(layer_shapes(n)):
        coeffs = mat_mul(_gram_inverse(lam, n), residual[lam])
        index = cell_index(lam, n)
        for a, sv in enumerate(index):
            for b, tu in enumerate(index):
                c = coeffs[a][b]
                if c.is_zero():
                    continue
                monomial = (lam, sv, tu)
                terms[monomial] = c
                piece = _monomial_rho(n, monomial)
                for mu in residual:
                    residual[mu] = [
                        [x - y * c for x, y in zip(ra, rb)]
                        for ra, rb in zip(residual[mu], piece[mu])]
    for mu, block in residual.items():
        for row in block:
            for cell in row:
                if not cell.is_zero():
                    raise AssertionError(
                        "matrices do not represent an algebra element")
    return BmwElement(n, terms)


def bmw_word(word, n: int) -> BmwElement:
    """The product of a sequence of generators in the cellular basis."""
    return bmw_to_cellular(n, rho_of_word(n, word))


def bmw_mul(a: BmwElement, b: BmwElement) -> BmwElement:
    if a.n != b.n:
        raise ValueError("mismatched n")
    return bmw_to_cellular(a.n, _rho_mul(bmw_element_rho(a),
                                         bmw_element_rho(b)))


def bmw_mul_right_gen(e: BmwElement, kind: str, i: int) -> BmwElement:
    """Exact right multiplication by a generator T_i, T_i^{-1} or E_i."""
    if not 1 <= i < e.n:
        raise ValueError("generator index out of range")
    rho = _rho_mul(bmw_element_rho(e), rho_of_word(e.n, [(kind, i)]))
    return bmw_to_cellular(e.n, rho)


def bmw_star(e: BmwElement) -> BmwElement:
    """The anti-involution: swap the two monomial indices."""
    return BmwElement(e.n, {(lam, tu, sv): c
                            for (lam, sv, tu), c in e.terms.items()})


def bmw_m_lambda(lam, n: int) -> BmwElement:
    """m_lambda as a cellular element (the diagonal seed monomial)."""
    lam = check_partition(lam)
    t = superstandard(lam, n)
    one = Permutation.identity(n)
    return BmwElement(n, {(lam, (t, one), (t, one)): _const(1)})


def bmw_cell_action(vec: dict, lam, n: int, kind: str, i: int) -> dict:
    """Action of a generator on a cell-module vector over cell_index."""
    lam = check_partition(lam)
    index = cell_index(lam, n)
    pos = {tu: j for j, tu in enumerate(index)}
    mat = bmw_gen_matrix(lam, n, kind, i)
    out = {}
    for tu, c in vec.items():
        for j, cell in enumerate(mat[pos[tu]]):
            if cell.is_zero():
                continue
            key = index[j]
            term = c * cell
            out[key] = out[key] + term if key in out else term
    return {k: c for k, c in out.items() if not c.is_zero()}


def _rho_jm(n: int, i: int):
    rho = rho_identity(n)
    for k in range(2, i + 1):
        t = _rho_word(n, [("T", k - 1)])
        rho = _rho_mul(_rho_mul(t, rho), t)
    return rho


def bmw_jm(i: int, n: int) -> BmwElement:
    """The operator L_i (L_1 = 1, L_i = T_{i-1} L_{i-1} T_{i-1})."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    return bmw_to_cellular(n, _rho_jm(n, i))


def bmw_content(t: StdTableau, k: int) -> CoeffFraction:
    """Eigenvalue P_t(k): q^{2(j-i)} when box (i,j) is added at step k,
    q^{2(i-j)} r^{-2} when it is removed."""
    from .combin import path_of_tableau
    path = path_of_tableau(t)
    prev, cur = path[k - 1], path[k]
    if sum(cur) > sum(prev):
        rows = list(prev) + [0] * (len(cur) - len(prev))
        for i, (a, b) in enumerate(zip(rows, cur)):
            if b > a:
                return _q_power(2 * (b - 1 - i))
        raise AssertionError
    rows = list(cur) + [0] * (len(prev) - len(cur))
    for i, (a, b) in enumerate(zip(rows, prev)):
        if b > a:
            return _q_power(2 * (i + 1 - b)) * _r_power(-2)
    raise AssertionError
