"""Restriction machinery for the two diagram-algebra towers.

Each cell module S^lambda of B_n restricts to a filtered B_{n-1}-module
whose subquotients are the cell modules S^mu over the one-box neighbors
mu of lambda.  Iterating the construction produces a basis of S^lambda
indexed by the up-down (Bratteli) paths of shape lambda, on which the
Jucys-Murphy operators act triangularly with explicit diagonal values.
``ordered_paths`` is the one enumerator of those paths, in the order in
which ``build_path_basis`` lifts them, most dominant first; its first path
is ``maximal_path``.  ``y_element`` gives the lifted vector y^lambda_mu as a
tuple of cell-basis coordinates.

Both towers run through the same routines here.  Their generator matrices
come from one table, ``bmw.bmw_gen_matrix`` over the tower's variable
tuple, and both spell words in the letters T, Tinv and E: at q = 1 the
letter T_i is s_i, T_i^{-1} = T_i and the coset-sum coefficient q^i is 1.
``_BmwOps`` and ``_BrauerOps`` hold only what differs mathematically: the
variable tuple, the step contents and the Jucys-Murphy recurrence
(``jm_matrix``) with its central combination.  The cell-module matrices of a
generator word (``word_matrix``, ``rho_of_word``) and of an element on the
cellular basis (``element_rho``), and the way back from such matrices to
cellular coordinates (``cellular_terms``), serve both towers.
"""

from functools import lru_cache

from .bmw import _params, bmw_gen_matrix
from .combin import (
    Permutation,
    StdTableau,
    cell_index,
    check_partition,
    layer_shapes,
    neighbors,
    path_dominance,
    superstandard,
    tab_perm,
    up_neighbor_data,
)
from .exactring import BMW_VARS, BRAUER_VARS, CoeffFraction
from .linalg import identity_matrix, invert_fraction_free, mat_mul


class _BmwOps:
    """What the two-parameter tower does differently."""

    vars = BMW_VARS

    @staticmethod
    def content(prev, cur):
        node, added = _changed_node(prev, cur)
        i, j = node
        if added:
            return CoeffFraction.monomial(BMW_VARS, q=2 * (j - i))
        return CoeffFraction.monomial(BMW_VARS, q=2 * (i - j), r=-2)

    # L_1 = 1 and L_k = T_{k-1} L_{k-1} T_{k-1}; the central combination
    # is the product of the L_k
    jm_start = 1
    jm_adds_s_minus_e = False
    central_is_product = True


class _BrauerOps:
    """What the one-parameter tower does differently."""

    vars = BRAUER_VARS

    @staticmethod
    def content(prev, cur):
        node, added = _changed_node(prev, cur)
        i, j = node
        if added:
            return CoeffFraction.const(j - i, BRAUER_VARS)
        return (CoeffFraction.const(i - j + 1, BRAUER_VARS)
                - CoeffFraction.var("z", BRAUER_VARS))

    # L_1 = 0 and L_k = s_{k-1} L_{k-1} s_{k-1} + s_{k-1} - E_{k-1}; the
    # central combination is the sum of the L_k
    jm_start = 0
    jm_adds_s_minus_e = True
    central_is_product = False


def _ops(algebra: str):
    if algebra == "bmw":
        return _BmwOps
    if algebra == "brauer":
        return _BrauerOps
    raise ValueError("unknown algebra {!r}".format(algebra))


def _changed_node(prev, cur):
    """The box by which cur differs from prev: ((row, col), added?)."""
    prev, cur = check_partition(prev), check_partition(cur)
    if sum(cur) == sum(prev) + 1:
        big, small, added = cur, prev, True
    elif sum(cur) == sum(prev) - 1:
        big, small, added = prev, cur, False
    else:
        raise ValueError("consecutive path shapes must differ by one box")
    for i in range(len(big)):
        a = big[i]
        b = small[i] if i < len(small) else 0
        if a == b + 1:
            return (i + 1, a), added
        if a != b:
            break
    raise ValueError("consecutive path shapes must differ by one box")


def path_content(algebra: str, path, k: int) -> CoeffFraction:
    """The symbolic eigenvalue P_t(k) of L_k attached to step k of a path."""
    if not 1 <= k <= len(path) - 1:
        raise ValueError("step index out of range")
    return _ops(algebra).content(path[k - 1], path[k])


# -- paths in recursion order --------------------------------------------------------

@lru_cache(maxsize=None)
def ordered_paths(lam, n: int):
    """All paths of shape lam, grouped by the neighbor chain at each level
    (a linear extension of path dominance, most dominant path first)."""
    lam = check_partition(lam)
    if n == 0:
        if lam:
            raise ValueError("only the empty shape exists at level zero")
        return (((),),)
    out = []
    for mu in neighbors(lam, n):
        for p in ordered_paths(mu, n - 1):
            out.append(p + (lam,))
    return tuple(out)


def maximal_path(lam, n: int):
    """The unique dominance-maximal path of shape lam: the first of
    ``ordered_paths``, checked to dominate every other one."""
    paths = ordered_paths(check_partition(lam), n)
    if any(path_dominance(paths[0], p) != "dominates" for p in paths[1:]):
        raise AssertionError("the first ordered path is not the maximum")
    return paths[0]


# -- y-elements ----------------------------------------------------------------------

def down_tableau(lam, mu, n: int) -> StdTableau:
    """The standard tableau s of shape lam whose restriction to n-1 is the
    row-filling tableau of mu (one box removed from lam)."""
    lam, mu = check_partition(lam), check_partition(mu)
    node, added = _changed_node(lam, mu)
    if added:
        raise ValueError("mu must have one box fewer than lam")
    base = superstandard(mu, n - 1)
    rows = [list(r) for r in base.rows]
    i, j = node
    while len(rows) < i:
        rows.append([])
    rows[i - 1].append(n)
    s = StdTableau(rows, n)
    if not s.is_standard() or s.shape != lam:
        raise AssertionError("down tableau construction failed")
    return s


def _unit_vector(vars, lam, n, key):
    index = cell_index(lam, n)
    zero = CoeffFraction.const(0, vars)
    one = CoeffFraction.const(1, vars)
    return [one if tu == key else zero for tu in index]


def _perm_letters(w):
    """The letters T_i of a reduced word of the permutation w."""
    return [("T", i) for i in w.reduced_word()]


def _apply_letters(vars, rows, lam, n, letters):
    """Right action of a generator word on each row vector of S^lambda."""
    for kind, i in letters:
        rows = mat_mul(rows, bmw_gen_matrix(lam, n, kind, i, vars))
    return rows


def _coset_sum(vars, rows, lam, n, top, length):
    """Each row vector of S^lambda times the coset sum
    sum_{i=0..length} q^i T_top T_{top-1} ... T_{top-i+1} (q = 1 in the
    one-parameter tower)."""
    q = _params(vars).q
    cur = acc = rows
    for i in range(1, length + 1):
        cur = _apply_letters(vars, cur, lam, n, [("T", top - i + 1)])
        coeff = q ** i
        acc = [[x + y * coeff for x, y in zip(ra, rc)]
               for ra, rc in zip(acc, cur)]
    return acc


def y_element(algebra: str, lam, mu, n: int) -> tuple:
    """The generator y^lambda_mu of the restriction filtration layer N^mu,
    as its coordinates on the cell basis of S^lambda."""
    vars = _ops(algebra).vars
    lam, mu = check_partition(lam), check_partition(mu)
    if mu not in neighbors(lam, n):
        raise ValueError(
            "{} is not a Bratteli neighbor of {} at level {}".format(
                mu, lam, n))
    one = Permutation.identity(n)
    if sum(mu) == sum(lam) - 1:
        s = down_tableau(lam, mu, n)
        return tuple(_unit_vector(vars, lam, n, (s, one)))
    # one box added: act on m_lambda by the inverse of the distinguished
    # permutation, then by the telescoping sum over the new row
    for entry, a, w_word in up_neighbor_data(lam, n):
        if entry == mu:
            break
    else:
        raise AssertionError("neighbor data must contain mu")
    (row, _col), added = _changed_node(lam, mu)
    if not added:
        raise AssertionError("expected an added box")
    seed = _unit_vector(vars, lam, n, (superstandard(lam, n), one))
    base = _apply_letters(vars, [seed], lam, n,
                          [("Tinv", i) for i in reversed(w_word)])[0]
    depth = lam[row - 1] if row - 1 < len(lam) else 0
    return tuple(_coset_sum(vars, [base], lam, n, a - 1, depth)[0])


# -- the recursive path basis --------------------------------------------------------

class PathBasis:
    """Basis of S^lambda indexed by up-down paths.

    ``vectors[t]`` holds the cell-basis coordinates of m_t and
    ``b_words[t]`` the element b_t with m_t = m_lambda b_t, stored as
    coefficients on the permutation monomials d(t)u of the cell basis.
    """

    __slots__ = ("algebra", "n", "lam", "paths", "index", "vectors",
                 "b_words", "_inverse")

    def __init__(self, algebra, n, lam, paths, index, vectors, b_words,
                 inverse):
        self.algebra = algebra
        self.n = n
        self.lam = lam
        self.paths = paths
        self.index = index
        self.vectors = vectors
        self.b_words = b_words
        self._inverse = inverse

    def transition_matrix(self):
        """Columns are the path vectors m_t over the cell basis rows."""
        return [[self.vectors[t][i] for t in self.paths]
                for i in range(len(self.index))]

    def path_rows(self):
        """The path vectors as rows (one row per path)."""
        return [list(self.vectors[t]) for t in self.paths]

    def conjugate(self, matrix):
        """Rewrite a cell-basis action matrix in the path basis."""
        return mat_mul(mat_mul(self.path_rows(), matrix), self._inverse)


@lru_cache(maxsize=None)
def build_path_basis(algebra: str, lam, n: int) -> PathBasis:
    """Lift bases through the tower: m_t = y^lambda_mu b_u for t|_{n-1} = u."""
    vars = _ops(algebra).vars
    lam = check_partition(lam)
    index = cell_index(lam, n)
    one_c = CoeffFraction.const(1, vars)
    if n == 1:
        path = ((), lam)
        vectors = {path: (one_c,)}
        b_words = {path: {Permutation.identity(1): one_c}}
        return PathBasis(algebra, n, lam, (path,), index, vectors, b_words,
                         identity_matrix(1, vars))
    paths = ordered_paths(lam, n)
    vectors = {}
    b_words = {}
    for mu in neighbors(lam, n):
        y = y_element(algebra, lam, mu, n)
        sub = build_path_basis(algebra, mu, n - 1)
        for u in sub.paths:
            t = u + (lam,)
            acc = None
            for w, c in sub.b_words[u].items():
                lifted = Permutation(w.img + (n,))
                piece = _apply_letters(vars, [list(y)], lam, n,
                                       _perm_letters(lifted))[0]
                piece = [x * c for x in piece]
                acc = piece if acc is None else \
                    [x + yv for x, yv in zip(acc, piece)]
            vectors[t] = tuple(acc)
            b_words[t] = {
                tab_perm(tt) * uu: c
                for (tt, uu), c in zip(index, acc) if not c.is_zero()}
    if set(paths) != set(vectors):
        raise AssertionError("path recursion missed a path")
    rows = [list(vectors[t]) for t in paths]
    inverse = invert_fraction_free(rows)  # also certifies independence
    return PathBasis(algebra, n, lam, paths, index, vectors, b_words, inverse)


# -- the cellular bilinear form ------------------------------------------------------

@lru_cache(maxsize=None)
def m_lambda_matrix(algebra: str, lam, n: int, target):
    """Right action of m_lambda = E_1 E_3 ... E_{2f-1} sum_w c(l(w)) w on
    the cell module S^target, w over the row stabilizer of the superstandard
    lambda-tableau, with c(l) = q^l for BMW and 1 for Brauer.

    The sum is a product over the rows of the tableau.  On a row with letters
    a+1..a+k it is P_2 P_3 ... P_k, with the coset sums
    P_j = 1 + c(1) s_{a+j-1} + c(2) s_{a+j-1} s_{a+j-2} + ...
    + c(j-1) s_{a+j-1} ... s_{a+1}: each w in S_j is w'd for one w' in
    S_{j-1} and one distinguished right coset representative d among these
    words, with l(w) = l(w') + l(d).  So a row takes k(k-1)/2 letter
    products instead of one per letter of every w.
    """
    vars = _ops(algebra).vars
    lam, target = check_partition(lam), check_partition(target)
    f = (n - sum(lam)) // 2
    units = identity_matrix(len(cell_index(target, n)), vars)
    acc = _apply_letters(vars, units, target, n,
                         [("E", i) for i in range(1, 2 * f, 2)])
    for row in superstandard(lam, n).rows:
        a = row[0] - 1
        for j in range(2, len(row) + 1):
            acc = _coset_sum(vars, acc, target, n, a + j - 1, j - 1)
    return acc


@lru_cache(maxsize=None)
def gram_matrix(algebra: str, lam, n: int):
    """Gram matrix of the cellular bilinear form on S^lambda.

    Entry (a, b) is the coefficient phi with m_a (d(t)u)^* m_lambda =
    phi m_lambda in S^lambda, where m_b = m_lambda d(t)u; the star of a
    permutation word is the reversed word.
    """
    vars = _ops(algebra).vars
    lam = check_partition(lam)
    index = cell_index(lam, n)
    e1 = index.index((superstandard(lam, n), Permutation.identity(n)))
    m_mat = m_lambda_matrix(algebra, lam, n, lam)
    # W m_lambda is a multiple of m_lambda for every word W iff it is for
    # W = 1, i.e. iff every column of m_lambda but e1 is zero; column b of
    # the Gram matrix is then the star word of b applied to column e1
    if any(not x.is_zero() for row in m_mat for j, x in enumerate(row)
           if j != e1):
        raise AssertionError(
            "bilinear form value must be a multiple of m_lambda")
    m_col = [[row[e1]] for row in m_mat]
    columns = []
    for t, u in index:
        col = m_col
        for kind, i in _perm_letters(tab_perm(t)) + _perm_letters(u):
            col = mat_mul(bmw_gen_matrix(lam, n, kind, i, vars), col)
        columns.append([x for x, in col])
    return [list(row) for row in zip(*columns)]


# -- elements in cellular coordinates ------------------------------------------------
#
# For generic parameters the direct sum of the cell modules is faithful, so an
# element is fixed by its cell-module matrices ``rho`` = {lambda: matrix on
# S^lambda}, and its cellular coordinates follow layer by layer from those
# blocks and the inverse Gram matrices (Graham and Lehrer, "Cellular
# algebras", 1996).

def _rho_mul(a, b):
    return {lam: mat_mul(a[lam], b[lam]) for lam in a}


def _rho_scale(a, c):
    return {lam: [[cell * c for cell in row] for row in a[lam]] for lam in a}


def _rho_add(a, b):
    return {lam: [[x + y for x, y in zip(ra, rb)]
                  for ra, rb in zip(a[lam], b[lam])] for lam in a}


def word_matrix(algebra: str, lam, n: int, word):
    """Matrix of a product of generators on S^lambda."""
    vars = _ops(algebra).vars
    lam = check_partition(lam)
    units = identity_matrix(len(cell_index(lam, n)), vars)
    return _apply_letters(vars, units, lam, n, word)


def rho_of_word(algebra: str, n: int, word):
    """Block-diagonal matrices of a generator word on all cell modules."""
    return {lam: word_matrix(algebra, lam, n, word)
            for lam in layer_shapes(n)}


@lru_cache(maxsize=None)
def _monomial_rho(algebra: str, n: int, monomial):
    """Cell-module matrices of the cellular basis element
    (d(s)v)^* m_lambda d(t)u indexed by (lambda, (s, v), (t, u))."""
    lam, (s, v), (t, u) = monomial
    rho = rho_of_word(algebra, n, _perm_letters(v)[::-1]
                      + _perm_letters(tab_perm(s))[::-1])
    rho = _rho_mul(rho, {mu: m_lambda_matrix(algebra, lam, n, mu)
                         for mu in layer_shapes(n)})
    return _rho_mul(rho, rho_of_word(algebra, n, _perm_letters(tab_perm(t))
                                     + _perm_letters(u)))


@lru_cache(maxsize=None)
def _gram_inverse(algebra: str, lam, n: int):
    return invert_fraction_free(gram_matrix(algebra, lam, n))


def element_rho(algebra: str, n: int, terms: dict):
    """Cell-module matrices of the element sum c * monomial over terms."""
    acc = None
    for m, c in terms.items():
        piece = _rho_scale(_monomial_rho(algebra, n, m), c)
        acc = piece if acc is None else _rho_add(acc, piece)
    if acc is None:
        return _rho_scale(rho_of_word(algebra, n, ()),
                          CoeffFraction.const(0, _ops(algebra).vars))
    return acc


def cellular_terms(algebra: str, n: int, rho) -> dict:
    """Cellular coordinates {(lambda, (s,v), (t,u)): c} of the element with
    cell-module matrices rho.

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
        coeffs = mat_mul(_gram_inverse(algebra, lam, n), residual[lam])
        index = cell_index(lam, n)
        for a, sv in enumerate(index):
            for b, tu in enumerate(index):
                c = coeffs[a][b]
                if c.is_zero():
                    continue
                monomial = (lam, sv, tu)
                terms[monomial] = c
                piece = _monomial_rho(algebra, n, monomial)
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
    return terms


# -- restriction filtration ----------------------------------------------------------

def restriction_filtration_check(algebra: str, lam, n: int) -> dict:
    """Verify the neighbor filtration of S^lambda restricted to B_{n-1}.

    For each neighbor mu (most dominant first) the span of the paths
    passing through mu and its predecessors must be stable under the
    generators with index < n-1, and the induced action on the subquotient
    must match the structure constants of S^mu one level down.

    The report depends on (algebra, lambda, n) only, so it is memoised per
    process and shared by every caller: read it, never mutate it.
    """
    return _restriction_filtration_check(algebra, check_partition(lam), n)


@lru_cache(maxsize=None)
def _restriction_filtration_check(algebra, lam, n):
    vars = _ops(algebra).vars
    pb = build_path_basis(algebra, lam, n)
    report = {
        "algebra": algebra, "n": n, "lam": lam, "ok": True,
        "neighbors": [], "failures": [],
    }
    if n == 1:
        report["dimension_match"] = len(pb.paths) == len(pb.index)
        return report
    mus = neighbors(lam, n)
    blocks = []
    start = 0
    for mu in mus:
        size = len(ordered_paths(mu, n - 1))
        blocks.append((mu, start, start + size))
        report["neighbors"].append({"mu": mu, "dim": size})
        start += size
    report["dimension_match"] = start == len(pb.index)
    if not report["dimension_match"]:
        report["ok"] = False
        report["failures"].append(("dimension", start, len(pb.index)))
    gens = [(kind, i) for i in range(1, n - 1) for kind in ("T", "E")]
    subs = {mu: build_path_basis(algebra, mu, n - 1) for mu in mus}
    for kind, i in gens:
        acted = pb.conjugate(bmw_gen_matrix(lam, n, kind, i, vars))
        expected = {mu: subs[mu].conjugate(
                        bmw_gen_matrix(mu, n - 1, kind, i, vars))
                    for mu in mus}
        for mu, lo, hi in blocks:
            for a in range(lo, hi):
                for b in range(hi, len(pb.paths)):
                    if not acted[a][b].is_zero():
                        report["ok"] = False
                        report["failures"].append(
                            ("stability", (kind, i), mu,
                             pb.paths[a], pb.paths[b]))
            exp = expected[mu]
            for a in range(lo, hi):
                for b in range(lo, hi):
                    if acted[a][b] != exp[a - lo][b - lo]:
                        report["ok"] = False
                        report["failures"].append(
                            ("subquotient", (kind, i), mu,
                             pb.paths[a], pb.paths[b]))
    return report


# -- Jucys-Murphy operators ----------------------------------------------------------

@lru_cache(maxsize=None)
def jm_matrix(algebra: str, lam, n: int, k: int):
    """Matrix of the Jucys-Murphy operator L_k on S^lambda.

    L_1 = ``ops.jm_start`` and L_k = T_{k-1} L_{k-1} T_{k-1} (T_{k-1} is
    s_{k-1} in the one-parameter tower), plus s_{k-1} - E_{k-1} where
    ``ops.jm_adds_s_minus_e``.
    """
    ops = _ops(algebra)
    lam = check_partition(lam)
    if not 1 <= k <= n:
        raise ValueError("index out of range")
    if k == 1:
        dim = len(cell_index(lam, n))
        start = CoeffFraction.const(ops.jm_start, ops.vars)
        zero = CoeffFraction.const(0, ops.vars)
        return [[start if a == b else zero for b in range(dim)]
                for a in range(dim)]
    g = bmw_gen_matrix(lam, n, "T", k - 1, ops.vars)
    out = mat_mul(mat_mul(g, jm_matrix(algebra, lam, n, k - 1)), g)
    if ops.jm_adds_s_minus_e:
        e = bmw_gen_matrix(lam, n, "E", k - 1, ops.vars)
        out = [[x + y - z for x, y, z in zip(ro, rg, re)]
               for ro, rg, re in zip(out, g, e)]
    return out


# -- Jucys-Murphy triangularity ------------------------------------------------------

def jm_triangularity(algebra: str, lam, n: int) -> dict:
    """Check that every L_k is triangular on the path basis with diagonal
    P_t(k); returns the per-path diagonal values.

    The report depends on (algebra, lambda, n) only, so it is memoised per
    process and shared by every caller: read it, never mutate it.
    """
    return _jm_triangularity(algebra, check_partition(lam), n)


@lru_cache(maxsize=None)
def _jm_triangularity(algebra, lam, n):
    pb = build_path_basis(algebra, lam, n)
    report = {
        "algebra": algebra, "n": n, "lam": lam, "ok": True,
        "diagonals": {t: [] for t in pb.paths}, "failures": [],
    }
    for k in range(1, n + 1):
        mat = pb.conjugate(jm_matrix(algebra, lam, n, k))
        for a, t in enumerate(pb.paths):
            for b, u in enumerate(pb.paths):
                if a == b:
                    expected = path_content(algebra, t, k)
                    report["diagonals"][t].append(mat[a][b])
                    if mat[a][b] != expected:
                        report["ok"] = False
                        report["failures"].append(
                            ("diagonal", k, t, mat[a][b], expected))
                elif not mat[a][b].is_zero():
                    if path_dominance(u, t) != "dominates":
                        report["ok"] = False
                        report["failures"].append(("offdiagonal", k, t, u))
    return report


# -- central elements ----------------------------------------------------------------

def central_scalar(algebra: str, lam, n: int) -> CoeffFraction:
    """The scalar by which the central combination of Jucys-Murphy operators
    (product for the two-parameter tower, sum for the one-parameter tower)
    acts on S^lambda; raises if the action is not scalar."""
    ops = _ops(algebra)
    lam = check_partition(lam)
    t_max = maximal_path(lam, n)
    acc = alpha = None
    for k in range(1, n + 1):
        mat = jm_matrix(algebra, lam, n, k)
        c = path_content(algebra, t_max, k)
        if acc is None:
            acc, alpha = mat, c
        elif ops.central_is_product:
            acc, alpha = mat_mul(acc, mat), alpha * c
        else:
            acc = [[x + y for x, y in zip(ra, rb)]
                   for ra, rb in zip(acc, mat)]
            alpha = alpha + c
    for a, row in enumerate(acc):
        for b, x in enumerate(row):
            expected = alpha if a == b else alpha - alpha
            if x != expected:
                raise AssertionError(
                    "central combination failed to act as a scalar")
    return alpha
