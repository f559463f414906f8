"""The Brauer algebra B_n(z) on the diagram basis, with cellular structure.

A diagram is a perfect matching on the 2n points {1..n} (top row) and
{-1..-n} (bottom row).  Multiplication stacks diagrams and converts each
closed loop into a factor of z.  The cellular basis
(d(s)v)^{-1} m_lambda d(t)u is reached from the diagram basis by exact
linear algebra, cached per (n, lambda) layer.
"""

from functools import lru_cache
from itertools import permutations as _iter_perms

from .combin import (
    Permutation,
    StdTableau,
    cell_index,
    check_partition,
    dominance,
    layer_shapes,
    superstandard,
    tab_perm,
)
from .exactring import BRAUER_VARS, CoeffFraction
from .hecke import cell_row, row_stabilizer, to_murphy
from .linalg import ColumnSolver, mat_mul

BR_VARS = BRAUER_VARS


def _const(c) -> CoeffFraction:
    return CoeffFraction.const(c, BR_VARS)


def _z() -> CoeffFraction:
    return CoeffFraction.var("z", BR_VARS)


# -- diagrams -------------------------------------------------------------------
# A diagram is a frozenset of frozensets; points are 1..n (top) and -1..-n
# (bottom).

def identity_diagram(n: int):
    return frozenset(frozenset((i, -i)) for i in range(1, n + 1))


def perm_diagram(w: Permutation):
    """Top point i joins bottom point (i)w."""
    return frozenset(frozenset((i, -w(i))) for i in range(1, w.n + 1))


def s_diagram(i: int, n: int):
    return perm_diagram(Permutation.s(i, n))


def e_diagram(i: int, n: int):
    if not 1 <= i < n:
        raise ValueError("generator index out of range")
    pairs = [frozenset((i, i + 1)), frozenset((-i, -(i + 1)))]
    for j in range(1, n + 1):
        if j not in (i, i + 1):
            pairs.append(frozenset((j, -j)))
    return frozenset(pairs)


def diagram_star(d):
    """Flip a diagram upside down (the algebra anti-involution on diagrams)."""
    return frozenset(frozenset(-p for p in pair) for pair in d)


def diagram_arcs(d) -> int:
    """Number of horizontal arcs in the top row."""
    return sum(1 for pair in d if all(p > 0 for p in pair))


def br_compose(a, b, n: int):
    """Stack a over b; return (result diagram, number of closed loops)."""
    # nodes: ("t", i) top of a, ("m", i) shared middle, ("b", i) bottom of b
    adj = {}

    def add_edge(x, y):
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    for pair in a:
        p, q = tuple(pair)
        add_edge(("t", p) if p > 0 else ("m", -p),
                 ("t", q) if q > 0 else ("m", -q))
    for pair in b:
        p, q = tuple(pair)
        add_edge(("m", p) if p > 0 else ("b", -p),
                 ("m", q) if q > 0 else ("b", -q))

    seen = set()
    pairs = []
    # trace paths starting from each boundary point
    for start in [("t", i) for i in range(1, n + 1)] + \
                 [("b", i) for i in range(1, n + 1)]:
        if start in seen:
            continue
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur[0] == "m":
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        seen.add(cur)
        ends = []
        for node in (start, cur):
            kind, i = node
            ends.append(i if kind == "t" else -i)
        pairs.append(frozenset(ends))
    loops = 0
    for i in range(1, n + 1):
        node = ("m", i)
        if node in seen or node not in adj:
            continue
        loops += 1
        prev, cur = node, adj[node][0]
        seen.add(node)
        while cur != node:
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
    return frozenset(pairs), loops


class BrauerElement:
    """Finitely supported map diagram -> coefficient in Q(z)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {d: c for d, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls, n: int) -> "BrauerElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "BrauerElement":
        return cls(n, {identity_diagram(n): _const(1)})

    @classmethod
    def from_diagram(cls, d, n: int) -> "BrauerElement":
        return cls(n, {d: _const(1)})

    @classmethod
    def s(cls, i: int, n: int) -> "BrauerElement":
        return cls.from_diagram(s_diagram(i, n), n)

    @classmethod
    def e(cls, i: int, n: int) -> "BrauerElement":
        return cls.from_diagram(e_diagram(i, n), n)

    @classmethod
    def perm(cls, w: Permutation) -> "BrauerElement":
        return cls.from_diagram(perm_diagram(w), w.n)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("size mismatch")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms[d] + c if d in terms else c
        return BrauerElement(self.n, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BrauerElement(self.n, {d: -c for d, c in self.terms.items()})

    def scale(self, c: CoeffFraction):
        return BrauerElement(self.n, {d: x * c for d, x in self.terms.items()})

    def coeff(self, d) -> CoeffFraction:
        return self.terms.get(d, _const(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, BrauerElement) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __mul__(self, other):
        self._check(other)
        z = _z()
        terms = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d, loops = br_compose(d1, d2, self.n)
                c = c1 * c2
                if loops:
                    c = c * z ** loops
                terms[d] = terms[d] + c if d in terms else c
        return BrauerElement(self.n, terms)

    def __repr__(self):
        return "BrauerElement({} terms, n={})".format(len(self.terms), self.n)


def br_mul(a: BrauerElement, b: BrauerElement) -> BrauerElement:
    return a * b


def br_star(e: BrauerElement) -> BrauerElement:
    return BrauerElement(e.n, {diagram_star(d): c for d, c in e.terms.items()})


def br_word(gens, n: int) -> BrauerElement:
    """Product of generators given as ("s", i) / ("E", i) pairs."""
    out = BrauerElement.one(n)
    for kind, i in gens:
        if kind == "s":
            out = out * BrauerElement.s(i, n)
        elif kind == "E":
            out = out * BrauerElement.e(i, n)
        else:
            raise ValueError("unknown generator kind {!r}".format(kind))
    return out


def all_diagrams(n: int):
    """All perfect matchings on the 2n points (the diagram basis)."""
    points = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]

    def match(avail):
        if not avail:
            yield []
            return
        first = avail[0]
        for k in range(1, len(avail)):
            rest = avail[1:k] + avail[k + 1:]
            for tail in match(rest):
                yield [frozenset((first, avail[k]))] + tail

    return [frozenset(m) for m in match(points)]


# -- cellular structure -----------------------------------------------------------

def br_x_lambda(lam, n: int) -> BrauerElement:
    """Row-stabilizer sum of the superstandard filling (entries 2f+1..n)."""
    lam = check_partition(lam)
    t = superstandard(lam, n)
    out = BrauerElement.one(n)
    fixed = tuple(range(1, n + 1))
    for row in t.rows:
        block = BrauerElement.zero(n)
        for assignment in _iter_perms(row):
            img = list(fixed)
            for pos, val in zip(row, assignment):
                img[pos - 1] = val
            block = block + BrauerElement.perm(Permutation(img))
        out = out * block
    return out


def br_m_lambda(lam, n: int) -> BrauerElement:
    lam = check_partition(lam)
    if (n - sum(lam)) % 2:
        raise ValueError("parity mismatch between partition size and n")
    f = (n - sum(lam)) // 2
    out = BrauerElement.one(n)
    for i in range(1, 2 * f, 2):
        out = out * BrauerElement.e(i, n)
    return out * br_x_lambda(lam, n)


def br_basis_element(lam, n: int, t: StdTableau, u: Permutation,
                     left=None) -> BrauerElement:
    """(d(s)v)^{-1} m_lambda d(t)u; left defaults to (t^lambda, identity)."""
    m = br_m_lambda(lam, n)
    right = BrauerElement.perm(tab_perm(t) * u)
    if left is None:
        return m * right
    s, v = left
    lperm = (tab_perm(s) * v).inverse()
    return BrauerElement.perm(lperm) * m * right


@lru_cache(maxsize=None)
def _layer_data(lam, n: int):
    """Column solver expressing elements of m_lambda * B_n in the cellular
    spanning set: the lambda-layer vectors m_lambda d(t)u plus the full
    cellular basis of every layer mu with mu dominating lambda."""
    lam = check_partition(lam)
    index = cell_index(lam, n)
    columns_elements = [br_basis_element(lam, n, t, u) for t, u in index]
    for mu in layer_shapes(n):
        if dominance(mu, lam) != "dominates":
            continue
        idx_mu = cell_index(mu, n)
        for s, v in idx_mu:
            for t, u in idx_mu:
                columns_elements.append(
                    br_basis_element(mu, n, t, u, left=(s, v)))
    diagrams = sorted({d for e in columns_elements for d in e.terms},
                      key=lambda d: sorted(tuple(sorted(p)) for p in d))
    dpos = {d: i for i, d in enumerate(diagrams)}
    zero = _const(0)

    def vec(e):
        col = [zero] * len(diagrams)
        for d, c in e.terms.items():
            col[dpos[d]] = c
        return col

    solver = ColumnSolver([vec(e) for e in columns_elements])
    return index, diagrams, dpos, solver


def br_to_cell_coords(lam, n: int, e: BrauerElement) -> dict:
    """Coordinates of e (an element of m_lambda B_n) on the cell-module basis
    of S^lambda, i.e. modulo the more-dominant layers."""
    index, diagrams, dpos, solver = _layer_data(check_partition(lam), n)
    zero = _const(0)
    rhs = [zero] * len(diagrams)
    for d, c in e.terms.items():
        if d not in dpos:
            raise ValueError("element outside m_lambda * B_n layer span")
        rhs[dpos[d]] = c
    coords = solver.solve_vector(rhs)
    return {index[i]: c for i, c in enumerate(coords[:len(index)])
            if not c.is_zero()}


def br_module_matrix(lam, n: int, b: BrauerElement):
    """Matrix of b acting on S^lambda; row i is the image of basis vector i."""
    lam = check_partition(lam)
    index, _, _, _ = _layer_data(lam, n)
    col_of = {tu: j for j, tu in enumerate(index)}
    zero = _const(0)
    rows = []
    for t, u in index:
        x = br_basis_element(lam, n, t, u) * b
        row = [zero] * len(index)
        for tu, c in br_to_cell_coords(lam, n, x).items():
            row[col_of[tu]] = c
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def br_gen_matrix(lam, n: int, kind: str, i: int):
    g = BrauerElement.s(i, n) if kind == "s" else BrauerElement.e(i, n)
    return br_module_matrix(lam, n, g)


# -- full cellular coordinates (desk scale) -----------------------------------------

@lru_cache(maxsize=None)
def _full_solver(n: int):
    diagrams = all_diagrams(n)
    dpos = {d: i for i, d in enumerate(diagrams)}
    zero = _const(0)
    index = []
    columns = []
    for lam in layer_shapes(n):
        idx = cell_index(lam, n)
        for s, v in idx:
            for t, u in idx:
                e = br_basis_element(lam, n, t, u, left=(s, v))
                col = [zero] * len(diagrams)
                for d, c in e.terms.items():
                    col[dpos[d]] = c
                index.append((lam, (s, v), (t, u)))
                columns.append(col)
    if len(index) != len(diagrams):
        raise AssertionError("cellular count must equal diagram count")
    solver = ColumnSolver(columns)
    return index, diagrams, dpos, solver


def br_to_cellular(e: BrauerElement) -> dict:
    """Exact coordinates of e in the full cellular basis of B_n."""
    index, diagrams, dpos, solver = _full_solver(e.n)
    zero = _const(0)
    rhs = [zero] * len(diagrams)
    for d, c in e.terms.items():
        rhs[dpos[d]] = c
    coords = solver.solve_vector(rhs)
    return {index[i]: c for i, c in enumerate(coords) if not c.is_zero()}


def br_from_cellular(coords: dict, n: int) -> BrauerElement:
    out = BrauerElement.zero(n)
    for (lam, (s, v), (t, u)), c in coords.items():
        out = out + br_basis_element(lam, n, t, u, left=(s, v)).scale(c)
    return out


# -- Jucys-Murphy elements ------------------------------------------------------------

@lru_cache(maxsize=None)
def br_jm(i: int, n: int) -> BrauerElement:
    """L_1 = 0 and L_i = s_{i-1} - E_{i-1} + s_{i-1} L_{i-1} s_{i-1}."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    if i == 1:
        return BrauerElement.zero(n)
    s = BrauerElement.s(i - 1, n)
    e = BrauerElement.e(i - 1, n)
    return s - e + s * br_jm(i - 1, n) * s


# -- fast cell-module engine ----------------------------------------------------------
#
# Diagram multiplication never decreases the number of horizontal arcs, so
# the span of diagrams with more than f arcs is a two-sided ideal contained
# in the check ideal of every layer with f arcs.  Modulo that ideal, every
# element of m_lambda B_n is a combination of diagrams whose top arcs sit at
# the standard positions {1,2},{3,4},...,{2f-1,2f}; such a diagram is coded
# by a pair (upper permutation, distinguished coset representative).  The
# residual quotient by the more dominant equal-size layers is taken by
# ``hecke.cell_row``, as in the two-parameter algebra, with the Murphy
# change of basis of the symmetric group (``hecke.to_murphy`` at q = 1, an
# elimination over the integers).

def _encode_chain(w: Permutation, f: int):
    """Diagram of E_1 E_3 ... E_{2f-1} w for a permutation w."""
    n = w.n
    pairs = []
    for i in range(1, 2 * f, 2):
        pairs.append(frozenset((i, i + 1)))
        pairs.append(frozenset((-w(i), -w(i + 1))))
    for j in range(2 * f + 1, n + 1):
        pairs.append(frozenset((j, -w(j))))
    return frozenset(pairs)


def _decode_chain(d, f: int, n: int):
    """Inverse of :func:`_encode_chain` up to the left stabilizer of the
    arc chain: returns (upper permutation on 1..n-2f, coset rep)."""
    bottom_arcs = []
    through = {}
    tops = []
    for pair in d:
        p, q = tuple(pair)
        if p < 0 and q < 0:
            bottom_arcs.append(tuple(sorted((-p, -q))))
        elif p > 0 and q > 0:
            tops.append(tuple(sorted((p, q))))
        else:
            top, bot = (p, -q) if p > 0 else (q, -p)
            through[top] = bot
    if sorted(tops) != [(i, i + 1) for i in range(1, 2 * f, 2)]:
        raise AssertionError("top arcs left the standard positions")
    bottom_arcs.sort()
    img = [0] * n
    used = set()
    for i, (a, b) in enumerate(bottom_arcs):
        img[2 * i] = a
        img[2 * i + 1] = b
        used.update((a, b))
    free = sorted(set(range(1, n + 1)) - used)
    for k, x in enumerate(free):
        img[2 * f + k] = x
    pos = {x: p for p, x in enumerate(img, start=1)}
    u = Permutation(pos[through[j]] - 2 * f for j in range(2 * f + 1, n + 1))
    return (u, Permutation(img))


def _lift_chain(key, f: int, n: int) -> Permutation:
    """Canonical permutation representative of a decoded (upper, coset) key."""
    u, v = key
    img = [v(p) for p in range(1, 2 * f + 1)]
    img += [v(u(p) + 2 * f) for p in range(1, n - 2 * f + 1)]
    return Permutation(img)


def _fast_seed(lam, n: int, t: StdTableau, u: Permutation) -> dict:
    """m_lambda d(t) u as coded arc-chain terms."""
    f = (n - sum(lam)) // 2
    terms = {}
    one = _const(1)
    for w0 in row_stabilizer(lam, n):
        w = w0 * tab_perm(t) * u
        key = _decode_chain(_encode_chain(w, f), f, n)
        terms[key] = terms[key] + one if key in terms else one
    return terms


def _fast_apply(terms: dict, kind: str, i: int, f: int, n: int) -> dict:
    gen = s_diagram(i, n) if kind == "s" else e_diagram(i, n)
    z = _z()
    out = {}
    for key, c in terms.items():
        d, loops = br_compose(_encode_chain(_lift_chain(key, f, n), f),
                              gen, n)
        if diagram_arcs(d) > f:
            continue
        c2 = c * z ** loops if loops else c
        key2 = _decode_chain(d, f, n)
        out[key2] = out[key2] + c2 if key2 in out else c2
    return {k: c for k, c in out.items() if not c.is_zero()}


# precomputed action matrices may be installed here (keyed by
# (lam, n, kind, i)), e.g. from an on-disk structure-constant cache
_gen_matrix_overrides: dict = {}


def br_cell_matrix(lam, n: int, kind: str, i: int):
    """Matrix of a generator on S^lambda (rows = images), computed through
    the arc-count filtration instead of the dense diagram solver."""
    lam = check_partition(lam)
    if not 1 <= i < n:
        raise ValueError("generator index out of range")
    if kind not in ("s", "E"):
        raise ValueError("unknown generator kind {!r}".format(kind))
    cached = _gen_matrix_overrides.get((lam, n, kind, i))
    if cached is not None:
        return cached
    return _br_cell_matrix_compute(lam, n, kind, i)


@lru_cache(maxsize=None)
def _br_cell_matrix_compute(lam, n: int, kind: str, i: int):
    f = (n - sum(lam)) // 2
    zero = _const(0)
    return [cell_row(_fast_apply(_fast_seed(lam, n, t, u), kind, i, f, n),
                     lam, n, to_murphy, zero)
            for t, u in cell_index(lam, n)]


@lru_cache(maxsize=None)
def br_jm_matrix(lam, n: int, k: int):
    """Matrix of L_k on S^lambda; L_1 = 0 and
    L_k = s_{k-1} - E_{k-1} + s_{k-1} L_{k-1} s_{k-1}."""
    lam = check_partition(lam)
    if not 1 <= k <= n:
        raise ValueError("index out of range")
    dim = len(cell_index(lam, n))
    if k == 1:
        return [[_const(0)] * dim for _ in range(dim)]
    s = br_cell_matrix(lam, n, "s", k - 1)
    e = br_cell_matrix(lam, n, "E", k - 1)
    inner = mat_mul(mat_mul(s, br_jm_matrix(lam, n, k - 1)), s)
    return [[s[a][b] - e[a][b] + inner[a][b] for b in range(dim)]
            for a in range(dim)]
