"""Dense diagram-basis solvers for the Brauer algebra, kept as test oracles.

The library computes cell-module matrices with the chain-word engine of
``bmw`` at q = r = 1 (``brauer.br_module_matrix``) and cellular
coordinates with the layer-by-layer straightening of
``towers.cellular_terms``.  The routines here reach the same answers by
exact linear algebra on the diagram basis:

- the layer solver expresses an element of m_lambda B_n in the cellular
  spanning set of the lambda layer and every more dominant layer, and reads
  off its coordinates on the cell module S^lambda;
- the full solver writes an element in all (2n-1)!! cellular basis
  elements at once.

They are slow (normal equations over every diagram), so use them at n <= 4.
``graph_compose`` is diagram stacking by a generic path trace over a graph
of the three rows, the oracle of ``brauer.br_compose``.
"""

from functools import lru_cache

from cellalg.brauer import (
    BrauerElement,
    all_diagrams,
    br_basis_element,
)
from cellalg.combin import cell_index, check_partition, dominance, layer_shapes
from cellalg.exactring import BRAUER_VARS, CoeffFraction
from cellalg.linalg import TallSolver


def _const(c):
    return CoeffFraction.const(c, BRAUER_VARS)


def graph_compose(a, b, n: int):
    """Stack a over b by tracing paths in the graph on the top row of a, the
    shared middle row and the bottom row of b: (diagram, closed loops)."""
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
        pairs.append(frozenset(i if kind == "t" else -i
                               for kind, i in (start, cur)))
    loops = 0
    for i in range(1, n + 1):
        node = ("m", i)
        if node in seen:
            continue
        loops += 1
        prev, cur = node, adj[node][0]
        seen.add(node)
        while cur != node:
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
    return frozenset(pairs), loops


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

    solver = TallSolver([vec(e) for e in columns_elements])
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


def dense_module_matrix(lam, n: int, b: BrauerElement):
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
def dense_gen_matrix(lam, n: int, kind: str, i: int):
    g = BrauerElement.s(i, n) if kind == "s" else BrauerElement.e(i, n)
    return dense_module_matrix(lam, n, g)


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
    solver = TallSolver(columns)
    return index, diagrams, dpos, solver


def dense_to_cellular(e: BrauerElement) -> dict:
    """Exact coordinates of e in the full cellular basis of B_n."""
    index, diagrams, dpos, solver = _full_solver(e.n)
    zero = _const(0)
    rhs = [zero] * len(diagrams)
    for d, c in e.terms.items():
        rhs[dpos[d]] = c
    coords = solver.solve_vector(rhs)
    return {index[i]: c for i, c in enumerate(coords) if not c.is_zero()}
