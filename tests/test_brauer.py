"""Tests for the Brauer algebra: diagrams, cellular basis, Gram forms, JM."""

import random
from math import factorial

import pytest

from cellalg.combin import (
    Permutation,
    cell_index,
    coset_reps,
    layer_shapes,
    partitions_of,
    superstandard,
)
from cellalg.exactring import BRAUER_VARS, CoeffFraction, brauer_frac
from cellalg import bmw, brauer
from cellalg.bmw import bmw_gen_matrix
from cellalg.brauer import (
    BrauerElement,
    all_diagrams,
    br_compose,
    br_jm,
    br_m_lambda,
    br_module_matrix,
    br_star,
    br_to_cellular,
    br_from_cellular,
    br_basis_element,
    br_cell_matrix,
    br_word,
    diagram_arcs,
    diagram_word,
    e_diagram,
    identity_diagram,
    perm_diagram,
    s_diagram,
)
from cellalg.towers import gram_matrix, maximal_path

from brauer_reference import (
    br_to_cell_coords,
    dense_module_matrix,
    dense_to_cellular,
    graph_compose,
)


def const(c):
    return CoeffFraction.const(c, BRAUER_VARS)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def identity_mat(k):
    return [[const(1 if i == j else 0) for j in range(k)] for i in range(k)]


def mat_mul_plain(a, b):
    k = len(a)
    return [[sum((a[i][t] * b[t][j] for t in range(k)), const(0))
             for j in range(k)] for i in range(k)]


# -- composition ---------------------------------------------------------------

def test_compose_e1_e1_one_loop():
    d, loops = br_compose(e_diagram(1, 3), e_diagram(1, 3), 3)
    assert d == e_diagram(1, 3)
    assert loops == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compose_matches_graph_trace(n):
    diagrams = all_diagrams(n)
    for a in diagrams:
        for b in diagrams:
            assert br_compose(a, b, n) == graph_compose(a, b, n)


def test_compose_identity():
    for n in (2, 3, 4):
        for d in all_diagrams(n)[:10]:
            out, loops = br_compose(identity_diagram(n), d, n)
            assert out == d and loops == 0


def test_compose_e1_e2_e1():
    n = 3
    d, l1 = br_compose(e_diagram(1, n), e_diagram(2, n), n)
    d, l2 = br_compose(d, e_diagram(1, n), n)
    assert d == e_diagram(1, n)
    assert l1 + l2 == 0


# -- defining relations -----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_defining_relations(n):
    z = brauer_frac("z")
    one = BrauerElement.one(n)
    s = [None] + [BrauerElement.s(i, n) for i in range(1, n)]
    E = [None] + [BrauerElement.e(i, n) for i in range(1, n)]
    for i in range(1, n):
        assert s[i] * s[i] == one
        assert E[i] * E[i] == E[i].scale(z)
        assert E[i] * s[i] == E[i] and s[i] * E[i] == E[i]
    for i in range(1, n - 1):
        assert s[i] * s[i + 1] * s[i] == s[i + 1] * s[i] * s[i + 1]
        for a, b in ((i, i + 1), (i + 1, i)):
            assert E[a] * s[b] * s[a] == E[a] * E[b]
            assert s[b] * s[a] * E[b] == E[a] * E[b]
            assert E[a] * s[b] * E[a] == E[a]
            assert E[a] * E[b] * E[a] == E[a]
    for i in range(1, n):
        for j in range(i + 2, n):
            assert s[i] * s[j] == s[j] * s[i]
            assert E[i] * E[j] == E[j] * E[i]
            assert s[i] * E[j] == E[j] * s[i]


def test_braid_word_involution():
    n = 3
    w = br_word([("s", 1), ("s", 2), ("s", 1)], n)
    assert w * w == BrauerElement.one(n)


def test_star_antihomomorphism():
    rng = random.Random(3)
    n = 4
    diagrams = all_diagrams(n)
    for _ in range(10):
        a = BrauerElement.from_diagram(rng.choice(diagrams), n)
        b = BrauerElement.from_diagram(rng.choice(diagrams), n)
        assert br_star(a * b) == br_star(b) * br_star(a)
        assert br_star(br_star(a)) == a


# -- m_lambda --------------------------------------------------------------------

def test_m_lambda_examples():
    assert br_m_lambda((1,), 3) == BrauerElement.e(1, 3)
    assert br_m_lambda((1, 1), 4) == BrauerElement.e(1, 4)
    # full row: sum over all of S_n
    n = 3
    from itertools import permutations
    expected = BrauerElement.zero(n)
    for img in permutations(range(1, n + 1)):
        expected = expected + BrauerElement.perm(Permutation(img))
    assert br_m_lambda((3,), 3) == expected


# -- cell modules ------------------------------------------------------------------

def test_cell_action_coset_step():
    # E_1 * s_2 is the basis vector indexed by the coset representative s_2
    n = 3
    lam = (1,)
    x = BrauerElement.e(1, n) * BrauerElement.s(2, n)
    coords = br_to_cell_coords(lam, n, x)
    t = superstandard(lam, n)
    s2 = Permutation.s(2, n)
    assert coords == {(t, s2): const(1)}


def test_identity_acts_as_identity():
    for lam, n in [((1,), 3), ((2,), 4), ((1, 1), 4), ((2, 1), 3)]:
        mat = br_module_matrix(lam, n, BrauerElement.one(n))
        assert mat_eq(mat, identity_mat(len(mat)))


def test_transposition_action_squares_to_identity():
    lam, n = (2, 1), 3
    for i in (1, 2):
        mat = br_module_matrix(lam, n, BrauerElement.s(i, n))
        assert mat_eq(mat_mul_plain(mat, mat), identity_mat(len(mat)))


# -- Gram matrices -----------------------------------------------------------------

def test_gram_n3_lambda1():
    g = gram_matrix("brauer", (1,), 3)
    z = brauer_frac("z")
    expected = [[z, const(1), const(1)],
                [const(1), z, const(1)],
                [const(1), const(1), z]]
    assert mat_eq(g, expected)


def test_gram_det_n3_lambda1():
    g = gram_matrix("brauer", (1,), 3)
    det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
           - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
           + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
    assert det == brauer_frac("(z-1)^2(z+2)")


def test_gram_full_row():
    for n in (2, 3):
        g = gram_matrix("brauer", (n,), n)
        assert len(g) == 1
        assert g[0][0] == const(factorial(n))


def test_gram_symmetric():
    for lam, n in [((1,), 3), ((2,), 4), ((1, 1), 4), ((), 2), ((), 4)]:
        g = gram_matrix("brauer", lam, n)
        for i in range(len(g)):
            for j in range(len(g)):
                assert g[i][j] == g[j][i]


# -- cellular basis completeness ------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cellular_count_is_diagram_count(n):
    total = sum(len(cell_index(lam, n)) ** 2
                for lam in layer_shapes(n))
    assert total == double_factorial(2 * n - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cellular_roundtrip(n):
    rng = random.Random(n)
    diagrams = all_diagrams(n)
    for _ in range(5):
        terms = {rng.choice(diagrams): const(rng.randint(-3, 3))
                 for _ in range(3)}
        e = BrauerElement(n, terms)
        assert br_from_cellular(br_to_cellular(e), n) == e


def _random_element(rng, n, size=3):
    """A seeded element with size diagrams and coefficients a + b z."""
    diagrams = all_diagrams(n)
    z = brauer_frac("z")
    return BrauerElement(n, {
        rng.choice(diagrams): const(rng.randint(-3, 3))
        + z * const(rng.randint(-2, 2)) for _ in range(size)})


def _canonical(coords):
    return {key: str(c) for key, c in coords.items()}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_to_cellular_matches_full_solver(n):
    # the straightening through cell-module matrices against the normal
    # equations over every diagram
    rng = random.Random(900 + n)
    for _ in range(6):
        e = _random_element(rng, n)
        assert _canonical(br_to_cellular(e)) == \
            _canonical(dense_to_cellular(e))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_module_matrix_matches_dense_solver(n):
    rng = random.Random(700 + n)
    elements = [BrauerElement.one(n)]
    elements += [BrauerElement.s(i, n) for i in range(1, n)]
    elements += [BrauerElement.e(i, n) for i in range(1, n)]
    elements += [br_jm(k, n) for k in range(1, n + 1)]
    elements += [_random_element(rng, n) for _ in range(3)]
    for lam in layer_shapes(n):
        for e in elements:
            fast = br_module_matrix(lam, n, e)
            slow = dense_module_matrix(lam, n, e)
            assert [[str(x) for x in row] for row in fast] == \
                [[str(x) for x in row] for row in slow]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("first", ["module", "generator"])
def test_shared_seed_gives_one_answer_in_either_order(n, first, monkeypatch):
    # br_module_matrix and br_cell_matrix read the same memoised seeds and
    # engine memos; a reader that changed one would make the other depend
    # on call order
    monkeypatch.setattr(brauer, "_gen_matrix_overrides", {})
    for memo in (bmw._seed_terms, bmw._rmul, bmw._emul, bmw._lstr,
                 bmw._lstr_e, bmw._normalize,
                 brauer._br_cell_matrix_compute):
        memo.cache_clear()
    for lam in layer_shapes(n):
        for i in range(1, n):
            calls = [lambda: br_module_matrix(lam, n, BrauerElement.s(i, n)),
                     lambda: br_cell_matrix(lam, n, "s", i)]
            if first == "generator":
                calls.reverse()
            a, b = (call() for call in calls)
            assert a == b
    assert all(type(bmw._seed_terms(lam, n, t, u, BRAUER_VARS)) is tuple
               for lam in layer_shapes(n) for t, u in cell_index(lam, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_diagram_word_round_trip(n):
    for d in all_diagrams(n):
        word = diagram_word(d, n)
        assert br_word(word, n) == BrauerElement.from_diagram(d, n)
        k = sum(1 for kind, _ in word if kind == "E")
        assert k == diagram_arcs(d)


def test_each_tower_keeps_its_letter_names():
    lam, n = (1,), 3
    for kind in ("T", "Tinv", "e", "x"):
        with pytest.raises(ValueError, match="unknown generator kind"):
            br_cell_matrix(lam, n, kind, 1)
    for kind in ("s", "e", "x"):
        with pytest.raises(ValueError, match="unknown generator kind"):
            bmw_gen_matrix(lam, n, kind, 1)
    with pytest.raises(ValueError, match="unknown generator kind"):
        br_word([("T", 1)], n)
    # the shared engine's letters are T and E, whatever the tower calls them
    with pytest.raises(ValueError, match="unknown generator kind"):
        bmw.cell_rows(lam, n, BRAUER_VARS, [((("s", 1),), const(1))])
    assert br_cell_matrix(lam, n, "s", 1) == bmw.cell_rows(
        lam, n, BRAUER_VARS, [((("T", 1),), const(1))])


# -- Jucys-Murphy ---------------------------------------------------------------------

def test_jm_base_cases():
    assert br_jm(1, 3) == BrauerElement.zero(3)
    assert br_jm(2, 3) == BrauerElement.s(1, 3) - BrauerElement.e(1, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jm_sum_central(n):
    total = BrauerElement.zero(n)
    for i in range(2, n + 1):
        total = total + br_jm(i, n)
    for i in range(1, n):
        for g in (BrauerElement.s(i, n), BrauerElement.e(i, n)):
            assert total * g == g * total


def test_jm_pairwise_commute():
    n = 4
    ops = [br_jm(i, n) for i in range(1, n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            assert ops[i] * ops[j] == ops[j] * ops[i]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_e_chain_absorbs_jm(n):
    # E_1 E_3 ... E_{2f-1} L_k is 0 for odd k <= 2f+1 and
    # (1-z) times the chain for even k <= 2f
    for f in range(1, n // 2 + 1):
        chain = BrauerElement.one(n)
        for i in range(1, 2 * f, 2):
            chain = chain * BrauerElement.e(i, n)
        for k in range(1, n + 1):
            prod = chain * br_jm(k, n)
            if k % 2 == 1 and k <= 2 * f + 1:
                assert prod.is_zero()
            elif k % 2 == 0 and k <= 2 * f:
                assert prod == chain.scale(brauer_frac("1-z"))


def path_content(path, k):
    prev, cur = path[k - 1], path[k]
    if sum(cur) > sum(prev):
        rows = list(prev) + [0] * (len(cur) - len(prev))
        for i, (a, b) in enumerate(zip(rows, cur)):
            if b > a:
                return const(b - 1 - i)  # j - i with j = b, row index i+1
        raise AssertionError
    rows = list(cur) + [0] * (len(prev) - len(cur))
    for i, (a, b) in enumerate(zip(rows, prev)):
        if b > a:
            # removal of node (i+1, b): i - j + 1 - z
            return const(i + 1 - b + 1) - brauer_frac("z")
    raise AssertionError


@pytest.mark.parametrize("n", [2, 3, 4])
def test_maximal_vector_is_jm_eigenvector(n):
    for lam in layer_shapes(n):
        path = maximal_path(lam, n)
        m = br_m_lambda(lam, n)
        t = superstandard(lam, n)
        one = Permutation.identity(n)
        for k in range(1, n + 1):
            x = m * br_jm(k, n)
            coords = br_to_cell_coords(lam, n, x)
            expected = path_content(path, k)
            if expected.is_zero():
                assert coords == {}
            else:
                assert coords == {(t, one): expected}
