"""Tests for the BMW algebra: cellular basis, cell modules, Gram forms, JM."""

import random

import pytest

from cellalg.combin import (
    Permutation,
    cell_index,
    dominance,
    enumerate_std,
    layer_shapes,
    path_of_tableau,
    superstandard,
    tab_perm,
)
from cellalg.exactring import BMW_VARS, CoeffFraction, bmw_z, parse_fraction
from cellalg.hecke import HeckeElement, hk_c_mu, hk_to_murphy
from cellalg.bmw import (
    BmwElement,
    bmw_cell_index,
    bmw_gen_matrix,
    bmw_jm,
    bmw_m_lambda,
    bmw_mul,
    bmw_star,
    bmw_to_cellular,
    bmw_word,
)
from cellalg.towers import (
    _rho_mul,
    element_rho,
    gram_matrix,
    jm_matrix,
    path_content,
    rho_of_word,
    word_matrix,
)


def frac(text):
    return parse_fraction(text, BMW_VARS)


def const(c):
    return CoeffFraction.const(c, BMW_VARS)


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_mul(a, b):
    k, m, inner = len(a), len(b[0]), len(b)
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), const(0))
             for j in range(m)] for i in range(k)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def identity_mat(k):
    return [[const(1 if i == j else 0) for j in range(k)] for i in range(k)]


def zero_mat(k):
    return [[const(0)] * k for _ in range(k)]


def content(t, k):
    """The BMW eigenvalue P_t(k) of L_k at step k of the tableau t."""
    return path_content("bmw", path_of_tableau(t), k)


def cell_action(vec, lam, n, kind, i):
    """A generator acting on a cell-module vector {(t, u): c}."""
    index = cell_index(lam, n)
    row = [vec.get(tu, const(0)) for tu in index]
    out = mat_mul([row], word_matrix("bmw", lam, n, [(kind, i)]))[0]
    return {tu: c for tu, c in zip(index, out) if not c.is_zero()}


def mul_right_gen(e, kind, i):
    """e times one generator, through the cell-module matrices."""
    return bmw_to_cellular(e.n, _rho_mul(element_rho("bmw", e.n, e.terms),
                                         rho_of_word("bmw", e.n, [(kind, i)])))


def gen_mats(lam, n):
    T = {i: bmw_gen_matrix(lam, n, "T", i) for i in range(1, n)}
    Ti = {i: bmw_gen_matrix(lam, n, "Tinv", i) for i in range(1, n)}
    E = {i: bmw_gen_matrix(lam, n, "E", i) for i in range(1, n)}
    return T, Ti, E


def rho_eq(a, b):
    return all(mat_eq(a[lam], b[lam]) for lam in a)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# -- defining and derived relations on every cell module ---------------------------

def check_relations(lam, n):
    T, Ti, E = gen_mats(lam, n)
    k = len(cell_index(lam, n))
    one = identity_mat(k)
    zero = zero_mat(k)
    z = bmw_z()
    q, rinv = frac("q"), frac("r^-1")
    qinv, r = frac("q^-1"), frac("r")
    delta = frac("q-q^-1")
    for i in range(1, n):
        assert mat_eq(mat_mul(T[i], Ti[i]), one)
        # cubic relation
        a = mat_add(T[i], mat_scale(one, -q))
        b = mat_add(T[i], mat_scale(one, qinv))
        c = mat_add(T[i], mat_scale(one, -rinv))
        assert mat_eq(mat_mul(mat_mul(a, b), c), zero)
        # skein: (q - q^-1)(1 - E_i) = T_i - T_i^{-1}
        lhs = mat_scale(mat_add(one, mat_scale(E[i], -const(1))), delta)
        rhs = mat_add(T[i], mat_scale(Ti[i], -const(1)))
        assert mat_eq(lhs, rhs)
        assert mat_eq(mat_mul(E[i], E[i]), mat_scale(E[i], z))
        assert mat_eq(mat_mul(T[i], E[i]), mat_scale(E[i], rinv))
        assert mat_eq(mat_mul(E[i], T[i]), mat_scale(E[i], rinv))
    for i in range(1, n - 1):
        assert mat_eq(mat_mul(mat_mul(T[i], T[i + 1]), T[i]),
                      mat_mul(mat_mul(T[i + 1], T[i]), T[i + 1]))
        for a, b in ((i, i + 1), (i + 1, i)):
            assert mat_eq(mat_mul(mat_mul(E[a], T[b]), T[a]),
                          mat_mul(E[a], E[b]))
            assert mat_eq(mat_mul(mat_mul(T[b], T[a]), E[b]),
                          mat_mul(E[a], E[b]))
            assert mat_eq(mat_mul(mat_mul(E[a], T[b]), E[a]),
                          mat_scale(E[a], r))
            assert mat_eq(mat_mul(mat_mul(E[a], Ti[b]), E[a]),
                          mat_scale(E[a], rinv))
            assert mat_eq(mat_mul(mat_mul(E[a], E[b]), E[a]), E[a])
    for i in range(1, n):
        for j in range(i + 2, n):
            assert mat_eq(mat_mul(T[i], T[j]), mat_mul(T[j], T[i]))
            assert mat_eq(mat_mul(E[i], E[j]), mat_mul(E[j], E[i]))
            assert mat_eq(mat_mul(T[i], E[j]), mat_mul(E[j], T[i]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_defining_relations_all_modules(n):
    for lam in layer_shapes(n):
        check_relations(lam, n)


def test_defining_relations_n5_spot_check():
    check_relations((1,), 5)


# -- cellular basis counts ---------------------------------------------------------

@pytest.mark.parametrize("n,count", [(2, 3), (3, 15), (4, 105)])
def test_cellular_count(n, count):
    assert len(bmw_cell_index(n)) == count
    assert count == double_factorial(2 * n - 1)


# -- words -------------------------------------------------------------------------

def test_word_e1_squared():
    e1 = bmw_word([("E", 1)], 2)
    assert bmw_word([("E", 1), ("E", 1)], 2) == e1.scale(bmw_z())


def test_word_empty_is_identity():
    for n in (2, 3):
        one = bmw_word([], n)
        # the identity expands with f = 0 monomials matching the Hecke
        # cellular expansion of 1
        coords = hk_to_murphy(HeckeElement.one(n))
        expected = {}
        for (mu, s, t), c in coords.items():
            expected[(mu, (s, Permutation.identity(n)),
                      (t, Permutation.identity(n)))] = c
        assert one == BmwElement(n, expected)
        e1 = bmw_word([("E", 1)], n)
        assert bmw_mul(one, e1) == e1


def test_word_t1_e1():
    for n in (2, 3):
        e1 = bmw_word([("E", 1)], n)
        assert bmw_word([("T", 1), ("E", 1)], n) == e1.scale(frac("r^-1"))
        assert bmw_word([("E", 1), ("T", 1)], n) == e1.scale(frac("r^-1"))


def test_word_tinv_expansion():
    # T_1^{-1} = T_1 - (q - q^-1)(1 - E_1)
    n = 2
    d = frac("q-q^-1")
    lhs = bmw_word([("Tinv", 1)], n)
    rhs = (bmw_word([("T", 1)], n) - bmw_word([], n).scale(d)
           + bmw_word([("E", 1)], n).scale(d))
    assert lhs == rhs


def test_word_index_out_of_range():
    with pytest.raises(ValueError):
        word_matrix("bmw", (1,), 3, [("T", 3)])


# -- right multiplication by generators --------------------------------------------

def test_mul_right_gen_coset_step():
    # the v_2 = E_1 T_2 basis vector: m_lambda * T_2 for lambda=(1), n=3
    n = 3
    m = bmw_m_lambda((1,), n)
    t = superstandard((1,), n)
    one = Permutation.identity(n)
    s2 = Permutation.s(2, n)
    out = mul_right_gen(m, "T", 2)
    assert out == BmwElement(n, {((1,), (t, one), (t, s2)): const(1)})


def test_mul_right_gen_quadratic_straightening():
    # E_1 T_2 T_1 * T_1 via the quadratic relation
    # T_i^2 = 1 + (q - q^-1)(T_i - r^-1 E_i)
    n = 3
    a = bmw_word([("E", 1), ("T", 2), ("T", 1)], n)
    lhs = mul_right_gen(a, "T", 1)
    assert lhs == bmw_word([("E", 1), ("T", 2), ("T", 1), ("T", 1)], n)
    d = frac("q-q^-1")
    rhs = (bmw_word([("E", 1), ("T", 2)], n) + a.scale(d)
           - bmw_word([("E", 1), ("T", 2), ("E", 1)], n).scale(d * frac("r^-1")))
    assert lhs == rhs


def test_sum_of_elements_of_different_n_raises():
    a, b = bmw_m_lambda((1,), 3), bmw_m_lambda((2,), 4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    assert a + a == a.scale(const(2))


def test_mul_by_identity_element():
    n = 3
    a = bmw_word([("E", 1), ("T", 2)], n)
    assert bmw_mul(a, bmw_word([], n)) == a


# -- star ---------------------------------------------------------------------------

def test_star_swaps_monomial():
    n = 3
    t = superstandard((1,), n)
    one = Permutation.identity(n)
    s2 = Permutation.s(2, n)
    e = BmwElement(n, {((1,), (t, one), (t, s2)): const(1)})
    assert bmw_star(e) == BmwElement(n, {((1,), (t, s2), (t, one)): const(1)})


def test_star_fixes_m_lambda():
    for lam, n in [((1,), 3), ((), 2), ((2,), 2)]:
        m = bmw_m_lambda(lam, n)
        assert bmw_star(m) == m


def test_star_antihomomorphism():
    n = 3
    a = bmw_word([("E", 1), ("T", 2), ("T", 1)], n)
    b = bmw_word([("T", 1), ("T", 2)], n)
    assert bmw_star(bmw_mul(a, b)) == bmw_mul(bmw_star(b), bmw_star(a))
    assert bmw_star(bmw_star(a)) == a


def test_star_gram_consistency():
    # v_2 v_2^* has m_lambda coefficient <v_2, v_2> = z + (q-q^-1)(r-r^-1);
    # every other monomial lies strictly above the layer of lambda
    n = 3
    lam = (1,)
    t = superstandard(lam, n)
    one = Permutation.identity(n)
    s2 = Permutation.s(2, n)
    v2 = BmwElement(n, {(lam, (t, one), (t, s2)): const(1)})
    prod = bmw_mul(v2, bmw_star(v2))
    diag = (lam, (t, one), (t, one))
    assert prod.terms[diag] == bmw_z() + frac("(q-q^-1)(r-r^-1)")
    for (mu, _, _) in prod.terms:
        if mu == lam:
            continue
        assert sum(mu) > sum(lam)  # strictly more dominant layer


# -- m_lambda -----------------------------------------------------------------------

def test_m_lambda_empty_is_e1():
    assert bmw_m_lambda((), 2) == bmw_word([("E", 1)], 2)


def test_m_lambda_2_at_n4_word_form():
    # m_(2) = E_1 (1 + q T_3), compared on every cell module
    n = 4
    lhs = element_rho("bmw", n, bmw_m_lambda((2,), n).terms)
    rhs_a = rho_of_word("bmw", n, [("E", 1)])
    rhs_b = rho_of_word("bmw", n, [("E", 1), ("T", 3)])
    q = frac("q")
    for lam in lhs:
        rhs = mat_add(rhs_a[lam], mat_scale(rhs_b[lam], q))
        assert mat_eq(lhs[lam], rhs)


def test_x_lambda_factorizes():
    # the symmetrizer for (3,2,1) factorizes as
    # (1 + qX_1)(1 + qX_2 + q^2 X_2 X_1)(1 + qX_4) on the free letters
    m = 6
    q = frac("q")
    one = HeckeElement.one(m)
    f1 = one + HeckeElement.gen(1, m).scale(q)
    f2 = (one + HeckeElement.gen(2, m).scale(q)
          + (HeckeElement.gen(2, m) * HeckeElement.gen(1, m)).scale(q * q))
    f3 = one + HeckeElement.gen(4, m).scale(q)
    assert f1 * f2 * f3 == hk_c_mu((3, 2, 1), m)


def test_m_lambda_parity_mismatch():
    with pytest.raises(ValueError):
        bmw_m_lambda((1,), 4)


# -- cell module action -------------------------------------------------------------

def test_cell_action_t2_on_first_vector():
    n = 3
    lam = (1,)
    t = superstandard(lam, n)
    one = Permutation.identity(n)
    s2 = Permutation.s(2, n)
    vec = {(t, one): const(1)}
    out = cell_action(vec, lam, n, "T", 2)
    assert out == {(t, s2): const(1)}


def test_cell_action_inverse_roundtrip():
    n = 3
    lam = (1,)
    index = cell_index(lam, n)
    for tu in index:
        vec = {tu: const(1)}
        for i in (1, 2):
            fwd = cell_action(vec, lam, n, "T", i)
            back = cell_action(fwd, lam, n, "Tinv", i)
            assert back == vec


def test_cell_action_cubic_n3():
    lam, n = (1,), 3
    k = len(cell_index(lam, n))
    one = identity_mat(k)
    zero = zero_mat(k)
    for i in (1, 2):
        t = bmw_gen_matrix(lam, n, "T", i)
        a = mat_add(t, mat_scale(one, -frac("q")))
        b = mat_add(t, mat_scale(one, frac("q^-1")))
        c = mat_add(t, mat_scale(one, -frac("r^-1")))
        assert mat_eq(mat_mul(mat_mul(a, b), c), zero)


# -- Gram matrices ------------------------------------------------------------------

def test_gram_n3_lambda1():
    g = gram_matrix("bmw", (1,), 3)
    z = bmw_z()
    expected = [[z, frac("r"), const(1)],
                [frac("r"), z + frac("(q-q^-1)(r-r^-1)"), frac("r^-1")],
                [const(1), frac("r^-1"), z]]
    assert mat_eq(g, expected)


def test_gram_det_n3_lambda1():
    g = gram_matrix("bmw", (1,), 3)
    det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
           - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
           + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
    expected = frac("(r-1)^2(r+1)^2(q^3+r)(q^3r-1)") \
        * frac("r^3(q-1)^3(q+1)^3").inverse()
    assert det == expected


def test_gram_n2_empty():
    g = gram_matrix("bmw", (), 2)
    assert len(g) == 1 and g[0][0] == bmw_z()


def test_gram_symmetric():
    for lam, n in [((1,), 3), ((2,), 4), ((1, 1), 4), ((), 4), ((2, 1), 3)]:
        g = gram_matrix("bmw", lam, n)
        for i in range(len(g)):
            for j in range(len(g)):
                assert g[i][j] == g[j][i]


# -- Jucys-Murphy -------------------------------------------------------------------

def test_jm_first_is_one():
    for n in (2, 3):
        assert bmw_jm(1, n) == bmw_word([], n)


def test_jm_second_is_t1_squared():
    n = 3
    assert bmw_jm(2, n) == bmw_word([("T", 1), ("T", 1)], n)


def test_e1_absorbs_l2():
    for n in (2, 3):
        e1 = bmw_word([("E", 1)], n)
        assert bmw_mul(e1, bmw_jm(2, n)) == e1.scale(frac("r^-2"))


def test_jm_product_central_n3():
    n = 3
    c = bmw_mul(bmw_jm(2, n), bmw_jm(3, n))
    for kind, i in (("T", 1), ("T", 2), ("E", 1), ("E", 2)):
        g = bmw_word([(kind, i)], n)
        assert bmw_mul(c, g) == bmw_mul(g, c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jm_matrices_commute(n):
    for lam in layer_shapes(n):
        mats = [jm_matrix("bmw", lam, n, k) for k in range(1, n + 1)]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert mat_eq(mat_mul(mats[i], mats[j]),
                              mat_mul(mats[j], mats[i]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jm_eigenvector_property(n):
    # the row of L_k at (t^lambda, 1) is P_{t^lambda}(k) times the unit vector
    one = Permutation.identity(n)
    for lam in layer_shapes(n):
        index = cell_index(lam, n)
        t = superstandard(lam, n)
        a = index.index((t, one))
        for k in range(1, n + 1):
            mat = jm_matrix("bmw", lam, n, k)
            for j, cell in enumerate(mat[a]):
                if j == a:
                    assert cell == content(t, k)
                else:
                    assert cell.is_zero()


def _row_scan_content(t, k):
    """The BMW step content as first written: the changed box is found by
    scanning the row lengths of steps k-1 and k."""
    path = path_of_tableau(t)
    prev, cur = path[k - 1], path[k]
    if sum(cur) > sum(prev):
        rows = list(prev) + [0] * (len(cur) - len(prev))
        for i, (a, b) in enumerate(zip(rows, cur)):
            if b > a:
                return CoeffFraction.monomial(BMW_VARS, q=2 * (b - 1 - i))
        raise AssertionError
    rows = list(cur) + [0] * (len(prev) - len(cur))
    for i, (a, b) in enumerate(zip(rows, prev)):
        if b > a:
            return (CoeffFraction.monomial(BMW_VARS, q=2 * (i + 1 - b))
                    * CoeffFraction.monomial(BMW_VARS, r=-2))
    raise AssertionError


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_content_matches_row_scan(n):
    for lam in layer_shapes(n):
        for t in enumerate_std(lam, n):
            for k in range(1, n + 1):
                got, expected = content(t, k), _row_scan_content(t, k)
                assert got == expected
                assert str(got) == str(expected)


# -- compatibility with the Hecke quotient ------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_upper_action_matches_hecke_straightening(n):
    # acting by an upper-letter generator T_i (2f < i < n) on a vector
    # (t, 1) of S^lambda agrees with the Hecke cellular straightening of
    # c_lambda X_{d(t)} X_{i-2f} on the shifted letters
    for lam in layer_shapes(n):
        m = sum(lam)
        if m < 2:
            continue
        f = (n - m) // 2
        index = cell_index(lam, n)
        one = Permutation.identity(n)
        t_hat_top = superstandard(lam, n).hat()
        lookup = {tt.hat(): tt for tt, uu in index if uu == one}
        for t, u in index:
            if u != one:
                continue
            for i in range(2 * f + 1, n):
                out = cell_action({(t, one): const(1)}, lam, n, "T", i)
                word = [w - 2 * f for w in tab_perm(t).reduced_word()]
                h = hk_c_mu(lam, m)
                for w in word + [i - 2 * f]:
                    h = h * HeckeElement.gen(w, m)
                expected = {}
                for (mu, s, tt), c in hk_to_murphy(h).items():
                    if dominance(mu, lam) == "dominates":
                        continue
                    assert mu == lam and s == t_hat_top
                    expected[(lookup[tt], one)] = c
                assert out == expected


@pytest.mark.parametrize("n", [3, 4])
def test_upper_times_e_falls_into_next_layer(n):
    # for b in the upper subalgebra and 2f < i < n, the product
    # E_1 E_3 ... E_{2f-1} b E_i vanishes on every module of layer <= f
    for f in range(1, n // 2 + 1):
        chain = [("E", k) for k in range(1, 2 * f, 2)]
        uppers = [None] + [("T", j) for j in range(2 * f + 1, n)]
        for b in uppers:
            for i in range(2 * f + 1, n):
                word = chain + ([b] if b else []) + [("E", i)]
                rho = rho_of_word("bmw", n, word)
                for lam in layer_shapes(n):
                    if (n - sum(lam)) // 2 <= f:
                        assert mat_eq(rho[lam],
                                      zero_mat(len(cell_index(lam, n))))


# -- full-algebra coordinates -------------------------------------------------------

def test_cellular_roundtrip():
    rng = random.Random(7)
    for n in (2, 3):
        index = bmw_cell_index(n)
        for _ in range(3):
            terms = {rng.choice(index): const(rng.randint(-3, 3))
                     for _ in range(3)}
            e = BmwElement(n, terms)
            assert bmw_to_cellular(n, element_rho("bmw", n, e.terms)) == e


def test_associativity_random_monomials():
    rng = random.Random(13)
    for n in (2, 3):
        index = bmw_cell_index(n)
        for _ in range(3):
            a, b, c = (BmwElement(n, {rng.choice(index): const(1)})
                       for _ in range(3))
            assert bmw_mul(bmw_mul(a, b), c) == bmw_mul(a, bmw_mul(b, c))


def test_associativity_rho_n4():
    # at n = 4 associativity is checked on the faithful module model
    rng = random.Random(29)
    n = 4
    index = bmw_cell_index(n)
    from cellalg.towers import _monomial_rho, _rho_mul
    for _ in range(3):
        a, b, c = (_monomial_rho("bmw", n, rng.choice(index))
                   for _ in range(3))
        assert rho_eq(_rho_mul(_rho_mul(a, b), c),
                      _rho_mul(a, _rho_mul(b, c)))
