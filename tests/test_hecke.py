"""Tests for the Hecke algebra: word basis, cellular basis, JM elements."""

import random
from itertools import permutations
from math import factorial

import pytest

from cellalg.combin import (
    Permutation,
    dominance,
    enumerate_std,
    partitions_of,
    semistandard_set,
    superstandard,
    tab_perm,
    type_map,
)
from cellalg.exactring import (BMW_VARS, BRAUER_VARS, CoeffFraction,
                               parse_fraction)
from cellalg.hecke import (
    _murphy_column,
    HeckeElement,
    hk_c_mu,
    hk_content,
    hk_jm,
    hk_jm_sum,
    hk_mul_gen,
    hk_semistd_elt,
    hk_star,
    hk_to_murphy,
    murphy_element,
    murphy_index,
    murphy_to_hk,
    row_stabilizer,
    specht_action_matrix,
    specht_basis,
    tab_dominance,
    to_murphy,
)
from cellalg.linalg import invert_fraction_free


def frac(text):
    return parse_fraction(text, BMW_VARS)


def const(c):
    return CoeffFraction.const(c, BMW_VARS)


def random_element(rng, n):
    terms = {}
    from itertools import permutations
    perms = [Permutation(img) for img in permutations(range(1, n + 1))]
    for w in rng.sample(perms, min(3, len(perms))):
        terms[w] = const(rng.randint(-3, 3))
    return HeckeElement(n, terms)


# -- generator multiplication -----------------------------------------------

def test_quadratic_relation():
    # X_1 * X_1 = 1 + (q - q^{-1}) X_1
    x1 = HeckeElement.gen(1, 2)
    prod = x1 * x1
    expected = HeckeElement.one(2) + x1.scale(frac("q - q^-1"))
    assert prod == expected


def test_identity_times_generator():
    for n in (2, 3, 4):
        for i in range(1, n):
            assert HeckeElement.one(n) * HeckeElement.gen(i, n) == \
                HeckeElement.x(Permutation.s(i, n))


def test_length_drop_case():
    # X_{s_1 s_2} * X_2 = X_{s_1} + (q - q^{-1}) X_{s_1 s_2}
    n = 3
    w = Permutation.s(1, n) * Permutation.s(2, n)
    prod = HeckeElement.x(w) * HeckeElement.gen(2, n)
    expected = (HeckeElement.x(Permutation.s(1, n))
                + HeckeElement.x(w).scale(frac("q - q^-1")))
    assert prod == expected


def test_braid_relation_on_generators():
    for n in (3, 4):
        for i in range(1, n - 1):
            a = HeckeElement.gen(i, n)
            b = HeckeElement.gen(i + 1, n)
            assert a * b * a == b * a * b


def test_commuting_relation():
    n = 4
    a = HeckeElement.gen(1, n)
    b = HeckeElement.gen(3, n)
    assert a * b == b * a


def test_braid_relation_on_random_elements():
    rng = random.Random(11)
    for n in (3, 4):
        for _ in range(5):
            h = random_element(rng, n)
            for i in range(1, n - 1):
                left = hk_mul_gen(hk_mul_gen(hk_mul_gen(h, i, "right"),
                                             i + 1, "right"), i, "right")
                right = hk_mul_gen(hk_mul_gen(hk_mul_gen(h, i + 1, "right"),
                                              i, "right"), i + 1, "right")
                assert left == right


def test_multiplication_specializes_to_group_algebra():
    # at q=1 the word-basis product must agree with composition in S_n
    rng = random.Random(5)
    one = {"q": CoeffFraction.const(1, ()), "r": CoeffFraction.const(1, ())}
    from itertools import permutations
    n = 4
    perms = [Permutation(img) for img in permutations(range(1, n + 1))]
    for _ in range(20):
        v, w = rng.choice(perms), rng.choice(perms)
        prod = HeckeElement.x(v) * HeckeElement.x(w)
        collapsed = {}
        for u, c in prod.terms.items():
            val = c.substitute(one)
            if not val.is_zero():
                collapsed[u] = collapsed.get(u, 0) + val.as_rational()
        collapsed = {u: c for u, c in collapsed.items() if c}
        assert collapsed == {v * w: 1}


def test_associativity_random():
    rng = random.Random(17)
    for _ in range(5):
        a, b, c = (random_element(rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


# -- c_mu ----------------------------------------------------------------------

def test_c_mu_column_shape():
    assert hk_c_mu((1, 1, 1), 3) == HeckeElement.one(3)


def test_c_mu_row_two():
    expected = HeckeElement.one(2) + HeckeElement.gen(1, 2).scale(frac("q"))
    assert hk_c_mu((2,), 2) == expected


def test_c_mu_21():
    expected = HeckeElement.one(3) + HeckeElement.gen(1, 3).scale(frac("q"))
    assert hk_c_mu((2, 1), 3) == expected


# -- star ---------------------------------------------------------------------

def test_star_reverses_words():
    n = 3
    w = Permutation.s(1, n) * Permutation.s(2, n)
    assert hk_star(HeckeElement.x(w)) == HeckeElement.x(w.inverse())


def test_star_fixes_c_mu():
    assert hk_star(hk_c_mu((2, 1), 3)) == hk_c_mu((2, 1), 3)


def test_star_fixes_palindromic_word():
    n = 3
    h = (HeckeElement.gen(1, n) * HeckeElement.gen(2, n)
         * HeckeElement.gen(1, n))
    assert hk_star(h) == h


def test_star_antihomomorphism():
    rng = random.Random(23)
    for _ in range(5):
        a, b = random_element(rng, 3), random_element(rng, 3)
        assert hk_star(a * b) == hk_star(b) * hk_star(a)
        assert hk_star(hk_star(a)) == a


# -- Murphy basis ---------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_murphy_basis_counts(n):
    assert len(murphy_index(n)) == factorial(n)


def test_row_partition_coordinates():
    for n in (2, 3):
        lam = (n,)
        t = superstandard(lam, n)
        coords = hk_to_murphy(hk_c_mu(lam, n))
        assert coords == {(lam, t, t): const(1)}


def test_identity_roundtrip_n2():
    h = HeckeElement.one(2)
    coords = hk_to_murphy(h)
    assert murphy_to_hk(coords, 2) == h


def test_random_roundtrips():
    rng = random.Random(2026)
    for n in (2, 3, 4):
        for _ in range(5):
            h = random_element(rng, n)
            assert murphy_to_hk(hk_to_murphy(h), n) == h


def test_murphy_element_star_swap():
    lam = (2, 1)
    u, v = enumerate_std(lam, 3)[:2]
    assert hk_star(murphy_element(lam, u, v)) == murphy_element(lam, v, u)


def _dense_murphy_matrix(m, vars):
    """The Murphy-to-X_w matrix as CoeffFractions: generic q from
    murphy_element over BMW_VARS; at q = 1 over BRAUER_VARS from the group
    products d(s)^-1 w d(t), w in the row stabilizer."""
    perms = [Permutation(img) for img in permutations(range(1, m + 1))]
    pos = {w: i for i, w in enumerate(perms)}
    zero = CoeffFraction.const(0, vars)
    matrix = [[zero] * len(perms) for _ in perms]
    for j, (lam, s, t) in enumerate(murphy_index(m)):
        if vars == BMW_VARS:
            for w, c in murphy_element(lam, s, t).terms.items():
                matrix[pos[w]][j] = c
        else:
            for w in row_stabilizer(lam, m):
                i = pos[tab_perm(s).inverse() * w * tab_perm(t)]
                matrix[i][j] = matrix[i][j] + CoeffFraction.const(1, vars)
    return perms, matrix


@pytest.mark.parametrize("vars", [BMW_VARS, BRAUER_VARS])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_to_murphy_matches_dense_inverse(m, vars):
    # the sparse unit-pivot elimination against a dense fraction-free
    # inverse: same canonical strings for every X_w
    perms, matrix = _dense_murphy_matrix(m, vars)
    inverse = invert_fraction_free(matrix)
    index = murphy_index(m)
    one = CoeffFraction.const(1, vars)
    for k, w in enumerate(perms):
        dense = {index[i]: str(row[k]) for i, row in enumerate(inverse)
                 if not row[k].is_zero()}
        # to_murphy multiplies by the coefficient, which reduces again; the
        # memoised column holds the values built with _reduced=True
        column = _murphy_column(m, vars, w)
        for coords in (to_murphy(m, {w: one}, vars), column):
            assert {key: str(c) for key, c in coords.items()} == dense
        for c in column.values():
            assert CoeffFraction(vars, c.num, c.den) == c  # canonical


def test_to_murphy_rejects_other_rings():
    with pytest.raises(ValueError, match="no Murphy change of basis"):
        to_murphy(2, {Permutation.identity(2): CoeffFraction.const(1, ("x",))},
                  ("x",))


# -- Jucys-Murphy elements --------------------------------------------------------

def test_jm_first_is_one():
    assert hk_jm(1, 3) == HeckeElement.one(3)


def test_jm_second():
    expected = HeckeElement.one(3) + HeckeElement.gen(1, 3).scale(
        frac("q - q^-1"))
    assert hk_jm(2, 3) == expected


def test_jm_transposition_sum_identity():
    # D_i = 1 + (q - q^{-1}) * sum of transposition words
    delta = frac("q - q^-1")
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            lhs = hk_jm(i, n)
            rhs = HeckeElement.one(n) + hk_jm_sum(i, n).scale(delta)
            assert lhs == rhs


def test_jm_commute():
    for n in (3, 4):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                a, b = hk_jm(i, n), hk_jm(k, n)
                assert a * b == b * a


def test_jm_commute_with_distant_generators():
    n = 4
    for k in range(1, n + 1):
        d = hk_jm(k, n)
        for i in range(1, n):
            if i in (k - 1, k):
                continue
            x = HeckeElement.gen(i, n)
            assert x * d == d * x


# -- cell modules ------------------------------------------------------------------

def test_cell_dimensions_sum_of_squares():
    for n in (2, 3, 4):
        total = sum(len(specht_basis(lam, n)) ** 2
                    for lam in partitions_of(n))
        assert total == factorial(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jm_triangular_on_cell_modules(n):
    for lam in partitions_of(n):
        tabs = specht_basis(lam, n)
        for k in range(1, n + 1):
            mat = specht_action_matrix(lam, n, hk_jm(k, n))
            for a, s in enumerate(tabs):
                for b, v in enumerate(tabs):
                    entry = mat[a][b]
                    if a == b:
                        assert entry == hk_content(s, k)
                    elif not entry.is_zero():
                        assert tab_dominance(v, s) == "dominates"


@pytest.mark.parametrize("n", [3, 4])
def test_restriction_filtration(n):
    # the span filtration by SHAPE(v|_{n-1}) is stable under X_1..X_{n-2}
    for lam in partitions_of(n):
        tabs = specht_basis(lam, n)
        for i in range(1, n - 1):
            mat = specht_action_matrix(lam, n, HeckeElement.gen(i, n))
            for a, s in enumerate(tabs):
                tau = s.restrict_max().shape
                for b, v in enumerate(tabs):
                    if mat[a][b].is_zero():
                        continue
                    sigma = v.restrict_max().shape
                    assert dominance(sigma, tau) in ("dominates", "equal")


# -- permutation modules --------------------------------------------------------------

def test_semistd_elt_at_identity_filling():
    mu = (2, 1)
    S = type_map(superstandard(mu, 3), mu)
    elt = hk_semistd_elt(S, superstandard(mu, 3), mu)
    assert elt == hk_c_mu(mu, 3)


def test_permod_basis_count_n3():
    mu = (2, 1)
    count = 0
    for nu in partitions_of(3):
        count += len(semistandard_set(nu, mu)) * len(enumerate_std(nu, 3))
    assert count == 3


def test_semistd_elements_lie_in_permutation_module():
    # every c_{St} is an R-combination of {c_mu X_w : w in S_3}
    from itertools import permutations
    from cellalg.linalg import rank

    mu = (2, 1)
    n = 3
    perms = [Permutation(img) for img in permutations(range(1, n + 1))]
    spanning = [hk_c_mu(mu, n) * HeckeElement.x(w) for w in perms]

    def vec(h):
        return [h.coeff(w) for w in perms]

    base_rows = [vec(h) for h in spanning]
    base_rank = rank(base_rows)
    for nu in partitions_of(n):
        for S in semistandard_set(nu, mu):
            for t in enumerate_std(nu, n):
                elt = hk_semistd_elt(S, t, mu)
                assert rank(base_rows + [vec(elt)]) == base_rank
