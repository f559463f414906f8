"""Tests for partitions, tableaux, coset representatives and paths."""

from math import factorial

import pytest

from cellalg.combin import (
    Permutation,
    StdTableau,
    box_steps,
    content_sum,
    coset_reps,
    dominance,
    dominance_key,
    enumerate_std,
    is_coset_rep,
    neighbors,
    partitions_of,
    path_dominance,
    path_key,
    semistandard_set,
    superstandard,
    tab_perm,
    type_map,
    up_neighbor_data,
)
from cellalg.towers import maximal_path, ordered_paths


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# -- dominance ---------------------------------------------------------------

def test_dominance_inverted_size_rule():
    assert dominance((1,), (3,)) == "dominates"  # fewer boxes dominates


def test_dominance_equal():
    assert dominance((2, 1), (2, 1)) == "equal"


def test_dominance_partial_sums():
    # equal size: partial sums 3>=2, 4>=4, so (3,1) dominates (2,2)
    assert dominance((2, 2), (3, 1)) == "dominated"
    assert dominance((3, 1), (2, 2)) == "dominates"


def test_dominance_incomparable():
    assert dominance((3, 1, 1, 1), (2, 2, 2)) == "incomparable"


def test_dominance_key_is_linear_extension():
    for n in range(8):
        parts = partitions_of(n) + partitions_of(n + 2)
        ordered = sorted(parts, key=dominance_key)
        for i, lam in enumerate(ordered):
            for mu in ordered[i + 1:]:
                assert dominance(mu, lam) != "dominates"


# -- nodes -------------------------------------------------------------------

def test_box_steps_321():
    addable, removable = box_steps((3, 2, 1))
    assert removable == [(1, 3), (2, 2), (3, 1)]
    assert addable == [(1, 4), (2, 3), (3, 2), (4, 1)]


def test_box_steps_empty():
    addable, removable = box_steps(())
    assert removable == []
    assert addable == [(1, 1)]


def test_box_steps_square():
    addable, removable = box_steps((2, 2))
    assert removable == [(2, 2)]
    assert addable == [(1, 3), (3, 1)]


# -- standard tableaux ---------------------------------------------------------

def test_superstandard_has_identity_perm():
    for lam, n in [((3, 1), 6), ((2,), 4), ((3, 2, 1), 10), ((1,), 3)]:
        assert tab_perm(superstandard(lam, n)).is_identity()


def test_single_row_single_tableau():
    for n in range(1, 6):
        tabs = enumerate_std((n,), n)
        assert len(tabs) == 1
        assert tab_perm(tabs[0]).is_identity()


def test_std_tableaux_31_n6():
    tabs = enumerate_std((3, 1), 6)
    assert len(tabs) == 3
    perms = {tab_perm(t) for t in tabs}
    s5 = Permutation.s(5, 6)
    s4 = Permutation.s(4, 6)
    assert perms == {Permutation.identity(6), s5, s5 * s4}


def test_tab_perm_matches_worked_tableau():
    # n=10, f=2, lam=(3,2,1): the tableau with rows (5,8,10),(6,7),(9)
    # has d(t) = (6,8)(7,10,9)
    # (a general tableau: the permutation is defined for any filling)
    t = StdTableau([(5, 8, 10), (6, 7), (9,)], 10)
    assert not t.is_standard()
    d = tab_perm(t)
    img = list(range(1, 11))
    for a, b in [(6, 8), (8, 6), (7, 10), (10, 9), (9, 7)]:
        img[a - 1] = b
    assert d == Permutation(img)


def test_all_enumerated_are_standard():
    for lam, n in [((2, 1), 5), ((1, 1), 4), ((2, 2), 4)]:
        for t in enumerate_std(lam, n):
            assert t.is_standard()


# -- coset representatives ------------------------------------------------------

def brute_coset_reps(f, n):
    from itertools import permutations as iperm
    out = []
    for img in iperm(range(1, n + 1)):
        v = Permutation(img)
        if is_coset_rep(v, f):
            out.append(v)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_coset_reps_match_brute_force(n):
    for f in range(n // 2 + 1):
        direct = {p.img for p in coset_reps(f, n)}
        brute = {p.img for p in brute_coset_reps(f, n)}
        assert direct == brute
        expected = factorial(n) // (2 ** f * factorial(f) * factorial(n - 2 * f))
        assert len(direct) == expected


def test_coset_reps_f1_n6_word_form():
    # v_{i,j} = s_2 s_3 ... s_{j-1} s_1 s_2 ... s_{i-1} for 1 <= i < j <= 6
    n = 6
    got = {p.img for p in coset_reps(1, n)}
    expected = set()
    for j in range(2, n + 1):
        for i in range(1, j):
            word = list(range(2, j)) + list(range(1, i))
            expected.add(Permutation.from_word(word, n).img)
    assert got == expected
    assert len(expected) == 15


def test_coset_reps_f0():
    assert [p.img for p in coset_reps(0, 4)] == [(1, 2, 3, 4)]


def test_length_additivity_upper_times_coset():
    # l(uv) = l(u) + l(v) for u in <s_i : 2f<i<n>, v in D_{f,n}
    from itertools import permutations as iperm
    for n in range(2, 6):
        for f in range(n // 2 + 1):
            uppers = []
            for img_tail in iperm(range(2 * f + 1, n + 1)):
                img = tuple(range(1, 2 * f + 1)) + img_tail
                uppers.append(Permutation(img))
            for v in coset_reps(f, n):
                for u in uppers:
                    assert (u * v).length() == u.length() + v.length()


# -- paths -------------------------------------------------------------------

def test_path_counts_equal_tableau_times_coset():
    for n in range(1, 7):
        for f in range(n // 2 + 1):
            for lam in partitions_of(n - 2 * f):
                paths = ordered_paths(lam, n)
                expected = (len(enumerate_std(lam, n))
                            * len(coset_reps(f, n)))
                assert len(paths) == expected, (lam, n)


def test_sum_of_squares_is_double_factorial():
    for n in range(1, 7):
        total = 0
        for f in range(n // 2 + 1):
            for lam in partitions_of(n - 2 * f):
                total += len(ordered_paths(lam, n)) ** 2
        assert total == double_factorial(2 * n - 1)


def test_maximal_path_321_n10():
    expected = ((), (1,), (), (1,), (), (1,), (2,), (3,), (3, 1), (3, 2),
                (3, 2, 1))
    assert maximal_path((3, 2, 1), 10) == expected


def test_single_path_for_full_row():
    for n in range(1, 6):
        assert len(ordered_paths((n,), n)) == 1


def test_three_paths_lambda1_n3():
    assert len(ordered_paths((1,), 3)) == 3


def test_path_dominance_has_unique_max():
    for lam, n in [((1,), 3), ((2,), 4), ((1, 1), 4), ((2, 1), 5)]:
        top = maximal_path(lam, n)
        for p in ordered_paths(lam, n):
            assert path_dominance(top, p) in ("dominates", "equal")


def test_path_key_refines_path_dominance():
    for lam, n in [((1,), 5), ((2,), 4)]:
        paths = sorted(ordered_paths(lam, n), key=path_key)
        for i, s in enumerate(paths):
            for t in paths[i + 1:]:
                assert path_dominance(t, s) != "dominates"


# -- semistandard ---------------------------------------------------------------

def test_semistandard_count_type_321():
    total = 0
    for lam in partitions_of(6):
        total += len(semistandard_set(lam, (3, 2, 1)))
    assert total == 8


def test_type_map_of_superstandard_is_identity_filling():
    mu = (3, 2, 1)
    t = superstandard(mu, 6)
    S = type_map(t, mu)
    assert S.rows == ((1, 1, 1), (2, 2), (3,))
    assert S.is_semistandard()


# -- distinguished permutations -------------------------------------------------
#
# w_p = s_{n-2} s_{n-3} ... s_{2f-1} s_{n-1} s_{n-2} ... s_{2f} is the word of
# the up-neighbor that adds a box in a new row, the last one in dominance
# order: there a = n - 1.

def wp_word(lam, n):
    mu, a, w_word = up_neighbor_data(lam, n)[-1]
    assert len(mu) == len(lam) + 1 and a == n - 1
    return w_word


def test_wp_word_n10_f2():
    assert wp_word((3, 2, 1), 10) == (8, 7, 6, 5, 4, 3, 9, 8, 7, 6, 5, 4)


def test_wp_word_minimal_case():
    # n=2, f=1: both descending index ranges are empty, so the word is the
    # identity.  (Consistency anchor: the one-dimensional module at n=2 over
    # the empty partition has basis element E_1 itself, which forces the
    # degenerate prefix to act trivially.)
    assert wp_word((), 2) == ()


def test_wp_word_n3_f1():
    # n=3, f=1: word s_1 s_2, whose inverse gives the prefix T_2^{-1}T_1^{-1}
    assert wp_word((1,), 3) == (1, 2)


def test_up_neighbor_data_ordering_and_words():
    # n=10, f=2, lam=(3,2,1): up-neighbors ordered by dominance
    entries = up_neighbor_data((3, 2, 1), 10)
    shapes = [e[0] for e in entries]
    assert shapes == [(4, 2, 1), (3, 3, 1), (3, 2, 2), (3, 2, 1, 1)]
    for mu, a, w_word in entries:
        assert w_word == tuple(range(a - 1, 2, -1)) + tuple(range(9, 3, -1))


def test_neighbors_ordering():
    # neighbors of (1) one level down at n=3 (f=1): removal () then
    # additions (2), (1,1)
    assert neighbors((1,), 3) == [(), (2,), (1, 1)]


def test_content_sum_matches_node_sum():
    for k in range(8):
        for lam in partitions_of(k):
            nodes = [(i, j) for i, p in enumerate(lam) for j in range(p)]
            assert content_sum(lam) == sum(j - i for i, j in nodes)
    assert content_sum((4, 1)) == 5
