"""End-to-end acceptance suite.

Every comparison is exact symbolic equality over the fraction field; each
test also enforces its wall-clock budget.
"""

import random
import time
from contextlib import contextmanager
from itertools import permutations

import pytest

from cellalg.bmw import (
    BmwElement,
    bmw_cell_index,
    bmw_gen_matrix,
    bmw_word,
)
from cellalg.brauer import BrauerElement, all_diagrams
from cellalg.combin import (
    Permutation,
    coset_reps,
    enumerate_std,
    layer_shapes,
    partitions_of,
)
from cellalg.exactring import (
    BMW_VARS,
    BRAUER_VARS,
    CoeffFraction,
    Specialization,
    bmw_z,
    parse_fraction,
)
from cellalg.hecke import (
    HeckeElement,
    hk_content,
    hk_jm,
    hk_to_murphy,
    murphy_to_hk,
    specht_action_matrix,
    tab_dominance,
)
from cellalg.linalg import mat_mul
from cellalg.specsim import (
    CERTIFIED_NOT_SEMISIMPLE,
    CERTIFIED_SEMISIMPLE,
    INCONCLUSIVE,
    _det,
    certify,
    conjecture_evidence,
    gram_rank_certify,
)
from cellalg.towers import (
    build_path_basis,
    central_scalar,
    gram_matrix,
    jm_triangularity,
    ordered_paths,
    _monomial_rho,
    _rho_mul,
)


def bqr(text):
    return parse_fraction(text, BMW_VARS)


def bz(text):
    return parse_fraction(text, BRAUER_VARS)


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, "took {:.1f}s, budget {}s".format(
        elapsed, seconds)


def double_factorial(n):
    out = 1
    for k in range(2 * n - 1, 0, -2):
        out *= k
    return out


# -- 1: two-parameter Gram matrix and determinant at three strands -------------------

def test_bmw_gram_three_strands_closed_form():
    with budget(10):
        g = gram_matrix("bmw", (1,), 3)
        z = bmw_z()
        expected = [
            [z, bqr("r"), bqr("1")],
            [bqr("r"), z + bqr("(q-q^-1)(r-r^-1)"), bqr("r^-1")],
            [bqr("1"), bqr("r^-1"), z],
        ]
        assert g == expected
        det = bqr("(r-1)^2(r+1)^2(q^3+r)(q^3r-1)") / bqr("r^3(q-1)^3(q+1)^3")
        assert _det(g) == det


# -- 2: one-parameter Gram matrix and determinant at three strands -------------------

def test_brauer_gram_three_strands_closed_form():
    with budget(5):
        g = gram_matrix("brauer", (1,), 3)
        z = bz("z")
        one = bz("1")
        assert g == [[z, one, one], [one, z, one], [one, one, z]]
        assert _det(g) == bz("(z-1)^2(z+2)")


# -- 3: transition matrices between cell and path bases ------------------------------

def test_transition_matrices_frozen_values():
    with budget(60):
        cases = [
            ((1,), 3, [
                ["1", "1-q^2", "0"],
                ["0", "q", "0"],
                ["0", "q^2", "1"],
            ]),
            ((2,), 4, [
                ["1", "1-q^2", "0", "1-q^2", "0", "0"],
                ["0", "q", "0", "q*(1-q^2)", "0", "0"],
                ["0", "0", "0", "q^2", "0", "0"],
                ["0", "q^2", "1", "q^2*(1-q^2)", "0", "(1-q^2)/q"],
                ["0", "0", "0", "q^3", "0", "1"],
                ["0", "0", "0", "q^4", "1", "(q^2-1)/q"],
            ]),
            ((1, 1), 4, [
                ["1", "1-q^2", "0", "q*(q^2-1)", "1-q^2", "0"],
                ["0", "q", "0", "1-q^2", "(q^2-1)/q", "0"],
                ["0", "0", "0", "q", "-1", "0"],
                ["0", "q^2", "1", "q*(1-q^2)", "(1-q^2)/(q*r)", "0"],
                ["0", "0", "0", "q^2", "0", "0"],
                ["0", "0", "0", "0", "q^2", "1"],
            ]),
        ]
        for lam, n, rows in cases:
            pb = build_path_basis("bmw", lam, n)
            assert pb.transition_matrix() == \
                [[bqr(s) for s in row] for row in rows]


# -- 4: dimension bookkeeping --------------------------------------------------------

def test_dimension_counts_both_towers():
    with budget(5):
        for algebra in ("bmw", "brauer"):
            for n in (2, 3, 4):
                total = 0
                for lam in layer_shapes(n):
                    count = len(ordered_paths(lam, n))
                    f = (n - sum(lam)) // 2
                    assert count == (len(enumerate_std(lam, n))
                                     * len(coset_reps(f, n)))
                    total += count * count
                assert total == double_factorial(n)
        assert [double_factorial(n) for n in (2, 3, 4)] == [3, 15, 105]


# -- 5: defining and derived relations, plus associativity spot-checks ---------------

def _bmw_matrix_relation_suite(lam, n):
    T = {i: bmw_gen_matrix(lam, n, "T", i) for i in range(1, n)}
    Ti = {i: bmw_gen_matrix(lam, n, "Tinv", i) for i in range(1, n)}
    E = {i: bmw_gen_matrix(lam, n, "E", i) for i in range(1, n)}
    k = len(T[1]) if n > 1 else 0
    one = [[bqr("1") if a == b else bqr("0") for b in range(k)]
           for a in range(k)]
    z = bmw_z()

    def eq(a, b):
        return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    def scale(m, c):
        return [[x * c for x in row] for row in m]

    def add(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    for i in range(1, n):
        assert eq(mat_mul(T[i], Ti[i]), one)
        skein = scale(add(one, scale(E[i], bqr("-1"))), bqr("q-q^-1"))
        assert eq(skein, add(T[i], scale(Ti[i], bqr("-1"))))
        assert eq(mat_mul(E[i], E[i]), scale(E[i], z))
        assert eq(mat_mul(T[i], E[i]), scale(E[i], bqr("r^-1")))
        assert eq(mat_mul(E[i], T[i]), scale(E[i], bqr("r^-1")))
    for i in range(1, n - 1):
        assert eq(mat_mul(mat_mul(T[i], T[i + 1]), T[i]),
                  mat_mul(mat_mul(T[i + 1], T[i]), T[i + 1]))
        for a, b in ((i, i + 1), (i + 1, i)):
            assert eq(mat_mul(mat_mul(E[a], T[b]), T[a]),
                      mat_mul(E[a], E[b]))
            assert eq(mat_mul(mat_mul(T[b], T[a]), E[b]),
                      mat_mul(E[a], E[b]))
            assert eq(mat_mul(mat_mul(E[a], T[b]), E[a]), scale(E[a], bqr("r")))
            assert eq(mat_mul(mat_mul(E[a], Ti[b]), E[a]),
                      scale(E[a], bqr("r^-1")))
            assert eq(mat_mul(mat_mul(E[a], E[b]), E[a]), E[a])
    for i in range(1, n):
        for j in range(i + 2, n):
            assert eq(mat_mul(T[i], T[j]), mat_mul(T[j], T[i]))
            assert eq(mat_mul(E[i], E[j]), mat_mul(E[j], E[i]))
            assert eq(mat_mul(T[i], E[j]), mat_mul(E[j], T[i]))


def _bmw_element_relation_suite(n):
    one = bmw_word([], n)
    z = bmw_z()
    T = {i: bmw_word([("T", i)], n) for i in range(1, n)}
    Ti = {i: bmw_word([("Tinv", i)], n) for i in range(1, n)}
    E = {i: bmw_word([("E", i)], n) for i in range(1, n)}
    for i in range(1, n):
        assert T[i] * Ti[i] == one
        skein = (one - E[i]).scale(bqr("q-q^-1"))
        assert skein == T[i] - Ti[i]
        assert E[i] * E[i] == E[i].scale(z)
        assert T[i] * E[i] == E[i].scale(bqr("r^-1"))
        assert E[i] * T[i] == E[i].scale(bqr("r^-1"))
    for i in range(1, n - 1):
        assert T[i] * T[i + 1] * T[i] == T[i + 1] * T[i] * T[i + 1]
        for a, b in ((i, i + 1), (i + 1, i)):
            assert E[a] * T[b] * T[a] == E[a] * E[b]
            assert T[b] * T[a] * E[b] == E[a] * E[b]
            assert E[a] * T[b] * E[a] == E[a].scale(bqr("r"))
            assert E[a] * Ti[b] * E[a] == E[a].scale(bqr("r^-1"))
            assert E[a] * E[b] * E[a] == E[a]
    for i in range(1, n):
        for j in range(i + 2, n):
            assert T[i] * T[j] == T[j] * T[i]
            assert E[i] * E[j] == E[j] * E[i]
            assert T[i] * E[j] == E[j] * T[i]


def _brauer_element_relation_suite(n):
    z = bz("z")
    one = BrauerElement.one(n)
    s = {i: BrauerElement.s(i, n) for i in range(1, n)}
    E = {i: BrauerElement.e(i, n) for i in range(1, n)}
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


def test_relation_suite_and_associativity():
    with budget(600):
        # two-parameter tower: normal form for n <= 3, and the faithful
        # direct sum of cell modules (dimension count 3/15/105) at n = 4
        for n in (2, 3):
            _bmw_element_relation_suite(n)
        for n in (2, 3, 4):
            for lam in layer_shapes(n):
                _bmw_matrix_relation_suite(lam, n)
        # one-parameter tower: straightened diagram elements up to n = 6
        for n in (2, 3, 4, 5, 6):
            _brauer_element_relation_suite(n)
        # associativity on random monomial triples, 100 per level
        rng = random.Random(2026)
        for n in (2, 3):
            index = bmw_cell_index(n)
            for _ in range(100):
                a, b, c = (BmwElement(n, {rng.choice(index): bqr("1")})
                           for _ in range(3))
                assert (a * b) * c == a * (b * c)
        index4 = bmw_cell_index(4)
        for _ in range(100):
            a, b, c = (_monomial_rho("bmw", 4, rng.choice(index4))
                       for _ in range(3))
            left = _rho_mul(_rho_mul(a, b), c)
            right = _rho_mul(a, _rho_mul(b, c))
            assert all(left[lam] == right[lam] for lam in left)
        for n in (2, 3, 4, 5, 6):
            diagrams = all_diagrams(n)
            for _ in range(100):
                a, b, c = (BrauerElement.from_diagram(rng.choice(diagrams), n)
                           for _ in range(3))
                assert (a * b) * c == a * (b * c)


# -- 6: Jucys-Murphy triangularity on the path bases ---------------------------------

def test_jm_triangular_with_content_diagonal():
    with budget(600):
        for algebra, nmax in (("bmw", 4), ("brauer", 5)):
            for n in range(1, nmax + 1):
                for lam in layer_shapes(n):
                    report = jm_triangularity(algebra, lam, n)
                    assert report["ok"], report["failures"]


# -- 7: central combinations act by scalars ------------------------------------------

def test_central_combinations_are_scalar():
    with budget(300):
        for algebra in ("bmw", "brauer"):
            for n in range(1, 5):
                for lam in layer_shapes(n):
                    central_scalar(algebra, lam, n)  # raises if not scalar
        assert central_scalar("brauer", (), 2) == bz("1-z")
        assert central_scalar("brauer", (1,), 3) == bz("1-z")
        assert central_scalar("bmw", (3,), 3) == bqr("q^6")


# -- 8: certification at the documented specializations ------------------------------

def test_certification_examples():
    with budget(60):
        spec_rq = Specialization.parse("r=-q^-3", BMW_VARS)
        verdict = certify("bmw", 3, spec_rq)
        assert verdict.outcome == INCONCLUSIVE
        s = ((), (1,), (2,), (1,))
        t = ((), (1,), (2,), (3,))
        shared = next(vec for a, b, vec in verdict.evidence
                      if (a, b) == (s, t))
        assert shared == tuple(parse_fraction(x, ("q",))
                               for x in ("1", "q^2", "q^4"))
        assert gram_rank_certify("bmw", 3, spec_rq).outcome == \
            CERTIFIED_SEMISIMPLE

        spec_z4 = Specialization.parse("z=4", BRAUER_VARS)
        verdict = certify("brauer", 3, spec_z4)
        assert verdict.outcome == INCONCLUSIVE
        u = ((), (1,), (1, 1), (1,))
        v = ((), (1,), (1, 1), (1, 1, 1))
        shared = next(vec for a, b, vec in verdict.evidence
                      if (a, b) == (u, v))
        assert shared == tuple(parse_fraction(x, ()) for x in ("0", "-1", "-2"))
        assert gram_rank_certify("brauer", 3, spec_z4).outcome == \
            CERTIFIED_SEMISIMPLE

        spec_z1 = Specialization.parse("z=1", BRAUER_VARS)
        verdict = gram_rank_certify("brauer", 3, spec_z1)
        assert verdict.outcome == CERTIFIED_NOT_SEMISIMPLE
        assert [w[0] for w in verdict.evidence] == [(1,)]


# -- 9: generic semisimplicity -------------------------------------------------------

def test_symbolic_certification():
    with budget(300):
        for n in range(1, 5):
            assert certify("bmw", n).outcome == CERTIFIED_SEMISIMPLE
        for n in range(1, 6):
            assert certify("brauer", n).outcome == CERTIFIED_SEMISIMPLE


# -- 10: Gram-determinant root evidence ----------------------------------------------

def test_gram_determinant_roots_small_odd_levels():
    with budget(900):
        report = conjecture_evidence(3)
        assert set(report["roots"]) == {1, -2}
        assert report["agrees"] is True
        report = conjecture_evidence(5)
        assert set(report["roots"]) == {-4, -2, 1, 2}
        assert report["agrees"] is True
        assert report["nonlinear_remainder_degree"] == 0


# -- 11: the symmetric-group deformation layer ---------------------------------------

def test_murphy_straightening_and_jm_diagonals():
    with budget(120):
        rng = random.Random(11)
        counts = {2: 10, 3: 40, 4: 50}  # 100 round-trips total
        const = lambda c: CoeffFraction.const(c, BMW_VARS)
        for n, reps in counts.items():
            perms = [Permutation(img)
                     for img in permutations(range(1, n + 1))]
            for _ in range(reps):
                terms = {w: const(rng.randint(-4, 4))
                         for w in rng.sample(perms, min(4, len(perms)))}
                h = HeckeElement(n, terms)
                assert murphy_to_hk(hk_to_murphy(h), n) == h
        for n in (2, 3, 4):
            for lam in partitions_of(n):
                tabs = enumerate_std(lam, n)
                for k in range(1, n + 1):
                    mat = specht_action_matrix(lam, n, hk_jm(k, n))
                    for a, s in enumerate(tabs):
                        for b, v in enumerate(tabs):
                            if a == b:
                                # diagonal entry is the content power of q
                                assert mat[a][b] == hk_content(s, k)
                            elif not mat[a][b].is_zero():
                                assert tab_dominance(v, s) == "dominates"
