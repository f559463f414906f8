import pytest

from cellalg import towers
from cellalg.combin import (
    Permutation,
    cell_index,
    dominance,
    enumerate_std,
    coset_reps,
    layer_shapes,
    neighbors,
    partitions_of,
    path_dominance,
    superstandard,
    tab_perm,
    up_neighbor_data,
)
from cellalg.exactring import BMW_VARS, BRAUER_VARS, CoeffFraction, parse_fraction
from cellalg.bmw import (
    bmw_gen_matrix,
    bmw_m_lambda,
    bmw_to_cellular,
)
from cellalg.brauer import (
    BrauerElement,
    br_cell_matrix,
    br_jm,
    br_m_lambda,
    br_module_matrix,
    br_basis_element,
    br_star,
    br_to_cellular,
    diagram_arcs,
)
from cellalg.hecke import row_stabilizer
from cellalg.linalg import identity_matrix, mat_mul
from cellalg.towers import (
    _BmwOps,
    PathBasis,
    build_path_basis,
    central_scalar,
    down_tableau,
    element_rho,
    gram_matrix,
    jm_matrix,
    jm_triangularity,
    maximal_path,
    ordered_paths,
    path_content,
    restriction_filtration_check,
    rho_of_word,
    y_element,
    _rho_add,
    _rho_mul,
    _rho_scale,
)

from brauer_reference import (
    br_to_cell_coords,
    dense_gen_matrix,
    dense_to_cellular,
)


def bqr(s):
    return parse_fraction(s, BMW_VARS)


def bz(s):
    return parse_fraction(s, BRAUER_VARS)


# -- the fast Brauer cell-module engine ----------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_fast_engine_matches_solver_route(n):
    for lam in layer_shapes(n):
        for i in range(1, n):
            for kind in ("s", "E"):
                assert br_cell_matrix(lam, n, kind, i) == \
                    dense_gen_matrix(lam, n, kind, i)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fast_jm_matches_element_route(n):
    for lam in layer_shapes(n):
        for k in range(1, n + 1):
            assert jm_matrix("brauer", lam, n, k) == \
                br_module_matrix(lam, n, br_jm(k, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bmw_jm_matches_word_product(n):
    # L_k = T_{k-1} ... T_2 T_1 T_1 T_2 ... T_{k-1}, one word on S^lambda
    for lam in layer_shapes(n):
        for k in range(1, n + 1):
            down = [("T", i) for i in range(k - 1, 0, -1)]
            assert jm_matrix("bmw", lam, n, k) == \
                towers.word_matrix("bmw", lam, n, down + down[::-1])


def test_jm_matrix_rejects_bad_input():
    for k in (0, 4):
        with pytest.raises(ValueError, match="index out of range"):
            jm_matrix("brauer", (1,), 3, k)
    with pytest.raises(ValueError, match="unknown algebra"):
        jm_matrix("hecke", (1,), 3, 2)


def _diagram_gram(lam, n):
    """The bilinear form read off the diagram basis: entry (a, b) is the
    m_lambda coefficient of m_a m_b^*, solved through the dense solver."""
    index = cell_index(lam, n)
    seed = (superstandard(lam, n), Permutation.identity(n))
    elements = [br_basis_element(lam, n, t, u) for t, u in index]
    return [[br_to_cell_coords(lam, n, ea * br_star(eb)).get(seed, bz("0"))
             for eb in elements] for ea in elements]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_matches_diagram_form(n):
    for lam in layer_shapes(n):
        fast = gram_matrix("brauer", lam, n)
        slow = _diagram_gram(lam, n)
        assert [[str(x) for x in row] for row in fast] == \
            [[str(x) for x in row] for row in slow]


def _dense_gram(algebra, lam, n):
    """The Gram matrix as built before it acted on one column: each star
    word on a k x k identity times the whole m_lambda matrix, with the
    multiple-of-m_lambda check on every entry."""
    ops = towers._ops(algebra)
    index = cell_index(lam, n)
    k = len(index)
    e1 = index.index((superstandard(lam, n), Permutation.identity(n)))
    m_mat = towers.m_lambda_matrix(algebra, lam, n, lam)
    rows = [[None] * k for _ in range(k)]
    for b, (t, u) in enumerate(index):
        mat = identity_matrix(k, ops.vars)
        for kind, i in (ops.perm_letters(u)[::-1]
                        + ops.perm_letters(tab_perm(t))[::-1]):
            mat = mat_mul(mat, ops.gen_matrix(lam, n, kind, i))
        mat = mat_mul(mat, m_mat)
        for a in range(k):
            assert all(mat[a][j].is_zero() for j in range(k) if j != e1)
            rows[a][b] = mat[a][e1]
    return rows


@pytest.mark.parametrize("algebra,nmax", [("bmw", 4), ("brauer", 5)])
def test_gram_columns_match_dense_word_products(algebra, nmax):
    for n in range(1, nmax + 1):
        for lam in layer_shapes(n):
            assert [[str(x) for x in row]
                    for row in gram_matrix(algebra, lam, n)] == \
                [[str(x) for x in row] for row in _dense_gram(algebra, lam, n)]


def _per_w_m_lambda(algebra, lam, n, target):
    """m_lambda on S^target as it was built before the coset factorisation:
    the E-chain, then one letter word per w in the row stabilizer, scaled by
    c(l(w)) and summed."""
    ops = towers._ops(algebra)
    f = (n - sum(lam)) // 2
    units = identity_matrix(len(cell_index(target, n)), ops.vars)
    chain = towers._apply_letters(ops, units, target, n,
                                  [("E", i) for i in range(1, 2 * f, 2)])
    acc = None
    for w in row_stabilizer(lam, n):
        coeff = ops.step_coeff(w.length())
        piece = [[x * coeff for x in row] for row in towers._apply_letters(
            ops, chain, target, n, ops.perm_letters(w))]
        acc = piece if acc is None else \
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, piece)]
    return acc


@pytest.mark.parametrize("algebra,ns", [("bmw", (2, 3, 4)),
                                        ("brauer", (3, 4, 5))])
def test_m_lambda_coset_factorisation_matches_per_w_sum(algebra, ns):
    # every target, not only lambda: cellular_terms acts by m_lambda on all
    # the cell modules of the level
    pairs = 0
    for n in ns:
        for lam in layer_shapes(n):
            for mu in layer_shapes(n):
                got = towers.m_lambda_matrix(algebra, lam, n, mu)
                want = _per_w_m_lambda(algebra, lam, n, mu)
                assert [[str(x) for x in row] for row in got] == \
                    [[str(x) for x in row] for row in want]
                pairs += 1
    assert pairs == {"bmw": 9 + 16 + 64, "brauer": 16 + 64 + 121}[algebra]


@pytest.mark.parametrize("algebra,lam,n", [("brauer", (1,), 3),
                                           ("bmw", (2, 1), 3)])
def test_gram_rejects_m_lambda_outside_its_seed_column(monkeypatch, algebra,
                                                       lam, n):
    index = cell_index(lam, n)
    e1 = index.index((superstandard(lam, n), Permutation.identity(n)))
    m_mat = [list(row) for row in
             towers.m_lambda_matrix(algebra, lam, n, lam)]
    j = (e1 + 1) % len(index)
    assert m_mat[0][j].is_zero()
    m_mat[0][j] = CoeffFraction.const(1, towers._ops(algebra).vars)
    monkeypatch.setattr(towers, "m_lambda_matrix", lambda *args: m_mat)
    with pytest.raises(AssertionError, match="multiple of m_lambda"):
        towers.gram_matrix.__wrapped__(algebra, lam, n)


def _word_matrix(lam, n, word):
    out = None
    for kind, i in word:
        m = br_cell_matrix(lam, n, kind, i)
        out = m if out is None else [
            [sum((x * m[a][j] for a, x in enumerate(row) if not x.is_zero()),
                 bz("0")) for j in range(len(row))] for row in out]
    return out


def test_fast_engine_defining_relations_n5():
    n = 5
    z = bz("z")
    for lam in layer_shapes(n):
        dim = len(cell_index(lam, n))
        ident = [[bz("1") if a == b else bz("0") for b in range(dim)]
                 for a in range(dim)]
        for i in range(1, n):
            s = _word_matrix(lam, n, [("s", i)])
            e = _word_matrix(lam, n, [("E", i)])
            assert _word_matrix(lam, n, [("s", i), ("s", i)]) == ident
            assert _word_matrix(lam, n, [("E", i), ("E", i)]) == \
                [[x * z for x in row] for row in e]
            assert _word_matrix(lam, n, [("E", i), ("s", i)]) == e
            assert _word_matrix(lam, n, [("s", i), ("E", i)]) == e
        for i in range(1, n - 1):
            j = i + 1
            assert _word_matrix(lam, n, [("s", i), ("s", j), ("s", i)]) == \
                _word_matrix(lam, n, [("s", j), ("s", i), ("s", j)])
            assert _word_matrix(lam, n, [("E", i), ("s", j), ("s", i)]) == \
                _word_matrix(lam, n, [("E", i), ("E", j)])
            assert _word_matrix(lam, n, [("s", j), ("s", i), ("E", j)]) == \
                _word_matrix(lam, n, [("E", i), ("E", j)])
            assert _word_matrix(lam, n, [("E", i), ("s", j), ("E", i)]) == \
                _word_matrix(lam, n, [("E", i)])
            assert _word_matrix(lam, n, [("E", i), ("E", j), ("E", i)]) == \
                _word_matrix(lam, n, [("E", i)])
            assert _word_matrix(lam, n, [("E", j), ("E", i), ("E", j)]) == \
                _word_matrix(lam, n, [("E", j)])
        for i in range(1, n - 2):
            for j in range(i + 2, n):
                for ka in ("s", "E"):
                    for kb in ("s", "E"):
                        assert _word_matrix(lam, n, [(ka, i), (kb, j)]) == \
                            _word_matrix(lam, n, [(kb, j), (ka, i)])


# -- path enumeration ----------------------------------------------------------------

def brute_force_paths(n):
    """{shape: set of paths}: every sequence of n single-box additions and
    removals from () that stays a partition, grouped by where it ends."""
    walks = [((),)]
    for _ in range(n):
        walks = [w + (mu,) for w in walks
                 for mu in _one_box_moves(w[-1])]
    out = {}
    for w in walks:
        out.setdefault(w[-1], set()).add(w)
    return out


def _one_box_moves(lam):
    rows = list(lam) + [0]
    for i in range(len(rows)):
        for d in (1, -1):
            moved = rows[:i] + [rows[i] + d] + rows[i + 1:]
            if moved[i] >= 0 and all(a >= b for a, b in zip(moved, moved[1:])):
                yield tuple(x for x in moved if x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ordered_paths_enumeration(n):
    oracle = brute_force_paths(n)
    assert set(oracle) == set(layer_shapes(n))
    for lam in layer_shapes(n):
        ps = ordered_paths(lam, n)
        assert set(ps) == oracle[lam]
        assert len(ps) == len(set(ps))
        top = maximal_path(lam, n)
        assert ps[0] == top
        assert all(path_dominance(top, p) == "dominates" for p in ps[1:])
        f = (n - sum(lam)) // 2
        assert len(ps) == len(enumerate_std(lam, n)) * len(coset_reps(f, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ordered_paths_linear_extension(n):
    for lam in layer_shapes(n):
        ps = ordered_paths(lam, n)
        for a, t in enumerate(ps):
            for u in ps[a + 1:]:
                assert path_dominance(u, t) != "dominates"


def test_path_content_first_step():
    assert path_content("bmw", ((), (1,), (2,)), 1) == bqr("1")
    assert path_content("brauer", ((), (1,), (2,)), 1) == bz("0")
    with pytest.raises(ValueError):
        path_content("bmw", ((), (1,)), 2)


def test_path_content_values():
    p = ((), (1,), (1, 1), (1,))
    assert [path_content("brauer", p, k) for k in (1, 2, 3)] == \
        [bz("0"), bz("-1"), bz("2 - z")]
    assert path_content("bmw", ((), (1,), (2,)), 2) == bqr("q^2")
    assert path_content("bmw", ((), (1,), (1, 1), (1,)), 3) == \
        bqr("q^2 / r^2")


# -- y-elements ----------------------------------------------------------------------

def test_down_tableau_large_shapes():
    s = down_tableau((3, 2, 1), (3, 1, 1), 10)
    assert tab_perm(s).reduced_word() == (9,)
    s2 = down_tableau((3, 2, 1), (2, 2, 1), 10)
    assert tab_perm(s2).img == (1, 2, 3, 4, 5, 6, 10, 7, 8, 9)


def test_y_down_greatest_neighbor_is_seed():
    for algebra, nmax in (("bmw", 4), ("brauer", 4)):
        for n in range(2, nmax + 1):
            for lam in layer_shapes(n):
                mu = neighbors(lam, n)[0]
                if sum(mu) != sum(lam) - 1:
                    continue
                y = y_element(algebra, lam, mu, n)
                idx = cell_index(lam, n)
                key = (superstandard(lam, n), Permutation.identity(n))
                one = bqr("1") if algebra == "bmw" else bz("1")
                for tu, c in zip(idx, y):
                    if tu == key:
                        assert c == one
                    else:
                        assert c.is_zero()


def test_y_element_requires_neighbor():
    with pytest.raises(ValueError):
        y_element("bmw", (2,), (2, 2), 4)
    with pytest.raises(ValueError):
        y_element("brauer", (1,), (1,), 3)


def test_y_up_two_box_column_example():
    # m T_2^{-1} T_1^{-1} T_3^{-1} (1 + q T_1) on the pair layer at n = 4
    lam, n = (1, 1), 4
    idx = cell_index(lam, n)
    key = (superstandard(lam, n), Permutation.identity(n))
    vec = [bqr("1") if tu == key else bqr("0") for tu in idx]
    for i in (2, 1, 3):
        m = bmw_gen_matrix(lam, n, "Tinv", i)
        vec = [sum((vec[a] * m[a][j] for a in range(len(vec))), bqr("0"))
               for j in range(len(vec))]
    t1 = bmw_gen_matrix(lam, n, "T", 1)
    shifted = [sum((vec[a] * t1[a][j] for a in range(len(vec))), bqr("0"))
               for j in range(len(vec))]
    expected = [a + b * bqr("q") for a, b in zip(vec, shifted)]
    assert list(y_element("bmw", lam, (2, 1), n)) == expected


def _rho_m_mu_level_down(mu, n):
    """Block matrices of m_mu, formed one level down and embedded in B_n."""
    from cellalg.hecke import row_stabilizer
    g = (n - 1 - sum(mu)) // 2
    chain = rho_of_word("bmw", n, [("E", 2 * i - 1) for i in range(1, g + 1)])
    acc = None
    for w in row_stabilizer(mu, n - 1):
        lifted = Permutation(w.img + (n,))
        piece = _rho_scale(rho_of_word("bmw", n, _BmwOps.perm_letters(lifted)),
                           bqr("q^{}".format(lifted.length())))
        acc = piece if acc is None else _rho_add(acc, piece)
    return _rho_mul(chain, acc)


def _bmw_rho_element(n, terms):
    """Block matrices of sum_w a_w T_w given {Permutation: coeff}."""
    acc = None
    for w, c in terms.items():
        piece = _rho_scale(rho_of_word("bmw", n, _BmwOps.perm_letters(w)), c)
        acc = piece if acc is None else _rho_add(acc, piece)
    return acc


@pytest.mark.parametrize("n", [2, 3])
def test_y_up_matches_defining_product_bmw(n):
    # y for an added box must equal E_{2f-1} T_w^{-1} m_mu modulo the span of
    # the more dominant layers, with all coefficients on the seed left index
    for lam in layer_shapes(n):
        f = (n - sum(lam)) // 2
        if f == 0:
            continue
        seed_left = (superstandard(lam, n), Permutation.identity(n))
        data = {mu: w_word for mu, _a, w_word in up_neighbor_data(lam, n)}
        for mu, w_word in data.items():
            y = y_element("bmw", lam, mu, n)
            word = [("E", 2 * f - 1)]
            word += [("Tinv", i) for i in reversed(w_word)]
            rho = _rho_mul(rho_of_word("bmw", n, word),
                           _rho_m_mu_level_down(mu, n))
            coords = bmw_to_cellular(n, rho).terms
            idx = cell_index(lam, n)
            for (nu, sv, tu), c in coords.items():
                if nu == lam:
                    assert sv == seed_left
                    assert c == y[idx.index(tu)]
                else:
                    assert dominance(nu, lam) == "dominates"
            got = {tu for (nu, sv, tu) in coords if nu == lam}
            for j, c in enumerate(y):
                assert (idx[j] in got) == (not c.is_zero())


def _br_m_mu_level_down(mu, n):
    """m_mu formed one level down and embedded in B_n."""
    from cellalg.hecke import row_stabilizer
    g = (n - 1 - sum(mu)) // 2
    out = BrauerElement.one(n)
    for i in range(1, 2 * g, 2):
        out = out * BrauerElement.e(i, n)
    acc = BrauerElement.zero(n)
    for w in row_stabilizer(mu, n - 1):
        acc = acc + BrauerElement.perm(Permutation(w.img + (n,)))
    return out * acc


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_y_up_matches_defining_product_brauer(n):
    # the defining product minus the closed form must lie in the span of
    # diagrams with more than f arcs, which sits inside the check ideal
    one = bz("1")
    for lam in layer_shapes(n):
        f = (n - sum(lam)) // 2
        if f == 0:
            continue
        for mu, a, w_word in up_neighbor_data(lam, n):
            w = Permutation.from_word(w_word, n)
            winv = BrauerElement.perm(w.inverse())
            m_mu = _br_m_mu_level_down(mu, n)
            lhs = BrauerElement.e(2 * f - 1, n) * winv * m_mu
            row = next(i + 1 for i in range(len(mu))
                       if mu[i] == (lam[i] if i < len(lam) else 0) + 1)
            depth = lam[row - 1] if row - 1 < len(lam) else 0
            tail = BrauerElement.one(n)
            cur = Permutation.identity(n)
            for i in range(1, depth + 1):
                cur = cur * Permutation.s(a - i, n)
                tail = tail + BrauerElement.perm(cur)
            rhs = br_m_lambda(lam, n) * winv * tail
            for d, c in (lhs - rhs).terms.items():
                assert diagram_arcs(d) > f


# -- the recursive path basis --------------------------------------------------------

def test_first_path_row_is_seed():
    for algebra, nmax in (("bmw", 4), ("brauer", 4)):
        for n in range(1, nmax + 1):
            for lam in layer_shapes(n):
                pb = build_path_basis(algebra, lam, n)
                first = pb.vectors[pb.paths[0]]
                assert first[0] == (bqr("1") if algebra == "bmw" else bz("1"))
                assert all(c.is_zero() for c in first[1:])
                b = pb.b_words[pb.paths[0]]
                assert list(b) == [Permutation.identity(n)]


@pytest.mark.parametrize("algebra,nmax", [("bmw", 4), ("brauer", 5)])
def test_path_basis_complete_and_invertible(algebra, nmax):
    for n in range(1, nmax + 1):
        oracle = brute_force_paths(n)
        for lam in layer_shapes(n):
            pb = build_path_basis(algebra, lam, n)
            # invert_fraction_free inside the build certifies independence
            assert len(pb.paths) == len(pb.index)
            assert set(pb.paths) == oracle[lam]


def test_transition_matrix_single_box_n3():
    pb = build_path_basis("bmw", (1,), 3)
    expected = [["1", "1 - q^2", "0"],
                ["0", "q", "0"],
                ["0", "q^2", "1"]]
    assert pb.transition_matrix() == [[bqr(s) for s in row]
                                      for row in expected]


def test_transition_matrix_one_row_n4():
    pb = build_path_basis("bmw", (2,), 4)
    expected = [
        ["1", "1-q^2", "0", "1-q^2", "0", "0"],
        ["0", "q", "0", "q*(1-q^2)", "0", "0"],
        ["0", "0", "0", "q^2", "0", "0"],
        ["0", "q^2", "1", "q^2*(1-q^2)", "0", "(1-q^2)/q"],
        ["0", "0", "0", "q^3", "0", "1"],
        ["0", "0", "0", "q^4", "1", "(q^2-1)/q"],
    ]
    assert pb.transition_matrix() == [[bqr(s) for s in row]
                                      for row in expected]


def test_transition_matrix_one_column_n4():
    pb = build_path_basis("bmw", (1, 1), 4)
    expected = [
        ["1", "1-q^2", "0", "q*(q^2-1)", "1-q^2", "0"],
        ["0", "q", "0", "1-q^2", "(q^2-1)/q", "0"],
        ["0", "0", "0", "q", "-1", "0"],
        ["0", "q^2", "1", "q*(1-q^2)", "(1-q^2)/(q*r)", "0"],
        ["0", "0", "0", "q^2", "0", "0"],
        ["0", "0", "0", "0", "q^2", "1"],
    ]
    assert pb.transition_matrix() == [[bqr(s) for s in row]
                                      for row in expected]


def test_b_words_rebuild_vectors():
    for algebra, n in (("bmw", 3), ("bmw", 4), ("brauer", 4)):
        for lam in layer_shapes(n):
            pb = build_path_basis(algebra, lam, n)
            idx = pb.index
            for t in pb.paths:
                rebuilt = [bqr("0") if algebra == "bmw" else bz("0")] * len(idx)
                pos = {tu: j for j, tu in enumerate(idx)}
                for w, c in pb.b_words[t].items():
                    # length additivity makes each monomial a basis vector
                    hit = next(j for (tt, uu), j in pos.items()
                               if tab_perm(tt) * uu == w)
                    rebuilt[hit] = rebuilt[hit] + c
                assert tuple(rebuilt) == pb.vectors[t]


# -- cellularity of the lifted basis -------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_lifted_basis_cellular_bmw(n):
    count = 0
    for lam in layer_shapes(n):
        pb = build_path_basis("bmw", lam, n)
        idx = pb.index
        rho_m = element_rho("bmw", n, bmw_m_lambda(lam, n).terms)
        for s in pb.paths:
            star = None
            for w, c in pb.b_words[s].items():
                word = _BmwOps.perm_letters(w)[::-1]
                piece = _rho_scale(rho_of_word("bmw", n, word), c)
                star = piece if star is None else _rho_add(star, piece)
            left = _rho_mul(star, rho_m)
            for t in pb.paths:
                count += 1
                rho_bt = _bmw_rho_element(n, pb.b_words[t])
                coords = bmw_to_cellular(n, _rho_mul(left, rho_bt)).terms
                for (nu, sv, tu), c in coords.items():
                    if nu == lam:
                        a = pb.vectors[s][idx.index(sv)]
                        b = pb.vectors[t][idx.index(tu)]
                        assert c == a * b
                    else:
                        assert dominance(nu, lam) == "dominates"
                layer = {(sv, tu): c for (nu, sv, tu), c in coords.items()
                         if nu == lam}
                for a, sv in enumerate(idx):
                    for b, tu in enumerate(idx):
                        prod = pb.vectors[s][a] * pb.vectors[t][b]
                        if not prod.is_zero():
                            assert layer[(sv, tu)] == prod
    sizes = {2: 3, 3: 15}
    assert count == sizes[n]


def _brauer_b_elements(pb, n):
    """The lifted elements b_t (m_t = m_lambda b_t) as diagram elements."""
    b_elems = {}
    for t in pb.paths:
        e = BrauerElement.zero(n)
        for w, c in pb.b_words[t].items():
            e = e + BrauerElement.perm(w).scale(c)
        b_elems[t] = e
    return b_elems


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lifted_basis_cellular_brauer(n):
    count = 0
    for lam in layer_shapes(n):
        pb = build_path_basis("brauer", lam, n)
        idx = pb.index
        m = br_m_lambda(lam, n)
        b_elems = _brauer_b_elements(pb, n)
        for s in pb.paths:
            left = br_star(b_elems[s]) * m
            for t in pb.paths:
                count += 1
                coords = br_to_cellular(left * b_elems[t])
                for (nu, sv, tu), c in coords.items():
                    if nu == lam:
                        a = pb.vectors[s][idx.index(sv)]
                        b = pb.vectors[t][idx.index(tu)]
                        assert c == a * b
                    else:
                        assert dominance(nu, lam) == "dominates"
                layer = {(sv, tu): c for (nu, sv, tu), c in coords.items()
                         if nu == lam}
                for a, sv in enumerate(idx):
                    for b, tu in enumerate(idx):
                        prod = pb.vectors[s][a] * pb.vectors[t][b]
                        if not prod.is_zero():
                            assert layer[(sv, tu)] == prod
    sizes = {2: 3, 3: 15, 4: 105}
    assert count == sizes[n]


def test_lifted_products_match_full_solver():
    # every product b_s^* m_lambda b_t of the lifted basis at n = 4, as in
    # test_lifted_basis_cellular_brauer, against the diagram-basis oracle
    n = 4
    count = 0
    for lam in layer_shapes(n):
        pb = build_path_basis("brauer", lam, n)
        m = br_m_lambda(lam, n)
        b_elems = _brauer_b_elements(pb, n)
        for s in pb.paths:
            left = br_star(b_elems[s]) * m
            for t in pb.paths:
                count += 1
                x = left * b_elems[t]
                got = {k: str(c) for k, c in br_to_cellular(x).items()}
                assert got == {k: str(c)
                               for k, c in dense_to_cellular(x).items()}
    assert count == 105


# -- Jucys-Murphy triangularity ------------------------------------------------------

@pytest.mark.parametrize("algebra,nmax", [("bmw", 4), ("brauer", 5)])
def test_jm_triangular_with_contents(algebra, nmax):
    for n in range(1, nmax + 1):
        for lam in layer_shapes(n):
            report = jm_triangularity(algebra, lam, n)
            assert report["ok"], report["failures"][:3]


def test_jm_diagonal_one_row_layers():
    # a single-row shape admits only one path through each level, so the
    # operators are diagonal with the stated eigenvalues
    for n in (2, 3, 4):
        lam = (n,)
        report = jm_triangularity("bmw", lam, n)
        assert report["ok"]
        t = maximal_path(lam, n)
        assert report["diagonals"][t] == \
            [bqr("q^{}".format(2 * (k - 1))) for k in range(1, n + 1)]


def test_jm_diagonal_three_strand_example():
    report = jm_triangularity("brauer", (1,), 3)
    assert report["ok"]
    diag = report["diagonals"][((), (1,), (1, 1), (1,))]
    assert diag == [bz("0"), bz("-1"), bz("2 - z")]


@pytest.mark.parametrize("algebra", ["bmw", "brauer"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sibling_contents_distinct(algebra, n):
    # across the children of a fixed path prefix, the step-n eigenvalues
    # are pairwise distinct symbolically
    for mu in layer_shapes(n - 1):
        values = [path_content(algebra, (mu, lam), 1)
                  for lam in _neighbors_up_down(mu, n)]
        for a in range(len(values)):
            for b in range(a + 1, len(values)):
                assert values[a] != values[b]


def _neighbors_up_down(mu, n):
    return [lam for lam in layer_shapes(n)
            if abs(sum(lam) - sum(mu)) == 1 and _one_box_apart(mu, lam)]


def _one_box_apart(mu, lam):
    big, small = (lam, mu) if sum(lam) > sum(mu) else (mu, lam)
    small = tuple(small) + (0,) * (len(big) - len(small))
    diffs = [b - s for b, s in zip(big, small)]
    return all(d >= 0 for d in diffs) and sum(diffs) == 1


@pytest.mark.parametrize("check,memo", [
    (jm_triangularity, towers._jm_triangularity),
    (restriction_filtration_check, towers._restriction_filtration_check)])
@pytest.mark.parametrize("algebra,lam,n", [("brauer", (2, 1), 5),
                                           ("bmw", (1,), 3)])
def test_tower_reports_have_one_memo_entry_per_shape(check, memo, algebra,
                                                     lam, n):
    # a list and its tuple normalise to one key; the report is shared, and
    # equal to one computed afresh
    memo.cache_clear()
    report = check(algebra, list(lam), n)
    assert check(algebra, lam, n) is report
    assert memo.cache_info().currsize == 1
    memo.cache_clear()
    assert check(algebra, lam, n) == report


# -- restriction filtration ----------------------------------------------------------

@pytest.mark.parametrize("algebra,nmax", [("bmw", 4), ("brauer", 4)])
def test_restriction_filtration(algebra, nmax):
    for n in range(2, nmax + 1):
        for lam in layer_shapes(n):
            report = restriction_filtration_check(algebra, lam, n)
            assert report["ok"], report["failures"][:3]
            assert report["dimension_match"]
            dims = [entry["dim"] for entry in report["neighbors"]]
            assert sum(dims) == len(cell_index(lam, n))


def test_restriction_filtration_brauer_n5_spot():
    for lam in ((1,), (2, 1), (5,)):
        report = restriction_filtration_check("brauer", lam, 5)
        assert report["ok"], report["failures"][:3]


def test_restriction_dimensions_add_up():
    lam, n = (2,), 4
    report = restriction_filtration_check("brauer", lam, n)
    assert report["dimension_match"]
    total = sum(len(ordered_paths(mu, n - 1)) for mu in neighbors(lam, n))
    assert total == len(cell_index(lam, n))


# -- central elements ----------------------------------------------------------------

@pytest.mark.parametrize("algebra", ["bmw", "brauer"])
def test_central_combination_is_scalar(algebra):
    for n in range(1, 5):
        for lam in layer_shapes(n):
            alpha = central_scalar(algebra, lam, n)
            t = maximal_path(lam, n)
            # L_1 is 1 in BMW and 0 in Brauer
            expected = bqr("1") if algebra == "bmw" else bz("0")
            for k in range(2, n + 1):
                c = path_content(algebra, t, k)
                expected = expected * c if algebra == "bmw" else expected + c
            assert alpha == expected


def test_central_scalar_examples():
    assert str(central_scalar("bmw", (1,), 1)) == "1"
    assert str(central_scalar("brauer", (1,), 1)) == "0"
    assert central_scalar("brauer", (), 2) == bz("1 - z")
    for n in (2, 3, 4):
        total = sum(j - 1 for j in range(1, n + 1))
        assert central_scalar("bmw", (n,), n) == \
            bqr("q^{}".format(2 * total))
