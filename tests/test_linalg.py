"""Property tests of the fraction-free determinant and rank against
Laplace-expansion oracles over Q(z), Q(q, r) and Q (values at a point), of
the kernel on ints against the kernel on constant polynomials, and of the
solver classes that share the kernel."""

import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellalg.exactring import (BMW_VARS, BRAUER_VARS, CoeffFraction,
                               parse_fraction, poly_const, poly_divexact, ring)
from cellalg.combin import layer_shapes
from cellalg.exactring import Specialization
from cellalg.linalg import (ColumnSolver, LinearSolver,
                            SingularMatrixError, TallSolver, _bareiss_forward,
                            _bareiss_step, _cleared, _kronecker, det, mat_mul,
                            rank)
from cellalg.towers import _ops, gram_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cellbench"))
import catalog  # noqa: E402

ENTRIES = {
    BRAUER_VARS: ["0", "0", "1", "-2", "3/2", "z", "z-1", "z^2+1", "1/z",
                  "(z+1)/(z-2)", "-z/3"],
    BMW_VARS: ["0", "0", "1", "-1", "2/3", "q", "r", "q-r", "1/(q*r)",
               "(q^2-1)/r", "r^-1-q", "q*r+1"],
    (): ["0", "0", "1", "-2", "3/2", "-1/7"],
}


def laplace_det(m):
    if len(m) == 1:
        return m[0][0]
    acc = m[0][0] - m[0][0]
    for j, lead in enumerate(m[0]):
        if lead.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = lead * laplace_det(minor)
        acc = acc - term if j % 2 else acc + term
    return acc


def minor_rank(m):
    """The largest k with a nonzero k x k minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                sub = [[m[i][j] for j in cols] for i in rows]
                if not laplace_det(sub).is_zero():
                    return k
    return 0


@st.composite
def matrices(draw, square):
    vars = draw(st.sampled_from([BRAUER_VARS, BMW_VARS, ()]))
    pool = [parse_fraction(text, vars) for text in ENTRIES[vars]]
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    m = [[draw(st.sampled_from(pool)) for _ in range(ncols)]
         for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a row that repeats another up to a factor: a singular matrix
        c = draw(st.sampled_from(pool))
        src, dst = draw(st.permutations(range(nrows)))[:2]
        m[dst] = [x * c for x in m[src]]
    if draw(st.booleans()):
        m[0][0] = CoeffFraction.const(0, vars)  # forces a row swap
    return m


@settings(max_examples=60, deadline=None)
@given(matrices(square=True))
def test_det_matches_laplace_expansion(m):
    assert str(det(m)) == str(laplace_det(m))


@settings(max_examples=60, deadline=None)
@given(matrices(square=False))
def test_rank_matches_largest_nonzero_minor(m):
    assert rank(m) == minor_rank(m)


CONSTANTS = [Fraction(v) for v in ("0", "0", "1", "-1", "2", "-3", "5",
                                   "1/2", "-2/3", "7/4")]


@st.composite
def constant_matrices(draw, square):
    """Rational matrices up to 6 x 6 whose first column needs a row swap,
    often with a row that combines two others."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    entry = st.sampled_from(CONSTANTS)
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    m[0][0] = Fraction(0)
    if nrows > 2 and draw(st.booleans()):
        a, b, dst = draw(st.permutations(range(nrows)))[:3]
        ca, cb = draw(entry), draw(entry)
        m[dst] = [ca * x + cb * y for x, y in zip(m[a], m[b])]
    return [[CoeffFraction.const(x, ()) for x in row] for row in m]


def canonical(x):
    return x.vars, x.num, x.den


@settings(max_examples=80, deadline=None)
@given(constant_matrices(square=True))
def test_det_at_a_point_matches_laplace_expansion(m):
    assert canonical(det(m)) == canonical(laplace_det(m))


@settings(max_examples=80, deadline=None)
@given(constant_matrices(square=False))
def test_rank_at_a_point_matches_largest_nonzero_minor(m):
    assert rank(m) == minor_rank(m)


@settings(max_examples=80, deadline=None)
@given(constant_matrices(square=False), st.sampled_from([1, 2]))
def test_kernel_on_ints_matches_kernel_on_constant_polynomials(m, nv):
    rows, _ = _cleared(m)
    assert all(type(x) is int for row in rows for x in row)
    poly_rows = [[poly_const(x, nv) for x in row] for row in rows]
    pivots, sign, last = _bareiss_forward(rows, 0)
    assert _bareiss_forward(poly_rows, nv) == \
        (pivots, sign, poly_const(last, nv))
    assert poly_rows == [[poly_const(x, nv) for x in row] for row in rows]



# -- rank by Kronecker evaluation against the polynomial kernel ----------------------

def poly_rank(m):
    """The rank by fraction-free elimination of the cleared rows over
    ring(nv): the polynomial kernel that rank ran before it evaluated."""
    return len(_bareiss_forward(_cleared(m)[0], len(m[0][0].vars))[0])


def catalog_specs(command, algebra):
    """The --spec texts of ``command`` at ``algebra`` in the benchmark
    catalog."""
    return sorted({query[query.index("--spec") + 1]
                   for query in catalog.all_queries()
                   if query[0] == command and "--spec" in query
                   and query[query.index("--algebra") + 1] == algebra})


@pytest.mark.parametrize("algebra,top", [("bmw", 4), ("brauer", 5)])
def test_rank_of_every_gram_matrix_matches_polynomial_kernel(algebra, top):
    vars = _ops(algebra).vars
    specs = [None] + catalog_specs("gram-certify", algebra)
    checked = 0
    for n in range(1, top + 1):
        for lam in layer_shapes(n):
            g = gram_matrix(algebra, lam, n)
            for text in specs:
                m = g if text is None else \
                    Specialization.parse(text, vars).apply_matrix(g)
                assert rank(m) == poly_rank(m), (n, lam, text)
                checked += 1
    assert checked > 100


LOW_RANK_ENTRIES = {
    ("q",): ["0", "1", "-2", "q", "q-1", "q^2+3", "1/q", "(q+1)/(q-2)",
             "-q/3"],
    BMW_VARS: ENTRIES[BMW_VARS],
    BRAUER_VARS: ENTRIES[BRAUER_VARS],
}


@st.composite
def low_rank_products(draw):
    """A product of an m x k and a k x n matrix over Q(q), Q(q, r) or Q(z),
    of rank at most k < min(m, n)."""
    vars = draw(st.sampled_from(sorted(LOW_RANK_ENTRIES)))
    entry = st.sampled_from([parse_fraction(text, vars)
                             for text in LOW_RANK_ENTRIES[vars]])
    m, n = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    k = draw(st.integers(1, min(m, n) - 1))
    a = [[draw(entry) for _ in range(k)] for _ in range(m)]
    b = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return mat_mul(a, b)


@settings(max_examples=80, deadline=None)
@given(low_rank_products())
def test_rank_of_low_rank_products_matches_polynomial_kernel(m):
    assert rank(m) == poly_rank(m) <= min(len(m), len(m[0])) - 1


def test_rank_survives_entries_that_vanish_at_a_small_power_of_two():
    # q - 2^k vanishes at t = 2^k: with t a power of two just above every
    # coefficient of every minor, no minor vanishes.  For the 1 x 1 cases
    # that bound is 2^(k+1) (coefficients up to 2^k + 1), so t = 2^k, one
    # bit less, loses the rank, and so does r - 2^k q under q -> t,
    # r -> t^2.
    q = CoeffFraction.var("q", BMW_VARS)
    r = CoeffFraction.var("r", BMW_VARS)
    z = CoeffFraction.var("z", BRAUER_VARS)
    one_b, one_z = CoeffFraction.const(1, BMW_VARS), \
        CoeffFraction.const(1, BRAUER_VARS)
    for k in range(80):
        c = 2 ** k
        cb, cz = CoeffFraction.const(c, BMW_VARS), \
            CoeffFraction.const(c, BRAUER_VARS)
        cases = [
            ([[z - cz]], 1),
            ([[q - cb]], 1),
            ([[r - cb * q]], 1),
            ([[z, cz], [one_z, one_z]], 2),
            ([[q, cb], [one_b, one_b]], 2),
            ([[r, cb * q], [one_b, one_b]], 2),
            ([[q - cb, cb], [cb, q - cb]], 2),
            ([[q, cb], [q, cb]], 1),
        ]
        for m, expected in cases:
            assert rank(m) == poly_rank(m) == expected, (k, m)
    # evaluated at t = 2^k itself, [[q, 2^k], [1, 1]] loses its rank
    assert len(_bareiss_forward([[8, 8], [1, 1]], 0)[0]) == 1
    rows = _kronecker(_cleared([[q, CoeffFraction.const(8, BMW_VARS)],
                                [one_b, one_b]])[0], 2)
    assert rows[1] == [1, 1] and rows[0][0] > 8

def test_integer_step_raises_on_inexact_division():
    # the entry (1*1 - 1*2) / 2 leaves a remainder over Z and over Z[x]
    for nv in (0, 1):
        lift = ring(nv).const
        row, pivot_row = [lift(1), lift(1)], [lift(1), lift(2)]
        with pytest.raises(ValueError):
            _bareiss_step(row, pivot_row, 0, lift(2), nv)
    for a, b in ((7, 2), (-7, 2), (7, -2)):
        with pytest.raises(ValueError):
            ring(0).divexact(a, b)
        with pytest.raises(ValueError):
            poly_divexact({(): a}, {(): b}, 0)
    assert ring(0).divexact(-6, 3) == -2


def dense_mat_mul(a, b):
    """The dense product: every entry is a full dot product, summed in
    column order, with the zero of a's row where no term is nonzero."""
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            acc = None
            for x, y in zip(row, col):
                if x.is_zero() or y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            out_row.append(row[0] - row[0] if acc is None else acc)
        out.append(out_row)
    return out


@st.composite
def sparse_pairs(draw):
    """Multipliable matrices, mostly zero, with zero rows and columns."""
    vars = draw(st.sampled_from([BRAUER_VARS, BMW_VARS, ()]))
    nonzero = [parse_fraction(text, vars) for text in ENTRIES[vars]
               if text != "0"]
    zero = CoeffFraction.const(0, vars)
    entry = st.one_of(st.just(zero), st.just(zero), st.sampled_from(nonzero))
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [zero] * inner
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in b:
            row[j] = zero
    return a, b


@settings(max_examples=150, deadline=None)
@given(sparse_pairs())
def test_mat_mul_matches_dense_product(pair):
    a, b = pair
    got, expected = mat_mul(a, b), dense_mat_mul(a, b)
    assert [[str(x) for x in row] for row in got] == \
        [[str(x) for x in row] for row in expected]
    assert [[(x.vars, x.num, x.den) for x in row] for row in got] == \
        [[(x.vars, x.num, x.den) for x in row] for row in expected]


def test_det_rejects_non_square():
    m = [[parse_fraction("z", BRAUER_VARS)] * 2]
    with pytest.raises(ValueError):
        det(m)


@settings(max_examples=40, deadline=None)
@given(matrices(square=False), st.data())
def test_solvers_recover_a_known_solution(m, data):
    # columns of m as the system; the solvers agree with a chosen x exactly
    # when the columns are independent, and raise otherwise
    vars = m[0][0].vars
    pool = [parse_fraction(text, vars) for text in ENTRIES[vars]]
    cols = [list(col) for col in zip(*m)]
    x = [data.draw(st.sampled_from(pool)) for _ in cols]
    zero = CoeffFraction.const(0, vars)
    rhs = [sum((col[i] * xi for col, xi in zip(cols, x)), zero)
           for i in range(len(m))]
    solvers = [TallSolver, ColumnSolver]
    if len(m) == len(cols):
        solvers.append(LinearSolver)
    for solver in solvers:
        if minor_rank(m) < len(cols):
            with pytest.raises(SingularMatrixError):
                solver(m if solver is LinearSolver else cols)
        else:
            built = solver(m if solver is LinearSolver else cols)
            assert built.solve_vector(rhs) == x


def test_tall_solver_skips_dependent_rows():
    # the first two rows are dependent; the solver must pick rows 0 and 2
    z, one = (parse_fraction(t, BRAUER_VARS) for t in ("z", "1"))
    cols = [[one, one + one, z - z], [z, z + z, one]]
    rhs = [one + z, one + one + z + z, one]
    assert TallSolver(cols).solve_vector(rhs) == [one, one]


@pytest.mark.parametrize("solver", [TallSolver, ColumnSolver])
def test_tall_solver_rejects_a_right_hand_side_outside_the_span(solver):
    # rows 0 and 1 determine x; row 2 of the right-hand side disagrees, and
    # only the residual check on all rows can see it
    z, one = (parse_fraction(t, BRAUER_VARS) for t in ("z", "1"))
    cols = [[one, z - z, one], [z - z, one, one]]
    built = solver(cols)
    assert built.solve_vector([one, z, one + z]) == [one, z]
    with pytest.raises(SingularMatrixError,
                       match="right-hand side outside the column span"):
        built.solve_vector([one, z, z])
