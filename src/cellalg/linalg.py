"""Exact linear algebra over the fraction fields of :mod:`cellalg.exactring`.

Matrices are lists of lists of :class:`~cellalg.exactring.CoeffFraction`.
Rank, determinant, inversion and the solver classes share one Bareiss
(fraction-free) kernel over the rows cleared of denominators.  The kernel
takes its operations from ``exactring.ring`` of the variable count:
polynomial dicts in general, and Python ints (``*``, ``-`` and an exact
``//``) for values at a rational point.  ``rank`` always runs it on ints:
polynomial rows are first evaluated at a power of two at which no minor
vanishes (``_kronecker``).  There is one solver, ``TallSolver``: it picks
independent rows of a tall system of full column rank and checks the
residual on every solve.  ``ColumnSolver`` is the same class under a
second name, and ``LinearSolver`` applies it to the columns of a square
matrix.
Sizes in this package stay small (a few hundred rows at most), so the
elimination works on dense rows; ``mat_mul`` skips zero entries, since the
generator matrices it multiplies have about one nonzero entry per row.
"""

import operator
from functools import reduce

from .exactring import CoeffFraction, ring


class SingularMatrixError(ArithmeticError):
    """Raised when a linear system that must be regular is not."""


def zeros(rows: int, cols: int, vars: tuple):
    z = CoeffFraction.const(0, vars)
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity_matrix(n: int, vars: tuple):
    out = zeros(n, n, vars)
    one = CoeffFraction.const(1, vars)
    for i in range(n):
        out[i][i] = one
    return out


def mat_mul(a, b):
    """The product of dense matrices ``a`` and ``b``, computed sparsely.

    Each row of ``b`` is indexed once by its nonzero (column, value) pairs;
    each nonzero x of a row of ``a`` then adds x*y into that row's entries.
    Every entry sums its terms in the order of the dense dot product, and
    entries with no term share one zero constant.
    """
    if not a or not b:
        return [[] for _ in a]
    b_rows = [[(j, y) for j, y in enumerate(row) if y.num] for row in b]
    zero = CoeffFraction.const(0, a[0][0].vars)
    out = []
    for row in a:
        acc = [None] * len(b[0])
        for x, b_row in zip(row, b_rows):
            if not x.num:
                continue
            for j, y in b_row:
                term = x * y
                acc[j] = term if acc[j] is None else acc[j] + term
        out.append([zero if v is None else v for v in acc])
    return out


def rank(matrix) -> int:
    """Rank by the int Bareiss kernel: over ring(nv >= 1), on the cleared
    rows evaluated at a point (``_kronecker``) where no nonzero minor
    vanishes, so the rank is exact."""
    if not matrix or not matrix[0]:
        return 0
    rows, _ = _cleared(matrix)
    nv = len(matrix[0][0].vars)
    if nv:
        rows = _kronecker(rows, nv)
    return len(_bareiss_forward(rows, 0)[0])


def det(matrix) -> CoeffFraction:
    """Determinant of a square matrix by fraction-free elimination."""
    n = len(matrix)
    if not n or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    vars = matrix[0][0].vars
    R = ring(len(vars))
    rows, dens = _cleared(matrix)
    pivots, sign, last = _bareiss_forward(rows, len(vars))
    if len(pivots) < n:
        return CoeffFraction.const(0, vars)
    value = R.fraction(vars, last, reduce(R.mul, dens))
    return value if sign > 0 else -value


def invert_fraction_free(matrix):
    """Invert a square regular matrix by fraction-free Gauss-Jordan.

    Denominators are cleared row by row, elimination runs over polynomials
    (ints at a point) with exact single-step divisions (Bareiss), and
    fractions are formed only once at the very end.  This avoids the
    polynomial-gcd blowup of naive fraction elimination on multivariate
    entries.
    """
    n = len(matrix)
    vars = matrix[0][0].vars
    nv = len(vars)
    R = ring(nv)
    rows, dens = _cleared(matrix)
    # augment with diag(row denominator): the elimination then solves
    # (cleared matrix) X = diag(dens), whose solution is the inverse
    zero = R.const(0)
    aug = [row + [dens[i] if j == i else zero for j in range(n)]
           for i, row in enumerate(rows)]
    prev = R.const(1)
    for k in range(n):
        if not aug[k][k]:
            for r in range(k + 1, n):
                if aug[r][k]:
                    aug[k], aug[r] = aug[r], aug[k]
                    break
            else:
                raise SingularMatrixError("matrix is singular")
        for i in range(n):
            if i != k:
                _bareiss_step(aug[i], aug[k], k, prev, nv)
        prev = aug[k][k]
    det_like = aug[n - 1][n - 1]
    return [[R.fraction(vars, aug[i][n + j], det_like)
             for j in range(n)] for i in range(n)]


# -- the fraction-free kernel ---------------------------------------------------------

def _cleared(matrix):
    """Rows of ``matrix`` in ``ring`` of its variable count, each scaled by
    the lcm of its denominators; returns (rows, row denominators)."""
    R = ring(len(matrix[0][0].vars))
    mul, divexact, gcd, elem = R.mul, R.divexact, R.gcd, R.elem
    one, zero = R.const(1), R.const(0)
    rows, dens = [], []
    for row in matrix:
        cells = [(elem(cell.num), elem(cell.den)) for cell in row]
        den = one
        for _, d in cells:
            if d != one and d != den:
                den = mul(den, divexact(d, gcd(den, d)))
        rows.append([mul(x, divexact(den, d)) if x else zero
                     for x, d in cells])
        dens.append(den)
    return rows, dens


def _kronecker(rows, nv):
    """Polynomial rows in ``nv`` variables as int rows, each entry evaluated
    at x_v = t^w_v with t = 2^B (Kronecker substitution; von zur Gathen and
    Gerhard, "Modern Computer Algebra", section 8.4).

    Let s = min(rows, columns).  Every minor of the rows has at most s rows,
    so its degree in x_v is at most D_v, the sum of the s largest row degrees
    in x_v, and the weights w_1 = 1, w_(v+1) = w_v (D_v + 1) send its
    monomials to distinct powers of t.  Each coefficient of a minor is at
    most its 1-norm, which is at most H, the product of the s largest row
    1-norms (sums of the absolute values of all coefficients in the row).
    B is the bit length of H, so t > H, and by Cauchy's bound no nonzero
    polynomial in t with coefficients at most H in absolute value vanishes
    at t.  So the minors that vanish at t are the minors that vanish, and
    the int rows have the rank of the polynomial rows.
    """
    s = min(len(rows), len(rows[0]))
    norms = sorted(sum(abs(c) for p in row for c in p.values())
                   for row in rows)
    bound = 1
    for norm in norms[-s:]:
        bound *= norm or 1
    width = bound.bit_length()
    weights = []
    weight = 1
    for v in range(nv):
        degrees = sorted(max((e[v] for p in row for e in p), default=0)
                         for row in rows)
        weights.append(weight)
        weight *= sum(degrees[-s:]) + 1
    shifts = {}  # exponent tuple -> the bit position of its power of t

    def value(p):
        out = 0
        for e, c in p.items():
            shift = shifts.get(e)
            if shift is None:
                shift = shifts[e] = width * sum(map(operator.mul, e, weights))
            out += c << shift
        return out

    return [[value(p) if p else 0 for p in row] for row in rows]


def _bareiss_step(row, pivot_row, col, prev, nv):
    """Clear ``row`` at ``col`` against ``pivot_row`` in place.

    Every other entry x becomes (pivot * x - lead * p) / prev, with p the
    pivot row's entry in that column and prev the pivot of the step before;
    Sylvester's identity makes the division exact (Bareiss 1968).
    """
    R = ring(nv)
    mul, sub, divexact, zero = R.mul, R.sub, R.divexact, R.const(0)
    pivot, lead = pivot_row[col], row[col]
    for j, (x, p) in enumerate(zip(row, pivot_row)):
        if j == col or not (x or lead and p):
            continue
        val = sub(mul(pivot, x), mul(lead, p))
        row[j] = divexact(val, prev) if val else zero
    row[col] = zero


def _bareiss_forward(rows, nv):
    """Fraction-free forward elimination of rows in ``ring(nv)``, in place.

    Returns (pivot columns, sign of the row permutation, last pivot); the
    rank is the number of pivot columns, and for a square matrix of full
    rank, sign times the last pivot is its determinant.
    """
    nrows = len(rows)
    prev = ring(nv).const(1)
    sign, pivots = 1, []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        for i in range(r + 1, nrows):
            _bareiss_step(rows[i], rows[r], c, prev, nv)
        prev = rows[r][c]
        pivots.append(c)
        if r + 1 == nrows:
            break
    return pivots, sign, prev


class TallSolver:
    """Solve A x = b for a tall m x k matrix A with full column rank.

    One fraction-free elimination of A^T (whose rows are the given columns)
    picks k independent rows of A, the first ones in order; each solve
    applies the inverse of that k x k submatrix to the matching entries of
    the right-hand side.  Every solve verifies the residual on all m rows,
    so an inconsistent right-hand side raises instead of returning garbage.

    Compared with normal equations (``A^T A``), this keeps polynomial
    degrees from doubling, which matters for multivariate fractions.
    """

    def __init__(self, columns):
        # columns: list of k column vectors, each of length m
        self._cols = columns
        rows, _ = _cleared(columns)
        pivots, _, _ = _bareiss_forward(rows, len(columns[0][0].vars))
        if len(pivots) < len(columns):
            raise SingularMatrixError("columns are linearly dependent")
        self._pivot_rows = pivots
        self._sub_inv = invert_fraction_free(
            [[col[i] for col in columns] for i in pivots])

    def solve_vector(self, rhs):
        x = [_dot(row, [rhs[i] for i in self._pivot_rows])
             for row in self._sub_inv]
        _check_residual(self._cols, x, rhs)
        return x


class ColumnSolver(TallSolver):
    """``TallSolver`` under a second name, which ``cellbench/tracing.py``
    spans."""


def _check_residual(columns, x, rhs):
    """Raise unless sum_j x_j columns[j] == rhs: the system is consistent."""
    for i, target in enumerate(rhs):
        if _dot([col[i] for col in columns], x) != target:
            raise SingularMatrixError(
                "right-hand side outside the column span")


def _dot(a, b):
    acc = None
    for x, y in zip(a, b):
        if x.is_zero() or y.is_zero():
            continue
        term = x * y
        acc = term if acc is None else acc + term
    if acc is None:
        acc = a[0] - a[0]
    return acc


class LinearSolver(TallSolver):
    """Solve M x = b for a square regular matrix M, whose columns are the
    tall system; the right-hand side must have length n."""

    def __init__(self, matrix):
        self.n = len(matrix)
        super().__init__([list(col) for col in zip(*matrix)])

    def solve_vector(self, rhs):
        if len(rhs) != self.n:
            raise ValueError("bad right-hand side length")
        return super().solve_vector(rhs)
