"""Exact linear algebra over the fraction fields of :mod:`cellalg.exactring`.

Matrices are lists of lists of :class:`~cellalg.exactring.CoeffFraction`.
Rank, determinant, inversion and the solver classes share one Bareiss
(fraction-free) kernel over the polynomial rows cleared of denominators.
Sizes in this package stay small (a few hundred rows at most), so exactness
is preferred over sparsity tricks.
"""

from functools import reduce

from .exactring import (CoeffFraction, poly_const, poly_divexact, poly_gcd,
                        poly_mul, poly_neg, poly_sub)


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
    columns = list(zip(*b))
    return [[_dot(row, col) for col in columns] for row in a]


def rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    rows, _ = _cleared(matrix)
    return len(_bareiss_forward(rows, len(matrix[0][0].vars))[0])


def det(matrix) -> CoeffFraction:
    """Determinant of a square matrix by fraction-free elimination."""
    n = len(matrix)
    if not n or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    vars = matrix[0][0].vars
    rows, dens = _cleared(matrix)
    pivots, sign, last = _bareiss_forward(rows, len(vars))
    if len(pivots) < n:
        return CoeffFraction.const(0, vars)
    return CoeffFraction(vars, last if sign > 0 else poly_neg(last),
                         reduce(poly_mul, dens))


def invert_fraction_free(matrix):
    """Invert a square regular matrix by fraction-free Gauss-Jordan.

    Denominators are cleared row by row, elimination runs over polynomials
    with exact single-step divisions (Bareiss), and fractions are formed
    only once at the very end.  This avoids the polynomial-gcd blowup of
    naive fraction elimination on multivariate entries.
    """
    n = len(matrix)
    vars = matrix[0][0].vars
    nv = len(vars)
    rows, dens = _cleared(matrix)
    # augment with diag(row denominator): the elimination then solves
    # (cleared matrix) X = diag(dens), whose solution is the inverse
    aug = [row + [dens[i] if j == i else {} for j in range(n)]
           for i, row in enumerate(rows)]
    prev = poly_const(1, nv)
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
    return [[CoeffFraction(vars, aug[i][n + j], det_like)
             for j in range(n)] for i in range(n)]


# -- the fraction-free kernel ---------------------------------------------------------

def _cleared(matrix):
    """Polynomial rows of ``matrix``, each scaled by the lcm of its
    denominators; returns (rows, row denominators)."""
    nv = len(matrix[0][0].vars)
    one = poly_const(1, nv)
    rows, dens = [], []
    for row in matrix:
        den = one
        for cell in row:
            if cell.den != one and cell.den != den:
                g = poly_gcd(den, cell.den, nv)
                den = poly_mul(den, poly_divexact(cell.den, g, nv))
        rows.append([poly_mul(cell.num, poly_divexact(den, cell.den, nv))
                     if cell.num else {} for cell in row])
        dens.append(den)
    return rows, dens


def _bareiss_step(row, pivot_row, col, prev, nv):
    """Clear ``row`` at ``col`` against ``pivot_row`` in place.

    Every other entry x becomes (pivot * x - lead * p) / prev, with p the
    pivot row's entry in that column and prev the pivot of the step before;
    Sylvester's identity makes the division exact (Bareiss 1968).
    """
    pivot, lead = pivot_row[col], row[col]
    for j, (x, p) in enumerate(zip(row, pivot_row)):
        if j == col or not (x or lead and p):
            continue
        val = poly_sub(poly_mul(pivot, x), poly_mul(lead, p))
        row[j] = poly_divexact(val, prev, nv) if val else {}
    row[col] = {}


def _bareiss_forward(rows, nv):
    """Fraction-free forward elimination of polynomial rows, in place.

    Returns (pivot columns, sign of the row permutation, last pivot); the
    rank is the number of pivot columns, and for a square matrix of full
    rank, sign times the last pivot is its determinant.
    """
    nrows = len(rows)
    prev = poly_const(1, nv)
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


class ColumnSolver:
    """Solve A x = b for a (tall) matrix A with full column rank.

    Factors the normal-equation matrix once; every solve verifies the
    residual, so an inconsistent right-hand side raises instead of silently
    returning a least-squares artefact.
    """

    def __init__(self, columns):
        # columns: list of k column vectors, each of length m
        self._cols = columns
        k = len(columns)
        gram = [[_dot(columns[i], columns[j]) for j in range(k)]
                for i in range(k)]
        try:
            self._gram_inv = invert_fraction_free(gram)
        except SingularMatrixError:
            raise SingularMatrixError("columns are linearly dependent")

    def solve_vector(self, rhs):
        proj = [_dot(col, rhs) for col in self._cols]
        x = [_dot(row, proj) for row in self._gram_inv]
        _check_residual(self._cols, x, rhs)
        return x


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


class LinearSolver:
    """Factor a square regular matrix once; solve many right-hand sides."""

    def __init__(self, matrix):
        self._n = len(matrix)
        self._inv = invert_fraction_free(matrix)

    @property
    def n(self) -> int:
        return self._n

    def solve_vector(self, rhs):
        if len(rhs) != self._n:
            raise ValueError("bad right-hand side length")
        return [_dot(row, rhs) for row in self._inv]
