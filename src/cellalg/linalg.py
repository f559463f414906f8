"""Exact linear algebra over the fraction fields of :mod:`cellalg.exactring`.

Matrices are lists of lists of :class:`~cellalg.exactring.CoeffFraction`.
Rank, determinant and fraction-free inversion share one Bareiss kernel over
the cleared polynomial rows; solving and the solver classes use fraction
Gauss-Jordan.  Sizes in this package stay small (a few hundred rows at
most), so exactness is preferred over sparsity tricks.
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


def _echelon(matrix):
    """Row-reduce a copy of ``matrix`` in place; return (rows, pivot columns)."""
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    rows, _ = _cleared(matrix)
    return _bareiss_forward(rows, len(matrix[0][0].vars))[0]


def det(matrix) -> CoeffFraction:
    """Determinant of a square matrix by fraction-free elimination."""
    n = len(matrix)
    if not n or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    vars = matrix[0][0].vars
    rows, dens = _cleared(matrix)
    found, sign, last = _bareiss_forward(rows, len(vars))
    if found < n:
        return CoeffFraction.const(0, vars)
    return CoeffFraction(vars, last if sign > 0 else poly_neg(last),
                         reduce(poly_mul, dens))


def solve(matrix, rhs):
    """Solve ``matrix @ x = rhs`` for square regular ``matrix``.

    ``rhs`` is a list of column vectors' rows, i.e. an n x m matrix; the
    result has the same shape.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    aug = [list(matrix[i]) + list(rhs[i]) for i in range(n)]
    reduced, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced]


def invert(matrix):
    n = len(matrix)
    vars = matrix[0][0].vars
    return solve(matrix, identity_matrix(n, vars))


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


# -- the fraction-free kernel shared by rank, det and invert_fraction_free ----------

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

    Returns (rank, sign of the row permutation, last pivot); for a square
    matrix of full rank, sign times the last pivot is its determinant.
    """
    nrows = len(rows)
    prev = poly_const(1, nv)
    sign, r = 1, 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        for i in range(r + 1, nrows):
            _bareiss_step(rows[i], rows[r], c, prev, nv)
        prev = rows[r][c]
        r += 1
        if r == nrows:
            break
    return r, sign, prev


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
            self._gram_inv = invert(gram)
        except SingularMatrixError:
            raise SingularMatrixError("columns are linearly dependent")

    def solve_vector(self, rhs):
        proj = [_dot(col, rhs) for col in self._cols]
        x = [_dot(row, proj) for row in self._gram_inv]
        _check_residual(self._cols, x, rhs)
        return x


class TallSolver:
    """Solve A x = b for a tall m x k matrix A with full column rank.

    Performs one elimination pass to locate k pivot rows, inverts the
    resulting k x k submatrix, and answers each solve by applying that
    inverse to the pivot entries of the right-hand side.  Every solve
    verifies the residual on all m rows, so an inconsistent right-hand
    side raises instead of returning garbage.

    Compared with normal equations (``A^T A``), this keeps polynomial
    degrees from doubling, which matters for multivariate fractions.
    """

    def __init__(self, columns):
        # columns: list of k column vectors, each of length m
        self._cols = columns
        k = len(columns)
        m = len(columns[0])
        rows = [[columns[j][i] for j in range(k)] for i in range(m)]
        work = [list(r) for r in rows]
        orig = list(range(m))
        pivot_rows = []
        r = 0
        for c in range(k):
            pr = None
            for i in range(r, m):
                if not work[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                raise SingularMatrixError("columns are linearly dependent")
            work[r], work[pr] = work[pr], work[r]
            orig[r], orig[pr] = orig[pr], orig[r]
            inv = work[r][c].inverse()
            work[r] = [x * inv for x in work[r]]
            for i in range(r + 1, m):
                if not work[i][c].is_zero():
                    factor = work[i][c]
                    work[i] = [a - factor * b
                               for a, b in zip(work[i], work[r])]
            pivot_rows.append(orig[r])
            r += 1
        self._pivot_rows = pivot_rows
        self._sub_inv = invert([rows[i] for i in pivot_rows])

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
        self._inv = invert(matrix)

    @property
    def n(self) -> int:
        return self._n

    def solve_vector(self, rhs):
        if len(rhs) != self._n:
            raise ValueError("bad right-hand side length")
        return [_dot(row, rhs) for row in self._inv]
