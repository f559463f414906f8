"""The cell-module engine shared by both towers: the cell index, the layer
list and the Murphy-layer projection ``hecke.cell_row``."""

import hashlib

import pytest

from cellalg.bmw import _bmw_gen_matrix_compute
from cellalg.brauer import _br_cell_matrix_compute
from cellalg.combin import (
    Permutation,
    StdTableau,
    cell_index,
    layer_shapes,
    partitions_of,
    superstandard,
)
from cellalg.exactring import BRAUER_VARS, CoeffFraction
from cellalg.hecke import cell_row

# SHA-256 of the printed generator matrices of every layer, computed before
# the two towers shared one projection; see generator_digest for the format.
PINNED = {
    ("bmw", 2): "dcefe7abd6ec79a9dba48555e4428927d6c32bc2ea23ebe709466f2ea6865fd7",
    ("bmw", 3): "7030313888ed06c8ca39b0bbf37d32bd36b8baac58b6f6b6e98f83e7ccc5181f",
    ("bmw", 4): "ca3146f924b8478f7ff180e3697b2e291206b1ead315f434979667dcf9188e3a",
    ("brauer", 2): "9a1d765e57a51ecec6dc92e7e77e7451018d4b3e5cd003c1192ea3bb38b1da3c",
    ("brauer", 3): "c6a2e50197909154edcb018c332d28bd7a934627587e4bea9edfa96df63edd8b",
    ("brauer", 4): "d16b0cf41e63d3188f0bb7a3a04703a260ff1290349904dc36b8392de1143f57",
    ("brauer", 5): "80cee4ac6f1df9754dadd6cecf19d5f41d000cc6b16fc0842500a7349356622e",
}

ENGINES = {"bmw": (_bmw_gen_matrix_compute, ("T", "Tinv", "E")),
           "brauer": (_br_cell_matrix_compute, ("s", "E"))}


def generator_digest(algebra, n):
    """Layers in partitions_of order (f = 0 first), then generator kinds,
    then indices; each matrix as repr((lam, kind, i)) and one line per row
    of '|'-joined canonical strings."""
    compute, kinds = ENGINES[algebra]
    digest = hashlib.sha256()
    for f in range(n // 2 + 1):
        for lam in partitions_of(n - 2 * f):
            for kind in kinds:
                for i in range(1, n):
                    digest.update(repr((lam, kind, i)).encode())
                    for row in compute(lam, n, kind, i):
                        digest.update(
                            ("|".join(str(x) for x in row) + "\n").encode())
    return digest.hexdigest()


@pytest.mark.parametrize("algebra,n", sorted(PINNED))
def test_generator_matrices_pinned(algebra, n):
    assert generator_digest(algebra, n) == PINNED[(algebra, n)]


def test_layer_shapes_most_dominant_first():
    assert layer_shapes(4) == [(), (2,), (1, 1), (4,), (3, 1), (2, 2),
                               (2, 1, 1), (1, 1, 1, 1)]
    assert sorted(layer_shapes(5)) == sorted(
        lam for k in (5, 3, 1) for lam in partitions_of(k))


def test_cell_index_pairs_tableaux_with_sorted_cosets():
    index = cell_index((1,), 3)
    assert len(index) == 3
    assert [u.img for _, u in index] == sorted(u.img for _, u in index)
    assert cell_index((1,), 3) is index  # memoised


# -- the Murphy-layer projection ----------------------------------------------------

def _const(c):
    return CoeffFraction.const(c, BRAUER_VARS)


def _murphy_stub(coords):
    def to_murphy(m, part, vars):
        return coords
    return to_murphy


def test_cell_row_trivial_upper_group_sums_coefficients():
    lam, n = (1,), 3
    index = cell_index(lam, n)
    one = Permutation.identity(1)
    v = index[2][1]
    row = cell_row({(one, v): _const(2)}, lam, n, None, _const(0))
    assert row == [_const(0), _const(0), _const(2)]
    with pytest.raises(AssertionError, match="nontrivial upper part"):
        cell_row({(Permutation((2, 1)), v): _const(1)}, lam, n, None,
                 _const(0))


def test_cell_row_keeps_the_lambda_layer_only():
    lam, n = (1, 1), 2
    t = superstandard(lam, n).hat()
    v = Permutation.identity(n)
    upper = {(Permutation((2, 1)), v): _const(1)}
    above = ((2,), StdTableau([[1, 2]], 2), StdTableau([[1, 2]], 2))
    row = cell_row(upper, lam, n,
                   _murphy_stub({above: _const(5), (lam, t, t): _const(3)}),
                   _const(0))
    assert row == [_const(3)]


def test_cell_row_rejects_escapes():
    lam, n = (2,), 2
    t = superstandard(lam, n).hat()
    below = StdTableau([[1], [2]], 2)
    upper = {(Permutation((2, 1)), Permutation.identity(n)): _const(1)}
    with pytest.raises(AssertionError, match="escaped below"):
        cell_row(upper, lam, n,
                 _murphy_stub({((1, 1), below, below): _const(1)}),
                 _const(0))
    with pytest.raises(AssertionError, match="left tableau"):
        cell_row(upper, (2, 1), 3,
                 _murphy_stub({((2, 1), StdTableau([[1, 3], [2]], 3),
                                StdTableau([[1, 2], [3]], 3)): _const(1)}),
                 _const(0))
    assert cell_row(upper, lam, n, _murphy_stub({(lam, t, t): _const(1)}),
                    _const(0)) == [_const(1)]
