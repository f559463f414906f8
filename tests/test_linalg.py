"""Property tests of the fraction-free determinant and rank against
Laplace-expansion oracles over Q(z) and Q(q, r)."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellalg.exactring import BMW_VARS, BRAUER_VARS, CoeffFraction, parse_fraction
from cellalg.linalg import det, rank

ENTRIES = {
    BRAUER_VARS: ["0", "0", "1", "-2", "3/2", "z", "z-1", "z^2+1", "1/z",
                  "(z+1)/(z-2)", "-z/3"],
    BMW_VARS: ["0", "0", "1", "-1", "2/3", "q", "r", "q-r", "1/(q*r)",
               "(q^2-1)/r", "r^-1-q", "q*r+1"],
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
    vars = draw(st.sampled_from([BRAUER_VARS, BMW_VARS]))
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


def test_det_rejects_non_square():
    m = [[parse_fraction("z", BRAUER_VARS)] * 2]
    with pytest.raises(ValueError):
        det(m)
