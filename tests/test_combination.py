"""The linear structure shared by the algebra elements through
``exactring.Combination``: one set of properties over each element type,
and the refusal of operands of another type or another rank."""

import operator
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellalg.bmw import BmwElement, bmw_cell_index, bmw_word
from cellalg.brauer import BrauerElement, all_diagrams
from cellalg.combin import Permutation
from cellalg.exactring import CoeffFraction
from cellalg.hecke import HeckeElement

from test_exactring import fractions_over

N = 3

# basis keys of each type at rank N
KEYS = {
    HeckeElement: [Permutation(p) for p in permutations(range(1, N + 1))],
    BrauerElement: all_diagrams(N),
    BmwElement: list(bmw_cell_index(N)),
}
TYPES = list(KEYS)


@st.composite
def elements(draw, cls):
    terms = draw(st.dictionaries(st.sampled_from(KEYS[cls]),
                                 fractions_over(cls.VARS, degree=2),
                                 max_size=4))
    return cls(N, terms)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_linear_structure(cls, data):
    a, b = data.draw(elements(cls)), data.draw(elements(cls))
    x = data.draw(fractions_over(cls.VARS, degree=2))
    assert (a + b) - b == a
    assert (a - a).is_zero() and a - a == cls.zero(N)
    assert -(-a) == a
    assert (a + b).scale(x) == a.scale(x) + b.scale(x)
    absent = next(k for k in KEYS[cls] if k not in a.terms)
    zero = a.coeff(absent)
    assert zero.is_zero() and zero.vars == cls.VARS
    assert all(a.coeff(k) == c for k, c in a.terms.items())
    assert hash((a + b) - b) == hash(a)


def _sample(cls, n):
    """A nonzero element of each type at rank n."""
    if cls is HeckeElement:
        return HeckeElement.gen(1, n)
    if cls is BrauerElement:
        return BrauerElement.e(1, n)
    return bmw_word([("E", 1)], n)


@pytest.mark.parametrize("left,right",
                         [(a, b) for a in TYPES for b in TYPES if a is not b],
                         ids=lambda cls: cls.__name__)
def test_operand_of_another_type_is_refused(left, right):
    a, b = _sample(left, N), _sample(right, N)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="cannot combine"):
            op(a, b)
    assert a != b and left.zero(N) != right.zero(N)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_operand_of_another_rank_is_refused(cls):
    a, b = _sample(cls, N), _sample(cls, N - 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="rank mismatch"):
            op(a, b)
        with pytest.raises(ValueError, match="rank mismatch"):
            op(b, a)
    assert a != b and cls.zero(N) != cls.zero(N - 1)
