"""The Brauer algebra B_n(z) on the diagram basis, with cellular structure.

A diagram is a perfect matching on the 2n points {1..n} (top row) and
{-1..-n} (bottom row).  Multiplication stacks diagrams and converts each
closed loop into a factor of z; ``BrauerElement`` is the
``exactring.Combination`` on diagrams with that product.  An element acts
on each cell module S^lambda through the chain-word engine of ``bmw`` at
q = r = 1 (``bmw.cell_rows`` over BRAUER_VARS), applied to the word that
``diagram_word`` gives for each of its diagrams; the generator matrices
come from the same engine's table (``bmw.bmw_gen_matrix`` over
BRAUER_VARS, where s_i is the letter T_i).  The coordinates of an
element on the cellular basis (d(s)v)^{-1} m_lambda d(t)u are read back
from those cell-module matrices by ``towers.cellular_terms``, the
straightening shared with the BMW tower.
"""

from functools import lru_cache

from .bmw import cell_rows
from .combin import (
    Permutation,
    StdTableau,
    check_partition,
    layer_shapes,
    tab_perm,
)
from .exactring import BRAUER_VARS, CoeffFraction, Combination
from .hecke import row_stabilizer


def _const(c) -> CoeffFraction:
    return CoeffFraction.const(c, BRAUER_VARS)


def _z() -> CoeffFraction:
    return CoeffFraction.var("z", BRAUER_VARS)


# -- diagrams -------------------------------------------------------------------
# A diagram is a frozenset of frozensets; points are 1..n (top) and -1..-n
# (bottom).

def identity_diagram(n: int):
    return frozenset(frozenset((i, -i)) for i in range(1, n + 1))


def perm_diagram(w: Permutation):
    """Top point i joins bottom point (i)w."""
    return frozenset(frozenset((i, -w(i))) for i in range(1, w.n + 1))


def s_diagram(i: int, n: int):
    return perm_diagram(Permutation.s(i, n))


def e_diagram(i: int, n: int):
    if not 1 <= i < n:
        raise ValueError("generator index out of range")
    pairs = [frozenset((i, i + 1)), frozenset((-i, -(i + 1)))]
    for j in range(1, n + 1):
        if j not in (i, i + 1):
            pairs.append(frozenset((j, -j)))
    return frozenset(pairs)


def diagram_star(d):
    """Flip a diagram upside down (the algebra anti-involution on diagrams)."""
    return frozenset(frozenset(-p for p in pair) for pair in d)


def diagram_arcs(d) -> int:
    """Number of horizontal arcs in the top row."""
    return sum(1 for pair in d if all(p > 0 for p in pair))


def br_compose(a, b, n: int):
    """Stack a over b; return (result diagram, number of closed loops).

    The bottom point -k of a meets the top point k of b in the middle row.
    Each strand of the result is followed from one of its ends through the
    middle row, alternating between a and b; middle points that no strand
    reaches lie on closed loops.
    """
    up, down = {}, {}
    for partner, d in ((up, a), (down, b)):
        for pair in d:
            p, q = pair
            partner[p] = q
            partner[q] = p
    met = set()  # middle points on a strand
    pairs = []
    done = set()
    for start in range(1, n + 1):  # strands from the top of a
        if start in done:
            continue
        x = up[start]
        while x < 0:  # middle point -x, continue into b
            met.add(-x)
            x = down[-x]
            if x < 0:
                break  # bottom point of b
            met.add(x)
            x = up[-x]
        done.add(x)
        pairs.append(frozenset((start, x)))
    # the strands left join two bottom points of b: one that reached the
    # top of a was followed from there
    for start in range(-1, -n - 1, -1):
        if start in done:
            continue
        x = down[start]
        while x > 0:
            met.add(x)
            x = -up[-x]
            met.add(x)
            x = down[x]
        done.add(x)
        pairs.append(frozenset((start, x)))
    loops = 0
    for k in range(1, n + 1):
        if k in met:
            continue
        loops += 1
        while k not in met:  # around the loop: down through b, up through a
            met.add(k)
            k = down[k]
            met.add(k)
            k = -up[-k]
    return frozenset(pairs), loops


class BrauerElement(Combination):
    """Finitely supported map diagram -> coefficient in Q(z)."""

    __slots__ = ()
    VARS = BRAUER_VARS

    @classmethod
    def one(cls, n: int) -> "BrauerElement":
        return cls(n, {identity_diagram(n): _const(1)})

    @classmethod
    def from_diagram(cls, d, n: int) -> "BrauerElement":
        return cls(n, {d: _const(1)})

    @classmethod
    def s(cls, i: int, n: int) -> "BrauerElement":
        return cls.from_diagram(s_diagram(i, n), n)

    @classmethod
    def e(cls, i: int, n: int) -> "BrauerElement":
        return cls.from_diagram(e_diagram(i, n), n)

    @classmethod
    def perm(cls, w: Permutation) -> "BrauerElement":
        return cls.from_diagram(perm_diagram(w), w.n)

    def __mul__(self, other):
        self._check(other)
        z = _z()
        terms = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d, loops = br_compose(d1, d2, self.n)
                c = c1 * c2
                if loops:
                    c = c * z ** loops
                terms[d] = terms[d] + c if d in terms else c
        return BrauerElement(self.n, terms)

    def __repr__(self):
        return "BrauerElement({} terms, n={})".format(len(self.terms), self.n)


def br_star(e: BrauerElement) -> BrauerElement:
    return BrauerElement(e.n, {diagram_star(d): c for d, c in e.terms.items()})


def br_word(gens, n: int) -> BrauerElement:
    """Product of generators given as ("s", i) / ("E", i) pairs."""
    out = BrauerElement.one(n)
    for kind, i in gens:
        if kind == "s":
            out = out * BrauerElement.s(i, n)
        elif kind == "E":
            out = out * BrauerElement.e(i, n)
        else:
            raise ValueError("unknown generator kind {!r}".format(kind))
    return out


def all_diagrams(n: int):
    """All perfect matchings on the 2n points (the diagram basis)."""
    points = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]

    def match(avail):
        if not avail:
            yield []
            return
        first = avail[0]
        for k in range(1, len(avail)):
            rest = avail[1:k] + avail[k + 1:]
            for tail in match(rest):
                yield [frozenset((first, avail[k]))] + tail

    return [frozenset(m) for m in match(points)]


# -- cellular structure -----------------------------------------------------------

def br_x_lambda(lam, n: int) -> BrauerElement:
    """Row-stabilizer sum of the superstandard filling (entries 2f+1..n)."""
    one = _const(1)
    return BrauerElement(n, {perm_diagram(w): one
                             for w in row_stabilizer(check_partition(lam), n)})


def br_m_lambda(lam, n: int) -> BrauerElement:
    lam = check_partition(lam)
    if (n - sum(lam)) % 2:
        raise ValueError("parity mismatch between partition size and n")
    f = (n - sum(lam)) // 2
    out = BrauerElement.one(n)
    for i in range(1, 2 * f, 2):
        out = out * BrauerElement.e(i, n)
    return out * br_x_lambda(lam, n)


def br_basis_element(lam, n: int, t: StdTableau, u: Permutation,
                     left=None) -> BrauerElement:
    """(d(s)v)^{-1} m_lambda d(t)u; left defaults to (t^lambda, identity)."""
    m = br_m_lambda(lam, n)
    right = BrauerElement.perm(tab_perm(t) * u)
    if left is None:
        return m * right
    s, v = left
    lperm = (tab_perm(s) * v).inverse()
    return BrauerElement.perm(lperm) * m * right


def br_from_cellular(coords: dict, n: int) -> BrauerElement:
    out = BrauerElement.zero(n)
    for (lam, (s, v), (t, u)), c in coords.items():
        out = out + br_basis_element(lam, n, t, u, left=(s, v)).scale(c)
    return out


# -- Jucys-Murphy elements ------------------------------------------------------------

@lru_cache(maxsize=None)
def br_jm(i: int, n: int) -> BrauerElement:
    """L_1 = 0 and L_i = s_{i-1} - E_{i-1} + s_{i-1} L_{i-1} s_{i-1}."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    if i == 1:
        return BrauerElement.zero(n)
    s = BrauerElement.s(i - 1, n)
    e = BrauerElement.e(i - 1, n)
    return s - e + s * br_jm(i - 1, n) * s


# -- cell modules ----------------------------------------------------------------------
#
# The chain-word engine of ``bmw`` over BRAUER_VARS (q = r = 1, loop value
# z) is the Brauer algebra, with s_i acting as its letter T_i; diagram words
# spell s_i, so they are translated here.

_ENGINE_LETTER = {"s": "T", "E": "E"}


def diagram_word(d, n: int) -> tuple:
    """A word of ("s", i) and ("E", i) letters whose product is the diagram
    d: w_1 * E_1 E_3 ... E_{2k-1} * w_2 for a diagram with k top arcs, where
    the one-line form of w_1^{-1} lists the top arcs and then the top ends
    of the through strands, and that of w_2 lists the bottom arcs and then
    the bottom ends of the same through strands."""
    top, bottom, through = [], [], []
    for pair in d:
        p, q = sorted(pair)
        if p > 0:
            top.append((p, q))
        elif q < 0:
            bottom.append((-q, -p))
        else:
            through.append((q, -p))
    through.sort()
    w1 = Permutation([p for arc in sorted(top) for p in arc]
                     + [a for a, _ in through]).inverse()
    w2 = Permutation([p for arc in sorted(bottom) for p in arc]
                     + [b for _, b in through])
    return (tuple(("s", i) for i in w1.reduced_word())
            + tuple(("E", i) for i in range(1, 2 * len(top), 2))
            + tuple(("s", i) for i in w2.reduced_word()))


def br_module_matrix(lam, n: int, b: BrauerElement):
    """Matrix of any element b on S^lambda (rows = images), from the word
    of each diagram of b."""
    return cell_rows(lam, n, BRAUER_VARS, [
        ([(_ENGINE_LETTER[kind], i) for kind, i in diagram_word(d, n)], c)
        for d, c in b.terms.items()])


def br_to_cellular(e: BrauerElement) -> dict:
    """Exact coordinates {(lambda, (s,v), (t,u)): c} of e in the full
    cellular basis of B_n, read off its cell-module matrices by the
    straightening shared with the BMW tower (``towers.cellular_terms``)."""
    from .towers import cellular_terms
    return cellular_terms("brauer", e.n, {
        lam: br_module_matrix(lam, e.n, e) for lam in layer_shapes(e.n)})

