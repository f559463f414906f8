"""Partitions, tableaux, permutations, coset representatives, and the
dominance order and Bratteli neighbors of up-down paths.  The paths
themselves are enumerated in one place, ``towers.ordered_paths``, in the
order in which the path basis lifts them.

Conventions
-----------
* Partitions are tuples of weakly decreasing positive integers; ``()`` is
  the empty partition.
* The dominance order used throughout is the inverted-size variant: a
  partition with FEWER boxes dominates one with more boxes; for equal
  sizes the usual partial-sum comparison applies.
* Permutations act on the right: ``perm[i - 1]`` is the image of ``i``.
  ``v * w`` maps ``i`` to ``w(v(i))``.
* Standard tableaux of shape ``lam`` with ``|lam| = n - 2f`` carry the
  labels ``{2f+1, ..., n}``; rows increase left to right and columns
  increase top to bottom.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def check_partition(lam) -> tuple:
    lam = tuple(int(x) for x in lam)
    if any(x <= 0 for x in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def partitions_of(k: int):
    """All partitions of k, most dominant (lexicographically largest) first."""
    def gen(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest
    return list(gen(k, k if k else 1))


def dominance(lam, mu) -> str:
    """Four-valued comparison: 'dominates' means lam is above mu.

    lam dominates mu iff |mu| > |lam|, or the sizes agree and every
    partial sum of lam is >= the corresponding partial sum of mu.
    """
    lam, mu = tuple(lam), tuple(mu)
    if lam == mu:
        return "equal"
    sl, sm = sum(lam), sum(mu)
    if sl != sm:
        return "dominates" if sm > sl else "dominated"
    ge = le = True
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            ge = False
        if a > b:
            le = False
    if ge:
        return "dominates"
    if le:
        return "dominated"
    return "incomparable"


def dominance_key(lam) -> tuple:
    """Sort key for a deterministic linear extension of dominance
    (most dominant first; ties broken lexicographically by part lists)."""
    lam = tuple(lam)
    return (sum(lam), tuple(-x for x in lam))


def box_steps(lam):
    """(addable, removable) node lists of the diagram, sorted by row.

    Nodes are 1-indexed pairs (row, column)."""
    lam = tuple(lam)
    addable = []
    removable = []
    rows = len(lam)
    for i in range(rows):
        if i == 0 or lam[i] < lam[i - 1]:
            addable.append((i + 1, lam[i] + 1))
        if i == rows - 1 or lam[i] > lam[i + 1]:
            removable.append((i + 1, lam[i]))
    addable.append((rows + 1, 1))
    return addable, removable


def add_node(lam, node):
    i, j = node
    lam = list(lam)
    if i == len(lam) + 1:
        lam.append(1)
    else:
        lam[i - 1] += 1
    return tuple(lam)


def remove_node(lam, node):
    i, j = node
    lam = list(lam)
    lam[i - 1] -= 1
    if lam[i - 1] == 0:
        lam.pop(i - 1)
    return tuple(lam)


def content_sum(lam) -> int:
    """Sum of j - i over the nodes of the diagram."""
    return sum(p * (p - 1) // 2 - i * p for i, p in enumerate(lam))


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

class Permutation:
    """Permutation of {1..n} acting on the right; stores the one-line image."""

    __slots__ = ("img",)

    def __init__(self, img):
        self.img = tuple(img)
        if sorted(self.img) != list(range(1, len(self.img) + 1)):
            raise ValueError(f"not a permutation one-line: {img}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, i: int, j: int, n: int) -> "Permutation":
        img = list(range(1, n + 1))
        img[i - 1], img[j - 1] = j, i
        return cls(img)

    @classmethod
    def s(cls, i: int, n: int) -> "Permutation":
        return cls.transposition(i, i + 1, n)

    @classmethod
    def from_word(cls, word, n: int) -> "Permutation":
        v = cls.identity(n)
        for i in word:
            v = v.rmul_s(i)
        return v

    @property
    def n(self) -> int:
        return len(self.img)

    def __call__(self, i: int) -> int:
        return self.img[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (i)(self * other) = ((i)self)other
        return Permutation(other.img[x - 1] for x in self.img)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.img)
        for i, x in enumerate(self.img):
            inv[x - 1] = i + 1
        return Permutation(inv)

    def rmul_s(self, i: int) -> "Permutation":
        """self * s_i: swaps the values i and i+1 in the one-line string."""
        sw = {i: i + 1, i + 1: i}
        return Permutation(sw.get(x, x) for x in self.img)

    def lmul_s(self, i: int) -> "Permutation":
        """s_i * self: swaps positions i and i+1 of the one-line string."""
        img = list(self.img)
        img[i - 1], img[i] = img[i], img[i - 1]
        return Permutation(img)

    def length(self) -> int:
        img = self.img
        return sum(1 for a, b in combinations(range(len(img)), 2)
                   if img[a] > img[b])

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self.img))

    def reduced_word(self) -> tuple:
        """Canonical reduced word (fixed bubble-sort scheme): repeatedly
        remove the smallest position descent on the left."""
        word = []
        img = list(self.img)
        n = len(img)
        changed = True
        while changed:
            changed = False
            for i in range(n - 1):
                if img[i] > img[i + 1]:
                    img[i], img[i + 1] = img[i + 1], img[i]
                    word.append(i + 1)
                    changed = True
                    break
        return tuple(word)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def __repr__(self):
        return f"Permutation{self.img}"


# ---------------------------------------------------------------------------
# Standard tableaux
# ---------------------------------------------------------------------------

class StdTableau:
    """Standard tableau with labels {2f+1..n}; rows stored as tuples."""

    __slots__ = ("rows", "n")

    def __init__(self, rows, n: int):
        self.rows = tuple(tuple(r) for r in rows)
        self.n = n

    @property
    def shape(self) -> tuple:
        return tuple(len(r) for r in self.rows)

    @property
    def f(self) -> int:
        return (self.n - sum(len(r) for r in self.rows)) // 2

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def labels(self):
        return [x for row in self.rows for x in row]

    def position_of(self, x: int):
        for i, row in enumerate(self.rows):
            for j, y in enumerate(row):
                if y == x:
                    return (i + 1, j + 1)
        raise KeyError(x)

    def restrict_max(self) -> "StdTableau":
        """Remove the largest label (used when walking down the tower)."""
        m = max(self.labels())
        rows = [tuple(x for x in row if x != m) for row in self.rows]
        rows = [r for r in rows if r]
        return StdTableau(rows, self.n)

    def is_standard(self) -> bool:
        lam = self.shape
        try:
            check_partition(lam)
        except ValueError:
            return False
        f = self.f
        if sorted(self.labels()) != list(range(2 * f + 1, self.n + 1)):
            return False
        for i, row in enumerate(self.rows):
            for j in range(len(row) - 1):
                if row[j] >= row[j + 1]:
                    return False
            if i + 1 < len(self.rows):
                for j in range(len(self.rows[i + 1])):
                    if self.rows[i][j] >= self.rows[i + 1][j]:
                        return False
        return True

    def hat(self) -> "StdTableau":
        """Relabeled view with labels 1..n-2f (subtract 2f everywhere)."""
        f = self.f
        rows = [tuple(x - 2 * f for x in row) for row in self.rows]
        return StdTableau(rows, self.n - 2 * f)

    def __eq__(self, other):
        return (isinstance(other, StdTableau) and self.rows == other.rows
                and self.n == other.n)

    def __hash__(self):
        return hash((self.rows, self.n))

    def __repr__(self):
        return f"StdTableau({list(map(list, self.rows))}, n={self.n})"


def superstandard(lam, n: int) -> StdTableau:
    """Row-filling tableau t^lam with labels 2f+1..n."""
    lam = check_partition(lam)
    f = _offset(lam, n)
    rows = []
    x = 2 * f + 1
    for p in lam:
        rows.append(tuple(range(x, x + p)))
        x += p
    return StdTableau(rows, n)


def _offset(lam, n: int) -> int:
    rem = n - sum(lam)
    if rem < 0 or rem % 2:
        raise ValueError(f"|lam|={sum(lam)} incompatible with n={n}")
    return rem // 2


def enumerate_std(lam, n: int):
    """All standard tableaux of shape lam with labels {2f+1..n}."""
    lam = check_partition(lam)
    f = _offset(lam, n)
    lo = 2 * f + 1

    results = []

    def build(shape, filling):
        # filling maps node -> label; we place labels lo..n in increasing
        # order ensuring rows/columns grow
        size = sum(shape)
        if size == sum(lam) and tuple(shape) == lam:
            rows = []
            for i, p in enumerate(lam):
                rows.append(tuple(filling[(i + 1, j + 1)] for j in range(p)))
            results.append(StdTableau(rows, n))
            return
        label = lo + size
        addable, _ = box_steps(shape)
        for node in addable:
            i, j = node
            if i <= len(lam) and j <= lam[i - 1]:
                filling[node] = label
                build(add_node(shape, node), filling)
                del filling[node]

    build((), {})
    return results


def tab_perm(t: StdTableau) -> Permutation:
    """The unique d(t) in <s_i : 2f < i < n> with t = t^lam d(t)."""
    lam = t.shape
    tsup = superstandard(lam, t.n)
    img = list(range(1, t.n + 1))
    for i, row in enumerate(tsup.rows):
        for j, x in enumerate(row):
            img[x - 1] = t.rows[i][j]
    return Permutation(img)


# ---------------------------------------------------------------------------
# Coset representatives D_{f,n}
# ---------------------------------------------------------------------------

def coset_reps(f: int, n: int):
    """The distinguished representatives D_{f,n}, constructed directly.

    v is in D_{f,n} iff (a) (2i+1)v < (2j+1)v for 0 <= i < j < f,
    (b) (2i+1)v < (2i+2)v for 0 <= i < f, and (c) (i)v < (i+1)v for
    2f < i < n.  Each element is determined by a pairing of a 2f-subset
    of {1..n} (pairs sorted by smaller element) with the remaining values
    ascending.
    """
    if not (0 <= 2 * f <= n):
        raise ValueError(f"need 0 <= 2f <= n, got f={f}, n={n}")
    values = list(range(1, n + 1))
    out = []

    def pairings(avail):
        if not avail:
            yield []
            return
        a = avail[0]
        for idx in range(1, len(avail)):
            b = avail[idx]
            rest = avail[1:idx] + avail[idx + 1:]
            for tail in pairings(rest):
                yield [(a, b)] + tail

    for subset in combinations(values, 2 * f):
        rest = [v for v in values if v not in subset]
        for prs in pairings(list(subset)):
            img = []
            for a, b in prs:
                img.extend((a, b))
            img.extend(rest)
            out.append(Permutation(img))
    return out


def is_coset_rep(v: Permutation, f: int) -> bool:
    n = v.n
    for i in range(f):
        if not v(2 * i + 1) < v(2 * i + 2):
            return False
    for i in range(f - 1):
        if not v(2 * i + 1) < v(2 * i + 3):
            return False
    for i in range(2 * f + 1, n):
        if not v(i) < v(i + 1):
            return False
    return True


# ---------------------------------------------------------------------------
# Cell-module indices (shared by both towers)
# ---------------------------------------------------------------------------

def layer_shapes(n: int) -> list:
    """The shapes lam with |lam| = n - 2f, f = 0..n//2, that index the cell
    modules at level n, sorted by ``dominance_key`` (most dominant first)."""
    return sorted((lam for f in range(n // 2 + 1)
                   for lam in partitions_of(n - 2 * f)), key=dominance_key)


@lru_cache(maxsize=None)
def cell_index(lam, n: int):
    """The ordered index I_n(lambda) of the cell module S^lambda: pairs
    (t, u) with t standard of shape lambda and u in D_{f,n}, u sorted by
    image tuple."""
    lam = check_partition(lam)
    f = (n - sum(lam)) // 2
    tabs = enumerate_std(lam, n)
    cosets = sorted(coset_reps(f, n), key=lambda p: p.img)
    return tuple((t, u) for t in tabs for u in cosets)


# ---------------------------------------------------------------------------
# Up-down (Bratteli) paths
# ---------------------------------------------------------------------------

def path_dominance(s, t) -> str:
    """Componentwise dominance of two paths of equal length."""
    if len(s) != len(t):
        raise ValueError("paths must have equal length")
    ge = le = True
    for a, b in zip(s, t):
        c = dominance(a, b)
        if c == "equal":
            continue
        if c == "dominates":
            le = False
        elif c == "dominated":
            ge = False
        else:
            return "incomparable"
    if ge and le:
        return "equal"
    if ge:
        return "dominates"
    if le:
        return "dominated"
    return "incomparable"


def path_key(t) -> tuple:
    """Deterministic sort key placing more dominant paths first."""
    return tuple(dominance_key(mu) for mu in t)


def path_of_tableau(t: StdTableau):
    """Path of the form (), (1), (), ..., then growing by t's labels:
    the maximal prefix oscillates; labels 2f+1..n grow the shape."""
    f = t.f
    # levels 0..2f alternate () and (1), ending with () at level 2f
    prefix = [() if k % 2 == 0 else (1,) for k in range(2 * f + 1)]
    shape = ()
    path = list(prefix)
    for x in range(2 * f + 1, t.n + 1):
        node = t.position_of(x)
        shape = add_node(shape, node)
        path.append(shape)
    return tuple(path)


# ---------------------------------------------------------------------------
# Semistandard tableaux
# ---------------------------------------------------------------------------

class SemiStdTableau:
    __slots__ = ("rows", "type_mu")

    def __init__(self, rows, type_mu):
        self.rows = tuple(tuple(r) for r in rows)
        self.type_mu = tuple(type_mu)

    @property
    def shape(self) -> tuple:
        return tuple(len(r) for r in self.rows)

    def is_semistandard(self) -> bool:
        for row in self.rows:
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                return False
        for i in range(len(self.rows) - 1):
            for j in range(len(self.rows[i + 1])):
                if self.rows[i][j] >= self.rows[i + 1][j]:
                    return False
        counts = {}
        for row in self.rows:
            for x in row:
                counts[x] = counts.get(x, 0) + 1
        mu_counts = {i + 1: p for i, p in enumerate(self.type_mu)}
        return counts == mu_counts

    def __eq__(self, other):
        return (isinstance(other, SemiStdTableau) and self.rows == other.rows
                and self.type_mu == other.type_mu)

    def __hash__(self):
        return hash((self.rows, self.type_mu))

    def __repr__(self):
        return f"SemiStdTableau({list(map(list, self.rows))}, type={self.type_mu})"


def type_map(t: StdTableau, mu) -> SemiStdTableau:
    """Replace each entry of the (hatted) tableau by its row index in t^mu."""
    mu = check_partition(mu)
    th = t.hat() if t.f else t
    row_of = {}
    x = 1
    for i, p in enumerate(mu):
        for _ in range(p):
            row_of[x] = i + 1
            x += 1
    rows = [tuple(row_of[e] for e in row) for row in th.rows]
    return SemiStdTableau(rows, mu)


def semistandard_set(lam, mu):
    """All semistandard tableaux of shape lam and type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("shape and type must have equal size")
    out = []
    for t in enumerate_std(lam, sum(lam)):
        cand = type_map(t, mu)
        if cand.is_semistandard() and cand not in out:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Distinguished permutations for the restriction machinery
# ---------------------------------------------------------------------------

def up_neighbor_data(lam, n: int):
    """For each up-neighbor mu of lam (a node added), the data
    (mu, a, w_word) with a = 2(f-1) + sum of the first rows of mu down to
    the added row and w = s_{a-1} ... s_{2f-1} s_{n-1} ... s_{2f}.

    Up-neighbors are returned in dominance order (most dominant first).
    """
    lam = check_partition(lam)
    f = _offset(lam, n)
    if f < 1:
        raise ValueError("up neighbors only exist for f >= 1")
    addable, _ = box_steps(lam)
    entries = []
    for node in addable:
        mu = add_node(lam, node)
        j_row = node[0]
        a = 2 * (f - 1) + sum(mu[:j_row])
        w_word = tuple(range(a - 1, 2 * f - 2, -1)) + \
            tuple(range(n - 1, 2 * f - 1, -1))
        entries.append((mu, a, w_word))
    entries.sort(key=lambda e: dominance_key(e[0]))
    return entries


def neighbors(lam, n: int):
    """All Bratteli neighbors of lam one level down the tower, in
    dominance order (most dominant first): removals then additions."""
    lam = check_partition(lam)
    f = _offset(lam, n)
    addable, removable = box_steps(lam)
    out = [remove_node(lam, nd) for nd in removable]
    if f >= 1:
        out.extend(add_node(lam, nd) for nd in addable)
    out.sort(key=dominance_key)
    return out
