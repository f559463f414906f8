"""Semisimplicity certification for the two diagram-algebra towers.

The Jucys-Murphy eigenvalue vector of an up-down path gives a sufficient
criterion for semisimplicity: if paths of distinct comparable shapes never
share an eigenvalue vector, the algebra is semisimple.  The criterion is
one-directional, so failures are reported as Inconclusive with witnesses;
a definite negative answer only ever comes from Gram-rank computations.

A cellular algebra is semisimple iff every cell form is nondegenerate
(Graham and Lehrer, Invent. Math. 123, 1996), so ``gram_rank_certify`` is
the exact check.  Over a symbolic specialization (or none) it first tries to
prove full rank at one rational point of the target variables: evaluation
at a point is a ring homomorphism on the local ring holding every Gram
entry, so a nonzero determinant there is nonzero over the function field.
Rank drops and radical dimensions come only from exact elimination.

Rational roots of Gram determinants (candidates from p-adic lifting) and the
root-of-unity test run on :mod:`cellalg.exactring` polynomials, by exact
division (``poly_divexact``).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .combin import content_sum, dominance, layer_shapes, path_key
from .exactring import (BMW_VARS, BRAUER_VARS, CoeffFraction, PoleError,
                        Specialization, poly_divexact, poly_gcd)
from .linalg import det, rank
from .towers import _ops, gram_matrix, ordered_paths, path_content

CERTIFIED_SEMISIMPLE = "CertifiedSemisimple"
CERTIFIED_NOT_SEMISIMPLE = "CertifiedNotSemisimple"
INCONCLUSIVE = "Inconclusive"


class Verdict:
    """Outcome of a certification run plus its supporting evidence."""

    __slots__ = ("outcome", "evidence")

    def __init__(self, outcome, evidence):
        self.outcome = outcome
        self.evidence = list(evidence)

    def __repr__(self):
        return "Verdict({}, {} witnesses)".format(self.outcome,
                                                  len(self.evidence))


def content_vector(algebra, path, spec=None):
    """The tuple (P_t(1), ..., P_t(n)), optionally specialized."""
    values = [path_content(algebra, path, k) for k in range(1, len(path))]
    if spec is not None:
        values = [spec.apply(v) for v in values]
    return tuple(values)


@lru_cache(maxsize=None)
def _content_classes(algebra, n):
    """The generic step contents of level n, classed once.

    Returns (values, rows).  ``values`` are the distinct generic contents
    ``content(prev, cur)``, numbered in the order in which they are first
    met along ``layer_shapes(n)``, ``ordered_paths`` and the steps of each
    path.  ``rows`` holds, for each shape in ``layer_shapes`` order, the
    triples (path, rank, class ids): the rank is the path's position on the
    level under ``path_key``, and the class ids number its steps' contents.
    """
    content = _ops(algebra).content
    step_class = {}  # (prev, cur) -> class id
    class_of = {}  # generic content -> class id
    values = []
    paths = []
    for lam in layer_shapes(n):
        shape_rows = []
        for t in ordered_paths(lam, n):
            classes = []
            for step in zip(t, t[1:]):
                c = step_class.get(step)
                if c is None:
                    value = content(*step)
                    c = class_of.setdefault(value, len(values))
                    if c == len(values):
                        values.append(value)
                    step_class[step] = c
                classes.append(c)
            shape_rows.append((t, tuple(classes)))
        paths.append(shape_rows)
    keys = sorted((path_key(t), t) for shape_rows in paths
                  for t, _ in shape_rows)
    if any(a[0] == b[0] for a, b in zip(keys, keys[1:])):
        raise AssertionError("path_key is not injective on the level")
    rank = {t: i for i, (_, t) in enumerate(keys)}
    rows = tuple(tuple((t, rank[t], classes) for t, classes in shape_rows)
                 for shape_rows in paths)
    return tuple(values), rows


def certify(algebra, n, spec=None):
    """Eigenvalue-vector criterion: semisimple if no two paths of distinct
    comparable shapes share a content vector.  Never certifies the negative;
    collisions are reported as Inconclusive with the colliding path pairs,
    sorted by ``path_key`` of both paths, and one tuple of specialized
    contents per shared vector.

    The level's generic step contents take few distinct values (about 4n),
    so they are classed once (``_content_classes``) and only the class
    values are specialized.  The specialized values are interned as small
    integers and each path's vector becomes a tuple of those integers,
    bucketed over all shapes at once (``_collisions``).  This is exact:
    equal generic contents stay equal under any specialization, so two
    specialized content vectors are equal iff their interned tuples are.
    A specialization that keeps the class values distinct leaves the
    buckets of the generic level, whose collisions are memoised.
    """
    values, rows = _content_classes(algebra, n)
    if spec is not None:
        values = [spec.apply(v) for v in values]
        interned = {}
        ids = [interned.setdefault(v, len(interned)) for v in values]
    if spec is None or len(interned) == len(values):
        if not _generic_collides(algebra, n):
            return Verdict(CERTIFIED_SEMISIMPLE, [])
        ids = range(len(values))
    witnesses = []  # (rank of s, rank of t, s, t, shared vector)
    for classes, pairs in _collisions(rows, ids):
        vector = tuple(values[c] for c in classes)
        witnesses.extend(pair + (vector,) for pair in pairs)
    if not witnesses:
        return Verdict(CERTIFIED_SEMISIMPLE, [])
    witnesses.sort()  # ranks are distinct, so paths are never compared
    return Verdict(INCONCLUSIVE, [w[2:] for w in witnesses])


def _collisions(rows, ids):
    """The collisions of the paths in ``rows`` (as from ``_content_classes``)
    when class c takes the value numbered ids[c]: per bucket of equal
    vectors that holds some, the class ids of its first path and the pairs
    (rank of s, rank of t, s, t) of its paths s, t of shapes lam > mu."""
    buckets = {}  # interned vector -> rows of the paths sharing it
    for shape_rows in rows:
        for row in shape_rows:
            buckets.setdefault(tuple(map(ids.__getitem__, row[2])),
                               []).append(row)
    out = []
    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        by_shape = {}  # a path's shape is its last node
        for row in bucket:
            by_shape.setdefault(row[0][-1], []).append(row)
        pairs = [(s[1], t[1], s[0], t[0])
                 for lam, lam_rows in by_shape.items()
                 for mu, mu_rows in by_shape.items()
                 if dominance(lam, mu) == "dominates"
                 for s in lam_rows for t in mu_rows]
        if pairs:
            out.append((bucket[0][2], pairs))
    return out


@lru_cache(maxsize=None)
def _generic_collides(algebra, n):
    """Whether two paths of distinct comparable shapes at level n share a
    generic content vector (none do for n <= 6)."""
    values, rows = _content_classes(algebra, n)
    return bool(_collisions(rows, range(len(values))))


# Points at which gram_rank_certify first tries to prove full rank: their
# coordinates go, in order, to the variables that the spec leaves free.  Any
# point is sound; a good one is no root of a Gram determinant.  Brauer
# determinants vanish at rational z only in [-2n, 2n] (Rui, J. Combin.
# Theory A 111, 2005), so 17 is no root up to n = 8.  The BMW points are no
# roots of unity, and with both q and r free they satisfy no r = +-q^k.  With
# one of them fixed, only the first coordinate is used, and the composed
# point may lie on such a locus ("r=17" at q = 17 gives r = q), where ranks
# drop; such a point is skipped unless the spec's own images lie on it.
# Later points stand in when a point is refused, skipped or is a pole.
CERTIFICATE_POINTS = ((17, 19), (23, 29), (31, 37))


def _certificate_specs(algebra, spec):
    """Numeric specializations: ``spec`` (or the identity) followed by each
    usable point of CERTIFICATE_POINTS; none for a numeric ``spec``."""
    vars = _ops(algebra).vars
    if spec is None:
        spec = Specialization(vars, {}, vars)
    if not spec.target_vars:
        return ()
    # Specialization hashes by identity, so the memo key is its images
    return _composed_points(vars, spec.target_vars,
                            tuple(spec.assignment.items()), CERTIFICATE_POINTS)


@lru_cache(maxsize=None)
def _composed_points(vars, target_vars, images, points):
    images = dict(images)
    out = []
    on_locus = {}  # k -> whether the spec's images satisfy r = +-q^k
    for point in points:
        at = {v: CoeffFraction.const(c, ()) for v, c in zip(target_vars, point)}
        try:
            s = Specialization(vars, {name: img.substitute(at)
                                      for name, img in images.items()})
        except (ValueError, PoleError):
            continue
        if vars == BMW_VARS:
            k = _rational_power_exponent(s.assignment["q"].as_rational(),
                                         s.assignment["r"].as_rational())
            # on r = +-q^k: keep the point only if the spec's images are too
            if k is not None:
                if k not in on_locus:
                    power = images["q"] ** k
                    on_locus[k] = images["r"] in (power, -power)
                if not on_locus[k]:
                    continue
        out.append(s)
    return tuple(out)


def _rational_power_exponent(q, r):
    """The k with r = +-q^k, for nonzero rationals q, r with q not +-1, or
    None.  In lowest terms, |r| = |q|^k with k >= 0 says that the numerator
    and denominator of |r| are the k-th powers of those of |q|; k < 0 swaps
    the numerator and denominator of q.  As |q| is not 1, k is unique."""
    c, d = abs(r.numerator), r.denominator
    a, b = abs(q.numerator), q.denominator
    for a, b, step in ((a, b, 1), (b, a, -1)):
        pa = pb = 1
        k = 0
        while pa <= c and pb <= d:  # a or b exceeds 1, so this ends
            if pa == c and pb == d:
                return k
            pa, pb, k = pa * a, pb * b, k + step
    return None


def _full_rank_at_a_point(g, points):
    """True if the Gram matrix ``g`` has full rank at the first point of
    ``points`` where no entry has a pole; False when that rank drops or no
    point is usable (undecided: full rank may still hold)."""
    for point in points:
        try:
            values = point.apply_matrix(g)
        except PoleError:
            continue
        return rank(values) == len(g)
    return False


def gram_rank_certify(algebra, n, spec=None):
    """Rank criterion: semisimple iff every specialized Gram matrix has full
    rank; a rank drop certifies non-semisimplicity (witness: shape, rank,
    dimension, radical dimension).

    Over a symbolic ``spec`` or none, full rank may be proved at one rational
    point (``CERTIFICATE_POINTS``): if the determinant is nonzero there, it
    is nonzero as a rational function.  Every other case, and every rank
    drop, is decided by exact elimination of the specialized matrix."""
    points = _certificate_specs(algebra, spec)
    drops = []
    report = []
    for lam in layer_shapes(n):
        g = gram_matrix(algebra, lam, n)
        dim = len(g)
        if _full_rank_at_a_point(g, points):
            r = dim
        else:
            r = rank(g if spec is None else spec.apply_matrix(g))
        report.append((lam, r, dim))
        if r < dim:
            drops.append((lam, r, dim, dim - r))
    if drops:
        return Verdict(CERTIFIED_NOT_SEMISIMPLE, drops)
    return Verdict(CERTIFIED_SEMISIMPLE, report)


def _power_identity(x, a, y, b):
    """Whether x^a == y^b for nonzero fractions x, y, without forming large
    powers.

    Modulo +-1 the multiplicative group is free abelian, and c^k has size at
    least |k| when c is not +-1.  With g = gcd(a, b), x^a = y^b forces
    x^(a/g) = +-y^(b/g), and as a/g and b/g are coprime, x and y are then
    +-c^(b/g) and +-c^(a/g) for one c: the identity fails outright once
    |b/g| > size(x) or |a/g| > size(y), and otherwise the powers are small.
    """
    one = CoeffFraction.const(1, x.vars)
    units = (one, -one)
    if x in units or y in units or a == 0 or b == 0:
        # x^a is +-1 exactly when x is +-1 or a is 0; then parity decides
        if (a and x not in units) or (b and y not in units):
            return False
        return x ** (a % 2) == y ** (b % 2)
    g = gcd(a, b)
    a, b = a // g, b // g
    if abs(b) > x.size() or abs(a) > y.size():
        return False
    lhs, rhs = x ** a, y ** b
    return lhs == rhs or (g % 2 == 0 and lhs == -rhs)


def hom_obstruction(algebra, lam, mu, spec=None):
    """Whether the necessary eigenvalue identity for a nonzero module
    homomorphism S^lam -> S^mu holds; False certifies Hom = 0."""
    lam, mu = tuple(lam), tuple(mu)
    diff = sum(lam) - sum(mu)
    if diff < 0 or diff % 2:
        raise ValueError("need |lam| >= |mu| with matching parity")
    f = diff // 2
    vars = _ops(algebra).vars
    if algebra == "bmw":
        # r^{2f} q^{2c(lam)} = q^{2c(mu)}, with c the content sum
        r = CoeffFraction.var("r", vars)
        q = CoeffFraction.var("q", vars)
        if spec is not None:
            r, q = spec.apply(r), spec.apply(q)
        return _power_identity(r, 2 * f,
                               q, 2 * (content_sum(mu) - content_sum(lam)))
    z = CoeffFraction.var("z", vars)
    lhs = CoeffFraction.const(content_sum(lam) - content_sum(mu), vars)
    rhs = (CoeffFraction.const(1, vars) - z) * CoeffFraction.const(f, vars)
    if spec is not None:
        lhs, rhs = spec.apply(lhs), spec.apply(rhs)
    return lhs == rhs


def _is_root_of_unity(x, bound):
    one = CoeffFraction.const(1, x.vars)
    acc = one
    for k in range(1, bound + 1):
        acc = acc * x
        if acc == one:
            return k
    return None


def _divides_unity_poly(coeffs, bound):
    """Order k <= bound such that the rational polynomial with ascending
    coefficients divides x^k - 1, if any.  As x^k - 1 is primitive, that is
    divisibility over Z by the cleared primitive part (Gauss's lemma)."""
    coeffs = [Fraction(c) for c in coeffs]
    if not coeffs or coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if len(coeffs) == 1:
        return None
    den = lcm(*(c.denominator for c in coeffs))
    p = {(i,): int(c * den) for i, c in enumerate(coeffs) if c}
    p = poly_divexact(p, {(0,): gcd(*p.values())}, 1)
    for k in range(1, bound + 1):
        try:
            poly_divexact({(k,): 1, (0,): -1}, p, 1)
        except ValueError:
            continue
        return k
    return None


def necessary_condition_note(spec, bound=24, q_minimal_poly=None):
    """Informational check of the coarse non-semisimplicity prerequisites
    for the two-parameter algebra: q a root of unity (bounded order, or via
    a supplied minimal polynomial) or r = +/- q^k with |k| <= bound."""
    if spec.source_vars != BMW_VARS:
        raise ValueError("expected a two-parameter specialization")
    q = spec.assignment["q"]
    r = spec.assignment["r"]
    note = {"bound": bound, "q_root_of_unity": None, "r_power_of_q": None}
    if q_minimal_poly is not None:
        note["q_root_of_unity"] = _divides_unity_poly(q_minimal_poly, bound)
    else:
        note["q_root_of_unity"] = _is_root_of_unity(q, bound)
    for k in range(-bound, bound + 1):
        power = q ** k
        if r == power:
            note["r_power_of_q"] = (1, k)
            break
        if r == -power:
            note["r_power_of_q"] = (-1, k)
            break
    note["matched"] = (note["q_root_of_unity"] is not None
                       or note["r_power_of_q"] is not None)
    return note


@lru_cache(maxsize=None)
def conjecture_poly(i):
    """The polynomial p_i(z): p_1 = (z+2)(z-1) and
    p_i = (z+2i)(z-i)(z+i-2)p_{i-1} for odd i, (z+2i)(z-i)p_{i-1} even."""
    if i < 1:
        raise ValueError("index must be positive")
    z = CoeffFraction.var("z", BRAUER_VARS)

    def shifted(c):
        return z + CoeffFraction.const(c, BRAUER_VARS)

    if i == 1:
        return shifted(2) * shifted(-1)
    p = shifted(2 * i) * shifted(-i) * conjecture_poly(i - 1)
    if i % 2:
        p = p * shifted(i - 2)
    return p


# bound under this name for the CLI, the tests and span tracing
_det = det


def _linear_roots(x):
    """Split off the rational roots of a univariate polynomial over a
    constant denominator: returns (the sorted roots with multiplicity, the
    degree left).  The candidates are the rational roots of the squarefree
    part of the primitive numerator p (``_squarefree_roots``), and
    ``poly_divexact`` divides each b*z - a out of p in Z[z] (Gauss's lemma)
    as often as it goes."""
    if any(e != (0,) for e in x.den) or not x.num:
        raise ValueError("not a nonzero polynomial")
    low = min(x.num)[0]  # zero roots come off by an exponent shift
    p = {(e - low,): c for (e,), c in x.num.items()}
    p = poly_divexact(p, {(0,): gcd(*p.values())}, 1)
    roots = [Fraction(0)] * low
    if len(p) > 1:
        derivative = {(e - 1,): e * c for (e,), c in p.items() if e}
        s = poly_divexact(p, poly_gcd(p, derivative, 1), 1)
        for root in _squarefree_roots(
                [s.get((k,), 0) for k in range(max(s)[0] + 1)]):
            linear = {(1,): root.denominator, (0,): -root.numerator}
            while len(p) > 1:
                try:
                    p = poly_divexact(p, linear, 1)
                except ValueError:
                    break
                roots.append(root)
    return sorted(roots), max(p)[0]


def _squarefree_roots(s):
    """Candidates for the rational roots of a squarefree integer polynomial
    (coefficients lowest degree first, s(0) != 0), by p-adic lifting; every
    rational root is among them, and the caller tests each one.

    A root a/b in lowest terms has |a| <= |s(0)| and 0 < b <= |lead(s)|
    (rational root theorem).  Modulo a prime l that divides neither lead(s)
    nor the derivative at any root of s mod l, a/b reduces to a simple root
    of s mod l.  Newton's method lifts each simple root mod l to a root mod
    some m > 2 |s(0)| |lead(s)|, and a/b is the only fraction within those
    bounds congruent to it (``_rational_reconstruction``).  The work grows
    with the degree and the size of the coefficients, never with the number
    or size of their divisors."""
    lead, const = s[-1], s[0]
    derivative = [k * c for k, c in enumerate(s)][1:]
    ell = 1
    while True:  # refuses only primes of lead(s) or of the discriminant
        ell += 1
        if lead % ell == 0 or any(ell % k == 0
                                  for k in range(2, isqrt(ell) + 1)):
            continue
        reduced = [c % ell for c in s]
        residues = [r for r in range(ell) if _horner(reduced, r, ell) == 0]
        if all(_horner(derivative, r, ell) for r in residues):
            break
    limit = 2 * abs(lead) * abs(const)
    out = []
    for r in residues:
        m = ell
        while m <= limit:
            m *= m
            r = (r - _horner(s, r, m)
                 * pow(_horner(derivative, r, m), -1, m)) % m
        root = _rational_reconstruction(r, m, abs(const), abs(lead))
        if root:
            out.append(root)
    return out


def _horner(coeffs, x, m):
    """The polynomial with these coefficients (lowest degree first) at x,
    reduced modulo m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _rational_reconstruction(r, m, a_max, b_max):
    """The fraction a/b with a = b r (mod m), |a| <= a_max and
    0 < b <= b_max, or None if the extended Euclidean algorithm on (m, r),
    stopped at its first remainder at most a_max, finds none.  When
    2 a_max b_max < m, a fraction with these properties is unique and is
    always found (von zur Gathen and Gerhard, "Modern Computer Algebra",
    Theorem 5.26)."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > a_max:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1) if 0 < abs(t1) <= b_max else None


@lru_cache(maxsize=None)
def conjecture_evidence(n):
    """Compare the rational root set of the Gram determinant of the smallest
    one-parameter cell module at level n with the conjectured polynomial.

    The report depends on n only, so it is memoised per process and shared
    by every caller: read it, never mutate it."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = (n - 1) // 2 if n % 2 else n // 2
    lam = (1,) if n % 2 else ()
    roots, remainder_degree = _linear_roots(det(gram_matrix("brauer", lam, n)))
    expected, _ = _linear_roots(conjecture_poly(k))
    expected = set(expected)
    if n % 2 == 0:
        expected.add(Fraction(0))
    return {
        "n": n,
        "k": k,
        "lam": lam,
        "roots": sorted(set(roots)),
        "expected_roots": sorted(expected),
        "agrees": set(roots) == expected,
        "nonlinear_remainder_degree": remainder_degree,
    }
