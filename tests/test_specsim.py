import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellalg import specsim
from cellalg.combin import dominance, layer_shapes, maximal_path, path_key
from cellalg.exactring import (
    BMW_VARS,
    BRAUER_VARS,
    CoeffFraction,
    PoleError,
    Specialization,
    parse_fraction,
)
from cellalg.specsim import (
    CERTIFIED_NOT_SEMISIMPLE,
    CERTIFIED_SEMISIMPLE,
    INCONCLUSIVE,
    Verdict,
    _rational_reconstruction,
    certify,
    conjecture_evidence,
    conjecture_poly,
    content_vector,
    gram_rank_certify,
    _power_identity,
    hom_obstruction,
    necessary_condition_note,
)
from cellalg.linalg import rank
from cellalg.towers import _ops, gram_matrix, ordered_paths

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cellbench"))
import catalog  # noqa: E402


def bqr(s):
    return parse_fraction(s, BMW_VARS)


def bz(s):
    return parse_fraction(s, BRAUER_VARS)


SPEC_R_Q3 = Specialization.parse("r=-q^-3", BMW_VARS)
SPEC_Z4 = Specialization.parse("z=4", BRAUER_VARS)


# -- content vectors -----------------------------------------------------------------

def test_content_vector_down_step_collision():
    s = ((), (1,), (2,), (1,))
    t = ((), (1,), (2,), (3,))
    assert content_vector("bmw", s, SPEC_R_Q3) == \
        tuple(parse_fraction(x, ("q",)) for x in ("1", "q^2", "q^4"))
    assert content_vector("bmw", s, SPEC_R_Q3) == \
        content_vector("bmw", t, SPEC_R_Q3)
    assert content_vector("bmw", s) != content_vector("bmw", t)
    assert content_vector("bmw", s)[2] == bqr("q^-2 * r^-2")


def test_content_vector_brauer_example():
    t = ((), (1,), (1, 1), (1,))
    u = ((), (1,), (1, 1), (1, 1, 1))
    expected = tuple(parse_fraction(x, ()) for x in ("0", "-1", "-2"))
    assert content_vector("brauer", t, SPEC_Z4) == expected
    assert content_vector("brauer", u, SPEC_Z4) == expected
    assert content_vector("brauer", t) != content_vector("brauer", u)


def test_content_vector_one_row_is_all_additions():
    for n in (2, 3, 4):
        vec = content_vector("bmw", maximal_path((n,), n))
        assert vec == tuple(bqr("q^{}".format(2 * k)) for k in range(n))


# -- the eigenvalue-vector criterion -------------------------------------------------

@pytest.mark.parametrize("algebra,nmax", [("bmw", 4), ("brauer", 5)])
def test_symbolic_certify_semisimple(algebra, nmax):
    for n in range(1, nmax + 1):
        verdict = certify(algebra, n)
        assert verdict.outcome == CERTIFIED_SEMISIMPLE
        assert verdict.evidence == []


def test_certify_collision_two_parameter():
    verdict = certify("bmw", 3, SPEC_R_Q3)
    assert verdict.outcome == INCONCLUSIVE
    s = ((), (1,), (2,), (1,))
    t = ((), (1,), (2,), (3,))
    pairs = [(w[0], w[1]) for w in verdict.evidence]
    assert (s, t) in pairs
    shared = next(w[2] for w in verdict.evidence if (w[0], w[1]) == (s, t))
    assert shared == tuple(parse_fraction(x, ("q",))
                           for x in ("1", "q^2", "q^4"))


def test_certify_collision_one_parameter():
    verdict = certify("brauer", 3, SPEC_Z4)
    assert verdict.outcome == INCONCLUSIVE
    t = ((), (1,), (1, 1), (1,))
    u = ((), (1,), (1, 1), (1, 1, 1))
    pairs = [(w[0], w[1]) for w in verdict.evidence]
    assert (t, u) in pairs
    shared = next(w[2] for w in verdict.evidence if (w[0], w[1]) == (t, u))
    assert shared == tuple(parse_fraction(x, ()) for x in ("0", "-1", "-2"))


def test_certify_never_negative():
    for spec in (SPEC_R_Q3, None):
        assert certify("bmw", 3, spec).outcome != CERTIFIED_NOT_SEMISIMPLE
    for text in ("z=4", "z=1", "z=0"):
        spec = Specialization.parse(text, BRAUER_VARS)
        assert certify("brauer", 3, spec).outcome != CERTIFIED_NOT_SEMISIMPLE


def _pairwise_certify(algebra, n, spec=None):
    """The eigenvalue-vector criterion written out pair by pair: every path
    of one shape against every path of each shape it dominates."""
    shapes = layer_shapes(n)
    vectors = {
        lam: [(t, content_vector(algebra, t, spec))
              for t in ordered_paths(lam, n)]
        for lam in shapes}
    witnesses = []
    for lam in shapes:
        for mu in shapes:
            if lam == mu or dominance(lam, mu) != "dominates":
                continue
            for s, vs in vectors[lam]:
                for t, vt in vectors[mu]:
                    if vs == vt:
                        witnesses.append((s, t, vs))
    if not witnesses:
        return Verdict(CERTIFIED_SEMISIMPLE, [])
    witnesses.sort(key=lambda w: (path_key(w[0]), path_key(w[1])))
    return Verdict(INCONCLUSIVE, witnesses)


# (algebra, spec, whether some level n <= 6 has a collision); z = -3 and
# r = -q^4 first collide at n = 7.  The entries after the first ten are the
# certify specs of the benchmark's warm session.
CERTIFY_SPECS = [
    ("bmw", None, False), ("bmw", SPEC_R_Q3, True), ("bmw", "r=-q^-2", True),
    ("bmw", "r=q^-1", True), ("bmw", "q=2,r=-1/8", True),
    ("brauer", None, False), ("brauer", SPEC_Z4, True),
    ("brauer", "z=-3", False), ("brauer", "z=1", True), ("brauer", "z=0", True),
    ("brauer", "z=2", True), ("brauer", "z=-9/2", False),
    ("brauer", "z=13/2", False), ("bmw", "q=1/2,r=2", True),
    ("bmw", "r=q^-5", True), ("bmw", "r=-q^4", False),
    ("bmw", "q=-2,r=5", False),
]
# one spec per tower is also checked at n = 7
CERTIFY_AT_N7 = (SPEC_R_Q3, SPEC_Z4)


def _spec(algebra, spec):
    if isinstance(spec, str):
        spec = Specialization.parse(spec, BMW_VARS if algebra == "bmw"
                                    else BRAUER_VARS)
    return spec


@pytest.mark.parametrize("algebra,spec,collides", CERTIFY_SPECS)
def test_certify_matches_pairwise_reference(algebra, spec, collides):
    spec = _spec(algebra, spec)
    top = 7 if any(spec is s for s in CERTIFY_AT_N7) else 6
    witnesses = 0
    for n in range(1, top + 1):
        got = certify(algebra, n, spec)
        expected = _pairwise_certify(algebra, n, spec)
        assert got.outcome == expected.outcome
        assert got.evidence == expected.evidence
        # the printed witnesses (what the CLI reports) agree too
        assert [(s, t, [str(x) for x in v]) for s, t, v in got.evidence] == \
            [(s, t, [str(x) for x in v]) for s, t, v in expected.evidence]
        if n <= 6:
            witnesses += len(got.evidence)
    assert bool(witnesses) == collides


def _full_bucketing_certify(algebra, n, spec=None):
    """certify without its shortcut: every path bucketed by its interned
    vector, every pair of a bucket tested for dominance, and one vector
    tuple formed per witness."""
    values, rows = specsim._content_classes(algebra, n)
    if spec is not None:
        values = [spec.apply(v) for v in values]
    interned = {}
    ids = [interned.setdefault(v, len(interned)) for v in values]
    buckets = {}
    for shape_rows in rows:
        for row in shape_rows:
            buckets.setdefault(tuple(ids[c] for c in row[2]), []).append(row)
    witnesses = sorted(
        (s[1], t[1], s[0], t[0], tuple(values[c] for c in s[2]))
        for bucket in buckets.values() for s in bucket for t in bucket
        if dominance(s[0][-1], t[0][-1]) == "dominates")
    if not witnesses:
        return Verdict(CERTIFIED_SEMISIMPLE, [])
    return Verdict(INCONCLUSIVE, [w[2:] for w in witnesses])


WORKING_SET_CERTIFY = sorted({
    (query[query.index("--algebra") + 1], query[query.index("--spec") + 1])
    for query in catalog.working_set() if query[0] == "certify"})


@pytest.mark.parametrize("algebra,text", WORKING_SET_CERTIFY)
def test_certify_shortcut_and_shared_vectors_match_full_bucketing(
        monkeypatch, algebra, text):
    spec = _spec(algebra, text)
    bucketed = []
    collisions = specsim._collisions
    monkeypatch.setattr(specsim, "_collisions",
                        lambda rows, ids: bucketed.append(n) or
                        collisions(rows, ids))
    shortcuts = 0
    for n in range(1, 7):
        values, _ = specsim._content_classes(algebra, n)
        merges = len(set(spec.apply(v) for v in values)) < len(values)
        assert not specsim._generic_collides(algebra, n)  # memoised here
        bucketed.clear()
        got = certify(algebra, n, spec)
        expected = _full_bucketing_certify(algebra, n, spec)
        # the shortcut: no merged classes, no bucketing
        assert bucketed == ([n] if merges else [])
        shortcuts += not merges
        assert got.outcome == expected.outcome
        assert [(s, t, [str(x) for x in v]) for s, t, v in got.evidence] == \
            [(s, t, [str(x) for x in v]) for s, t, v in expected.evidence]
        # one shared tuple per distinct vector
        ids = {}
        for _, _, v in got.evidence:
            ids.setdefault(v, set()).add(id(v))
        assert all(len(same) == 1 for same in ids.values())
    assert shortcuts >= 1


@pytest.mark.parametrize("algebra,text", [("bmw", "r=q^-1"),
                                          ("brauer", "z=4")])
def test_certify_memo_holds_no_specialized_data(algebra, text):
    spec = _spec(algebra, text)
    n = 5
    first = certify(algebra, n, spec)
    generic = certify(algebra, n)
    again = certify(algebra, n, spec)
    assert first.outcome == again.outcome == INCONCLUSIVE
    assert first.evidence == again.evidence
    assert [[str(x) for x in v] for _, _, v in first.evidence] == \
        [[str(x) for x in v] for _, _, v in again.evidence]
    assert generic.outcome == CERTIFIED_SEMISIMPLE
    assert generic.evidence == _pairwise_certify(algebra, n).evidence == []
    values, _ = specsim._content_classes(algebra, n)
    assert all(v.vars == spec.source_vars for v in values)


def test_certify_pole_still_raises():
    # Specialization refuses r = 0, so the image is set by hand: the
    # content q^(2(i-j)) r^-2 of a removal step then has a vanishing
    # denominator
    spec = Specialization.parse("r=2", BMW_VARS)
    spec.assignment["r"] = CoeffFraction.const(0, spec.target_vars)
    for n in (2, 4):
        with pytest.raises(PoleError) as got:
            certify("bmw", n, spec)
        with pytest.raises(PoleError) as expected:
            _pairwise_certify("bmw", n, spec)
        assert str(got.value) == str(expected.value)


# -- Gram-rank certification ---------------------------------------------------------

def test_gram_rank_follow_up_semisimple():
    assert gram_rank_certify("bmw", 3, SPEC_R_Q3).outcome == \
        CERTIFIED_SEMISIMPLE
    assert gram_rank_certify("brauer", 3, SPEC_Z4).outcome == \
        CERTIFIED_SEMISIMPLE


def test_gram_rank_detects_degeneracy():
    verdict = gram_rank_certify("brauer", 3,
                                Specialization.parse("z=1", BRAUER_VARS))
    assert verdict.outcome == CERTIFIED_NOT_SEMISIMPLE
    assert [(lam, r, dim) for lam, r, dim, _rad in verdict.evidence] == \
        [((1,), 1, 3)]
    assert verdict.evidence[0][3] == 2  # radical dimension


def test_verdict_cross_check_soundness():
    # whenever the rank route certifies a negative, the eigenvalue route
    # must not certify a positive
    for text in ("z=1", "z=0", "z=-2", "z=2", "z=4"):
        spec = Specialization.parse(text, BRAUER_VARS)
        for n in (2, 3, 4):
            g = gram_rank_certify("brauer", n, spec)
            c = certify("brauer", n, spec)
            if g.outcome == CERTIFIED_NOT_SEMISIMPLE:
                assert c.outcome != CERTIFIED_SEMISIMPLE


def test_gram_rank_symbolic_generic():
    assert gram_rank_certify("brauer", 4).outcome == CERTIFIED_SEMISIMPLE
    assert gram_rank_certify("bmw", 3).outcome == CERTIFIED_SEMISIMPLE


def _exact_gram_rank_certify(algebra, n, spec=None):
    """The rank criterion by exact elimination of every specialized Gram
    matrix, without the one-point certificate."""
    drops = []
    report = []
    for lam in layer_shapes(n):
        g = gram_matrix(algebra, lam, n)
        if spec is not None:
            g = [[spec.apply(x) for x in row] for row in g]
        dim = len(g)
        r = rank([list(row) for row in g])
        report.append((lam, r, dim))
        if r < dim:
            drops.append((lam, r, dim, dim - r))
    if drops:
        return Verdict(CERTIFIED_NOT_SEMISIMPLE, drops)
    return Verdict(CERTIFIED_SEMISIMPLE, report)


def _gram_certify_specs(algebra, n):
    if algebra == "brauer":
        texts = ["z={}".format(z) for z in range(-2 * n, 2 * n + 1)]
        texts += ["z={}/2".format(z) for z in range(-4 * n - 1, 4 * n + 2, 2)]
    else:
        texts = ["r={}q^{}".format(sign, k) for sign in ("", "-")
                 for k in range(-6, 7)]
        texts += ["q=1/2,r=2", "q=2,r=8", "q=-1/2,r=3"]
        # the certificate point is on a locus r = +-q^k, a pole of the
        # spec, or refused (r = 0), so every shape takes the exact rank
        texts += ["r=17", "q=17", "r=q-16", "r=1/(q-17)", "r=q-17"]
    vars = BMW_VARS if algebra == "bmw" else BRAUER_VARS
    return [None] + [Specialization.parse(t, vars) for t in texts]


@pytest.mark.parametrize("algebra", ["bmw", "brauer"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_rank_certify_matches_exact_reference(algebra, n):
    drops = 0
    for spec in _gram_certify_specs(algebra, n):
        got = gram_rank_certify(algebra, n, spec)
        expected = _exact_gram_rank_certify(algebra, n, spec)
        assert (got.outcome, got.evidence) == \
            (expected.outcome, expected.evidence), spec
        drops += got.outcome == CERTIFIED_NOT_SEMISIMPLE
    assert drops or n == 1


def test_gram_rank_certify_known_drops():
    # one numeric and one symbolic specialization with a rank drop
    for text in ("q=1/2,r=2", "r=-q^3"):
        spec = Specialization.parse(text, BMW_VARS)
        assert gram_rank_certify("bmw", 4, spec).outcome == \
            CERTIFIED_NOT_SEMISIMPLE


def _ranks_seen(monkeypatch):
    """Record the variable tuple of every matrix whose rank specsim takes."""
    seen = []

    def spy(matrix):
        seen.append(matrix[0][0].vars)
        return rank(matrix)

    monkeypatch.setattr(specsim, "rank", spy)
    return seen


# (algebra, n, spec, certificate point, whether some shape falls back to
# exact elimination).  A case falls back when its point is a root of a Gram
# determinant, a pole of the specialization, refused, or on a locus
# r = +-q^k that the spec is not on; each BMW spec also appears at a point
# that is none of these, where every shape is certified.
FALLBACK_CASES = [
    ("brauer", 3, None, (1,), True),            # z = 1: (1) drops
    ("brauer", 4, None, (2,), True),            # z = 2
    ("bmw", 2, None, (2, -2), True),            # r = -q
    ("bmw", 3, "r=q-2", (3,), True),            # r = q^0 at q = 3
    ("bmw", 3, "q=2", (-8,), True),             # r = -q^3
    ("bmw", 3, "r=1/(q-3)", (17,), False),
    ("bmw", 3, "r=1/(q-3)", (3,), True),        # pole
    ("bmw", 3, "r=q-3", (17,), False),
    ("bmw", 2, None, (17, 19), False),
    ("bmw", 3, "r=q-2", (17,), False),
    ("bmw", 3, "q=2", (17,), False),
    ("bmw", 4, "r=17", (23,), False),
    ("bmw", 3, "r=q-3", (3,), True),            # r = 0 is refused
]


@pytest.mark.parametrize("algebra,n,text,points,falls_back", FALLBACK_CASES)
def test_gram_rank_certify_forced_fallback(monkeypatch, algebra, n, text,
                                           points, falls_back):
    vars = BMW_VARS if algebra == "bmw" else BRAUER_VARS
    spec = None if text is None else Specialization.parse(text, vars)
    expected = _exact_gram_rank_certify(algebra, n, spec)
    seen = _ranks_seen(monkeypatch)
    gram_rank_certify(algebra, n, spec)
    # at CERTIFICATE_POINT, only "r=17" (on r = q there) falls back
    assert any(vars != () for vars in seen) == (text == "r=17")
    monkeypatch.setattr(specsim, "CERTIFICATE_POINT", points)
    seen.clear()
    got = gram_rank_certify(algebra, n, spec)
    assert (got.outcome, got.evidence) == (expected.outcome,
                                           expected.evidence)
    assert any(vars != () for vars in seen) == falls_back


@pytest.mark.parametrize("algebra,text", [
    ("bmw", "r=13"), ("bmw", "r=17"), ("bmw", "r=-q^3"), ("bmw", "q=2"),
    ("bmw", None), ("brauer", None)])
def test_equal_specs_share_certificate_points(algebra, text):
    # a spec parsed again gets the verdict of the first parse
    vars = BMW_VARS if algebra == "bmw" else BRAUER_VARS

    def parse():
        return None if text is None else Specialization.parse(text, vars)

    first, again = parse(), parse()
    fresh = gram_rank_certify(algebra, 3, first)
    reused = gram_rank_certify(algebra, 3, again)
    expected = _exact_gram_rank_certify(algebra, 3, first)
    assert ((fresh.outcome, fresh.evidence)
            == (reused.outcome, reused.evidence)
            == (expected.outcome, expected.evidence))


def test_gram_rank_certify_pole_still_raises():
    # as in test_certify_pole_still_raises: r = 0 set by hand, so the
    # certificate point is refused and exact elimination meets the pole
    spec = Specialization.parse("r=q", BMW_VARS)
    spec.assignment["r"] = CoeffFraction.const(0, spec.target_vars)
    with pytest.raises(PoleError):
        gram_rank_certify("bmw", 2, spec)
    with pytest.raises(PoleError):
        _exact_gram_rank_certify("bmw", 2, spec)


def test_gram_rank_certify_pole_at_the_point_still_raises(monkeypatch):
    # an entry with a pole on r = -q: the certificate point is a pole too,
    # and exact elimination raises
    trap = (CoeffFraction.var("q", BMW_VARS)
            + CoeffFraction.var("r", BMW_VARS)).inverse()
    monkeypatch.setattr(specsim, "gram_matrix", lambda a, lam, n: [[trap]])
    with pytest.raises(PoleError):
        gram_rank_certify("bmw", 2, Specialization.parse("r=-q", BMW_VARS))


# the working set's gram queries, and its gram-certify specs on every layer
WORKING_SET_GRAMS = [
    ("bmw", 4, (3, 1), "q=5,r=-3"), ("brauer", 4, (), "z=1/2"),
    ("bmw", 3, (1,), "r=q^-5"), ("bmw", 4, (1, 1), "r=q"),
    ("brauer", 5, (1,), "z=1/2"), ("brauer", 6, (), "z=-3"),
] + [(algebra, n, lam, text)
     for algebra, n, texts in (
         ("brauer", 3, ("z=-9/2", "z=-3", "z=2", "z=1/2")),
         ("brauer", 4, ("z=-9/2", "z=-5/2", "z=-3", "z=-6")),
         ("bmw", 3, ("q=-2,r=5", "q=1/2,r=2", "r=-q^-2", "r=q^-5")),
         ("bmw", 4, ("q=-2,r=5", "q=1/2,r=2", "r=-q^3", "r=-q^4")))
     for text in texts for lam in layer_shapes(n)]


@pytest.mark.parametrize("algebra,n,lam,text", WORKING_SET_GRAMS)
def test_apply_matrix_matches_per_entry_apply(algebra, n, lam, text):
    spec = Specialization.parse(text, _ops(algebra).vars)
    g = gram_matrix(algebra, lam, n)
    got = spec.apply_matrix(g)
    expected = [[spec.apply(x) for x in row] for row in g]
    assert got == expected
    assert [[str(x) for x in row] for row in got] == \
        [[str(x) for x in row] for row in expected]


def test_apply_matrix_pole_raises_as_per_entry_apply():
    # r = 0 set by hand (Specialization refuses it): the BMW Gram entries
    # carry powers of r in their denominators
    spec = Specialization.parse("r=q", BMW_VARS)
    spec.assignment["r"] = CoeffFraction.const(0, spec.target_vars)
    g = gram_matrix("bmw", (1,), 3)
    with pytest.raises(PoleError) as got:
        spec.apply_matrix(g)
    with pytest.raises(PoleError) as expected:
        [[spec.apply(x) for x in row] for row in g]
    assert str(got.value) == str(expected.value)
    # a pole after entries without one, repeated
    trap = CoeffFraction.var("r", BMW_VARS).inverse()
    one = CoeffFraction.const(1, BMW_VARS)
    with pytest.raises(PoleError):
        spec.apply_matrix([[one, one], [trap, trap]])


# -- Hom obstructions ----------------------------------------------------------------

def test_hom_obstruction_brauer_example():
    assert hom_obstruction("brauer", (3,), (1,), SPEC_Z4) is False
    spec_neg3 = Specialization.parse("z=-3", BRAUER_VARS)
    assert hom_obstruction("brauer", (3,), (1,), spec_neg3) is False
    spec_m2 = Specialization.parse("z=-2", BRAUER_VARS)
    assert hom_obstruction("brauer", (3,), (1,), spec_m2) is True


def test_hom_obstruction_equal_shapes():
    assert hom_obstruction("bmw", (2, 1), (2, 1)) is True
    assert hom_obstruction("brauer", (2, 1), (2, 1)) is True


def test_hom_obstruction_bmw_example():
    assert hom_obstruction("bmw", (3,), (1,), SPEC_R_Q3) is True
    assert hom_obstruction("bmw", (3,), (1,)) is False


def test_hom_obstruction_large_shapes():
    # r^2 = q^(2(c(98) - c(100))) = q^(6 - 4*100) holds at r = q^-197
    spec = Specialization(
        BMW_VARS, {"r": CoeffFraction.monomial(("q",), q=-197)}, ("q",))
    assert hom_obstruction("bmw", (100,), (98,), spec) is True
    assert hom_obstruction("bmw", (100,), (96,), spec) is False
    # exponents near 10^12 are decided without forming the powers
    big = (999999,)
    assert hom_obstruction("bmw", big, (1,)) is False
    assert hom_obstruction("bmw", big, (1,),
                           Specialization.parse("r=q+1", BMW_VARS)) is False
    assert hom_obstruction("brauer", big, (1,), SPEC_Z4) is False


# x^a == y^b needs x and y to be powers of one element; the pool mixes
# powers of q, of 2 and of q+1 with both signs
POWER_POOL = [parse_fraction("{}({})^{}".format(sign, base, k), ("q",))
              for sign in ("", "-") for base in ("q", "2", "q+1")
              for k in (-3, -2, -1, 0, 1, 2, 4)]


@settings(max_examples=200, deadline=None)
@given(x=st.sampled_from(POWER_POOL), a=st.integers(-6, 6),
       y=st.sampled_from(POWER_POOL), b=st.integers(-6, 6))
def test_power_identity_matches_direct_powers(x, a, y, b):
    assert _power_identity(x, a, y, b) == (x ** a == y ** b)


def test_hom_obstruction_parity_error():
    with pytest.raises(ValueError):
        hom_obstruction("bmw", (2,), (1,))
    with pytest.raises(ValueError):
        hom_obstruction("brauer", (1,), (3,))


# -- necessary-condition notes -------------------------------------------------------

def test_note_power_match():
    note = necessary_condition_note(SPEC_R_Q3)
    assert note["r_power_of_q"] == (-1, -3)
    assert note["matched"] is True


def test_note_generic_no_match():
    generic = Specialization(BMW_VARS, {}, BMW_VARS)
    note = necessary_condition_note(generic)
    assert note["q_root_of_unity"] is None
    assert note["r_power_of_q"] is None
    assert note["matched"] is False


def test_note_root_of_unity_via_minimal_polynomial():
    spec = Specialization(BMW_VARS, {"q": 2, "r": 3})
    note = necessary_condition_note(spec, q_minimal_poly=[1, 1, 1, 1, 1])
    assert note["q_root_of_unity"] == 5
    note2 = necessary_condition_note(spec, q_minimal_poly=[1, 1])  # q = -1
    assert note2["q_root_of_unity"] == 2
    note3 = necessary_condition_note(spec, q_minimal_poly=[1, 0, 1])
    assert note3["q_root_of_unity"] == 4


def test_rational_reconstruction_finds_every_fraction_in_its_bounds():
    # every a/b with |a| <= a_max, 0 < b <= b_max and b prime to m comes
    # back from its residue a * b^-1 mod m when 2 a_max b_max < m
    for m, a_max, b_max in ((7 ** 3, 12, 14), (2 ** 9, 15, 16), (101, 5, 10),
                            (3 ** 10, 40, 700)):
        assert 2 * a_max * b_max < m
        for b in range(1, b_max + 1):
            if gcd(b, m) != 1:
                continue
            for a in range(-a_max, a_max + 1):
                if gcd(a, b) == 1:
                    r = a * pow(b, -1, m) % m
                    assert (_rational_reconstruction(r, m, a_max, b_max)
                            == Fraction(a, b))


# -- conjecture harness --------------------------------------------------------------

def test_conjecture_polynomials():
    assert conjecture_poly(1) == bz("(z+2)*(z-1)")
    assert conjecture_poly(2) == bz("(z+4)*(z-2)*(z+2)*(z-1)")
    assert conjecture_poly(3) == bz("(z+6)*(z-3)*(z+1)*(z+4)*(z-2)*(z+2)*(z-1)")


def test_conjecture_evidence_three_strands():
    report = conjecture_evidence(3)
    assert report["lam"] == (1,)
    assert report["k"] == 1
    assert report["roots"] == [Fraction(-2), Fraction(1)]
    assert report["agrees"] is True
    assert report["nonlinear_remainder_degree"] == 0


def test_conjecture_evidence_five_strands():
    report = conjecture_evidence(5)
    assert report["lam"] == (1,)
    assert report["k"] == 2
    assert report["roots"] == [Fraction(-4), Fraction(-2), Fraction(1),
                               Fraction(2)]
    assert report["agrees"] is True
    assert report["nonlinear_remainder_degree"] == 0


def _roots(*values):
    return [Fraction(v) for v in values]


@pytest.mark.parametrize("n,report", [
    (5, {"n": 5, "k": 2, "lam": (1,), "roots": _roots(-4, -2, 1, 2),
         "expected_roots": _roots(-4, -2, 1, 2), "agrees": True,
         "nonlinear_remainder_degree": 0}),
    (6, {"n": 6, "k": 3, "lam": (), "roots": _roots(-4, -2, 0, 1, 2),
         "expected_roots": _roots(-6, -4, -2, -1, 0, 1, 2, 3),
         "agrees": False, "nonlinear_remainder_degree": 0}),
])
def test_conjecture_evidence_pinned(n, report):
    # the whole report; the benchmark digests cover conjecture only at
    # n = 3 and 4
    assert conjecture_evidence(n) == report


def test_conjecture_evidence_has_one_memo_entry_per_level():
    conjecture_evidence.cache_clear()
    report = conjecture_evidence(3)
    assert conjecture_evidence(3) is report
    assert conjecture_evidence.cache_info().currsize == 1
    conjecture_evidence.cache_clear()
    assert conjecture_evidence(3) == report
    with pytest.raises(ValueError):
        conjecture_evidence(1)
    assert conjecture_evidence.cache_info().currsize == 1


def test_conjecture_evidence_even_levels_reported_honestly():
    # the determinants at even levels are computed exactly and compared
    # verbatim; the harness reports, it does not assert
    report = conjecture_evidence(4)
    assert report["lam"] == ()
    assert report["roots"] == [Fraction(-2), Fraction(0), Fraction(1)]
    assert Fraction(0) in report["expected_roots"]
    report2 = conjecture_evidence(2)
    assert report2["roots"] == [Fraction(0)]
