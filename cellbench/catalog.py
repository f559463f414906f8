"""Query catalog, seeded query generation and the result-digest gate.

A query is a tuple of ``cellalg`` CLI arguments without ``--json`` and
``--cache-dir``; its key is the arguments joined by spaces.  Every query any
seed can generate has a stored digest in ``digests.json``: the SHA-256 of
the JSON report with its ``timing`` field removed, as the program printed it
when the digests were made (``make_digests.py``).
"""

import hashlib
import json
import random
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# (algebra, n) pairs of the tower catalog.
GROUPS = (("bmw", 3), ("brauer", 4), ("bmw", 4), ("brauer", 5))
TOWER_COMMANDS = ("basis", "transition", "jm", "filtration", "gram")


def _shape(lam):
    return ",".join(str(p) for p in lam) if lam else "()"


def tower_query(command, algebra, n, lam):
    return (command, "--algebra", algebra, "--n", str(n),
            "--lambda", _shape(lam))


def key(query):
    return " ".join(query)


# -- cold_cli and cached_cli ---------------------------------------------------------

# The CLI panel: one fixed list of tower queries that every run of cold_cli and
# cached_cli covers in full, in a seeded order.  It spans every group, every
# command and every layer f = (n - |lambda|)/2.  Two queries pay cold for the
# Murphy solver behind the f = 0 shapes of BMW n = 4 and Brauer n = 5 (3 s and
# 6 s), one for the dense Brauer gram solver (1.3 s); about 35 cheap ones
# (0.15-0.35 s) hold the median.  The p90 falls in the next tier, five queries
# of 0.5-0.7 s cold.  With five f = 0 queries at 3-6 s instead, the p90 lay
# on the cheapest of them and followed the noise of that one process.  A panel
# fixed in content keeps the median and tail comparable between seeds: with
# costs spread over two orders of magnitude, a seeded sample of shapes moved
# the p90 and the throughput by more than a fifth from seed to seed.
#
# gram is limited to shapes that finish in seconds at the seed; BMW n = 4
# lambda = (2), (1,1) and most Brauer n = 5 shapes take minutes (NOTES.md).
def _all_commands(algebra, n, lam):
    return tuple(tower_query(c, algebra, n, lam) for c in TOWER_COMMANDS)


CLI_PANEL = (
    _all_commands("bmw", 3, (2, 1)) + _all_commands("bmw", 3, (1,)) + (
        tower_query("gram", "bmw", 3, (3,)),
        tower_query("jm", "bmw", 3, (1, 1, 1)),
    )
    + _all_commands("brauer", 4, (2,)) + _all_commands("brauer", 4, ()) + (
        tower_query("filtration", "brauer", 4, (2, 2)),
        tower_query("transition", "brauer", 4, (3, 1)),
        tower_query("gram", "brauer", 4, (2, 1, 1)),
    )
    + _all_commands("bmw", 4, ()) + (
        tower_query("basis", "bmw", 4, (1, 1)),
        tower_query("transition", "bmw", 4, (1, 1)),
        tower_query("filtration", "bmw", 4, (2,)),
        tower_query("jm", "bmw", 4, (2,)),
        tower_query("gram", "bmw", 4, (2, 1, 1)),
    )
    + _all_commands("brauer", 5, (1,)) + (
        tower_query("jm", "brauer", 5, (2, 1)),
        tower_query("transition", "brauer", 5, (1, 1, 1)),
        tower_query("filtration", "brauer", 5, (4, 1)),
    )
)


def cli_pass(seed, index):
    """Pass ``index`` of a CLI run: the panel in an order drawn from the
    seed and the pass number."""
    queries = list(CLI_PANEL)
    random.Random("cli-{}-{}".format(seed, index)).shuffle(queries)
    return queries


# -- warm_session ----------------------------------------------------------------------

def _queries(text):
    return tuple(tuple(line.split()) for line in text.strip().splitlines())


# The session working set, in three tiers by their cost in a warm process at
# the commit the digests come from.  It covers certify at n = 3...6 for both
# algebras over integer and half-integer z, r = +-q^k and numeric q, r;
# gram-certify at n <= 4; gram --spec, hom and conjecture; and memo-hit tower
# queries.  The sizes of the tiers place the median in the middle of the
# medium tier and the 90th percentile inside the heavy tier, two thirds of the
# way up, where neighbouring queries cost about the same.  A working set whose
# median or p90 fell on the step between two tiers moved them by a quarter
# from run to run, as single queries landed on one side or the other.
SESSION_LIGHT = _queries("""
hom --algebra brauer --lambda 3,1 --mu 1,1 --spec z=10
hom --algebra brauer --lambda 4,1 --mu 2,1 --spec z=7/2
hom --algebra bmw --lambda 2,1 --mu 1 --spec r=q
hom --algebra bmw --lambda 4 --mu 2 --spec q=3,r=-1/2
transition --algebra bmw --n 3 --lambda 1
basis --algebra brauer --n 5 --lambda 4,1
basis --algebra bmw --n 4 --lambda ()
filtration --algebra brauer --n 4 --lambda 2
certify --algebra brauer --n 3 --spec z=-5/2
certify --algebra bmw --n 3 --spec r=q^3
certify --algebra brauer --n 4 --spec z=4
certify --algebra brauer --n 4 --spec z=13/2
certify --algebra bmw --n 4 --spec q=1/2,r=2
gram --algebra bmw --n 4 --lambda 3,1 --spec q=5,r=-3
gram --algebra brauer --n 4 --lambda () --spec z=1/2
gram-certify --algebra bmw --n 3 --spec q=-2,r=5
gram-certify --algebra bmw --n 3 --spec q=1/2,r=2
conjecture --n 3
conjecture --n 4
""")
# About 15-30 ms each; the light tier above takes 3-10 ms.
SESSION_MEDIUM = _queries("""
gram-certify --algebra brauer --n 3 --spec z=-9/2
gram-certify --algebra brauer --n 3 --spec z=-3
gram-certify --algebra brauer --n 3 --spec z=2
gram-certify --algebra brauer --n 3 --spec z=1/2
gram-certify --algebra bmw --n 3 --spec r=-q^-2
gram-certify --algebra bmw --n 3 --spec r=q^-5
gram-certify --algebra bmw --n 4 --spec q=-2,r=5
gram-certify --algebra bmw --n 4 --spec q=1/2,r=2
jm --algebra bmw --n 3 --lambda 1
filtration --algebra bmw --n 4 --lambda ()
certify --algebra brauer --n 5 --spec z=7/2
certify --algebra brauer --n 5 --spec z=-9/2
certify --algebra brauer --n 5 --spec z=10
certify --algebra brauer --n 5 --spec z=1
certify --algebra bmw --n 4 --spec r=-q^-2
certify --algebra bmw --n 4 --spec r=q
certify --algebra bmw --n 5 --spec q=3,r=-1/2
certify --algebra bmw --n 5 --spec q=5,r=-3
gram --algebra bmw --n 3 --lambda 1 --spec r=q^-5
gram --algebra bmw --n 4 --lambda 1,1 --spec r=q
""")
# About 0.08-0.8 s each; the five gram-certify at Brauer n = 4 and BMW
# n = 6 certify over r = +-q^k form the plateau near 0.5 s that holds p90.
SESSION_HEAVY = _queries("""
jm --algebra brauer --n 5 --lambda 2,1
certify --algebra bmw --n 5 --spec r=-q^-2
certify --algebra bmw --n 5 --spec r=q
certify --algebra brauer --n 6 --spec z=-9/2
certify --algebra brauer --n 6 --spec z=13/2
certify --algebra brauer --n 6 --spec z=4
certify --algebra brauer --n 6 --spec z=2
gram --algebra brauer --n 5 --lambda 1 --spec z=1/2
gram --algebra brauer --n 6 --lambda () --spec z=-3
certify --algebra bmw --n 6 --spec q=-2,r=5
certify --algebra bmw --n 6 --spec q=1/2,r=2
gram-certify --algebra bmw --n 4 --spec r=-q^3
gram-certify --algebra brauer --n 4 --spec z=-9/2
gram-certify --algebra brauer --n 4 --spec z=-5/2
gram-certify --algebra brauer --n 4 --spec z=-3
gram-certify --algebra brauer --n 4 --spec z=-6
certify --algebra bmw --n 6 --spec r=-q^4
certify --algebra bmw --n 6 --spec r=q^-5
gram-certify --algebra bmw --n 4 --spec r=-q^4
""")


def working_set():
    """The distinct queries of the session, the same for every seed."""
    return list(SESSION_LIGHT + SESSION_MEDIUM + SESSION_HEAVY)


def session_round(seed, index):
    """Round ``index`` of a warm_session stream: every working-set query once,
    in an order drawn from the seed and the round number.  Rounds repeat the
    working set, so after the warm-up every query is a repeat.  A stream that
    drew each slot at random from its class moved the p50 by a third from
    seed to seed: the median fell between cost clusters, and which cluster
    held it depended on the draws."""
    queries = working_set()
    random.Random("session-{}-{}".format(seed, index)).shuffle(queries)
    return queries


def all_queries():
    """Every query a seed can generate, each once, in a fixed order."""
    out = list(CLI_PANEL) + working_set()
    seen = set()
    return [q for q in out if not (q in seen or seen.add(q))]


# -- digest gate ---------------------------------------------------------------------

def report_digest(report):
    """SHA-256 of a JSON report without its ``timing`` field."""
    body = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests(path=DIGESTS_PATH):
    with open(path) as handle:
        return json.load(handle)


def check_output(query, returncode, stdout, digests):
    """None if the program answered ``query`` correctly, else the reason."""
    if returncode != 0:
        return "exit code {}".format(returncode)
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if not isinstance(report, dict) or not isinstance(
            report.get("result"), dict):
        return "report has no result"
    if report["result"].get("ok") is False:
        return "report says ok: false"
    expected = digests.get(key(query))
    if expected is None:
        return "no stored digest"
    if report_digest(report) != expected:
        return "result digest differs"
    return None
