"""The cellalg benchmark: one closed-loop client, three workloads.

    python3 cellbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; workers import ``cellalg`` from its
``src/``.  One driver process runs at most one worker child at a time.
Every answer is checked against a stored digest (``catalog.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  NOTES.md says what
each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import catalog
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

WORKLOADS = ("cold_cli", "cached_cli", "warm_session")
COLD_SETUP_REPEATS = 5
# A run must end within 180 s: no query starts after RUN_BUDGET_S, and none
# may run longer than QUERY_TIMEOUT_S or past HARD_STOP_S.
RUN_BUDGET_S = 140.0
QUERY_TIMEOUT_S = 60.0
HARD_STOP_S = 170.0

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# The machine speed reference: a fixed piece of pure-Python work, timed
# before the first step of a phase (set-up or the timed queries) and after
# each step.  The host's speed drifts by a quarter or more over seconds, and
# the program's times drift with it.  Each step's time is scaled by the mean
# of the two reference samples around it, to a machine on which one sample
# takes REFERENCE_S (about its median on the machine the figures in NOTES.md
# come from); a phase's wall time is scaled by its steps' total scaled time
# over their total measured time.
REFERENCE_ITERS = 60000
REFERENCE_S = 0.011


def reference_work(iterations=REFERENCE_ITERS):
    """Small-integer arithmetic and dict stores, the interpreter work that
    dominates cellalg."""
    table = {}
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    return acc


class SpeedReference:
    """Reference samples of a run, one list per phase ("setup", "timed")."""

    def __init__(self):
        self.samples = {"setup": [], "timed": []}
        self.spent = {"setup": 0.0, "timed": 0.0}

    def sample(self, phase):
        """Time the reference work once; its duration."""
        start = time.perf_counter()
        reference_work()
        seconds = time.perf_counter() - start
        self.samples[phase].append(seconds)
        self.spent[phase] += seconds
        return seconds

    def slowdown(self, phase):
        """How much slower than the reference machine the phase ran."""
        return statistics.median(self.samples[phase]) / REFERENCE_S


class Stream:
    """The steps of one phase of a run (queries, spawns, cache writes): their
    times as measured and as scaled, and the wall time of the phase without
    the reference samples in it."""

    def __init__(self, speed, phase="timed"):
        self.speed = speed
        self.phase = phase
        self.latencies = []
        self.scaled = []
        self.before = speed.sample(phase)
        self.spent = speed.spent[phase]
        self.start = time.perf_counter()
        self.seconds = None

    def add(self, seconds, ok=True):
        after = self.speed.sample(self.phase)
        if ok:
            self.latencies.append(seconds)
            self.scaled.append(seconds * 2 * REFERENCE_S
                               / (self.before + after))
        self.before = after

    def wall(self):
        return (time.perf_counter() - self.start
                - (self.speed.spent[self.phase] - self.spent))

    def stop(self):
        self.seconds = self.wall()

    def scaled_wall(self):
        """The phase's wall time so far, or up to stop(), on the reference
        machine."""
        seconds = self.wall() if self.seconds is None else self.seconds
        if not self.latencies:
            return seconds
        return seconds * sum(self.scaled) / sum(self.latencies)


class BenchError(Exception):
    """The benchmark cannot measure; exit without a result."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Set iteration order feeds elimination order; a fixed hash seed makes
    # the per-layer call counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_child_rss_mb():
    """Largest peak RSS among the child processes waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Client:
    """State of one run: the clock budget and the tally of checked queries."""

    def __init__(self, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.env = worker_env()
        self.digests = catalog.load_digests()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.speed = SpeedReference()

    def elapsed(self):
        return time.perf_counter() - self.t0

    def may_start(self):
        return self.elapsed() < RUN_BUDGET_S

    def timeout(self):
        return max(1.0, min(QUERY_TIMEOUT_S, HARD_STOP_S - self.elapsed()))

    def record(self, query, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append("{}: {}".format(catalog.key(query), error))
        return error is None

    def spawn(self, cmd):
        """Run a worker to completion; (seconds, exit code, stdout)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=self.timeout())
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None, ""
        return time.perf_counter() - start, proc.returncode, proc.stdout

    def cli_query(self, query, cache_dir=None, trace_out=None):
        """One query as a fresh process; (latency, ok)."""
        argv = list(query) + ["--json"]
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "cellalg.cli"] + argv
        else:
            cmd = [sys.executable, str(WORKER), "cli", str(trace_out)] + argv
        seconds, code, out = self.spawn(cmd)
        error = ("timeout" if code is None
                 else catalog.check_output(query, code, out, self.digests))
        return seconds, self.record(query, error)

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


class Session:
    """A long-lived worker answering one request at a time over pipes."""

    def __init__(self, client):
        self.client = client
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "session"], cwd=ROOT,
            env=client.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self.buffer = b""
        try:
            self._read()
        except (TimeoutError, EOFError) as exc:
            self.close()
            raise BenchError("session worker did not start: {}".format(exc))

    def _read(self):
        fd = self.proc.stdout.fileno()
        deadline = time.perf_counter() + self.client.timeout()
        while b"\n" not in self.buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError("session worker did not answer")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError("session worker exited")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def request(self, obj):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()
        return self._read()

    def query(self, query):
        """(latency, ok); the latency is the request's round trip."""
        start = time.perf_counter()
        try:
            reply = self.request({"argv": list(query) + ["--json"]})
        except (TimeoutError, EOFError) as exc:
            self.client.record(query, str(exc))
            raise BenchError("session worker failed: {}".format(exc))
        seconds = time.perf_counter() - start
        error = catalog.check_output(query, reply["rc"], reply["out"],
                                     self.client.digests)
        return seconds, self.client.record(query, error)

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- workloads -----------------------------------------------------------------------
# Each returns (the timed Stream, the set-up Stream, per-layer metrics or
# None).

def _cold_setup(client):
    """Spawn and import, the part of a CLI call that precedes the query:
    the set-up Stream of COLD_SETUP_REPEATS spawns."""
    setup = Stream(client.speed, "setup")
    for _ in range(COLD_SETUP_REPEATS):
        seconds, code, _ = client.spawn(
            [sys.executable, "-c", "import cellalg.cli"])
        if code != 0:
            raise BenchError("cellalg does not import")
        setup.add(seconds)
    setup.stop()
    return setup


def _write_caches(client, cache_dir, trace):
    """``cellalg cache`` for each (algebra, n) of the panel; the set-up
    Stream, and the function table of the traced writers or None."""
    functions = {} if trace else None
    setup = Stream(client.speed, "setup")
    for algebra, n in catalog.GROUPS:
        argv = ["cache", "--algebra", algebra, "--n", str(n),
                "--cache-dir", str(cache_dir), "--json"]
        trace_out = client.scratch / "cache-trace.json"
        if trace:
            cmd = [sys.executable, str(WORKER), "cli", str(trace_out)] + argv
        else:
            cmd = [sys.executable, "-m", "cellalg.cli"] + argv
        seconds, code, out = client.spawn(cmd)
        if code != 0 or json.loads(out)["result"]["status"] != "written":
            raise BenchError("cache write failed for {} n={}".format(
                algebra, n))
        setup.add(seconds)
        if trace:
            with open(trace_out) as handle:
                tracing.merge_tables(functions, json.load(handle)["functions"])
    setup.stop()
    return setup, functions


def cli_workload(client, cached, trace):
    cache_dir = None
    cache_functions = None
    if cached:
        cache_dir = client.scratch / "cache"
        setup, cache_functions = _write_caches(client, cache_dir, trace)
    else:
        setup = _cold_setup(client)

    layer = LayerTally() if trace else None
    stream = Stream(client.speed)
    index = 0
    while client.may_start():
        for position, query in enumerate(catalog.cli_pass(client.seed, index)):
            if not client.may_start():
                break
            if not trace:
                stream.add(*client.cli_query(query, cache_dir))
                continue
            # Traced and untraced calls of the same query, alternating which
            # goes first; their ratio is the tracing overhead.
            trace_out = client.scratch / "trace.json"
            plain_first = position % 2 == 0
            for traced in ((False, True) if plain_first else (True, False)):
                seconds, ok = client.cli_query(
                    query, cache_dir, trace_out if traced else None)
                if traced and ok:
                    with open(trace_out) as handle:
                        layer.add_process(json.load(handle), seconds)
                elif ok:
                    stream.add(seconds, ok)
                    layer.untraced_s += seconds
        index += 1
        if stream.scaled_wall() >= client.seconds:
            break
    stream.stop()

    metrics = None
    if trace:
        if cached:
            layer.cache_write_s = inclusive_s(cache_functions,
                                               "cli._write_cache")
            layer.cache_bytes = sum(p.stat().st_size
                                    for p in cache_dir.glob("*.json"))
        metrics = layer.metrics()
    return stream, setup, metrics


def session_workload(client, trace):
    setup = Stream(client.speed, "setup")
    start = time.perf_counter()
    session = Session(client)
    setup.add(time.perf_counter() - start)
    try:
        for query in catalog.working_set():
            if not client.may_start():
                raise BenchError("warm-up did not finish in the run budget")
            setup.add(*session.query(query))
        setup.stop()

        def rounds(stream, count=None, seconds=None):
            index = 0
            while client.may_start() and (count is None or index < count):
                for query in catalog.session_round(client.seed, index):
                    stream.add(*session.query(query))
                index += 1
                if seconds is not None and \
                        stream.scaled_wall() >= seconds:
                    break
            stream.stop()
            return index

        untraced = Stream(client.speed)
        if not trace:
            rounds(untraced, seconds=client.seconds)
            return untraced, setup, None

        # The same rounds untraced, then traced, in one warm process.
        count = rounds(untraced, seconds=client.seconds / 2)
        session.request({"op": "trace", "on": True})
        before = session.request({"op": "summary"})["memo"]
        traced = Stream(client.speed)
        rounds(traced, count=count)
        summary = session.request({"op": "summary"})
        session.request({"op": "trace", "on": False})
    finally:
        session.close()
    layer = LayerTally()
    layer.add_session(summary, before, traced.latencies, untraced.latencies)
    return untraced, setup, layer.metrics()


# -- per-layer metrics ---------------------------------------------------------------

def inclusive_s(functions, name):
    return functions.get(name, [0, 0.0, 0.0])[2]


class LayerTally:
    """Span totals of the traced queries of a run, and what they yield."""

    def __init__(self):
        self.functions = {}
        self.memo = {layer: [0, 0, 0] for layer in tracing.LAYERS}
        self.memo_entries = []
        self.queries = 0
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.cache_write_s = 0.0
        self.cache_bytes = 0

    def add_process(self, summary, seconds):
        """Fold in one traced process: spans, memo counters, latency."""
        tracing.merge_tables(self.functions, summary["functions"])
        for name, counts in summary["memo"].items():
            self.memo[name] = [a + b for a, b in zip(self.memo[name], counts)]
        self.memo_entries.append(sum(v[2] for v in summary["memo"].values()))
        self.queries += 1
        self.traced_s += seconds

    def add_session(self, summary, memo_before, traced, untraced):
        """Take the traced rounds of a session: spans, the memo counters'
        growth over them, and the latencies of the same rounds untraced."""
        self.functions = summary["functions"]
        self.memo = {name: [a - b for a, b in zip(counts, memo_before[name])]
                     for name, counts in summary["memo"].items()}
        self.memo_entries = [sum(v[2] for v in summary["memo"].values())]
        self.queries = len(traced)
        self.traced_s = sum(traced)
        self.untraced_s = sum(untraced)

    def metrics(self):
        per = max(self.queries, 1)
        f = self.functions

        def layer_sum(layer, column):
            return sum(row[column] for name, row in f.items()
                       if name.startswith(layer + "."))

        def hit_ratio(layer):
            hits, misses = self.memo[layer][0], self.memo[layer][1]
            return hits / (hits + misses) if hits + misses else 0.0

        values = {
            "exactring.gcd_calls": (f.get("exactring.poly_gcd", [0])[0] / per,
                                    "calls/query"),
            "exactring.gcd_s": (inclusive_s(f, "exactring.poly_gcd") / per,
                                "s/query"),
            "exactring.parse_s": (
                inclusive_s(f, "exactring.parse_fraction") / per, "s/query"),
            "exactring.specialize_s": (
                inclusive_s(f, "exactring.Specialization.apply") / per,
                "s/query"),
        }
        for layer in ("linalg", "combin", "hecke", "bmw", "brauer", "towers",
                      "specsim"):
            values[layer + ".calls"] = (layer_sum(layer, 0) / per,
                                        "calls/query")
            values[layer + ".self_s"] = (layer_sum(layer, 1) / per, "s/query")
        values.update({
            "linalg.rank_s": (inclusive_s(f, "linalg.rank") / per, "s/query"),
            "bmw.gen_matrix_calls": (
                f.get("bmw.bmw_gen_matrix", [0])[0] / per, "calls/query"),
            "bmw.memo_hit_ratio": (hit_ratio("bmw"), "ratio"),
            "brauer.gram_s": (inclusive_s(f, "brauer.br_gram") / per,
                              "s/query"),
            "brauer.memo_hit_ratio": (hit_ratio("brauer"), "ratio"),
            "towers.path_basis_s": (
                inclusive_s(f, "towers.build_path_basis") / per, "s/query"),
            "towers.memo_hit_ratio": (hit_ratio("towers"), "ratio"),
            "specsim.certify_s": (inclusive_s(f, "specsim.certify") / per,
                                  "s/query"),
            "specsim.det_s": (inclusive_s(f, "specsim._det") / per,
                              "s/query"),
            "cli.self_s": (layer_sum("cli", 1) / per, "s/query"),
            "cli.cache_load_s": (inclusive_s(f, "cli._load_cache") / per,
                                 "s/query"),
            "cli.cache_write_s": (self.cache_write_s, "s"),
            "cli.cache_bytes": (self.cache_bytes, "B"),
            "memo.entries": (statistics.mean(self.memo_entries)
                             if self.memo_entries else 0, "entries"),
            "tracing_overhead_frac": (
                self.traced_s / self.untraced_s - 1.0
                if self.untraced_s else 0.0, "ratio"),
        })
        return values


# -- result --------------------------------------------------------------------------

def provenance():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cellalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pythonhashseed": "0",
    }


def end_to_end(stream, setup, cold, scaled=True):
    """The end-to-end metrics, scaled to the reference machine or as
    measured.  Set-up on ``cold`` is the median spawn, else its wall time."""
    latencies = stream.scaled if scaled else stream.latencies
    wall = stream.scaled_wall() if scaled else stream.seconds
    if cold:
        setup_s = statistics.median(setup.scaled if scaled
                                    else setup.latencies)
    else:
        setup_s = setup.scaled_wall() if scaled else setup.seconds
    return {
        "queries_per_s": len(latencies) / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8]
                          if len(latencies) > 1 else latencies[0]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_child_rss_mb(),
    }


def run(args):
    client = Client(args.seed, args.seconds)
    try:
        if args.workload == "warm_session":
            stream, setup, layer = session_workload(client, args.trace)
        else:
            stream, setup, layer = cli_workload(
                client, args.workload == "cached_cli", args.trace)
    finally:
        client.close()

    latencies = stream.latencies
    if not latencies:
        raise BenchError("no query succeeded")
    slowdown = {phase: client.speed.slowdown(phase)
                for phase in ("setup", "timed")}
    cold = args.workload == "cold_cli"
    raw = end_to_end(stream, setup, cold, scaled=False)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(layer.items())}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(stream, setup,
                                                 cold).items()}
    failed_frac = client.failed / client.attempted
    print("{} seed={} trace={}: {} timed queries, {} attempted, {} failed, "
          "failed_frac {:.4f}".format(args.workload, args.seed, args.trace,
                                      len(latencies), client.attempted,
                                      client.failed, failed_frac))
    print("machine slowdown against the reference: set-up {:.3f}, "
          "timed {:.3f}".format(slowdown["setup"], slowdown["timed"]))
    for name, entry in metrics.items():
        print("  {:<26} {:>14.6g} {}".format(name, entry["value"],
                                            entry["unit"]))
    if not args.trace:
        print("as measured: " + ", ".join(
            "{} {:.6g}".format(name, value) for name, value in raw.items()))
    for failure in client.failures[:5]:
        print("failed: " + failure, file=sys.stderr)
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds,
                  timed_queries=len(latencies), failed_frac=failed_frac,
                  latencies=latencies, scaled_latencies=stream.scaled,
                  as_measured=raw, slowdown=slowdown,
                  reference_samples=client.speed.samples,
                  provenance=provenance())
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / "{}-seed{}-trace{}.json".format(
            args.workload, args.seed, args.trace), "w") as handle:
        json.dump(record, handle, indent=1)
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cellalg" / "cli.py").is_file():
        print("error: no cellalg sources under {}".format(SRC),
              file=sys.stderr)
        return 2
    if not catalog.DIGESTS_PATH.is_file():
        print("error: missing {}".format(catalog.DIGESTS_PATH),
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        run(args)
    except BenchError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
