"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q cellbench/tests
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import catalog  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _generated_queries(seed):
    return (catalog.cli_pass(seed, 0) + catalog.cli_pass(seed, 1)
            + catalog.working_set() + catalog.session_round(seed, 0)
            + catalog.session_round(seed, 1))


def test_same_seed_same_queries():
    assert _generated_queries(7) == _generated_queries(7)


def test_different_seed_different_queries():
    assert catalog.cli_pass(7, 0) != catalog.cli_pass(8, 0)
    assert catalog.session_round(7, 0) != catalog.session_round(8, 0)


def test_every_generated_query_has_a_digest():
    digests = catalog.load_digests()
    for seed in range(5):
        for query in _generated_queries(seed):
            assert catalog.key(query) in digests, query


def _answer(query):
    proc = subprocess.run(
        [sys.executable, "-m", "cellalg.cli"] + list(query) + ["--json"],
        cwd=run.ROOT, env=run.worker_env(), stdout=subprocess.PIPE,
        text=True, timeout=120)
    return proc.returncode, proc.stdout


def test_digest_gate_accepts_answer_and_rejects_tampered_result():
    digests = catalog.load_digests()
    query = catalog.tower_query("jm", "bmw", 3, (2, 1))
    code, out = _answer(query)
    assert catalog.check_output(query, code, out, digests) is None

    report = json.loads(out)
    report["timing"]["seconds"] += 1.0
    assert catalog.check_output(query, 0, json.dumps(report), digests) is None

    tampered = json.loads(out)
    tampered["result"]["diagonals"][0]["values"][-1] += "+1"
    assert catalog.check_output(query, 0, json.dumps(tampered), digests) == \
        "result digest differs"

    failing = json.loads(out)
    failing["result"]["ok"] = False
    assert "ok: false" in catalog.check_output(query, 0, json.dumps(failing),
                                               digests)
    assert catalog.check_output(query, 3, out, digests) == "exit code 3"
    other = catalog.tower_query("jm", "bmw", 3, (1,))
    assert catalog.check_output(other, 0, out, digests) == \
        "result digest differs"


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b calls a recursively over [6, 8].
    spans = [
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),
        (3, 0, 5.0, 9.0),
        (1, 3, 6.0, 8.0),
        (1, 4, 6.5, 7.0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 1.5, 0.5]
    table = tracing.summarize(spans, ["root", "a", "c", "b"])
    assert table["root"] == [1, 3.0, 10.0]
    # a: three calls, self 2 + 1.5 + 0.5; the call nested in a is not
    # counted again in a's inclusive time.
    assert table["a"] == [3, 4.0, 5.0]
    assert table["b"] == [1, 2.0, 4.0]
    assert table["c"] == [1, 1.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_them():
    from cellalg import cli, towers
    original = towers.ordered_paths
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.ordered_paths is towers.ordered_paths is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["dim", "--algebra", "brauer", "--n", "3"]) == 0
        table = tracer.take_summary()
    finally:
        tracer.uninstall()
    assert cli.ordered_paths is towers.ordered_paths is original
    assert table["cli.run"][0] == 1
    assert table["towers.ordered_paths"][0] >= 1
    assert tracer.spans == []


class _ListedSpeed:
    """A speed reference whose samples are read from a list."""

    def __init__(self, samples):
        self.samples = list(samples)
        self.spent = {"timed": 0.0}

    def sample(self, phase):
        return self.samples.pop(0)


def test_steps_are_scaled_by_the_reference_samples_around_them():
    ref = run.REFERENCE_S
    stream = run.Stream(_ListedSpeed([ref, 2 * ref, 2 * ref, ref]))
    stream.add(1.0)             # between ref and 2 ref: 1.5 times slower
    stream.add(3.0, ok=False)   # a failed query is not timed
    stream.add(2.0)             # between 2 ref and ref
    assert stream.latencies == [1.0, 2.0]
    assert stream.scaled == pytest.approx([1.0 / 1.5, 2.0 / 1.5])
    stream.seconds = 4.0
    assert stream.scaled_wall() == pytest.approx(4.0 / 1.5)


def test_peak_rss_comes_from_worker_children():
    before = run.peak_child_rss_mb()
    code = ("b = bytearray(160 * 1024 * 1024)\n"
            "for i in range(0, len(b), 4096): b[i] = 1\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    after = run.peak_child_rss_mb()
    assert after >= 160 > before
