import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellalg import cli, specsim, towers
from cellalg import bmw as _bmw
from cellalg import brauer as _brauer
from cellalg.combin import layer_shapes
from cellalg.exactring import (
    BMW_VARS,
    CoeffFraction,
    Specialization,
    bmw_z,
    parse_fraction,
)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def without_timing(report):
    report = dict(report)
    report.pop("timing")
    return report


@pytest.fixture(autouse=True)
def clean_overrides():
    yield
    _bmw._gen_matrix_overrides.clear()
    _brauer._gen_matrix_overrides.clear()


# -- documented example invocations --------------------------------------------------

def test_gram_bmw_n3_json(capsys):
    report = run_json(capsys, ["gram", "--algebra", "bmw", "--n", "3",
                               "--lambda", "1", "--json"])
    matrix = report["result"]["matrix"]
    assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
    entry = parse_fraction(matrix[1][1], BMW_VARS)
    expected = bmw_z() + parse_fraction("(q-q^-1)(r-r^-1)", BMW_VARS)
    assert entry == expected
    det = parse_fraction(report["result"]["determinant"], BMW_VARS)
    assert det == parse_fraction("(r-1)^2(r+1)^2(q^3+r)(q^3r-1)", BMW_VARS) \
        / parse_fraction("r^3(q-1)^3(q+1)^3", BMW_VARS)


def test_dim_brauer_n1(capsys):
    report = run_json(capsys, ["dim", "--algebra", "brauer", "--n", "1",
                               "--json"])
    assert report["result"]["total"] == 1
    report3 = run_json(capsys, ["dim", "--algebra", "brauer", "--n", "3",
                                "--json"])
    assert report3["result"]["total"] == 15
    assert report3["result"]["double_factorial"] == 15


def test_certify_brauer_z4_then_gram_certify(capsys):
    report = run_json(capsys, ["certify", "--algebra", "brauer", "--n", "3",
                               "--spec", "z=4", "--json"])
    assert report["result"]["outcome"] == "Inconclusive"
    witnesses = report["result"]["witnesses"]
    assert {
        "path_s": [[], [1], [1, 1], [1]],
        "path_t": [[], [1], [1, 1], [1, 1, 1]],
        "shared_vector": ["0", "-1", "-2"],
    } in witnesses
    follow = run_json(capsys, ["gram-certify", "--algebra", "brauer",
                               "--n", "3", "--spec", "z=4", "--json"])
    assert follow["result"]["outcome"] == "CertifiedSemisimple"


CERTIFY_Z4_N4_TEXT = """\
eigenvalue-vector criterion for brauer at n=4: Inconclusive
  collision: () -> 1 -> 2 -> 2,1 -> 2  and  () -> 1 -> 2 -> 2,1 -> 2,1,1  share  (0, 1, -1, -2)
  collision: () -> 1 -> 1,1 -> 1 -> ()  and  () -> 1 -> 1,1 -> 1,1,1 -> 1,1,1,1  share  (0, -1, -2, -3)
  collision: () -> 1 -> 1,1 -> 1 -> 2  and  () -> 1 -> 1,1 -> 1,1,1 -> 2,1,1  share  (0, -1, -2, 1)
  collision: () -> 1 -> 1,1 -> 2,1 -> 2  and  () -> 1 -> 1,1 -> 2,1 -> 2,1,1  share  (0, -1, 1, -2)
"""
# SHA-256 of the sorted-key JSON report without timing
CERTIFY_Z4_N4_JSON = \
    "846e70b82705394cb1c5ae28f229e413dc287ca966fd91b51da7852362db8790"


def test_certify_text_and_json_reports_pinned(capsys):
    argv = ["certify", "--algebra", "brauer", "--n", "4", "--spec", "z=4"]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == CERTIFY_Z4_N4_TEXT
    report = without_timing(run_json(capsys, argv + ["--json"]))
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == CERTIFY_Z4_N4_JSON
    # the JSON witnesses are the text's collision lines
    witnesses = report["result"]["witnesses"]
    assert len(witnesses) == CERTIFY_Z4_N4_TEXT.count("collision:") == 4
    assert witnesses[0]["shared_vector"] == ["0", "1", "-1", "-2"]


# SHA-256 of the text output (no --json) of one query per subcommand
TEXT_REPORTS = {
    "dim --algebra brauer --n 4":
        "9452063e171775c69cc6e60857d8576ffea4bdafcc7304b728809c06e25a1452",
    "basis --algebra bmw --n 3 --lambda 1":
        "66a29f120023601c8b21f40854e0e012a03ca15fc818e0409a1d39739e3e3b86",
    "gram --algebra bmw --n 3 --lambda 1":
        "3ac799d2437776a00dd7a0c4e17067f0415113e3685fd3b28253685d13f03fe2",
    "gram --algebra brauer --n 4 --lambda 2 --spec z=3":
        "3ba0c029c17c6f9196e7d5a7ec5f419eb719ea19192d83f025c765adc72a3152",
    "transition --algebra bmw --n 3 --lambda 1":
        "cd230812313351d8c7bd80a0b95fa13c2888e032b8268215b3ae1975ad2f612e",
    "jm --algebra bmw --n 3 --lambda 1":
        "8650733cbdfcf2d554cb550b7433f3fdf36e89c557aff9d16bd5c73f73ade58a",
    "filtration --algebra brauer --n 4 --lambda 2":
        "6be8c237805abc7bb793046d2451cd8de000ab771eb3e838579c25c196313b52",
    "certify --algebra brauer --n 4 --spec z=4":
        "8d16de0bacfe55f998284f7a721d885bfaefa3fced63d4a0d750e94dc2daadcc",
    "gram-certify --algebra brauer --n 3 --spec z=1":
        "e751f63d30dbbe5c2e119c23a3880fe217ef665d5c4cb5befe5741931ee6e5d8",
    "hom --algebra brauer --lambda 3 --mu 1 --spec z=4":
        "0332836f2c45cde165540d180ba4536fb4b86a523e2de6b97b3988ca07cf9ff0",
    "conjecture --n 3":
        "612c27be97d3974282505632643506914df49af2b182d053f127571541be011f",
    "cache --algebra bmw --n 3 --cache-dir DIR":
        "3b06f63683b6b5d1261b51092be54cdb9e5c3c5a3f79274cc210898d86461bf9",
}


@pytest.mark.parametrize("query", sorted(TEXT_REPORTS))
def test_text_reports_pinned(tmp_path, capsys, query):
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in query.split()]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "DIR")
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_REPORTS[query]


def test_gram_certify_degenerate(capsys):
    report = run_json(capsys, ["gram-certify", "--algebra", "brauer",
                               "--n", "3", "--spec", "z=1", "--json"])
    assert report["result"]["outcome"] == "CertifiedNotSemisimple"
    assert report["result"]["layers"] == [
        {"shape": [1], "rank": 1, "dimension": 3, "radical_dimension": 2}]


# SHA-256 of the sorted-key JSON report without timing
GRAM_CERTIFY_BMW_N4_JSON = {
    "r=13": "59cc6410660e2776f9cc505118f7ae04577621b3bc180eb01afcf0937893c594",
    "r=17": "214e2714eb4d862c1a43da7782c72d007d1c302a2335f40436073f8e2a84110f",
    "r=-q^3":
        "2829e755fc6fececec9002b775149dc2d9c2bbe571afe07a3d43221b939728b5",
}


@pytest.mark.parametrize("spec", sorted(GRAM_CERTIFY_BMW_N4_JSON))
def test_gram_certify_reports_pinned_on_memo_hits(capsys, spec):
    # the second run parses the spec again and reuses the memoised Gram
    # matrices
    argv = ["gram-certify", "--algebra", "bmw", "--n", "4", "--spec", spec,
            "--json"]
    for _ in range(2):
        report = without_timing(run_json(capsys, argv))
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == GRAM_CERTIFY_BMW_N4_JSON[spec]


def test_transition_text_mode(capsys):
    assert cli.run(["transition", "--algebra", "bmw", "--n", "3",
                    "--lambda", "1"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("  [")]
    assert len(lines) == 3
    # aligned columns: all matrix rows render at equal width
    assert len({len(line) for line in lines}) == 1


def test_hom_exit_codes(capsys):
    report = run_json(capsys, ["hom", "--algebra", "brauer", "--lambda", "3",
                               "--mu", "1", "--spec", "z=4", "--json"])
    assert report["result"]["obstruction_passes"] is False
    assert report["result"]["hom_certified_zero"] is True
    assert cli.run(["hom", "--algebra", "brauer", "--lambda", "2",
                    "--mu", "1"]) == 2
    capsys.readouterr()


# -- input errors --------------------------------------------------------------------

def test_exit_2_on_malformed_partition(capsys):
    assert cli.run(["gram", "--algebra", "bmw", "--n", "3",
                    "--lambda", "1,x"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_2_on_parity_violation(capsys):
    assert cli.run(["gram", "--algebra", "bmw", "--n", "3",
                    "--lambda", "2"]) == 2
    assert "not reachable" in capsys.readouterr().err


def test_exit_2_on_unknown_flag(capsys):
    assert cli.run(["gram", "--algebra", "bmw", "--n", "3",
                    "--lambda", "1", "--frobnicate"]) == 2
    assert cli.run(["no-such-command"]) == 2
    assert cli.run([]) == 2
    assert cli.run(["dim", "cache", "--algebra", "bmw", "--n", "3"]) == 2
    capsys.readouterr()


def test_one_parser_for_every_command(capsys):
    assert cli.run(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in READS)
    assert all(flag in out for flag in list(cli._FLAGS) + ["-h"])
    # a flag may stand before the command
    argv = ["certify", "--algebra", "brauer", "--n", "3", "--spec", "z=4",
            "--json"]
    assert without_timing(run_json(capsys, argv[1:] + argv[:1])) == \
        without_timing(run_json(capsys, argv))


# the input flags each subcommand reads, beside --json and --cache-dir
READS = {
    "dim": {"algebra", "n"},
    "basis": {"algebra", "n", "lambda"},
    "gram": {"algebra", "n", "lambda", "spec"},
    "transition": {"algebra", "n", "lambda"},
    "jm": {"algebra", "n", "lambda"},
    "filtration": {"algebra", "n", "lambda"},
    "certify": {"algebra", "n", "spec"},
    "gram-certify": {"algebra", "n", "spec"},
    "hom": {"algebra", "lambda", "mu", "spec"},
    "conjecture": {"n"},
    "cache": {"algebra", "n"},
}
FLAG_VALUES = {"algebra": "brauer", "n": "3", "lambda": "1", "mu": "1",
               "spec": "z=4"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in sorted(READS)
    for flag in sorted(FLAG_VALUES) if flag not in READS[command]])
def test_exit_2_on_a_flag_the_subcommand_does_not_read(capsys, command,
                                                       flag):
    argv = [command, "--" + flag, FLAG_VALUES[flag]]
    for name in sorted(READS[command] - {"spec"}):
        argv += ["--" + name, FLAG_VALUES[name]]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: {} does not accept --{}\n".format(command, flag)


def test_exit_2_on_missing_required(capsys):
    assert cli.run(["gram", "--n", "3", "--lambda", "1"]) == 2
    assert cli.run(["gram", "--algebra", "bmw", "--lambda", "1"]) == 2
    assert cli.run(["basis", "--algebra", "bmw", "--n", "3"]) == 2
    capsys.readouterr()
    # a level past MAX_N is refused before any work: both ran past 20 s.
    # The cheaper one goes first, so a missing bound fails in about a second
    # instead of letting dim at n = 40 run out of memory.
    assert cli.run(["certify", "--algebra", "brauer",
                    "--n", str(cli.MAX_N + 1)]) == 2
    assert cli.run(["dim", "--algebra", "bmw", "--n", "40"]) == 2
    assert capsys.readouterr().err.count("--n out of range") == 2
    assert cli.run(["dim", "--algebra", "brauer",
                    "--n", str(cli.MAX_N)]) == 0
    capsys.readouterr()


def test_conjecture_level_is_bounded(capsys):
    # the exact Gram determinant behind conjecture ran past 900 s at n = 7,
    # so every level past the limit is refused before any work
    for n in (cli.MAX_CONJECTURE_N + 1, cli.MAX_N):
        start = time.monotonic()
        assert cli.run(["conjecture", "--n", str(n)]) == 2
        assert time.monotonic() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --n out of range: conjecture takes n up to " \
            "{}\n".format(cli.MAX_CONJECTURE_N)
    assert cli.run(["conjecture", "--n", str(cli.MAX_CONJECTURE_N)]) == 0
    assert capsys.readouterr().out.startswith(
        "Gram-determinant root evidence at n={} ".format(
            cli.MAX_CONJECTURE_N))


def test_exit_2_on_bad_specialization(capsys):
    assert cli.run(["gram", "--algebra", "brauer", "--n", "3",
                    "--lambda", "1", "--spec", "w=4"]) == 2
    # q = 1 is rejected: the half-twist difference must stay a unit
    assert cli.run(["certify", "--algebra", "bmw", "--n", "2",
                    "--spec", "q=1,r=2"]) == 2
    assert cli.run(["gram", "--algebra", "brauer", "--n", "3",
                    "--lambda", "1", "--spec", "z=1/0"]) == 2
    assert cli.run(["certify", "--algebra", "bmw", "--n", "2",
                    "--spec", "q=2,q=3"]) == 2
    # oversize powers are refused before any work
    assert cli.run(["certify", "--algebra", "bmw", "--n", "3",
                    "--spec", "r=q^99999999"]) == 2
    assert cli.run(["certify", "--algebra", "brauer", "--n", "3",
                    "--spec", "z=((2^999)^999)^999"]) == 2
    # an image within the power bound can still be too large to work with
    assert cli.run(["gram", "--algebra", "bmw", "--n", "4", "--lambda", "2",
                    "--spec", "r=(q-1)^85"]) == 2
    err = capsys.readouterr().err
    assert "division by zero" in err and "assigned twice" in err
    assert err.count("power too large") == 2
    assert "image of r too large" in err
    assert "Traceback" not in err


def test_exit_3_on_pole(capsys, monkeypatch):
    q = CoeffFraction.var("q", BMW_VARS)
    r = CoeffFraction.var("r", BMW_VARS)
    trap = (q + r).inverse()  # vanishes under r = -q

    def fake_gram(algebra, lam, n):
        return [[trap]]

    monkeypatch.setattr(cli, "gram_matrix", fake_gram)
    assert cli.run(["gram", "--algebra", "bmw", "--n", "3",
                    "--lambda", "1", "--spec", "r=-q"]) == 3
    assert "pole" in capsys.readouterr().err


def test_gram_certify_exit_3_on_pole(capsys, monkeypatch):
    # built as in test_certify_pole_still_raises: r = 0 set by hand, which
    # the one-point certificate refuses, so exact elimination meets the pole
    spec = Specialization.parse("r=q", BMW_VARS)
    spec.assignment["r"] = CoeffFraction.const(0, spec.target_vars)
    with monkeypatch.context() as patch:
        patch.setattr(Specialization, "parse",
                      classmethod(lambda cls, text, vars: spec))
        assert cli.run(["gram-certify", "--algebra", "bmw", "--n", "2",
                        "--spec", "r=q"]) == 3
    # an entry with a pole at r = -q: the certificate catches it at each
    # point, and exact elimination raises it again
    trap = (CoeffFraction.var("q", BMW_VARS)
            + CoeffFraction.var("r", BMW_VARS)).inverse()
    monkeypatch.setattr(specsim, "gram_matrix",
                        lambda algebra, lam, n: [[trap]])
    assert cli.run(["gram-certify", "--algebra", "bmw", "--n", "2",
                    "--spec", "r=-q"]) == 3
    err = capsys.readouterr().err
    assert err.count("pole") == 2 and "Traceback" not in err


@pytest.mark.parametrize("fmt", [["--json"], []])
def test_exit_2_when_the_reader_closed_the_pipe(fmt):
    # the read end is closed before the process starts, so its first write
    # meets a broken pipe whatever the output size and timing
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cellalg.cli", "certify", "--algebra",
             "brauer", "--n", "6", "--spec", "z=2"] + fmt,
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error:") and "Traceback" not in err


def test_exit_2_without_stdout(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.run(["dim", "--algebra", "brauer", "--n", "2"]) == 2
    assert "standard output is closed" in capsys.readouterr().err


# -- determinism ---------------------------------------------------------------------

def test_json_output_deterministic(capsys):
    argv = ["certify", "--algebra", "bmw", "--n", "3",
            "--spec", "r=-q^-3", "--json"]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    assert without_timing(first) == without_timing(second)
    assert json.dumps(without_timing(first)) == \
        json.dumps(without_timing(second))


def test_reused_parser_keeps_no_state(capsys):
    first = ["certify", "--algebra", "brauer", "--n", "3", "--spec", "z=4",
             "--json"]
    other = ["gram-certify", "--algebra", "brauer", "--n", "3", "--json"]
    expected = [without_timing(run_json(capsys, argv))
                for argv in (first, other)]
    got = [without_timing(run_json(capsys, first))]
    assert cli.run(first[:-1] + ["--frobnicate"]) == 2
    capsys.readouterr()
    got.append(without_timing(run_json(capsys, other)))
    got.append(without_timing(run_json(capsys, first)))
    assert got == [expected[0], expected[1], expected[0]]
    assert "spec" not in got[1]["parameters"]


# -- the argument parser -------------------------------------------------------------
# The oracle is the argparse parser that the CLI used before its flat parser;
# every argv must give equal values on both, or exit 2 on both.

def argparse_oracle():
    parser = argparse.ArgumentParser(prog="cellalg")
    parser.add_argument("command", choices=tuple(cli._HANDLERS),
                        metavar="COMMAND")
    parser.add_argument("--algebra", choices=("bmw", "brauer"))
    parser.add_argument("--n", type=int)
    parser.add_argument("--lambda", dest="shape_text", metavar="LAMBDA")
    parser.add_argument("--mu")
    parser.add_argument("--spec", dest="spec_text", metavar="SPEC")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--cache-dir")
    return parser


ORACLE = argparse_oracle()
PARSED = ("command", "algebra", "n", "shape_text", "mu", "spec_text", "json",
          "cache_dir")


def oracle_parse(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(ORACLE.parse_args(argv))
        except SystemExit as exc:
            return exc.code
    return parsed


def flat_parse(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        args = cli._parse_argv(list(argv))
    if isinstance(args, int):
        # the help goes to stdout and an error to stderr, nothing else
        assert (out.getvalue(), err.getvalue() == "") == (
            (cli._HELP + "\n", True) if args == 0 else ("", False))
        return args
    assert out.getvalue() == err.getvalue() == ""
    return {name: getattr(args, name) for name in PARSED}


FLAG_WORDS = ["--algebra", "--n", "--lambda", "--mu", "--spec", "--json",
              "--cache-dir", "--help", "-h", "--alg", "--a", "--la", "--j",
              "--c", "--he", "--s", "-hh", "-hx", "-h=", "-h=h", "--json=1",
              "--help=", "--frobnicate", "-x", "-n", "--", "--=x", "---",
              "-"]
VALUE_WORDS = ["3", "4", "0", "-3", "-1", "-3.5", "-.5", "+3", " 3", "3_0",
               "\u0663", "-\u0663", "3\n", "-3\n", "x", "", "-1,2", "2,1",
               "()", "-q", "-q^-3", "z=4", "r=-q^-3", "a b", "-a b", "bmw",
               "brauer", "BMW", "-h", "--"]
ARGV = st.lists(st.one_of(
    st.sampled_from(sorted(cli._HANDLERS) + ["bogus", "Dim"]),
    st.sampled_from(FLAG_WORDS),
    st.sampled_from(VALUE_WORDS),
    # argparse reads "--flag=--" as an empty list: a separate test below
    st.builds("{}={}".format, st.sampled_from(FLAG_WORDS[:16]),
              st.sampled_from(VALUE_WORDS[:-1])),
    st.text(alphabet="-=hnjx3 ", max_size=4)), max_size=8)


@settings(max_examples=600, deadline=None)
@given(argv=ARGV)
def test_flat_parser_matches_argparse(argv):
    expected = oracle_parse(argv)
    got = flat_parse(argv)
    assert got == expected, argv


@pytest.mark.parametrize("argv", [
    ["dim", "--algebra", "bmw", "--n", "3"],
    ["--n=3", "--alg=brauer", "dim", "--json"],
    ["--j", "dim", "--a", "bmw", "--n", "-3"],
    ["--n", "3", "--algebra", "bmw", "--", "dim"],
    ["--n", "3", "--algebra", "bmw", "dim", "--"],
    ["hom", "--lambda", "-1", "--mu=-q^-3", "--spec", "a b"],
    ["-hh", "--n", "x"], ["--n", "x", "-h"], ["-h=x"], ["--help", "--=x"],
    ["--json=", "dim"], ["dim", "--json", "--"], ["--", "--", "dim"],
    ["--spec", "-q", "dim"], ["dim", "dim"], [],
])
def test_flat_parser_matches_argparse_on_fixed_argv(argv):
    assert flat_parse(argv) == oracle_parse(argv)


def test_flat_parser_reads_double_dash_values_as_text(capsys):
    # argparse read "--n=--" as an empty list, and the handlers raised a
    # traceback on it; the flat parser reads "--", which every one refuses
    assert flat_parse(["dim", "--spec=--"])["spec_text"] == "--"
    for flag in ("--n", "--algebra", "--lambda", "--mu", "--spec"):
        assert cli.run(["gram", "--algebra", "brauer", "--n", "3",
                        "--lambda", "1", flag + "=--"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 5 and "Traceback" not in err


def test_import_leaves_argparse_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, cellalg.cli; "
            "sys.exit(int('argparse' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


# -- the JSON writer -----------------------------------------------------------------

JSON_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "[]{},:", '{"a": [1, 2]}', "\x00\x1f\x7f\n\t",
                     "\u00e9\u20ac\U0001d11e", "\ud800", ""]))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 100, max_value=2 ** 100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"),
                     float("-inf")]),
    JSON_TEXT)
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), st.floats(), st.booleans(),
                      st.none())


def json_containers(inner):
    return st.one_of(st.lists(inner, max_size=4),
                     st.lists(inner, max_size=4).map(tuple),
                     st.dictionaries(JSON_KEYS, inner, max_size=4))


JSON_VALUES = st.recursive(JSON_SCALARS, json_containers, max_leaves=24)


@st.composite
def json_values_sharing_a_tuple(draw):
    """A JSON value in which one tuple object sits at several positions and
    depths, beside equal tuples that are other objects."""
    shared = tuple(draw(st.lists(JSON_VALUES, max_size=3)))
    leaves = st.one_of(JSON_SCALARS, st.just(shared),
                       st.builds(lambda: tuple(list(shared))))
    return draw(st.recursive(leaves, json_containers, max_leaves=24))


def json_outcome(encode):
    try:
        return encode()
    except TypeError:  # unorderable keys under sort_keys
        return TypeError


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES | json_values_sharing_a_tuple(),
       sort_keys=st.booleans())
def test_json_writer_matches_json_dumps(value, sort_keys):
    expected = json_outcome(
        lambda: json.dumps(value, indent=2, sort_keys=sort_keys))
    assert json_outcome(
        lambda: cli._json_text(value, sort_keys=sort_keys)) == expected


def test_json_writer_on_fixed_values():
    value = {"s": ['"q"\\', "\u00e9\x01", "[]{},:"], "n": [0, -1, 10 ** 30],
             "f": [-0.0, 1e300, float("nan"), float("inf"), float("-inf")],
             "c": [True, False, None, [], {}, (), [[]], {"x": {}}],
             1: "int key", 2.5: "float key", False: "bool key",
             None: "none key", "t": ((1, "a"), [2, {"b": ()}])}
    assert cli._json_text(value) == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json_text(value, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json_text({(1, 2): 0})
    with pytest.raises(TypeError):
        cli._json_text([CoeffFraction.const(1, BMW_VARS)])
    for top in ("x", 3, 2.5, None, True, [], {}):
        assert cli._json_text(top) == json.dumps(top, indent=2)


def test_json_writer_on_look_alike_tuples():
    # equal tuples that hash alike but print differently: the writer's
    # memo of tuple texts must tell them apart
    look_alikes = [(1,), (True,), (1.0,), (0.0,), (-0.0,)]
    value = {"b": [look_alikes, tuple(look_alikes)], "a": look_alikes,
             "c": {"x": look_alikes[::-1], "y": [[look_alikes[0]]]}}
    for sort_keys in (False, True):
        assert cli._json_text(value, sort_keys=sort_keys) == json.dumps(
            value, indent=2, sort_keys=sort_keys)


@pytest.mark.parametrize("argv,report", [
    (["jm", "--algebra", "brauer", "--n", "4", "--lambda", "2"],
     lambda: towers.jm_triangularity("brauer", (2,), 4)),
    (["filtration", "--algebra", "bmw", "--n", "4", "--lambda", "2"],
     lambda: towers.restriction_filtration_check("bmw", (2,), 4)),
    (["conjecture", "--n", "4"], lambda: specsim.conjecture_evidence(4)),
])
def test_cli_leaves_shared_reports_unchanged(capsys, argv, report):
    shared = report()
    before = copy.deepcopy(shared)
    for extra in ([], ["--json"]):
        assert cli.run(argv + extra) == 0
    capsys.readouterr()
    assert report() is shared
    assert shared == before


# -- cache ---------------------------------------------------------------------------

def test_cache_write_read_write_byte_identical(tmp_path, capsys):
    cache_dir = str(tmp_path)
    report = run_json(capsys, ["cache", "--algebra", "brauer", "--n", "3",
                               "--cache-dir", cache_dir, "--json"])
    assert report["result"]["status"] == "written"
    path = report["result"]["path"]
    first = Path(path).read_bytes()
    report2 = run_json(capsys, ["cache", "--algebra", "brauer", "--n", "3",
                                "--cache-dir", cache_dir, "--json"])
    assert report2["result"]["status"] == "reused"
    assert Path(path).read_bytes() == first
    # force a full recompute-and-write cycle; bytes must match exactly
    os.unlink(path)
    run_json(capsys, ["cache", "--algebra", "brauer", "--n", "3",
                      "--cache-dir", cache_dir, "--json"])
    assert Path(path).read_bytes() == first


# test_generator_matrices_pinned pins the matrix values; these pin the
# digest of the bytes that ``cache`` writes from them
@pytest.mark.parametrize("algebra,n,digest", [
    ("bmw", 3,
     "541918e36a59270b33da1a532304abd2b1cbb403cf1e73fe665f00177e50b280"),
    ("bmw", 4,
     "89b40a182ea47391e04eefa7815881a23f03fb8e5bd757eccdb65125236a9b38"),
    ("brauer", 4,
     "46faf8d332b6847b83d80baf6838c9e56dc565d835c5ed1ee20fbc262e3d10ca"),
    ("brauer", 5,
     "e922cfc7e79c05f3d34e0578760817cc304569ed91fe354959767b325e599b70"),
])
def test_cache_digest_pinned(tmp_path, capsys, algebra, n, digest):
    report = run_json(capsys, ["cache", "--algebra", algebra, "--n", str(n),
                               "--cache-dir", str(tmp_path), "--json"])
    assert report["result"]["status"] == "written"
    assert json.loads(Path(report["result"]["path"]).read_text())["sha256"] == digest


# SHA-256 of the whole cache file, which pins its layout as well: the
# json.dumps(indent=2, sort_keys=True) text of the file object plus "\n"
@pytest.mark.parametrize("algebra,n,digest", [
    ("bmw", 3,
     "5941bb0f6f86d41304024294a72c960948f28ce18de61ea880a932669ff3e5ba"),
    ("bmw", 4,
     "006e95d24c570e47e258ff6646f977116cac4c31ca332a0cee39eedd5ed18626"),
    ("brauer", 4,
     "38f9149e751743e8ed1f2ddc1fc38df96a17a305ab8d3767c9eb5582093fe226"),
    ("brauer", 5,
     "1d7c879bd5bc30def4ec2f780b923ca855d3c4302fec07ca58515f0b70ef017d"),
])
def test_cache_file_bytes_pinned(tmp_path, capsys, algebra, n, digest):
    report = run_json(capsys, ["cache", "--algebra", algebra, "--n", str(n),
                               "--cache-dir", str(tmp_path), "--json"])
    assert report["result"]["status"] == "written"
    data = Path(report["result"]["path"]).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert data.decode() == json.dumps(json.loads(data), indent=2,
                                       sort_keys=True) + "\n"


def test_cache_version_bump_recomputes(tmp_path, capsys):
    cache_dir = str(tmp_path)
    run_json(capsys, ["cache", "--algebra", "brauer", "--n", "2",
                      "--cache-dir", cache_dir, "--json"])
    path = cli._cache_path(cache_dir, "brauer", 2)
    data = json.loads(Path(path).read_text())
    data["version"] = cli.CACHE_VERSION + 1
    with open(path, "w") as handle:
        json.dump(data, handle)
    assert cli.run(["cache", "--algebra", "brauer", "--n", "2",
                    "--cache-dir", cache_dir, "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"]["status"] == "written"
    assert "warning" in captured.err
    assert json.loads(Path(path).read_text())["version"] == cli.CACHE_VERSION


def test_cache_write_removes_older_versions_only(tmp_path, capsys):
    cache_dir = str(tmp_path)
    old = cli.CACHE_VERSION - 1

    def planted(name):
        return os.path.join(cache_dir, name)

    stale = planted("bmw-n3-v{}.json".format(old))
    kept = [planted("bmw-n3-v99.json"),
            planted("bmw-n4-v{}.json".format(old)),
            planted("brauer-n3-v{}.json".format(old)),
            planted("notes.json")]
    for path in [stale] + kept:
        with open(path, "w") as handle:
            handle.write("{}")
    report = run_json(capsys, ["cache", "--algebra", "bmw", "--n", "3",
                               "--cache-dir", cache_dir, "--json"])
    assert report["result"]["status"] == "written"
    assert not os.path.exists(stale)
    assert all(Path(path).read_text() == "{}" for path in kept)
    assert os.path.exists(cli._cache_path(cache_dir, "bmw", 3))


def test_cache_corrupt_file_warns_and_recomputes(tmp_path, capsys):
    cache_dir = str(tmp_path)
    path = cli._cache_path(cache_dir, "bmw", 2)
    os.makedirs(cache_dir, exist_ok=True)
    with open(path, "w") as handle:
        handle.write("{not json")
    code = cli.run(["gram", "--algebra", "bmw", "--n", "2", "--lambda", "2",
                    "--cache-dir", cache_dir, "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    json.loads(captured.out)  # output intact
    # the recomputed file is now valid and reusable
    report = run_json(capsys, ["cache", "--algebra", "bmw", "--n", "2",
                               "--cache-dir", cache_dir, "--json"])
    assert report["result"]["status"] == "reused"


def test_cache_with_wrong_dimension_warns_and_recomputes(tmp_path, capsys):
    argv = ["gram", "--algebra", "brauer", "--n", "3", "--lambda", "1",
            "--json"]
    cache_dir = str(tmp_path)
    run_json(capsys, ["cache", "--algebra", "brauer", "--n", "3",
                      "--cache-dir", cache_dir, "--json"])
    path = cli._cache_path(cache_dir, "brauer", 3)
    data = json.loads(Path(path).read_text())
    data["matrices"]["1|s|1"] = [["1", "0"], ["0", "1"]]  # square, but 2 x 2
    with open(path, "w") as handle:
        json.dump(data, handle)
    _brauer._gen_matrix_overrides.clear()
    towers.gram_matrix.cache_clear()
    code = cli.run(argv + ["--cache-dir", cache_dir])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err and "1|s|1" in captured.err
    cached = without_timing(json.loads(captured.out))
    _brauer._gen_matrix_overrides.clear()
    towers.gram_matrix.cache_clear()
    assert cached == without_timing(run_json(capsys, argv))
    assert json.loads(Path(path).read_text())["matrices"]["1|s|1"] != \
        data["matrices"]["1|s|1"]


def test_cache_with_changed_cell_warns_and_recomputes(tmp_path, capsys):
    argv = ["gram", "--algebra", "bmw", "--n", "3", "--lambda", "1",
            "--json"]
    cache_dir = str(tmp_path)
    run_json(capsys, ["cache", "--algebra", "bmw", "--n", "3",
                      "--cache-dir", cache_dir, "--json"])
    path = cli._cache_path(cache_dir, "bmw", 3)
    data = json.loads(Path(path).read_text())
    rows = data["matrices"]["1|T|1"]
    assert rows[0][0] != "q"
    rows[0][0] = "q"  # a valid fraction, in a valid key and dimension
    with open(path, "w") as handle:
        json.dump(data, handle)
    _bmw._gen_matrix_overrides.clear()
    towers.gram_matrix.cache_clear()
    code = cli.run(argv + ["--cache-dir", cache_dir])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err and "digest" in captured.err
    cached = without_timing(json.loads(captured.out))
    _bmw._gen_matrix_overrides.clear()
    towers.gram_matrix.cache_clear()
    assert cached == without_timing(run_json(capsys, argv))
    assert json.loads(Path(path).read_text())["matrices"]["1|T|1"][0][0] != "q"


@pytest.mark.parametrize("algebra,n", [("bmw", 2), ("bmw", 3),
                                       ("brauer", 2), ("brauer", 3)])
def test_cache_presence_never_changes_output(tmp_path, capsys, algebra, n):
    lam = (1,) if n % 2 else (2,)
    shape = ",".join(str(p) for p in lam)
    base = ["--algebra", algebra, "--n", str(n), "--lambda", shape, "--json"]
    plain = {}
    for sub in ("gram", "transition", "jm", "filtration"):
        plain[sub] = without_timing(run_json(capsys, [sub] + base))
    _clear_memos()  # so that the cached answers come from the loaded matrices
    cache_dir = str(tmp_path)
    for sub in ("gram", "transition", "jm", "filtration"):
        cached = run_json(capsys, [sub] + base + ["--cache-dir", cache_dir])
        assert without_timing(cached) == plain[sub]
    # the cache really was loaded into the override tables
    assert any(key[1] == n for key in
               (_bmw if algebra == "bmw" else _brauer)._gen_matrix_overrides)


def test_cached_matrices_match_computed(tmp_path, capsys):
    run_json(capsys, ["cache", "--algebra", "bmw", "--n", "3",
                      "--cache-dir", str(tmp_path), "--json"])
    overrides = cli._load_cache(cli._cache_path(str(tmp_path), "bmw", 3),
                                "bmw", 3)
    assert overrides
    for (lam, n, kind, i), rows in overrides.items():
        assert rows == _bmw._bmw_gen_matrix_compute(lam, n, kind, i)


def test_bmw_cache_holds_primary_generators_only(tmp_path, capsys):
    n = 3
    report = run_json(capsys, ["cache", "--algebra", "bmw", "--n", str(n),
                               "--cache-dir", str(tmp_path), "--json"])
    assert report["result"]["entries"] == 2 * (n - 1) * len(layer_shapes(n))
    keys = json.loads(Path(report["result"]["path"]).read_text())["matrices"]
    assert len(keys) == 16
    assert {cli._parse_matrix_key(key)[1] for key in keys} == {"T", "E"}


def _clear_memos():
    _bmw._gen_matrix_overrides.clear()
    for memo in (_bmw._bmw_gen_matrix_compute, towers.jm_matrix,
                 towers.build_path_basis, towers.gram_matrix,
                 towers.m_lambda_matrix, towers._jm_triangularity,
                 towers._restriction_filtration_check,
                 specsim.conjecture_evidence):
        memo.cache_clear()


def test_cached_process_derives_tinv_without_the_engine(tmp_path, capsys,
                                                        monkeypatch):
    # the y-elements of (1) at n = 3 act by T^{-1}
    argv = ["transition", "--algebra", "bmw", "--n", "3", "--lambda", "1",
            "--json"]
    _clear_memos()
    plain = without_timing(run_json(capsys, argv))
    run_json(capsys, ["cache", "--algebra", "bmw", "--n", "3",
                      "--cache-dir", str(tmp_path), "--json"])
    _clear_memos()
    requested, engine_kinds = set(), []
    gen_matrix = _bmw.bmw_gen_matrix
    apply_gen_terms = _bmw._apply_gen_terms

    def gen_matrix_spy(lam, n, kind, i):
        if n == 3:
            requested.add(kind)
        return gen_matrix(lam, n, kind, i)

    def engine_spy(terms, gen, n, f, vars):
        if n == 3:
            engine_kinds.append(gen[0])
        return apply_gen_terms(terms, gen, n, f, vars)

    monkeypatch.setattr(_bmw, "bmw_gen_matrix", gen_matrix_spy)
    monkeypatch.setattr(_bmw, "_apply_gen_terms", engine_spy)
    cached = without_timing(run_json(capsys, argv
                                     + ["--cache-dir", str(tmp_path)]))
    assert cached == plain
    assert "Tinv" in requested
    assert engine_kinds == []


@pytest.mark.parametrize("argv", [
    ["certify", "--algebra", "brauer", "--n", "4", "--spec", "z=4"],
    ["dim", "--algebra", "bmw", "--n", "3"],
    ["hom", "--algebra", "bmw", "--lambda", "2", "--mu", "1,1"],
])
def test_cache_dir_ignored_without_generator_matrices(tmp_path, capsys,
                                                      argv):
    cache_dir = tmp_path / "cache"
    plain = without_timing(run_json(capsys, argv + ["--json"]))
    cached = without_timing(run_json(
        capsys, argv + ["--json", "--cache-dir", str(cache_dir)]))
    assert cached == plain
    assert not cache_dir.exists()


# -- fuzz ----------------------------------------------------------------------------

SHAPE_TEXT = st.one_of(st.sampled_from(["()", "1", "2", "1,1", "3", "2,1"]),
                       st.text(alphabet="0123456789,()- x", max_size=6))
SPEC_TEXT = st.one_of(
    st.sampled_from(["z=4", "z=1/2", "z=-3", "r=q", "r=-q^-3", "q=2,r=3"]),
    st.text(alphabet="qrz0123456789+-*/^()=, ", max_size=10),
    st.builds("{}={}".format, st.sampled_from("qrz"),
              st.text(alphabet="qrz0123456789+-*/^()", min_size=1,
                      max_size=8)))


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(sorted(cli._HANDLERS)),
       algebra=st.sampled_from(["bmw", "brauer"]),
       n=st.sampled_from([0, 1, 2, 3]),
       shape=SHAPE_TEXT, mu=SHAPE_TEXT, spec=st.none() | SPEC_TEXT)
def test_cli_fuzz_exit_codes(command, algebra, n, shape, mu, spec):
    values = {"algebra": algebra, "n": str(n), "lambda": shape, "mu": mu}
    argv = [command] + ["--{}={}".format(flag, value)
                        for flag, value in values.items()
                        if flag in READS[command]]
    if spec is not None:
        argv.append("--spec=" + spec)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
