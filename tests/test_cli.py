import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellalg import cli, towers
from cellalg import bmw as _bmw
from cellalg import brauer as _brauer
from cellalg.exactring import (
    BMW_VARS,
    CoeffFraction,
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


def test_gram_certify_degenerate(capsys):
    report = run_json(capsys, ["gram-certify", "--algebra", "brauer",
                               "--n", "3", "--spec", "z=1", "--json"])
    assert report["result"]["outcome"] == "CertifiedNotSemisimple"
    assert report["result"]["layers"] == [
        {"shape": [1], "rank": 1, "dimension": 3, "radical_dimension": 2}]


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
    capsys.readouterr()


def test_exit_2_on_missing_required(capsys):
    assert cli.run(["gram", "--n", "3", "--lambda", "1"]) == 2
    assert cli.run(["gram", "--algebra", "bmw", "--lambda", "1"]) == 2
    assert cli.run(["basis", "--algebra", "bmw", "--n", "3"]) == 2
    capsys.readouterr()


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


# -- determinism ---------------------------------------------------------------------

def test_json_output_deterministic(capsys):
    argv = ["certify", "--algebra", "bmw", "--n", "3",
            "--spec", "r=-q^-3", "--json"]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    assert without_timing(first) == without_timing(second)
    assert json.dumps(without_timing(first)) == \
        json.dumps(without_timing(second))


# -- cache ---------------------------------------------------------------------------

def test_cache_write_read_write_byte_identical(tmp_path, capsys):
    cache_dir = str(tmp_path)
    report = run_json(capsys, ["cache", "--algebra", "brauer", "--n", "3",
                               "--cache-dir", cache_dir, "--json"])
    assert report["result"]["status"] == "written"
    path = report["result"]["path"]
    first = open(path, "rb").read()
    report2 = run_json(capsys, ["cache", "--algebra", "brauer", "--n", "3",
                                "--cache-dir", cache_dir, "--json"])
    assert report2["result"]["status"] == "reused"
    assert open(path, "rb").read() == first
    # force a full recompute-and-write cycle; bytes must match exactly
    os.unlink(path)
    run_json(capsys, ["cache", "--algebra", "brauer", "--n", "3",
                      "--cache-dir", cache_dir, "--json"])
    assert open(path, "rb").read() == first


def test_cache_version_bump_recomputes(tmp_path, capsys):
    cache_dir = str(tmp_path)
    run_json(capsys, ["cache", "--algebra", "brauer", "--n", "2",
                      "--cache-dir", cache_dir, "--json"])
    path = cli._cache_path(cache_dir, "brauer", 2)
    data = json.load(open(path))
    data["version"] = cli.CACHE_VERSION + 1
    with open(path, "w") as handle:
        json.dump(data, handle)
    assert cli.run(["cache", "--algebra", "brauer", "--n", "2",
                    "--cache-dir", cache_dir, "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"]["status"] == "written"
    assert "warning" in captured.err
    assert json.load(open(path))["version"] == cli.CACHE_VERSION


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
    data = json.load(open(path))
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
    assert json.load(open(path))["matrices"]["1|s|1"] != \
        data["matrices"]["1|s|1"]


def test_cache_with_changed_cell_warns_and_recomputes(tmp_path, capsys):
    argv = ["gram", "--algebra", "bmw", "--n", "3", "--lambda", "1",
            "--json"]
    cache_dir = str(tmp_path)
    run_json(capsys, ["cache", "--algebra", "bmw", "--n", "3",
                      "--cache-dir", cache_dir, "--json"])
    path = cli._cache_path(cache_dir, "bmw", 3)
    data = json.load(open(path))
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
    assert json.load(open(path))["matrices"]["1|T|1"][0][0] != "q"


@pytest.mark.parametrize("algebra,n", [("bmw", 2), ("bmw", 3),
                                       ("brauer", 2), ("brauer", 3)])
def test_cache_presence_never_changes_output(tmp_path, capsys, algebra, n):
    lam = (1,) if n % 2 else (2,)
    shape = ",".join(str(p) for p in lam)
    base = ["--algebra", algebra, "--n", str(n), "--lambda", shape, "--json"]
    plain = {}
    for sub in ("gram", "transition", "jm", "filtration"):
        plain[sub] = without_timing(run_json(capsys, [sub] + base))
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
    argv = [command, "--algebra", algebra, "--n", str(n),
            "--lambda=" + shape, "--mu=" + mu]
    if spec is not None:
        argv.append("--spec=" + spec)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
