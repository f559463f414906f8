"""Command-line interface: exact reports as text or JSON, plus an on-disk
cache of generator action matrices.

The cache (``--cache-dir``, format version 3) stores one file per algebra and
n with the primary generators of each layer only: T_i and E_i for BMW, s_i
and E_i for Brauer.  T_i^{-1} is derived from T_i and E_i, so it is never
stored.  Only basis, gram, transition, jm, filtration and gram-certify load
the cache, and ``cache`` writes it; the other commands ignore the flag.

Exit codes: 0 success, 2 input error, 3 pole at the requested specialization.
JSON output is deterministic across runs with equal inputs, except for the
trailing ``timing`` field.
"""

import contextlib
import json
import os
import re
import sys
import tempfile
import time
from json.encoder import encode_basestring_ascii

from .combin import cell_index, check_partition, layer_shapes
from .exactring import PoleError, Specialization, parse_fraction
from .specsim import (
    _det,
    certify,
    conjecture_evidence,
    gram_rank_certify,
    hom_obstruction,
)
from .towers import (
    _ops,
    build_path_basis,
    gram_matrix,
    jm_triangularity,
    ordered_paths,
    restriction_filtration_check,
)

try:
    # the builtin SHA-256, as random.py does for sha512: importing hashlib
    # loads OpenSSL, about 3.5 MB of resident memory in every CLI process
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

CACHE_VERSION = 3


class CliError(Exception):
    """Invalid input; maps to exit code 2."""


# -- serialization helpers -----------------------------------------------------------

def _parse_shape(text):
    if text is None:
        raise CliError("missing required --lambda")
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
        return check_partition(parts)
    except ValueError as exc:
        raise CliError("malformed partition {!r}: {}".format(text, exc))


def _shape_str(lam):
    return ",".join(str(p) for p in lam) if lam else "()"


class _Text(dict):
    """The ``str`` of each value, formed once per distinct value: a report
    repeats a handful of distinct coefficients many times.  Index it with
    the value; build one per report."""

    __slots__ = ()

    def __missing__(self, x):
        s = self[x] = str(x)
        return s


def _fmt_matrix(rows, text=None):
    if text is None:
        text = _Text()
    return [[text[x] for x in row] for row in rows]


def _text_matrix(cells, indent="  "):
    """Aligned text rows of a matrix already formatted by ``_fmt_matrix``."""
    if not cells or not cells[0]:
        return [indent + "(empty)"]
    widths = [max(len(cells[a][b]) for a in range(len(cells)))
              for b in range(len(cells[0]))]
    return [indent + "[" + "  ".join(c.rjust(w) for c, w in zip(row, widths))
            + "]" for row in cells]


def _json_key(k):
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return encode_basestring_ascii(json.dumps(k))
    raise TypeError("keys must be str, int, float, bool or None, not "
                    + type(k).__name__)


def _json_text(obj, sort_keys=False):
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)``, byte for byte.

    With ``indent`` set, the json module encodes in pure Python, one
    generator frame per container; this writer appends the pieces to one
    list instead, and formats str and int items in the loop of their
    container.  Floats, bools, None and subclasses of str and int go to
    the C encoder, which formats them as the indented encoder does.

    A report shares tuples between its parts (a certify report repeats the
    same path tuples in hundreds of witnesses), so the text of each exact
    tuple is formed once per call and indentation: ``memo`` maps
    (id(v), indent width) to it.  The key is the object's identity, never
    its value: (1,), (True,) and (1.0,) are equal and hash alike but print
    differently, and so do (0.0,) and (-0.0,).  Identity is exact because
    every object the writer reaches stays alive until it returns: ``obj``
    holds it, or ``held`` does for the copies made of subclassed
    containers.
    """
    parts = []
    out = parts.append
    memo = {}
    held = []

    def write(v, nl):  # nl: the newline and indent of v's own line
        t = type(v)
        if t is str:
            out(encode_basestring_ascii(v))
        elif t is int:
            out(int.__repr__(v))
        elif t is list or t is tuple:
            if not v:
                out("[]")
                return
            if t is tuple:
                key = (id(v), len(nl))
                text = memo.get(key)
                if text is not None:
                    out(text)
                    return
                start = len(parts)
            inner = nl + "  "
            sep = "," + inner
            out("[" + inner)
            for x in v:
                tx = type(x)
                if tx is str:
                    out(encode_basestring_ascii(x))
                elif tx is int:
                    out(int.__repr__(x))
                else:
                    write(x, inner)
                out(sep)
            parts[-1] = nl + "]"  # in place of the last separator
            if t is tuple:
                memo[key] = "".join(parts[start:])
        elif t is dict:
            if not v:
                out("{}")
                return
            inner = nl + "  "
            sep = "," + inner
            out("{" + inner)
            for k, x in sorted(v.items()) if sort_keys else v.items():
                out((encode_basestring_ascii(k) if type(k) is str
                     else _json_key(k)) + ": ")
                tx = type(x)
                if tx is str:
                    out(encode_basestring_ascii(x))
                elif tx is int:
                    out(int.__repr__(x))
                else:
                    write(x, inner)
                out(sep)
            parts[-1] = nl + "}"
        elif isinstance(v, (list, tuple)):
            held.append(list(v))
            write(held[-1], nl)
        elif isinstance(v, dict):
            held.append(dict(v.items()))
            write(held[-1], nl)
        else:
            out(json.dumps(v))

    write(obj, "\n")
    return "".join(parts)


def _check_shape(lam, n):
    diff = n - sum(lam)
    if diff < 0 or diff % 2:
        raise CliError(
            "shape {} is not reachable at level n={} (parity/size)".format(
                _shape_str(lam), n))
    if len(lam) > n:
        raise CliError("shape has too many rows for n={}".format(n))


# -- structure-constant cache --------------------------------------------------------

def _cache_path(cache_dir, algebra, n, version=None):
    if version is None:
        version = CACHE_VERSION
    return os.path.join(cache_dir,
                        "{}-n{}-v{}.json".format(algebra, n, version))


def _matrix_key(lam, kind, i):
    return "{}|{}|{}".format(",".join(str(p) for p in lam), kind, i)


def _parse_matrix_key(key):
    shape, kind, i = key.split("|")
    lam = tuple(int(p) for p in shape.split(",")) if shape else ()
    return lam, kind, int(i)


def _compute_cache_body(algebra, n):
    ops = _ops(algebra)
    text = _Text()
    body = {}
    for lam in layer_shapes(n):
        for kind in ops.gen_kinds:
            for i in range(1, n):
                body[_matrix_key(lam, kind, i)] = _fmt_matrix(
                    ops.gen_matrix(lam, n, kind, i), text)
    return body


def _feed_digest(digest, key, rows):
    """Add one matrix to the SHA-256 of a cache body (keys in sorted order)."""
    digest.update(json.dumps([key, rows]).encode())


def _write_cache(path, algebra, n, body):
    digest = sha256()
    for key in sorted(body):
        _feed_digest(digest, key, body[key])
    data = {
        "version": CACHE_VERSION,
        "algebra": algebra,
        "n": n,
        "vars": list(_ops(algebra).vars),
        "sha256": digest.hexdigest(),
        "matrices": body,
    }
    text = _json_text(data, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".cache-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_cache(path, algebra, n):
    """Parsed override dict, or None if the file is missing/stale/corrupt."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            data = json.load(handle)
        ops = _ops(algebra)
        vars = ops.vars
        if (data.get("version") != CACHE_VERSION
                or data.get("algebra") != algebra
                or data.get("n") != n
                or tuple(data.get("vars", ())) != vars):
            raise ValueError("header mismatch")
        shapes = set(layer_shapes(n))
        digest = sha256()
        overrides = {}
        # a file repeats few distinct entries (4 strings in the 7,560 of
        # brauer n = 5), so each is parsed once
        parsed = {}

        def value(text):
            if text not in parsed:
                parsed[text] = parse_fraction(text, vars)
            return parsed[text]

        for key, rows in sorted(data["matrices"].items()):
            lam, kind, i = _parse_matrix_key(key)
            if (lam not in shapes or kind not in ops.gen_kinds
                    or not 1 <= i < n):
                raise ValueError("invalid matrix key {!r}".format(key))
            dim = len(cell_index(lam, n))
            if len(rows) != dim or any(len(row) != dim for row in rows):
                raise ValueError("matrix for {} is not {} x {}".format(
                    key, dim, dim))
            _feed_digest(digest, key, rows)
            overrides[(lam, n, kind, i)] = [[value(x) for x in row]
                                            for row in rows]
        if digest.hexdigest() != data.get("sha256"):
            raise ValueError("matrix digest mismatch")
        return overrides
    except (OSError, ValueError, KeyError, AttributeError, TypeError,
            json.JSONDecodeError) as exc:
        print("warning: ignoring unusable cache file {}: {}".format(path, exc),
              file=sys.stderr)
        return None


def ensure_cache(cache_dir, algebra, n):
    """Load the cache for (algebra, n), computing and writing it if absent
    or unusable; seeds the in-memory generator-matrix overrides."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, algebra, n)
    overrides = _load_cache(path, algebra, n)
    if overrides is None:
        body = _compute_cache_body(algebra, n)
        _write_cache(path, algebra, n, body)
        # the version is part of the file name, so older files would linger
        for old in range(CACHE_VERSION):
            with contextlib.suppress(FileNotFoundError):
                os.remove(_cache_path(cache_dir, algebra, n, old))
        status = "written"
        overrides = _load_cache(path, algebra, n)
        if overrides is None:
            raise AssertionError("freshly written cache failed to load")
    else:
        status = "reused"
    _ops(algebra).gen_matrix_overrides.update(overrides)
    return {"path": path, "status": status, "entries": len(overrides)}


# -- subcommand handlers -------------------------------------------------------------
# each returns (payload dict, iterator of text lines); a handler forms the
# lines in a generator, so that --json formats no text it does not print

def _double_factorial(n):
    out = 1
    for k in range(2 * n - 1, 0, -2):
        out *= k
    return out


def _path_str(path):
    return " -> ".join(_shape_str(mu) for mu in path)


def _cmd_dim(args):
    shapes = []
    total = 0
    for lam in layer_shapes(args.n):
        count = len(ordered_paths(lam, args.n))
        shapes.append({"shape": list(lam), "paths": count})
        total += count * count
    payload = {
        "total": total,
        "double_factorial": _double_factorial(args.n),
        "shapes": shapes,
    }

    def lines():
        yield "dimension of {} algebra at n={}: {}".format(
            args.algebra, args.n, total)
        for item in shapes:
            yield "  shape {:<10} paths {}".format(
                _shape_str(tuple(item["shape"])), item["paths"])
    return payload, lines()


def _cmd_basis(args):
    pb = build_path_basis(args.algebra, args.shape, args.n)
    text = _Text()
    entries = []
    for t in pb.paths:
        words = sorted(((w.reduced_word(), text[c])
                        for w, c in pb.b_words[t].items()),
                       key=lambda item: item[0])
        entries.append({
            "path": t,
            "b_element": [{"word": word, "coeff": coeff}
                          for word, coeff in words],
        })
    payload = {
        "shape": list(args.shape),
        "dimension": len(pb.paths),
        "basis": entries,
    }

    def lines():
        yield "path basis of cell module {} at n={} ({} vectors)".format(
            _shape_str(args.shape), args.n, len(pb.paths))
        for entry in entries:
            yield "  " + _path_str(entry["path"])
            for term in entry["b_element"]:
                word = "".join("s{}".format(i) for i in term["word"]) or "1"
                yield "    {} * {}".format(term["coeff"], word)
    return payload, lines()


def _cmd_gram(args):
    g = gram_matrix(args.algebra, args.shape, args.n)
    if args.spec is not None:
        g = args.spec.apply_matrix(g)
    payload = {
        "shape": list(args.shape),
        "matrix": _fmt_matrix(g),
        "determinant": str(_det(g)),
    }

    def lines():
        yield "Gram matrix of cell module {} at n={}:".format(
            _shape_str(args.shape), args.n)
        yield from _text_matrix(payload["matrix"])
        yield "determinant: {}".format(payload["determinant"])
    return payload, lines()


def _cmd_transition(args):
    pb = build_path_basis(args.algebra, args.shape, args.n)
    payload = {
        "shape": list(args.shape),
        "paths": pb.paths,
        "matrix": _fmt_matrix(pb.transition_matrix()),
    }

    def lines():
        yield ("transition matrix (cell basis rows, path columns) for {} "
               "at n={}:".format(_shape_str(args.shape), args.n))
        yield from _text_matrix(payload["matrix"])
    return payload, lines()


def _failure_lines(payload):
    for failure in payload["failures"]:
        yield "  failure: " + failure


def _cmd_jm(args):
    report = jm_triangularity(args.algebra, args.shape, args.n)
    text = _Text()
    payload = {
        "shape": list(args.shape),
        "ok": report["ok"],
        "diagonals": [
            {"path": t, "values": [text[x] for x in values]}
            for t, values in report["diagonals"].items()],
        "failures": [repr(f) for f in report["failures"]],
    }

    def lines():
        yield "Jucys-Murphy triangularity on {} at n={}: {}".format(
            _shape_str(args.shape), args.n,
            "ok" if report["ok"] else "FAILED")
        for entry in payload["diagonals"]:
            yield "  {}: {}".format(_path_str(entry["path"]),
                                    ", ".join(entry["values"]))
        yield from _failure_lines(payload)
    return payload, lines()


def _cmd_filtration(args):
    report = restriction_filtration_check(args.algebra, args.shape, args.n)
    payload = {
        "shape": list(args.shape),
        "ok": report["ok"],
        "dimension_match": report["dimension_match"],
        "neighbors": [{"mu": list(item["mu"]), "dim": item["dim"]}
                      for item in report["neighbors"]],
        "failures": [repr(f) for f in report["failures"]],
    }

    def lines():
        yield "restriction filtration of {} at n={}: {}".format(
            _shape_str(args.shape), args.n,
            "ok" if report["ok"] else "FAILED")
        for item in payload["neighbors"]:
            yield "  layer {} of dimension {}".format(
                _shape_str(tuple(item["mu"])), item["dim"])
        yield from _failure_lines(payload)
    return payload, lines()


def _witness_payload(witnesses):
    """The witnesses as dicts; the witnesses of one bucket share one tuple
    of contents, and its strings stay one tuple, which the writer renders
    once."""
    text = _Text()
    strings = {}  # id of a shared vector -> its strings
    out = []
    for s, t, vec in witnesses:
        shared = strings.get(id(vec))
        if shared is None:
            shared = strings[id(vec)] = tuple(map(text.__getitem__, vec))
        out.append({"path_s": s, "path_t": t, "shared_vector": shared})
    return out


def _cmd_certify(args):
    verdict = certify(args.algebra, args.n, args.spec)
    payload = {
        "outcome": verdict.outcome,
        "witnesses": _witness_payload(verdict.evidence),
    }

    def lines():
        yield "eigenvalue-vector criterion for {} at n={}: {}".format(
            args.algebra, args.n, verdict.outcome)
        for item in payload["witnesses"]:
            yield "  collision: {}  and  {}  share  ({})".format(
                _path_str(item["path_s"]), _path_str(item["path_t"]),
                ", ".join(item["shared_vector"]))
    return payload, lines()


def _cmd_gram_certify(args):
    verdict = gram_rank_certify(args.algebra, args.n, args.spec)
    layers = []
    for item in verdict.evidence:
        entry = {"shape": list(item[0]), "rank": item[1],
                 "dimension": item[2]}
        if len(item) > 3:
            entry["radical_dimension"] = item[3]
        layers.append(entry)
    payload = {"outcome": verdict.outcome, "layers": layers}

    def lines():
        yield "Gram-rank criterion for {} at n={}: {}".format(
            args.algebra, args.n, verdict.outcome)
        for entry in layers:
            line = "  shape {:<10} rank {}/{}".format(
                _shape_str(tuple(entry["shape"])), entry["rank"],
                entry["dimension"])
            if "radical_dimension" in entry:
                line += "  radical dimension {}".format(
                    entry["radical_dimension"])
            yield line
    return payload, lines()


def _cmd_hom(args):
    if args.mu is None:
        raise CliError("missing required --mu")
    mu = _parse_shape(args.mu)
    try:
        possible = hom_obstruction(args.algebra, args.shape, mu, args.spec)
    except ValueError as exc:
        raise CliError(str(exc))
    payload = {
        "shape": list(args.shape),
        "mu": list(mu),
        "obstruction_passes": possible,
        "hom_certified_zero": not possible,
    }

    def lines():
        verdict = ("necessary condition holds (inconclusive)" if possible
                   else "obstruction fails: Hom is certified zero")
        yield "homomorphism obstruction {} -> {}: {}".format(
            _shape_str(args.shape), _shape_str(mu), verdict)
    return payload, lines()


def _cmd_conjecture(args):
    report = conjecture_evidence(args.n)
    payload = {
        "n": report["n"],
        "k": report["k"],
        "shape": list(report["lam"]),
        "roots": [str(x) for x in report["roots"]],
        "expected_roots": [str(x) for x in report["expected_roots"]],
        "agrees": report["agrees"],
        "nonlinear_remainder_degree": report["nonlinear_remainder_degree"],
    }

    def lines():
        yield "Gram-determinant root evidence at n={} (shape {}):".format(
            report["n"], _shape_str(report["lam"]))
        yield "  computed roots: {}".format(
            ", ".join(payload["roots"]) or "(none)")
        yield "  expected roots: {}".format(
            ", ".join(payload["expected_roots"]))
        yield "  agreement: {}".format(report["agrees"])
        if report["nonlinear_remainder_degree"] > 0:
            yield "  nonlinear remainder of degree {}".format(
                report["nonlinear_remainder_degree"])
    return payload, lines()


def _cmd_cache(args):
    if args.cache_dir is None:
        raise CliError("cache subcommand requires --cache-dir")
    status = ensure_cache(args.cache_dir, args.algebra, args.n)

    def lines():
        yield "cache {}: {} ({} matrices)".format(
            status["status"], status["path"], status["entries"])
    return dict(status), lines()


_HANDLERS = {
    "dim": _cmd_dim,
    "basis": _cmd_basis,
    "gram": _cmd_gram,
    "transition": _cmd_transition,
    "jm": _cmd_jm,
    "filtration": _cmd_filtration,
    "certify": _cmd_certify,
    "gram-certify": _cmd_gram_certify,
    "hom": _cmd_hom,
    "conjecture": _cmd_conjecture,
    "cache": _cmd_cache,
}

# The input flags each subcommand reads; it requires all of them but --spec
# and rejects the others.  --json and --cache-dir are accepted everywhere.
_TOWER = ("algebra", "n", "lambda")
_READS = {
    "dim": ("algebra", "n"),
    "basis": _TOWER,
    "gram": _TOWER + ("spec",),
    "transition": _TOWER,
    "jm": _TOWER,
    "filtration": _TOWER,
    "certify": ("algebra", "n", "spec"),
    "gram-certify": ("algebra", "n", "spec"),
    "hom": ("algebra", "lambda", "mu", "spec"),
    "conjecture": ("n",),
    "cache": ("algebra", "n"),
}
_FLAG_DEST = {"algebra": "algebra", "n": "n", "lambda": "shape_text",
              "mu": "mu", "spec": "spec_text"}
# the commands that act by generator matrices; only these load --cache-dir
# (cache itself writes it), since building a cache costs far more than
# answering dim, certify or hom
_READS_CACHE = {"basis", "gram", "transition", "jm", "filtration",
                "gram-certify"}

# Largest accepted --n.  The number of paths grows four- to fivefold per
# level (5937 at n = 8, 133651 at n = 10): a first certify in a process
# takes about 0.2 s at n = 8, 1.1 s at n = 9 and 7 s at n = 10, and dim
# needs 660 MB at n = 12.
# The tests use n <= 4 and the benchmark n <= 6.
MAX_N = 8
# Largest --n for conjecture, whose exact Gram determinant grows much faster:
# n = 6 answers in about 0.3 s, while n = 7 ran past 900 s in linalg.det.
MAX_CONJECTURE_N = 6


_HELP = """\
usage: cellalg COMMAND [--algebra {bmw,brauer}] [--n N] [--lambda LAMBDA]
               [--mu MU] [--spec SPEC] [--json] [--cache-dir CACHE_DIR]

Exact cellular-structure computations for the Brauer and
Birman-Murakami-Wenzl towers.

commands:
  dim, basis, gram, transition, jm, filtration, certify, gram-certify,
  hom, conjecture, cache

flags:
  -h, --help             show this help and exit
  --algebra {bmw,brauer}
  --n N                  the level, 1 to 8 (2 to 6 for conjecture)
  --lambda LAMBDA        partition as comma-separated parts, e.g. 2,1
  --mu MU                target partition (hom only)
  --spec SPEC            specialization, e.g. "z=4" or "r=-q^-3"
  --json                 print the report as JSON
  --cache-dir CACHE_DIR  directory of the generator-matrix cache\
"""

# Each flag: the attribute it sets and the function that turns its text into
# the value, or None for a switch.  Every long flag may be shortened to a
# prefix, which is unique because their first letters differ.
_FLAGS = {
    "-h": ("help", None),
    "--help": ("help", None),
    "--algebra": ("algebra", lambda text: _choice(text, ("bmw", "brauer"))),
    "--n": ("n", int),
    "--lambda": ("shape_text", str),
    "--mu": ("mu", str),
    "--spec": ("spec_text", str),
    "--json": ("json", None),
    "--cache-dir": ("cache_dir", str),
}
# a word that starts with "-" but reads as a negative number is a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _choice(text, choices):
    if text not in choices:
        raise ValueError("invalid choice: {!r}".format(text))
    return text


class _Args:
    """The parsed command line: one attribute per flag, None when absent
    (False for --json), plus ``shape`` and ``spec`` set by ``_validate``."""

    command = algebra = n = shape_text = mu = spec_text = cache_dir = None
    shape = spec = None
    json = False


def _classify(arg):
    """(flag, explicit value) for a flag, (None, None) for a word or (None,
    arg) for an unknown flag, as argparse reads one argument: "--n=3" gives
    an explicit value, and "-h" may carry a tail of more "h"s."""
    if arg[:1] != "-" or arg == "-":
        return None, None
    if arg in _FLAGS:
        return arg, None
    if arg[1] != "-":
        if arg[:2] == "-h":  # a short flag: its tail is an explicit value
            return "-h", arg[3:] if arg[2] == "=" else arg[2:]
    else:
        name, eq, value = arg.partition("=")
        matches = [flag for flag in _FLAGS if flag.startswith(name)]
        if len(matches) > 1:  # only "--=..."
            raise CliError("ambiguous option: " + arg)
        if matches:
            return matches[0], (value if eq else None)
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None, None
    return None, arg


def _parse_argv(argv):
    """The parsed arguments, or the exit code: 0 after printing the help,
    2 after an error.

    Reads what the argparse parser of earlier versions read, to the same
    values: flags before or after the command, "--flag=value", unique
    prefixes of long flags, and a "--" after which every argument is a
    word.  A failing value or choice, a flag without its value and a switch
    given one are refused where they stand; unknown flags, surplus words and
    a missing command are refused at the end, so a --help before them still
    prints the help.  One difference: argparse read "--flag=--" as an empty
    list, which the handlers could not take, and this parser reads "--"."""
    args = _Args()
    at = argv.index("--") if "--" in argv else len(argv)
    try:
        kinds = [_classify(arg) for arg in argv[:at]]
        surplus = False
        command_at = None
        i = 0
        while i < at:
            flag, value = kinds[i]
            i += 1
            if flag is None:
                if value is not None or command_at is not None:
                    surplus = True  # an unknown flag or a second word
                else:
                    command_at = i - 1
                    args.command = _choice(argv[command_at], _HANDLERS)
                continue
            attr, convert = _FLAGS[flag]
            if convert is None:
                if flag == "-h" and value and not value.strip("h"):
                    value = None  # "-hh": the help, twice
                if value is not None:
                    raise CliError("{} takes no value".format(flag))
                if attr == "help":
                    print(_HELP)
                    return 0
                args.json = True
                continue
            if value is None:
                if i == at or kinds[i] != (None, None):
                    raise CliError("{} expects a value".format(flag))
                value = argv[i]
                i += 1
            try:
                setattr(args, attr, convert(value))
            except ValueError as exc:
                raise CliError("bad value for {}: {}".format(flag, exc))
        words = argv[at + 1:]
        if at < len(argv) and command_at != at - 1:
            # "--" belongs to the command right before it, or else to the
            # command right after it
            if command_at is None and words:
                args.command = _choice(words.pop(0), _HANDLERS)
            else:
                surplus = True
        if args.command is None:
            raise CliError("missing COMMAND, one of " + ", ".join(_HANDLERS))
        if surplus or words:
            raise CliError("unrecognized arguments")
    except (CliError, ValueError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    return args


def _validate(args):
    cmd = args.command
    reads = _READS[cmd]
    for flag, dest in _FLAG_DEST.items():
        if flag not in reads and getattr(args, dest) is not None:
            raise CliError("{} does not accept --{}".format(cmd, flag))
    if "algebra" in reads and args.algebra is None:
        raise CliError("{} requires --algebra".format(cmd))
    if "n" in reads:
        if args.n is None:
            raise CliError("{} requires --n".format(cmd))
        if not 1 <= args.n <= MAX_N or (cmd == "conjecture" and args.n < 2):
            raise CliError("--n out of range")
        if cmd == "conjecture" and args.n > MAX_CONJECTURE_N:
            raise CliError("--n out of range: conjecture takes n up to {}"
                           .format(MAX_CONJECTURE_N))
    args.shape = None
    if "lambda" in reads:
        args.shape = _parse_shape(args.shape_text)
        if cmd != "hom":
            _check_shape(args.shape, args.n)
    args.spec = None
    if args.spec_text is not None:
        try:
            args.spec = Specialization.parse(args.spec_text,
                                             _ops(args.algebra).vars)
        except ValueError as exc:
            raise CliError("bad specialization: {}".format(exc))


def run(argv):
    args = _parse_argv(argv)
    if isinstance(args, int):
        return args
    start = time.monotonic()
    try:
        _validate(args)
        if args.cache_dir is not None and args.command in _READS_CACHE:
            ensure_cache(args.cache_dir, args.algebra, args.n)
        payload, lines = _HANDLERS[args.command](args)
    except (CliError, OSError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except PoleError as exc:
        print("error: specialization hits a pole: {}".format(exc),
              file=sys.stderr)
        return 3
    if args.json:
        report = {"command": args.command, "parameters": {}}
        for field in ("algebra", "n"):
            value = getattr(args, field)
            if value is not None:
                report["parameters"][field] = value
        if args.shape is not None:
            report["parameters"]["lambda"] = list(args.shape)
        if args.spec_text is not None:
            report["parameters"]["spec"] = args.spec_text
        report["result"] = payload
        report["timing"] = {"seconds": round(time.monotonic() - start, 6)}
        lines = [_json_text(report)]
    try:
        if sys.stdout is None:  # the process started without descriptor 1
            raise OSError("standard output is closed")
        for line in lines:
            print(line)
        sys.stdout.flush()
    except OSError as exc:  # e.g. the reader closed the pipe
        _silence_stdout()
        with contextlib.suppress(OSError):
            print("error: cannot write the output: {}".format(exc),
                  file=sys.stderr)
        return 2
    return 0


def _silence_stdout():
    """Point the stdout descriptor at devnull, so that the flush at
    interpreter exit cannot fail on the same stream again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no stream, or an in-memory one without a descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
