"""Every query of the benchmark catalog, answered in process through
``cli.run``, against its stored digest in ``cellbench/digests.json`` (the
SHA-256 of the JSON report without its ``timing`` field), and printed in the
layout of ``json.dumps(report, indent=2)``, once and then again from the
memos of the same process."""

import contextlib
import io
import json
import sys
from pathlib import Path

from cellalg import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cellbench"))
import catalog  # noqa: E402


def test_every_catalog_query_matches_its_digest():
    digests = catalog.load_digests()
    failures = []
    # the second pass answers each query again in the same process, from
    # the memos the first pass filled: they must not change an answer
    for answer in ("first", "repeated"):
        for query in catalog.all_queries():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(list(query) + ["--json"])
            reason = catalog.check_output(query, code, out.getvalue(),
                                          digests)
            if reason is None and out.getvalue() != json.dumps(
                    json.loads(out.getvalue()), indent=2) + "\n":
                reason = "not in the layout of json.dumps(indent=2)"
            if reason is not None:
                failures.append((answer, catalog.key(query), reason))
    assert not failures
