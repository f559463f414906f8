"""Every query of the benchmark catalog, answered in process through
``cli.run``, against its stored digest in ``cellbench/digests.json`` (the
SHA-256 of the JSON report without its ``timing`` field)."""

import contextlib
import io
import sys
from pathlib import Path

from cellalg import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cellbench"))
import catalog  # noqa: E402


def test_every_catalog_query_matches_its_digest():
    digests = catalog.load_digests()
    failures = []
    for query in catalog.all_queries():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(list(query) + ["--json"])
        reason = catalog.check_output(query, code, out.getvalue(), digests)
        if reason is not None:
            failures.append((catalog.key(query), reason))
    assert not failures
