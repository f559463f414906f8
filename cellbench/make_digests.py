"""Write digests.json: the digest of every query the benchmark can send.

    python3 cellbench/make_digests.py

Run from the root of a checkout whose answers are known to be right.  Each
query runs as a fresh ``python -m cellalg.cli ... --json`` process with the
benchmark's worker environment; a query that does not exit 0 stops the run,
since the workloads must consist of queries that succeed.
"""

import json
import subprocess
import sys

import catalog
from run import ROOT, worker_env


def main():
    env = worker_env()
    digests = {}
    queries = catalog.all_queries()
    for i, query in enumerate(queries, 1):
        proc = subprocess.run(
            [sys.executable, "-m", "cellalg.cli"] + list(query) + ["--json"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print("error: {} exited {}".format(catalog.key(query),
                                               proc.returncode),
                  file=sys.stderr)
            return 1
        digests[catalog.key(query)] = catalog.report_digest(
            json.loads(proc.stdout))
        print("{}/{} {}".format(i, len(queries), catalog.key(query)),
              flush=True)
    with open(catalog.DIGESTS_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
