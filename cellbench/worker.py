"""Worker processes of the benchmark; ``cellalg`` comes from PYTHONPATH.

``worker.py cli TRACE_OUT ARG...``
    Runs one CLI query like ``python -m cellalg.cli ARG...`` with tracing
    installed, and writes the span summary and memo counters to TRACE_OUT.

``worker.py session``
    A long-lived process that answers one request per stdin line with one
    JSON line on stdout:
    ``{"argv": [...]}`` runs a CLI query in-process and returns its exit
    code and output; ``{"op": "trace", "on": bool}`` installs or removes
    tracing; ``{"op": "summary"}`` returns the span summary gathered since
    tracing was installed and the memo counters.
"""

import contextlib
import io
import json
import sys

import tracing


def _run_cli(argv):
    from cellalg import cli
    return cli.run(argv)


def cli_main(trace_out, argv):
    tracer = tracing.Tracer()
    tracer.install()
    code = _run_cli(argv)
    sys.stdout.flush()
    summary = {"functions": tracer.take_summary(), "memo": tracer.memo()}
    with open(trace_out, "w") as handle:
        json.dump(summary, handle)
    return code


def session_main():
    protocol = sys.stdout
    tracer = None
    functions = {}

    def reply(obj):
        protocol.write(json.dumps(obj) + "\n")
        protocol.flush()

    # Read before any tracing is installed: the tracer replaces the memoised
    # functions' module bindings with wrappers.
    memos = tracing.memo_objects(tracing.modules())
    reply({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if "argv" in request:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = _run_cli(request["argv"])
            reply({"rc": code, "out": buffer.getvalue()})
            if tracer is not None:
                tracing.merge_tables(functions, tracer.take_summary())
        elif request.get("op") == "trace":
            if request["on"] and tracer is None:
                tracer = tracing.Tracer()
                tracer.install()
            elif not request["on"] and tracer is not None:
                tracer.uninstall()
                tracer = None
            reply({"ok": True})
        elif request.get("op") == "summary":
            reply({"functions": functions,
                   "memo": tracing.memo_snapshot(memos)})
        else:
            reply({"error": "unknown request"})
    return 0


def main(argv):
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return cli_main(argv[1], argv[2:])
    if argv == ["session"]:
        return session_main()
    print("usage: worker.py cli TRACE_OUT ARG... | worker.py session",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
