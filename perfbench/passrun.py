"""One pass over a workload's commands, in a fresh interpreter.

    python3 passrun.py SPEC OUT

SPEC is a JSON file {"commands": [argv, ...], "trace": bool}. Each command
runs in process through influence_lab.cli.main(argv) with stdout captured,
one after another on this thread. OUT receives the import time, the pass
time (from after the import to the last answer), the peak resident memory,
each command's exit code, output and time, and, when tracing, every span.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_command(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails the command; the pass goes on
            code = None
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}


def main(spec_path: str, out_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    from influence_lab import cli

    setup_s = time.perf_counter() - start
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    results = [run_command(cli, argv) for argv in spec["commands"]]
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib,
        "commands": results,
        "spans": tracer.spans if tracer else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
