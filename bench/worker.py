"""One pass of a workload in a fresh interpreter.

Usage: python3 -S worker.py SRC_DIR

Imports invforge.cli from SRC_DIR, prints "ready", then reads one JSON
job from stdin: {"argvs": [[...], ...], "trace": bool}.  Each argv goes
to cli.main in turn with stdout and stderr captured and its latency
taken around the call.  With "trace" set the pass runs under the tracer,
and the span totals and counters, reduced after the timed region, go
into the report.  The last stdout line is a JSON report of the pass.
"""

import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, process_time


def run_answers(cli, argvs):
    records = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a raising answer is a failed answer
                error = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
        records.append(
            {"code": code, "stdout": out.getvalue(), "error": error, "seconds": t1 - t0}
        )
    return records


def main():
    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)
    import invforge.cli  # the parent times the interpreter start up to "ready"

    print("ready", flush=True)
    if not os.path.realpath(invforge.cli.__file__).startswith(src + os.sep):
        print(f"invforge was imported from {invforge.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    job = json.loads(sys.stdin.read())
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(invforge)
    wall0, cpu0 = perf_counter(), process_time()
    records = run_answers(invforge.cli, job["argvs"])
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    report = {
        "records": records,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        report["span_totals"] = tracer.totals()
        report["counters"] = tracer.counters
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
