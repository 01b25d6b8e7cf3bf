"""Run one workload's instances through ``varsolve.cli.main`` in this process.

Usage: ``python3 worker.py JOB.json RESULT.json``.  The job names the
source directory, the instance steps (one ``main`` argument list per step;
a step after the first reads the previous step's output on stdin), the run
length, the per-instance time limit and whether to trace.  The worker runs
whole rounds of the instances until the run length is spent, in one
thread, and writes every instance time, exit status and distinct output,
and the time of the speed probe run after every ``PROBE_EVERY`` instances.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time


PROBE_EVERY = 20


class TimeLimit(BaseException):
    """The instance ran past the workload's per-instance limit."""


def _alarm(signum, frame):
    raise TimeLimit()


def run_instance(main, steps, limit):
    """Return (status, exit codes, intermediate text, final output).

    A step after the first reads the previous step's stdout, and a pipe
    stops at a step that does not exit with 0.  The intermediate text is
    the first step's stdout in a pipe; the final output is the last step's
    stdout, followed by its stderr when the status is an error.
    """
    codes, outputs, errors = [], [], ""
    signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            for argv in steps:
                if outputs:
                    if codes[-1] != 0:
                        break
                    sys.stdin = io.StringIO(outputs[-1])
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes.append(main(argv))
                outputs.append(out.getvalue())
                errors = err.getvalue()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeLimit:
        return "timeout", codes, None, None
    finally:
        sys.stdin = sys.__stdin__
    intermediate = outputs[0] if len(steps) > 1 else None
    if len(codes) < len(steps) or codes[-1] not in (0, 1, 3):
        return "error", codes, intermediate, outputs[-1] + errors
    if codes[-1] == 3:
        return "unknown", codes, None, None
    return "ok", codes, intermediate, outputs[-1]


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    sys.path.insert(0, job["bench_parent"])
    from varsolve import cli
    from varbench.speed import probe

    tracer = None
    run = cli.main
    if job["trace"]:
        from varbench.spans import Tracer
        tracer = Tracer()
        tracer.install()
        run = lambda argv: tracer.span("cli.main", lambda: cli.main(argv))

    rows, outputs, keys, round_walls, probes = [], [], {}, [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for index, steps in enumerate(job["steps"]):
            if tracer is not None:
                tracer.instance = index
            begin = time.perf_counter()
            status, codes, intermediate, stdout = run_instance(run, steps, job["limit"])
            elapsed = time.perf_counter() - begin
            key = (status, tuple(codes), intermediate, stdout)
            if key not in keys:
                keys[key] = len(outputs)
                outputs.append({"status": status, "codes": codes,
                                "intermediate": intermediate, "stdout": stdout})
            rows.append((index, elapsed, keys[key]))
            if index % PROBE_EVERY == 0:
                probes.append((len(round_walls), probe()))
        round_walls.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= job["seconds"]:
            break
    wall = time.perf_counter() - start

    result = {"rows": rows, "outputs": outputs, "rounds": len(round_walls), "wall": wall,
              "round_walls": round_walls, "probes": probes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        with open(job["spans_path"], "w") as handle:
            json.dump(tracer.spans, handle)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
