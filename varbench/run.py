"""Benchmark of varsolve end to end, one workload per run.

Usage (from the repository root):

    python3 varbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the seeded instance files under ``.varbench/``, computes
every expected answer outside the timed region, and then runs whole rounds
of the instances through ``varsolve.cli.main`` in one fresh worker process
for S seconds.  Afterwards it checks every verdict and every YES
certificate with ``checks``, and prints one JSON line as the last line of
its output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` the worker wraps each layer's public functions and the line
holds the per-layer metrics instead.  Times are scaled to a steady machine
by the speed probe in ``speed.py``; the unscaled figures go to stderr.  A
wrong verdict or a bad certificate ends the run with exit code 1 and names
the instance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from varbench import checks, spans, speed, workloads  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".varbench"
SETUP_SAMPLES = 15
IMPORTTIME_SAMPLES = 5
SETUP_CODE = "import varsolve.cli as cli; cli.build_parser()"


def child_env() -> dict[str, str]:
    """One thread per process, a fixed hash seed, and the package on the path."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def setup_seconds() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the command line,
    scaled by the speed probe run before each sample, and unscaled.

    The wait blocks instead of polling (a wait with a timeout polls in steps
    of up to 50 ms, which would round every sample); a timer kills a child
    that hangs.
    """
    samples, probes = [], []
    for _ in range(SETUP_SAMPLES):
        probes.append(speed.probe())
        begin = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=child_env())
        timer = threading.Timer(60, child.kill)
        timer.start()
        try:
            code = child.wait()
        finally:
            timer.cancel()
        samples.append(time.perf_counter() - begin)
        if code != 0:
            raise RuntimeError(f"importing varsolve.cli failed with exit code {code}")
    raw = statistics.median(samples)
    return raw * speed.NOMINAL_S / statistics.median(probes), raw


def import_seconds() -> tuple[float, float]:
    """Median cumulative import time of varsolve and of numpy, from -X importtime."""
    totals, numpy_times = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                              env=child_env(), check=True, timeout=60,
                              capture_output=True, text=True)
        total = numpy_time = 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            package = name.strip()
            depth = len(name) - len(name.lstrip()) - 1
            if depth == 0 and package.split(".")[0] == "varsolve":
                total += int(cumulative)
            if package == "numpy":
                numpy_time += int(cumulative)
        totals.append(total / 1e6)
        numpy_times.append(numpy_time / 1e6)
    return statistics.median(totals), statistics.median(numpy_times)


def steps_for(instance: dict, path: Path) -> list[list[str]]:
    solve = [instance["command"]] + (["--certificate"] if instance["certificate"] else [])
    if instance["reduce"]:
        return [[instance["reduce"], str(path)], solve[:1] + ["-"] + solve[1:]]
    return [solve[:1] + [str(path)] + solve[1:]]


def write_inputs(instances: list[dict], directory: Path) -> list[list[list[str]]]:
    """Write one file per instance; return each instance's command-line steps."""
    directory.mkdir(parents=True, exist_ok=True)
    steps = []
    for instance in instances:
        path = directory / f"{instance['id']}.txt"
        path.write_text(instance["text"])
        steps.append(steps_for(instance, path))
    return steps


def run_worker(job: dict, work: Path, timeout: float) -> dict:
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    worker = subprocess.Popen([sys.executable, str(ROOT / "varbench" / "worker.py"),
                               str(job_path), str(result_path)], env=child_env())
    try:
        code = worker.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result_path.read_text())


def check_results(instances: list[dict], result: dict) -> tuple[int, int]:
    """Check each distinct output once; return (attempted, failed).

    Raises checks.CheckFailed on a wrong verdict, a bad certificate, an
    error exit, or a fixed instance decided without a reference answer.
    """
    verdicts = {}
    for index, _, key in result["rows"]:
        if (index, key) in verdicts:
            continue
        instance, output = instances[index], result["outputs"][key]
        status = output["status"]
        if status == "error":
            raise checks.CheckFailed(f"{instance['id']}: exit codes {output['codes']}: "
                                     f"{(output['stdout'] or '').strip()[:200]}")
        if status == "ok":
            if instance["expected"] is None:
                raise checks.CheckFailed(
                    f"{instance['id']}: decided, but no reference answer is stored; "
                    "rebuild it with varbench/expected.py")
            verdict = checks.check_output(instance, output["stdout"],
                                          output["intermediate"])
            if output["codes"][-1] != (0 if verdict == "YES" else 1):
                raise checks.CheckFailed(f"{instance['id']}: exit code "
                                         f"{output['codes'][-1]} after {verdict}")
        verdicts[(index, key)] = status
    failed = sum(verdicts[(index, key)] != "ok" for index, _, key in result["rows"])
    return len(result["rows"]), failed


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def per_round(result: dict, scaled: bool) -> list[tuple[float, float, float]]:
    """(solved per second, p50, p90) of each round.

    A round's time is the sum of its instance times.  When ``scaled``, each
    instance time is multiplied by ``speed.NOMINAL_S`` over the median speed
    probe of its round, except a time cut at the per-instance limit, which
    does not depend on the machine.
    """
    size = len(result["rows"]) // len(result["round_walls"])
    out = []
    for number in range(len(result["round_walls"])):
        factor = 1.0
        if scaled:
            factor = speed.NOMINAL_S / statistics.median(
                t for r, t in result["probes"] if r == number)
        solved, times = 0, []
        for _, elapsed, key in result["rows"][number * size:(number + 1) * size]:
            status = result["outputs"][key]["status"]
            solved += status == "ok"
            times.append(elapsed if status == "timeout" else elapsed * factor)
        out.append((solved / sum(times), nearest_rank(times, 0.5), nearest_rank(times, 0.9)))
    return out


def time_metrics(result: dict, scaled: bool) -> dict[str, float]:
    """Medians over the rounds, so one slow round does not move them."""
    rounds = per_round(result, scaled)
    return {name: statistics.median(r[i] for r in rounds)
            for i, name in enumerate(("solved_per_s", "latency_p50_s", "latency_p90_s"))}


def summary(instances: list[dict], result: dict) -> str:
    failed = sorted({instances[index]["id"] for index, _, key in result["rows"]
                     if result["outputs"][key]["status"] != "ok"})
    return (f"{len(instances)} instances per round, {result['rounds']} rounds in "
            f"{result['wall']:.2f} s; failed: {', '.join(failed) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "varsolve" / "cli.py").is_file():
        print(f"error: {SRC / 'varsolve'} is missing; run from a varsolve checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    instances = workloads.instances(args.workload, args.seed)
    steps = write_inputs(instances, work / "inputs")

    if args.trace:
        import_s, numpy_s = import_seconds()
    else:
        setup_s, setup_raw = setup_seconds()
    job = {"src": str(SRC), "bench_parent": str(ROOT), "steps": steps,
           "seconds": args.seconds, "limit": workloads.TIME_LIMIT[args.workload],
           "trace": bool(args.trace), "spans_path": str(work / "spans.json")}
    result = run_worker(job, work, timeout=args.seconds + 120)

    correct = True
    try:
        attempted, failed = check_results(instances, result)
    except checks.CheckFailed as error:
        print(f"error: wrong answer: {error}", file=sys.stderr)
        correct = False
        attempted, failed = len(result["rows"]), 0
    print(summary(instances, result), file=sys.stderr)

    if args.trace:
        spans_list = json.loads((work / "spans.json").read_text())
        values = spans.layer_metrics(spans_list, result["rounds"])
        values.update({"setup.import_s": import_s, "setup.numpy_import_s": numpy_s})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        raw = time_metrics(result, scaled=False)
        print("unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
              + f", setup_s {setup_raw:.6g}", file=sys.stderr)
        values = time_metrics(result, scaled=True)
        values.update(peak_rss_mb=result["peak_rss_mb"], setup_s=setup_s)
        units = {"solved_per_s": "1/s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": value, "unit": units.get(name, "s")}
                   for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
