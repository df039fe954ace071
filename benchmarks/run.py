#!/usr/bin/env python3
"""Benchmark harness for jacring.  Run from the repository root:

    python3 benchmarks/run.py --workload green-monomial --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py                   # every workload, one fresh process each
    python3 benchmarks/run.py --smoke           # a few jobs per workload, untraced and traced
    python3 benchmarks/run.py --record-goldens  # rewrite goldens/ from the offset-0 inputs

`--seed` is the seed offset of the workload's inputs (see workloads.py).

Untraced (`--trace 0`) the jobs of the workload run in a fixed order,
cycling past the end of the list until every job has run once and the
next one would end after `--seconds`.  A job's latency is the minimum of
its runs, as with timeit: other load on the machine only adds time (on a
shared 2-core x86-64 VM a fixed 30 ms Python loop ran up to 60% slower
for stretches of 5-60 s).  One figure per job also keeps the metrics
independent of how far the last partial pass got.  Printed: jobs_per_s
(verified jobs over the summed latencies of all jobs), job_p50_s and
job_p90_s over the jobs, setup_s (median wall time of fresh interpreters
that import jacring and build the inputs, started at even intervals of
the run), and peak_rss_mb of this process.

Traced (`--trace 1`) every job runs once under the tracer (tracing.py),
giving the per-layer metrics of that pass; its spans go to out/.  Until
`--seconds` have passed, jobs then run in turn both untraced and traced;
trace.overhead_frac compares the two.

Every output is checked against the workload's invariants and, where the
inputs are the recorded ones, against the golden outputs.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; fail_frac is failed / attempted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(SRC))

WORKLOADS = ("green-monomial", "hodge-random", "yukawa-d2")
SETUP_SAMPLES = 7
PHASE_CAP_S = 120          # start no job after this, so a run ends within 180 s
SMOKE_JOBS = {"green-monomial": 2, "hodge-random": 1, "yukawa-d2": 1}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# -- running jobs ------------------------------------------------------------


def execute(job, goldens: dict | None, around=nullcontext) -> tuple[float, str | None]:
    """Run one job; return its wall time and the problem found, if any."""
    t0 = time.perf_counter()
    try:
        with around(job.key):
            out = job.run()
        elapsed = time.perf_counter() - t0
        problem = job.check(out)
    except Exception as e:  # a job that raises is a failed job; the run goes on
        return time.perf_counter() - t0, f"raised {type(e).__name__}: {e}"
    if problem is None and goldens is not None:
        if job.key not in goldens:
            problem = "no golden output recorded"
        elif goldens[job.key] != out:
            problem = f"differs from the golden output: {out!r}"
    return elapsed, problem


def measure(jobs, goldens, seconds: float, setup):
    """Untraced: cycle through the jobs until each ran once and the next one
    would end after `seconds`.  In between, `setup()` is timed
    SETUP_SAMPLES times at even intervals, because the machine's speed
    drifts over seconds.  Returns per-job lists of wall times, the set-up
    times and the failures."""
    times: list[list[float]] = [[] for _ in jobs]
    setups: list[float] = []
    failures = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup())
            continue
        k = i % len(jobs)
        if elapsed > PHASE_CAP_S or (i >= len(jobs) and elapsed + min(times[k]) > seconds):
            break
        t, problem = execute(jobs[k], goldens)
        times[k].append(t)
        if problem:
            failures.append((jobs[k].key, problem))
        i += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup())
    return times, setups, failures


def measure_traced(jobs, goldens, seconds: float):
    """Traced: one pass of every job under the tracer, for the per-layer
    metrics; then, until `seconds` have passed, jobs in turn both untraced
    and traced, for the tracing overhead.  Returns the tracer of the pass,
    the overhead, the failures and the number of runs."""
    import tracing

    failures = []
    runs = 0

    def run(job, tracer=None) -> float:
        nonlocal runs
        if tracer is None:
            elapsed, problem = execute(job, goldens)
        else:
            tracer.install()
            try:
                elapsed, problem = execute(job, goldens, tracer.job)
            finally:
                tracer.uninstall()
        runs += 1
        if problem:
            failures.append((job.key, problem))
        return elapsed

    start = time.perf_counter()
    tracer = tracing.Tracer()
    for job in jobs:
        if time.perf_counter() - start > PHASE_CAP_S:
            break
        run(job, tracer)

    plain = traced = 0.0
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        elapsed = time.perf_counter() - start
        if i and (elapsed > PHASE_CAP_S or elapsed + (plain + traced) / i > seconds):
            break
        # alternate which run goes first, so warm-up favours neither
        if i % 2:
            t = run(job, tracing.Tracer())
            plain += run(job)
        else:
            plain += run(job)
            t = run(job, tracing.Tracer())
        traced += t
    return tracer, traced / plain - 1, failures, runs


def setup_seconds(workload: str, offset: int) -> float:
    """Wall time of a fresh interpreter that imports jacring and builds the
    workload's inputs, as a user pays it.  The child prints the clock when
    it is done: waiting for it with a timeout polls in steps of up to 50 ms,
    which would round the time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(offset), "--setup-only"]
    t0 = time.time()
    done = subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    return float(done.stdout) - t0


def _p90(xs: list[float]) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def run_workload(name: str, offset: int, seconds: float, trace: bool,
                 limit: int | None = None, goldens: dict | None = None):
    """One run of a workload in this process.  Returns the result object,
    the failures and a one-line description of what ran.  `goldens`
    replaces the recorded goldens where those apply."""
    import workloads

    wl = workloads.BUILDERS[name](offset)
    jobs = wl.jobs[:limit]
    if not wl.goldens_apply:
        goldens = None
    elif goldens is None:
        goldens = workloads.load_goldens(name)
    t0 = time.perf_counter()
    if trace:
        import tracing

        tracer, overhead, failures, runs = measure_traced(jobs, goldens, seconds)
        metrics = tracing.layer_metrics(tracer.spans, overhead)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-seed{offset}.jsonl")
    else:
        times, setup, failures = measure(jobs, goldens, seconds,
                                         lambda: setup_seconds(name, offset))
        runs = sum(len(t) for t in times)
        failed_keys = {key for key, _ in failures}
        latency = [min(t) for t in times if t]
        verified = sum(1 for job, t in zip(jobs, times) if t and job.key not in failed_keys)
        metrics = {
            "jobs_per_s": (verified / sum(latency), "1/s"),
            "job_p50_s": (statistics.median(latency), "s"),
            "job_p90_s": (_p90(latency), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    wall = time.perf_counter() - t0
    result = {
        "correct": not failures,
        "attempted": runs,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    what = (f"{name} offset {offset} ({'traced' if trace else 'untraced'}): "
            f"{len(jobs)} jobs, {runs} runs in {wall:.1f} s")
    return result, failures, what


# -- reporting ---------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def report(result: dict, failures, what: str) -> None:
    print(what)
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} runs)")
    for key, problem in failures[:10]:
        print(f"  FAILED {key}: {problem}")


# -- modes -------------------------------------------------------------------


def record_goldens() -> int:
    import workloads

    commit = git_commit()
    for name in WORKLOADS:
        outputs = {}
        for job in workloads.BUILDERS[name](0).jobs:
            out = job.run()
            problem = job.check(out)
            if problem:
                print(f"{name}: {job.key}: {problem}; goldens not written", file=sys.stderr)
                return 1
            outputs[job.key] = out
        path = workloads.golden_path(name)
        path.parent.mkdir(exist_ok=True)
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in outputs.items())
        path.write_text(f'{{"commit": "{commit}", "offset": 0, "outputs": {{\n{lines}\n}}}}\n')
        print(f"{name}: {len(outputs)} golden outputs -> {path.relative_to(ROOT)}")
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so no cache carries over and
    peak_rss_mb belongs to that workload alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=180)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed offset of the inputs; 0 reproduces the golden inputs")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run a few jobs of every workload, untraced and traced")
    ap.add_argument("--record-goldens", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # One BLAS thread, set before numpy loads and inherited by the child
    # processes.  With OpenBLAS's default of two threads on a shared 2-core
    # VM, yukawa-d2's jobs_per_s spread by 29% over five runs, against 12%
    # with one: how much the second thread helped varied with other load.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "jacring" / "__init__.py").is_file():
        print(f"error: no jacring sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        import workloads

        workloads.BUILDERS[args.workload](args.seed)
        print(time.time())
        return 0
    if args.record_goldens:
        return record_goldens()
    print("env " + json.dumps(environment()))
    if args.smoke:
        correct = True
        for name in WORKLOADS:
            for trace in (False, True):
                result, failures, what = run_workload(name, args.seed, 0, trace,
                                                      limit=SMOKE_JOBS[name])
                report(result, failures, what)
                print(json.dumps(result))
                correct &= result["correct"]
        return 0 if correct else 1
    if args.workload == "all":
        return run_all(args)
    result, failures, what = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    report(result, failures, what)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
