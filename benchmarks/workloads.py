"""The benchmark's workloads: fixed job lists built from a seed offset, the
set-up a user pays before the first job, and the check of every job's
output against invariants and golden outputs.

All workloads use p = 65521.  Offset 0 reproduces the seeds below; the
goldens in `goldens/` were recorded at offset 0 and are checked there.
At other offsets only the invariants are checked.

* green-monomial: one job per Koszul cell, (n, N, codim) in
  {(3,4,0..2), (4,2,0..2), (4,3,2)}, a <= 4, s <= 2, one trial each;
  each job samples its monomial base-point-free system from the
  acceptance-3 seed 1000n+10N+c (+ 100000 * offset) and takes the middle
  defect.  Many tiny strand ranks and Python strand assembly.
* hodge-random: `jacring hodge-numbers --d 3 --N 4 --random-smooth
  --seed s`, s = 0, 1, in process.  Elimination on J^k with 1001-1365
  columns.  The forms are the same at every offset: certifying one form
  takes from 1.7 s to 11 s depending on the support of its random
  perturbation (34 seeds on a 2-core x86-64 VM, Python 3.11, numpy 2.4),
  so forms drawn per offset would spread runs by about 30%, beyond any
  bound the benchmark may set.
* yukawa-d2: `jacring yukawa-chain --d 2 --seed s`, s = 30*offset + 0..29,
  in process.  Product spans, colon, BPF and power spans on medium
  matrices with many more rows than rank.

Each list is sized so that one pass takes a quarter to a third of a 40 s
run (10-14 s on the machine above), because a job's latency is the
minimum of its runs in the pass order (see run.py).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from jacring import cli, koszul, polynomials

P = 65521
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

GREEN_SYSTEMS = ((3, 4, 0), (3, 4, 1), (3, 4, 2), (4, 2, 0), (4, 2, 1), (4, 2, 2), (4, 3, 2))
GREEN_A_MAX = 4
GREEN_S_MAX = 2
HODGE_SEEDS = range(2)
YUKAWA_JOBS = 30


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable[[], object]             # the timed call; returns the job's output
    check: Callable[[object], str | None]  # invariant broken by an output, or None


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: list[Job]
    goldens_apply: bool   # inputs are those the goldens were recorded on


def _green_job(n: int, N: int, codim: int, seed: int, a: int, s: int) -> Job:
    # module attributes are looked up at call time, so a traced run sees
    # the tracer's wrappers
    def run():
        W = koszul.sample_bpf_subsystem(n, N, codim, P, np.random.default_rng(seed),
                                        style="monomial")
        rep = koszul.middle_exactness(W, a, s)
        return [rep.rank_in, rep.kernel_out, rep.defect]

    def check(out):
        rank_in, kernel_out, defect = out
        if defect != kernel_out - rank_in or defect < 0:
            return f"defect {defect} inconsistent with rank_in {rank_in}, kernel_out {kernel_out}"
        if a >= s + codim and defect != 0:
            return f"in-bound cell not exact (defect {defect})"
        return None

    return Job(f"n={n} N={N} codim={codim} seed={seed} a={a} s={s}", run, check)


def _cli_job(argv: list[str], check_report: Callable[[dict], str | None]) -> Job:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return [rc, buf.getvalue()]

    def check(out):
        rc, stdout = out
        if rc != 0:
            return f"exit code {rc}"
        return check_report(json.loads(stdout))

    return Job(" ".join(argv), run, check)


def _check_hodge(report: dict) -> str | None:
    if report["smooth"] is not True:
        return "form not certified smooth"
    h = {(p, q): v for p, q, v in report["hodge"]}
    if any(h[p, q] != h[q, p] for p, q in h):
        return f"Hodge numbers not symmetric: {report['hodge']}"
    return None


def _check_yukawa(report: dict) -> str | None:
    return None if report["all_ok"] is True else "a chain step failed"


def _warm_tables(n: int, top: int) -> None:
    """Fill the cached monomial tables of S^0..S^top, as the first job of a
    CLI run would."""
    for k in range(top + 1):
        polynomials.monomial_index(n, k)
        polynomials.monomial_array(n, k)


def green_monomial(offset: int) -> Workload:
    jobs = []
    for n, N, c in GREEN_SYSTEMS:
        _warm_tables(n, GREEN_A_MAX + 2 * N)
        seed = 1000 * n + 10 * N + c + 100_000 * offset
        jobs += [_green_job(n, N, c, seed, a, s)
                 for a in range(GREEN_A_MAX + 1) for s in range(GREEN_S_MAX + 1)]
    return Workload("green-monomial", jobs, offset == 0)


def hodge_random(offset: int) -> Workload:
    _warm_tables(5, 11)  # n = d+2 variables, up to sigma + 1
    jobs = [_cli_job(["hodge-numbers", "--d", "3", "--N", "4", "--random-smooth",
                      "--seed", str(s)], _check_hodge) for s in HODGE_SEEDS]
    return Workload("hodge-random", jobs, True)


def yukawa_d2(offset: int) -> Workload:
    _warm_tables(4, 8)  # n = d+2 variables, up to 2d+4
    jobs = [_cli_job(["yukawa-chain", "--d", "2", "--seed", str(YUKAWA_JOBS * offset + i)],
                     _check_yukawa) for i in range(YUKAWA_JOBS)]
    return Workload("yukawa-d2", jobs, offset == 0)


BUILDERS = {"green-monomial": green_monomial, "hodge-random": hodge_random,
            "yukawa-d2": yukawa_d2}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_goldens(name: str) -> dict:
    with open(golden_path(name)) as fh:
        return json.load(fh)["outputs"]
