"""Self-test of the benchmark harness.  Run from the repository root:

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # benchmarks/run.py; pytest puts this directory on sys.path
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def test_smoke_prints_only_declared_metrics(smoke_results):
    # every workload, untraced then traced
    assert len(smoke_results) == 2 * len(run.WORKLOADS)
    for result, declared in zip(smoke_results, [END_TO_END, PER_LAYER] * len(run.WORKLOADS)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_span_self_times_sum_to_job_duration():
    jobs = workloads.green_monomial(0).jobs[:2] + workloads.yukawa_d2(0).jobs[:1]
    tracer = tracing.Tracer()
    original = workloads.koszul.rank_gfp
    tracer.install()
    try:
        assert workloads.koszul.rank_gfp is not original
        for job in jobs:
            with tracer.job(job.key):
                job.run()
    finally:
        tracer.uninstall()
    assert workloads.koszul.rank_gfp is original

    selft = tracing.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [r.job for r in roots] == [job.key for job in jobs]
    for root in roots:
        spans = [s for s in tracer.spans if s.job == root.job]
        assert len(spans) > 1
        assert sum(selft[id(s)] for s in spans) == pytest.approx(root.dur, rel=1e-9, abs=1e-12)


def test_forced_golden_mismatch_raises_fail_frac():
    goldens = workloads.load_goldens("green-monomial")
    first = workloads.green_monomial(0).jobs[0].key
    forged = dict(goldens, **{first: [-1, -1, -1]})
    result, failures, _ = run.run_workload("green-monomial", 0, 0, trace=False,
                                           limit=2, goldens=forged)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert [key for key, _ in failures] == [first]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "yukawa-d2", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
