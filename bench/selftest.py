"""The benchmark's own tests: every workload at a tiny size, untraced and traced.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default test run;
pytest collects a file that is named on its command line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    completed = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return completed, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_and_passes_checks(workload):
    completed, result = _run(workload, trace=0)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    checks = [line for line in completed.stdout.splitlines() if line.startswith("check ")]
    # the exact-equality checks broken by the known summation-order defect in
    # rank are printed on every run, marked as known, and are not gated
    assert checks and all(": ok (" in line or ": KNOWN DEFECT (" in line for line in checks)
    assert any("up to tied scores: ok (" in line for line in checks)
    assert any(" exactly: " in line for line in checks)


@pytest.fixture(scope="module")
def traced_runs():
    return {workload: _run(workload, trace=1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, traced_runs):
    completed, result = traced_runs[workload]
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert result["correct"] is True
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == {metric["name"] for metric in SPEC["per_layer"]}
    assert metrics["trace.spans"] > 0 and metrics["trace.overhead_ratio"] > 0
    if workload == "pipeline-synth":
        assert metrics["pairs.eval_pairs"] > 0 and metrics["metrics.expected_t_ndcg_s"] > 0
        assert metrics["gateway.requests"] == 0
        assert metrics["compare.cache_hits"] + metrics["compare.cache_misses"] == 0
    else:
        assert metrics["pairs.eval_pairs"] == 0 and metrics["pairs.self_s"] == 0
        assert metrics["metrics.self_s"] == 0
        assert metrics["compare.cache_misses"] > 0 and metrics["compare.cache_hits"] > 0
    if workload == "inbox-remote":
        assert metrics["gateway.requests"] == metrics["gateway.server_requests"] > 0
        assert metrics["gateway.retries"] == 0
    else:
        assert metrics["gateway.requests"] == metrics["gateway.server_requests"] == 0


def test_every_per_layer_metric_is_measured_on_some_workload(traced_runs):
    # a name in BENCHMARK.json that no workload computes would otherwise
    # read 0 everywhere without notice
    measured = {
        line.split()[1]
        for completed, _ in traced_runs.values()
        for line in completed.stdout.splitlines()
        if line.startswith("layer ") and not line.endswith("(not reached on this workload)")
    }
    assert measured == {metric["name"] for metric in SPEC["per_layer"]}


def test_fails_without_the_program():
    bare = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        completed, result = _run(WORKLOADS[0], trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert result is None
