"""Smoke test of the benchmark harness on each of its four workloads."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["net", "suite", "analysis", "sweep"])
def test_traced_benchmark_passes_its_self_check(workload):
    # --trace 1 first drives every wrapped binding site once and requires exact
    # call counts (one encode per frame at each endpoint, two write_trace_csv
    # per simulate), then checks every operation's outputs: merged session
    # traces against the in-process run bitwise (net), every simulate artifact
    # against the stored reference (suite), the stored estimation_study rows
    # and the resilience verdicts (analysis), and each cell's undetectability
    # and monitor flags (sweep)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output (exit {proc.returncode}): {proc.stderr[-2000:]}"
    result = json.loads(lines[-1])
    errors = json.loads(lines[-2]).get("errors") if len(lines) > 1 else None
    assert result["correct"] is True, f"{result['failed']} operations failed: {errors}"
