"""Smoke test of the benchmark harness on the networked workload."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_net_benchmark_passes_its_self_check():
    # --trace 1 first drives every wrapped binding site once and requires exact
    # call counts (one encode per frame at each endpoint), then checks every
    # merged session trace against the in-process run bitwise
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "net", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output (exit {proc.returncode}): {proc.stderr[-2000:]}"
    result = json.loads(lines[-1])
    errors = json.loads(lines[-2]).get("errors") if len(lines) > 1 else None
    assert result["correct"] is True, f"{result['failed']} operations failed: {errors}"
