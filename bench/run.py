"""fdia_lab benchmark: one closed-loop workload per run, outputs checked.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload suite --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the working directory. Set-up
(package import, scenario load/validate, input generation) is repeated and
its median reported as ``setup_s``. The workload then runs in a closed loop
for ``--seconds``: each operation starts when the previous one ends.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
first runs a third of the time untraced, then checks the tracer, then runs
the rest with every public fdia_lab function wrapped, and prints the
per-layer metrics; spans go to ``.fdiabench/`` under the working directory.

Before the result, one JSON line reports the seed, the environment and every
end-to-end metric under its own name. The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

SETUP_REPEATS = 9
UNTRACED_SHARE = 1.0 / 3.0
NET_NOTE = "networked sessions cross loopback (127.0.0.1) in one process, not a real link"


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _environment(load_at_start) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
        "network": NET_NOTE,
    }


def _setup(name: str, seed: int, src: Path, tmp: Path):
    """Import the package and set the workload up SETUP_REPEATS times; keep the last.

    Returns the lab, the workload and a Recorder holding the set-up times.
    """
    rec = workloads.Recorder()
    for _ in range(SETUP_REPEATS):
        before = workloads.calibrate()
        t0 = time.perf_counter()
        lab = workloads.import_lab(src)
        wl = workloads.WORKLOADS[name]()
        wl.setup(lab, seed, tmp)
        dt = time.perf_counter() - t0
        rec.factor = 2.0 * workloads.CALIBRATION_REF_S / (before + workloads.calibrate())
        rec.add("setup", dt)
    return lab, wl, rec


def _loop(wl, rec, seconds: float) -> float:
    """Run whole cycles until ``seconds`` have passed; returns the wall time used."""
    t0 = time.perf_counter()
    cycles = 0
    while True:
        wl.cycle(rec)
        cycles += 1
        if time.perf_counter() - t0 >= seconds:
            break
    rec.cycles = cycles
    return time.perf_counter() - t0


def _per_layer(spec, tr, rec, plain, primary: str) -> dict:
    """Per-layer metrics of the traced phase, per cycle, named as in BENCHMARK.json."""
    stats, counts = tr.stats()
    cycles = rec.cycles
    values = {}
    for label, (calls, _total, self_s) in stats.items():
        base, _, endpoint = label.partition("@")
        if endpoint:  # netlink call made by the plant, proxy or controller thread
            measure = {"netlink.send_message": "syscall_s",
                       "netlink.recv_message": "wait_s"}.get(base, "self_s")
            values[f"{base}.calls.{endpoint}"] = calls
            values[f"{base}.{measure}.{endpoint}"] = self_s
        elif label.startswith("smsf.eval_signature."):
            path = label.rsplit(".", 1)[1]
            values[f"smsf.eval_signature.{path}_calls"] = calls
            values[f"smsf.eval_signature.{path}_self_s"] = self_s
        else:
            values[f"{label}.calls"] = calls
            values[f"{label}.self_s"] = self_s
    values.update(counts)
    values = {k: v / cycles for k, v in values.items()}

    main_calls = values.get("cli.main.calls", 0.0)
    values["scenarios.validations_per_simulate"] = (
        values.get("scenarios.validate_scenario.calls", 0.0) / main_calls if main_calls else 0.0)
    values["net.cpu_per_wall"] = plain.median("cpu_per_wall") if "cpu_per_wall" in plain.samples else 0.0
    untraced = plain.median(primary)
    traced = rec.median(primary)
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_share"] = (traced - untraced) / untraced
    values["trace.cycles"] = cycles

    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.split(".")[0] not in workloads.MODULES + ("net", "trace"):
            raise tracing.TracerError(f"per-layer metric {name} names no fdia_lab module")
        value = float(values.get(name, 0.0))
        out[name] = {"value": value if math.isfinite(value) else 0.0, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "fdia_lab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout root holding src/fdia_lab and BENCHMARK.json "
              f"(cwd {root})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    load_at_start = os.getloadavg()
    if getattr(workloads.WORKLOADS[args.workload], "one_cpu", False):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = root / ".fdiabench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        lab, wl, setup = _setup(args.workload, args.seed, src, tmp)
        if hasattr(wl, "check_setup"):
            wl.check_setup(setup)
        plain = workloads.Recorder()
        if not args.trace:
            wall = _loop(wl, plain, args.seconds)
            recs = [plain]
        else:
            _loop(wl, plain, args.seconds * UNTRACED_SHARE)
            probe = tracing.Tracer()
            probe.install(lab.package)
            try:
                workloads.self_check(lab, probe, tmp)
            finally:
                probe.uninstall()
            tr = tracing.Tracer()
            traced = workloads.Recorder(tr)
            wl.tracer = tr
            tr.install(lab.package)
            try:
                wall = _loop(wl, traced, args.seconds * (1.0 - UNTRACED_SHARE))
            finally:
                tr.uninstall()
                wl.tracer = None
            recs = [plain, traced]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rec = recs[-1]
    recs.append(setup)
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    errors = [e for r in recs for e in r.errors]
    setup_s = setup.median("setup")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    named = {"setup_s": setup.stat("setup", 1.0, "s")}
    named.update(wl.named(rec, wall))
    named["failed_share"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "closed_loop": "one operation in flight at a time",
        "cycles": rec.cycles, "metrics": named, "errors": errors,
        "speed_factor": float(np.median(rec.factors)) if rec.factors else None,
        "environment": _environment(load_at_start),
    }

    if args.trace:
        metrics = _per_layer(spec, tr, traced, plain, wl.primary)
        spans = root / ".fdiabench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        report["spans_file"] = str(spans.relative_to(root))
        report["spans_written"] = tr.write_spans(spans)
        stats, counts = tr.stats()
        report["layers"] = {name: {"calls": c, "total_s": t, "self_s": s}
                            for name, (c, t, s) in sorted(stats.items())}
        report["counters"] = dict(sorted(counts.items()))
    else:
        end_to_end = {
            "setup_s": setup_s,
            "primary_ms": plain.median(wl.primary) * 1e3 / wl.per_sample,
            "secondary_ms": plain.median(wl.secondary) * 1e3 / wl.per_sample,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {}
        for metric in spec["end_to_end"]:
            value = end_to_end[metric["name"]]
            metrics[metric["name"]] = {"value": value if math.isfinite(value) else 0.0,
                                       "unit": metric["unit"]}

    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
