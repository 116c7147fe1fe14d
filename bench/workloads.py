"""The four closed-loop workloads of the fdia_lab benchmark.

Each workload has a ``setup`` (scenario load/validate and input generation,
made from the seed) and a ``cycle`` that runs its operations back to back
through a :class:`Recorder`. Every operation's output is checked, against
the stored reference outputs where they are fixed (see ``reference.py``); a
failed check or an exception counts as one failed operation and the run goes on.
Calls go through the module attributes (``lab.simloop.run(...)``) so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import queue
import shutil
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference

MODULES = ("kinematics", "tracking", "fdia", "simloop", "smsf", "adversary",
           "vulncheck", "netlink", "scenarios", "cli")
BUILTINS = ("nominal", "scenario1", "scenario2", "scenario3")
SESSION_TIMEOUT = 30.0
LOOPBACK = "127.0.0.1"
# calibrate() takes about this long on a 2-vCPU x86-64 VM with Python 3.11
CALIBRATION_REF_S = 0.005
_CALIBRATION_ARRAY = np.arange(100_000, dtype=float)


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@functools.cache
def stored() -> dict:
    """The reference outputs of reference.json."""
    return reference.load()


def stored_artifacts() -> dict:
    """Reference fingerprints of each builtin's artifacts."""
    return stored()["artifacts"]


def import_lab(src: Path) -> SimpleNamespace:
    """Import fdia_lab afresh from ``src`` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "fdia_lab" or n.startswith("fdia_lab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fdia_lab")
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"fdia_lab imported from {origin}, not from {src}")
    mods = {name: importlib.import_module(f"fdia_lab.{name}") for name in MODULES}
    return SimpleNamespace(package=pkg, **mods)


def calibrate() -> float:
    """Seconds a fixed interpreter-plus-numpy kernel takes right now.

    The machine's speed drifts by up to a fifth within a minute (other tenants
    share its cores), and operation times drift with it. Scaling each
    operation's time by CALIBRATION_REF_S over the mean of calibrate() just
    before and just after it cancels most of that drift: the benchmark's
    normalized times are times at the speed where the kernel takes
    CALIBRATION_REF_S.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += (i * 0.5) % 7
    for _ in range(2):
        acc += float((np.sin(_CALIBRATION_ARRAY) * _CALIBRATION_ARRAY).sum())
    return time.perf_counter() - t0


class Recorder:
    """Times operations, runs their checks and counts failures.

    ``raw`` holds wall times; ``samples`` the same scaled by the speed factor
    measured around each operation (see :func:`calibrate`).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.raw = defaultdict(list)
        self.samples = defaultdict(list)
        self.factor = 1.0
        self.factors = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def timed(self, kind: str, fn, verify):
        """Run ``fn``, time it, then ``verify(result)``; returns (result, seconds) or None.

        An operation that leaves a thread running fails before the second
        calibration, so a stray thread cannot slow the kernel and shrink the
        normalized time of the operation that left it.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        before = calibrate()
        threads = threading.active_count()
        try:
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
            left = threading.active_count() - threads
            check(left <= 0, f"{left} thread(s) still running after the operation")
            self.factor = 2.0 * CALIBRATION_REF_S / (before + calibrate())
            self.factors.append(self.factor)
            verify(result)
        except Exception as exc:  # any failure of the operation is counted, not fatal
            self._fail(kind, exc)
            return None
        self.add(kind, dt)
        return result, dt

    def verified(self, kind: str, verify) -> None:
        """Run a check that is not timed; a failure counts as a failed operation."""
        self.attempted += 1
        try:
            verify()
        except Exception as exc:  # counted, not fatal
            self._fail(kind, exc)

    def _fail(self, kind: str, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    def add(self, kind: str, raw: float, normalized: float | None = None) -> None:
        """Record a sample; a time is normalized with the last operation's factor."""
        self.raw[kind].append(raw)
        self.samples[kind].append(raw * self.factor if normalized is None else normalized)

    def median(self, kind: str) -> float:
        """Median normalized sample of a kind."""
        values = self.samples.get(kind)
        return float(np.median(values)) if values else math.nan

    def stat(self, kind: str, scale: float, unit: str) -> dict:
        """Median wall-time sample of a kind, scaled, with its count and the
        highest percentile that has at least ten samples beyond it."""
        values = np.sort(np.asarray(self.raw.get(kind, []), dtype=float)) * scale
        out = {"value": float(np.median(values)) if len(values) else None,
               "unit": unit, "n": int(len(values))}
        if len(values) >= 20:
            pct = int(100 * (len(values) - 10) / len(values))
            out[f"p{pct}"] = float(values[len(values) - 11])
        return out


def verify_trace(trace, builtin: str, what: str) -> None:
    """Check a trace against the stored fingerprint of ``builtin``'s trace.csv."""
    stored = stored_artifacts()[builtin]["trace.csv"]["csv"]
    found = reference.array_mismatch(trace.data, stored)
    check(found is None, f"{what} differs from the reference {builtin} trace: {found}")


def _digest_dir(path: Path) -> dict:
    return {p.name: reference.sha256(p) for p in sorted(path.iterdir()) if p.is_file()}


class Suite:
    """``fdia-lab simulate`` over the four builtins, in-process, each call cold."""

    name = "suite"
    primary, secondary = "simulate_suite", "simulate_nominal"
    per_sample = 1

    def setup(self, lab, seed: int, tmp: Path) -> None:
        self.lab = lab
        self.rng = np.random.default_rng(seed)
        self.tmp = tmp
        for name in BUILTINS:
            lab.scenarios.load_scenario(name)
        self.first = {}  # scenario -> artifact digests of its first call
        self.calls = 0

    def _simulate(self, name: str, out: Path):
        self.lab.tracking.reference_table.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.lab.cli.main(["simulate", "--scenario", name, "--out-dir", str(out)])
        return code

    def _verify(self, name: str, out: Path, code: int) -> None:
        check(code == 0, f"simulate {name} exited {code}")
        digests = _digest_dir(out)
        stored = stored_artifacts()[name]
        check(sorted(digests) == sorted(stored), f"simulate {name} wrote {sorted(digests)}")
        first = self.first.setdefault(name, digests)
        check(digests == first, f"simulate {name} artifacts differ from the first pass")
        for fname, digest in digests.items():
            found = reference.file_mismatch(out / fname, digest, stored[fname])
            check(found is None, f"simulate {name} differs from the reference: {found}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        check(summary["undetectable"] is True, f"{name} not undetectable")
        check(summary["detection"]["flag"] is (name != "nominal"),
              f"{name} detection flag {summary['detection']['flag']}")

    def cycle(self, rec: Recorder) -> None:
        total = normalized = 0.0
        complete = True
        for idx in self.rng.permutation(len(BUILTINS)):
            name = BUILTINS[idx]
            self.calls += 1
            out = self.tmp / f"{name}-{self.calls}"
            done = rec.timed("simulate", lambda: self._simulate(name, out),
                             lambda code: self._verify(name, out, code))
            shutil.rmtree(out, ignore_errors=True)
            if done is None:
                complete = False
                continue
            total += done[1]
            normalized += done[1] * rec.factor
            if name == "nominal":
                rec.add("simulate_nominal", done[1])
        if complete:
            rec.add("simulate_suite", total, normalized)

    def named(self, rec: Recorder, wall: float) -> dict:
        return {"simulate_suite_s": rec.stat("simulate_suite", 1.0, "s"),
                "simulate_nominal_s": rec.stat("simulate_nominal", 1.0, "s"),
                "simulate_call_s": rec.stat("simulate", 1.0, "s")}


def _in_thread(target, endpoint, tracer, **kwargs):
    """Start ``target(on_bound=..., **kwargs)`` in a thread; returns (box, port)."""
    box = {}
    bound = queue.Queue()

    def runner():
        if tracer is not None:
            tracer.set_endpoint(endpoint)
        try:
            box["result"] = target(on_bound=bound.put, **kwargs)
        except Exception as exc:  # handed to the caller through box
            box["error"] = exc
            bound.put(None)

    box["thread"] = threading.Thread(target=runner, name=endpoint, daemon=True)
    box["thread"].start()
    port = bound.get(timeout=SESSION_TIMEOUT)
    if port is None:
        box["thread"].join(SESSION_TIMEOUT)
        raise box["error"]
    return box, port


def _join(box):
    box["thread"].join(SESSION_TIMEOUT)
    if box["thread"].is_alive():
        raise CheckFailed(f"{box['thread'].name} thread did not end")
    if "error" in box:
        raise box["error"]
    return box.get("result")


def net_session(lab, sim, sig, attack, proxied: bool, tracer=None):
    """One plant/controller session over loopback, through the proxy if ``proxied``.

    Returns (plant log, controller log, merged trace).
    """
    nl = lab.netlink
    if tracer is not None:
        tracer.set_endpoint("controller")
    plant, port = _in_thread(nl.serve_plant, "plant", tracer, cfg=sim, signature=sig,
                             host=LOOPBACK, port=0, timeout=SESSION_TIMEOUT)
    proxy = None
    try:
        if proxied:
            proxy, port = _in_thread(nl.serve_proxy, "proxy", tracer, attack=attack,
                                     listen=(LOOPBACK, 0), upstream=(LOOPBACK, port),
                                     timeout=SESSION_TIMEOUT)
        ctrl = nl.run_controller(sim, connect=(LOOPBACK, port), signature=sig,
                                 timeout=SESSION_TIMEOUT)
    finally:
        plant_log = _join(plant)
        if proxy is not None:
            _join(proxy)
    return plant_log, ctrl, nl.merge_views(plant_log, ctrl)


class Net:
    """Alternating proxied (scenario1 attacked) and direct (nominal) loopback sessions."""

    name = "net"
    primary, secondary = "session_proxied", "session_direct"
    # The endpoint threads take turns (lock-step), so one CPU serves them all.
    # Left free to move, they wake each other across CPUs and queue on the
    # interpreter lock, which made sessions 1.7x slower and twice as variable.
    one_cpu = True

    def setup(self, lab, seed: int, tmp: Path) -> None:
        self.lab = lab
        self.rng = np.random.default_rng(seed)
        self.tracer = None
        s1 = lab.scenarios.load_scenario("scenario1")
        nom = lab.scenarios.load_scenario("nominal")
        attack = lab.scenarios.validate_scenario(s1)
        self.sessions = {  # kind -> (sim, signature, attack, proxied, run() trace, builtin)
            "proxied": (s1.sim, s1.signature, attack, True,
                        lab.simloop.run(s1.sim, attack, s1.signature), "scenario1"),
            "direct": (nom.sim, nom.signature, None, False,
                       lab.simloop.run(nom.sim, None, nom.signature), "nominal"),
        }
        self.per_sample = s1.sim.n_steps() + 1  # ticks per session

    def check_setup(self, rec: Recorder) -> None:
        for kind, (*_, expected, builtin) in self.sessions.items():
            rec.verified(f"run_{kind}",
                         lambda: verify_trace(expected, builtin, f"{kind} run()"))

    def _session(self, kind: str):
        """(plant log, controller log, merged trace, process CPU seconds used)."""
        sim, sig, attack, proxied, _expected, _builtin = self.sessions[kind]
        cpu0 = time.process_time()
        result = net_session(self.lab, sim, sig, attack, proxied, self.tracer)
        return (*result, time.process_time() - cpu0)

    def _verify(self, kind: str, result) -> None:
        plant_log, ctrl, merged, _cpu = result
        check(plant_log.complete and ctrl.complete, "session log incomplete")
        *_, expected, builtin = self.sessions[kind]
        check(np.array_equal(merged.data, expected.data), "merged trace differs from run()")
        verify_trace(merged, builtin, f"{kind} merged trace")

    def cycle(self, rec: Recorder) -> None:
        kinds = ["proxied", "direct"]
        if self.rng.integers(2):
            kinds.reverse()
        for kind in kinds:
            done = rec.timed(f"session_{kind}", lambda: self._session(kind),
                             lambda result: self._verify(kind, result))
            if done is not None:
                ratio = done[0][3] / done[1]
                rec.add("cpu_per_wall", ratio, ratio)

    def named(self, rec: Recorder, wall: float) -> dict:
        per_tick_us = 1e6 / self.per_sample
        return {"net_proxied_tick_us": rec.stat("session_proxied", per_tick_us, "us"),
                "net_direct_tick_us": rec.stat("session_direct", per_tick_us, "us"),
                "net_cpu_per_wall": rec.stat("cpu_per_wall", 1.0, "ratio")}


class Analysis:
    """verdict_table, estimation_study and resilience_check on scenario1's attacked trace."""

    name = "analysis"
    primary, secondary = "verdict_table", "estimation_study"
    per_sample = 1
    ESTIMATES_PER_CYCLE = 5
    EXPECTED_CLASSES = {
        "Linear": "continuous-family",
        "Quadratic": "continuous-family",
        "Cosine": "discrete-nontrivial",
        "Sine": "discrete-nontrivial",
        "Exponential": "trivial-only",
    }

    def setup(self, lab, seed: int, tmp: Path) -> None:
        self.lab = lab
        self.rng = np.random.default_rng(seed)
        loaded = {name: lab.scenarios.load_scenario(name) for name in BUILTINS[1:]}
        self.attacks = {name: lab.scenarios.validate_scenario(sc) for name, sc in loaded.items()}
        s1 = loaded["scenario1"]
        self.signature = s1.signature
        self.trace = lab.simloop.run(s1.sim, self.attacks["scenario1"], s1.signature)

    def check_setup(self, rec: Recorder) -> None:
        rec.verified("run_scenario1",
                     lambda: verify_trace(self.trace, "scenario1", "scenario1 run()"))

    def _verify_verdicts(self, verdicts) -> None:
        got = {v.family: v.kind for v in verdicts}
        check(got == self.EXPECTED_CLASSES, f"verdict classes {got}")

    @staticmethod
    def _verify_study(noise_seed: int, rows) -> None:
        # The NRMSE ordering of acceptance criterion 7 is a property of the noise
        # draw, not of the code (see README), so the rows are checked against
        # the stored ones for the same noise seed instead.
        found = reference.json_mismatch(reference.study_table(rows),
                                        stored()["estimation_study"][noise_seed])
        check(found is None, f"estimation_study(seed={noise_seed}) differs from the"
                             f" reference: {found}")

    def cycle(self, rec: Recorder) -> None:
        lab = self.lab
        rec.timed("verdict_table", lab.vulncheck.verdict_table, self._verify_verdicts)
        for _ in range(self.ESTIMATES_PER_CYCLE):
            noise_seed = int(self.rng.integers(0, len(stored()["estimation_study"])))
            rec.timed("estimation_study",
                      lambda: lab.adversary.estimation_study(self.trace, seed=noise_seed),
                      lambda rows: self._verify_study(noise_seed, rows))
        for name, attack in self.attacks.items():
            rec.timed("resilience_check",
                      lambda: lab.smsf.resilience_check(self.signature, attack, self.trace),
                      lambda res: check(res.resilient, f"{name}: signature not resilient"))

    def named(self, rec: Recorder, wall: float) -> dict:
        return {"verdict_table_s": rec.stat("verdict_table", 1.0, "s"),
                "estimation_study_ms": rec.stat("estimation_study", 1e3, "ms"),
                "resilience_check_ms": rec.stat("resilience_check", 1e3, "ms")}


class Sweep:
    """Detection map: seeded theta0 x {Reflection, Scaling} x seeded beta11, 5 s runs."""

    name = "sweep"
    primary, secondary = "cell", "cell_fixed"
    per_sample = 1
    THETA0S = 3
    BETAS = 4
    DURATION = 5.0

    def setup(self, lab, seed: int, tmp: Path) -> None:
        self.lab = lab
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(-math.pi / 4.0, math.pi / 4.0, self.THETA0S)
        self.rows = []
        for theta0 in thetas:
            p0 = [0.0, 0.02, float(theta0)]
            cells = []
            for kind in ("Reflection", "Scaling"):
                # |log beta11| in [log 1.5, log 2.5], either side of 1
                mags = rng.uniform(math.log(1.5), math.log(2.5), self.BETAS)
                signs = rng.choice([-1.0, 1.0], self.BETAS)
                for beta in np.exp(mags * signs):
                    cells.append({"name": "cell", "seed": seed, "duration": self.DURATION,
                                  "p0": p0, "attack": {"kind": kind, "beta11": float(beta)}})
            nominal = {"name": "row", "seed": seed, "duration": self.DURATION, "p0": p0}
            self.rows.append((nominal, cells))
        # warm the shared reference table, as a long-lived sweep process has it
        sc = lab.scenarios.scenario_from_dict(self.rows[0][0])
        lab.tracking.reference_table(sc.sim.ref, sc.sim.dt)

    def _cell(self, doc: dict, nominal):
        """(undetectability report, monitor result, seconds of fixed per-run cost)."""
        lab = self.lab
        t0 = time.perf_counter()
        sc = lab.scenarios.scenario_from_dict(doc)
        attack = lab.scenarios.validate_scenario(sc)
        fixed = time.perf_counter() - t0
        trace = lab.simloop.run(sc.sim, attack, sc.signature)
        report = lab.simloop.undetectability_report(trace, nominal, attack, tol=1e-9)
        return report, lab.smsf.monitor(trace, sc.signature, cfg=sc.detection), fixed

    @staticmethod
    def _verify_cell(result) -> None:
        report, mon, _fixed = result
        check(report.undetectable, f"cell detectable: sup_obs_dev {report.sup_obs_dev:.3e}")
        check(mon.flag, "cell not flagged by the monitor")

    def cycle(self, rec: Recorder) -> None:
        lab = self.lab
        for nominal_doc, cells in self.rows:
            done = rec.timed("row_nominal", lambda: self._nominal(nominal_doc),
                             lambda trace: check(len(trace) > 0, "empty nominal trace"))
            if done is None:
                continue
            nominal = done[0]
            for doc in cells:
                done = rec.timed("cell", lambda: self._cell(doc, nominal), self._verify_cell)
                if done is not None:
                    rec.add("cell_fixed", done[0][2])

    def _nominal(self, doc: dict):
        sc = self.lab.scenarios.scenario_from_dict(doc)
        self.lab.scenarios.validate_scenario(sc)
        return self.lab.simloop.run(sc.sim, None, sc.signature)

    def named(self, rec: Recorder, wall: float) -> dict:
        cells = len(rec.samples.get("cell", []))
        return {"sweep_cells_per_s": {"value": cells / wall, "unit": "1/s", "n": cells},
                "sweep_cell_ms": rec.stat("cell", 1e3, "ms"),
                "sweep_cell_fixed_ms": rec.stat("cell_fixed", 1e3, "ms"),
                "sweep_row_nominal_ms": rec.stat("row_nominal", 1e3, "ms")}


WORKLOADS = {cls.name: cls for cls in (Suite, Net, Analysis, Sweep)}


def self_check(lab, tracer, tmp: Path) -> None:
    """Drive each wrapped binding site once and require the exact call counts.

    Runs on its own tracer before the traced measurement, so its calls never
    reach the reported numbers.
    """
    sig = lab.smsf.default_signature()
    ref = lab.tracking.RefConfig(duration=1.01)  # a table no workload uses: one miss
    sim = lab.simloop.SimConfig(ref=ref, duration=1.0)
    steps = sim.n_steps()
    lab.simloop.run(sim, None, sig)  # simloop.rk4_step, tracking.rk4_step, simloop.reference_table
    net_session(lab, sim, sig, None, proxied=True, tracer=tracer)  # netlink bindings
    lab.adversary.spiral_samples(10)  # adversary.eval_signature
    doc = tmp / "selfcheck.json"
    doc.write_text(json.dumps({"name": "selfcheck", "seed": 1, "duration": 0.2}), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):  # cli.run_scenario, scenarios.validate_smsf
        lab.cli.main(["simulate", "--scenario", str(doc), "--out-dir", str(tmp / "selfcheck")])
    stats, counts = tracer.stats()
    calls = {name: rec[0] for name, rec in stats.items()}
    ref_steps = 101  # ceil(1.01 / 0.01)
    expected = {
        # 1.01 s table, in-process run, networked plant, then the 0.2 s scenario's
        # own table and its single (unattacked) run
        "kinematics.rk4_step": ref_steps + steps + steps + 20 + 20,
        "tracking.reference_table": 1 + 1 + 1,
        "netlink.encode@plant": 2 * (steps + 1) + 2,
        "netlink.encode@controller": (steps + 1) + 2,
        "netlink.encode@proxy": 3 * (steps + 1) + 4,
        "scenarios.validate_scenario": 3,
        "scenarios.run_scenario": 1,
        "cli.main": 1,
        "simloop.write_trace_csv": 2,
        "adversary.spiral_samples": 1,
    }
    wrong = {k: (calls.get(k, 0), v) for k, v in expected.items() if calls.get(k, 0) != v}
    if counts.get("tracking.reference_table.misses") != 2:
        wrong["tracking.reference_table.misses"] = (
            counts.get("tracking.reference_table.misses"), 2)
    if counts.get("netlink.frames.Sig.plant") != steps + 1:
        wrong["netlink.frames.Sig.plant"] = (counts.get("netlink.frames.Sig.plant"), steps + 1)
    if wrong:
        raise CheckFailed(f"tracer self-check: (got, expected) {wrong}")
