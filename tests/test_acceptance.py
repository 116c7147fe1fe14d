"""Acceptance suite: one test per shipping criterion, at the stated tolerances.

Each test prints a single [criterion NN] PASS/FAIL line with the measured
numbers, then asserts. The heavyweight 30-second runs come from the shared
session fixture in conftest.py.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from conftest import attack_residual
from fdia_lab.adversary import SampleSet, estimation_study, fit_signature
from fdia_lab.fdia import (
    AffineAttack,
    build_scaling,
    check_condition1,
    check_condition2,
)
from fdia_lab.kinematics import Posture
from fdia_lab.netlink import (
    WireMessage,
    decode,
    encode,
    merge_views,
    run_controller,
    serve_plant,
    serve_proxy,
)
from fdia_lab.scenarios import run_scenario
from fdia_lab.simloop import SimConfig, run, undetectability_report
from fdia_lab.smsf import (
    PolySignature,
    default_signature,
    eval_signature,
    monitor,
    resilience_check,
)
from fdia_lab.vulncheck import (
    CLASS_CONTINUOUS,
    CLASS_TRIVIAL,
    TAG_COSINE,
    TAG_EXPONENTIAL,
    TAG_LINEAR,
    TAG_QUADRATIC,
    TAG_SINE,
    ScalarFamily,
    default_grid,
    verdict_table,
)

ATTACKED = ("scenario1", "scenario2", "scenario3")
TIMEOUT = 30.0


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_perfect_undetectability(scenario_runs):
    sups = {}
    times = {}
    for name in ATTACKED:
        bundle = scenario_runs[name]
        obs = np.stack(
            [bundle.attacked.x_obs, bundle.attacked.y_obs, bundle.attacked.theta_obs], axis=1
        )
        nom = np.stack([bundle.nominal.x, bundle.nominal.y, bundle.nominal.theta], axis=1)
        sups[name] = float(np.max(np.abs(obs - nom)))
        start = time.perf_counter()
        run(bundle.scenario.sim, attack=bundle.attack, signature=bundle.scenario.signature)
        times[name] = time.perf_counter() - start
    ok = all(s <= 1e-9 for s in sups.values()) and all(t < 1.0 for t in times.values())
    detail = (
        "sup|obs_att - obs_nom| = "
        + ", ".join(f"{name} {sups[name]:.2e} ({times[name] * 1e3:.0f} ms)" for name in ATTACKED)
        + " (bound 1e-9, runtime < 1 s)"
    )
    _report(1, ok, detail)
    for name in ATTACKED:
        assert sups[name] <= 1e-9, f"{name}: {sups[name]}"
        assert times[name] < 1.0, f"{name}: {times[name]:.3f} s"


def test_criterion_02_actual_trajectory_transform(scenario_runs):
    b2 = scenario_runs["scenario2"]
    dev_xy = max(
        float(np.max(np.abs(b2.attacked.x - 0.5 * (b2.nominal.x - b2.attack.d_x[0])))),
        float(np.max(np.abs(b2.attacked.y - 0.5 * (b2.nominal.y - b2.attack.d_x[1])))),
    )
    dev_theta = {}
    for name in ("scenario1", "scenario3"):
        bundle = scenario_runs[name]
        theta0 = bundle.scenario.sim.p0.theta
        mirrored = 2.0 * theta0 - bundle.nominal.theta
        dev_theta[name] = float(np.max(np.abs(bundle.attacked.theta - mirrored)))
    ok = dev_xy <= 1e-9 and all(d <= 1e-9 for d in dev_theta.values())
    _report(
        2, ok,
        f"scaling halves (x, y) to {dev_xy:.2e}; heading mirrors 2*theta0 - theta to "
        f"scenario1 {dev_theta['scenario1']:.2e}, scenario3 {dev_theta['scenario3']:.2e}"
        " (bound 1e-9)",
    )
    assert dev_xy <= 1e-9
    for name, dev in dev_theta.items():
        assert dev <= 1e-9, name


def test_criterion_03_consistency_conditions(scenario_runs):
    exact_d_x = {
        "scenario1": (0.0, 0.04, 0.0),
        "scenario2": (0.0, -0.02, 0.0),
        "scenario3": (-0.01 * math.sqrt(3.0), 0.03, math.pi / 3.0),
    }
    r1 = {}
    r2 = {}
    for name in ATTACKED:
        bundle = scenario_runs[name]
        np.testing.assert_allclose(bundle.attack.d_x, exact_d_x[name], rtol=0.0, atol=1e-15)
        r1[name] = check_condition1(bundle.attack, bundle.scenario.sim.p0)
        r2[name] = check_condition2(bundle.attack, seed=bundle.scenario.seed)

    base = scenario_runs["scenario1"].attack
    coupled = AffineAttack(base.s_x, base.d_x, np.array([[1.0, 0.1], [0.0, -1.0]]), base.d_u)
    stretched = AffineAttack(base.s_x, base.d_x, np.array([[1.0, 0.0], [0.0, 2.0]]), base.d_u)
    bad = {
        "offdiag 0.1": check_condition2(coupled, seed=0),
        "beta22 = 2": check_condition2(stretched, seed=0),
    }
    ok = (
        all(v <= 1e-12 for v in r1.values())
        and all(v <= 1e-10 for v in r2.values())
        and all(v > 1e-3 for v in bad.values())
    )
    _report(
        3, ok,
        f"initial-state residuals <= {max(r1.values()):.2e} (bound 1e-12); kinematic closure"
        f" <= {max(r2.values()):.2e} over 1000 samples (bound 1e-10); inadmissible command maps"
        f" leave {min(bad.values()):.2e} (> 1e-3)",
    )
    for name in ATTACKED:
        assert r1[name] <= 1e-12, name
        assert r2[name] <= 1e-10, name
    for label, residual in bad.items():
        assert residual > 1e-3, label


def test_criterion_04_closed_loop_stability(scenario_runs):
    gains = scenario_runs["nominal"].scenario.sim.gains
    assert (gains.kx, gains.ky, gains.ktheta) == (2.0, 2000.0, 100.0)
    traces = {"nominal": scenario_runs["nominal"].nominal}
    for name in ATTACKED:
        traces[name] = scenario_runs[name].attacked
    worst_dv = {}
    terminal = {}
    for name, trace in traces.items():
        settled = trace.t[1:] >= 0.5
        worst_dv[name] = float(np.max(np.diff(trace.V)[settled]))
        terminal[name] = math.hypot(float(trace.xe[-1]), float(trace.ye[-1]))
    ok = all(dv <= 1e-6 for dv in worst_dv.values()) and all(
        e < 1e-3 for e in terminal.values()
    )
    _report(
        4, ok,
        f"max Lyapunov increment after 0.5 s = {max(worst_dv.values()):.2e} (bound 1e-6);"
        f" terminal position error <= {max(terminal.values()):.2e} (bound 1e-3);"
        " gains (2, 2000, 100)",
    )
    for name in traces:
        assert worst_dv[name] <= 1e-6, name
        assert terminal[name] < 1e-3, name


def test_criterion_05_monitor_detection(scenario_runs):
    sig = default_signature()
    results = {
        name: monitor(scenario_runs[name].attacked, sig) for name in ("scenario1", "scenario2")
    }
    nominal = monitor(scenario_runs["nominal"].nominal, sig)
    peaks = {name: float(r.residual.max()) for name, r in results.items()}
    nominal_peak = float(nominal.residual.max())
    ok = (
        all(r.first_exceed_t is not None and r.first_exceed_t <= 1.0 for r in results.values())
        and nominal_peak <= 1e-12
        and peaks["scenario2"] > peaks["scenario1"]
    )
    _report(
        5, ok,
        f"residual exceeds 1e-6 at t = "
        + ", ".join(f"{name} {results[name].first_exceed_t:.2f} s" for name in results)
        + f" (within 1 s); nominal peak {nominal_peak:.1e} (<= 1e-12);"
        f" peaks scaling {peaks['scenario2']:.3g} > reflection {peaks['scenario1']:.3g}",
    )
    for name, result in results.items():
        assert result.first_exceed_t is not None and result.first_exceed_t <= 1.0, name
    assert nominal_peak <= 1e-12
    assert peaks["scenario2"] > peaks["scenario1"]


def test_criterion_06_resilience_separation(scenario_runs):
    vulnerable_sig = PolySignature({(2, 0): 1.0, (0, 2): 1.0}, max_degree=2)
    origin_trace = run(SimConfig(p0=Posture(0.0, 0.0, 0.0), duration=1.0))
    weak = resilience_check(
        vulnerable_sig, build_scaling(2.0, Posture(0.0, 0.0, 0.0)), origin_trace
    )
    strong = {}
    for name in ("scenario1", "scenario2"):
        bundle = scenario_runs[name]
        strong[name] = resilience_check(default_signature(), bundle.attack, bundle.nominal)
    ok = (
        not weak.resilient
        and weak.fit.nrmse <= 1e-9
        and all(r.resilient and r.fit.nrmse >= 0.05 for r in strong.values())
    )
    _report(
        6, ok,
        f"x^2+y^2 under scaling fits an affine channel to NRMSE {weak.fit.nrmse:.1e}"
        f" (<= 1e-9); default signature resists with NRMSE "
        + ", ".join(f"{name} {strong[name].fit.nrmse:.3f}" for name in strong)
        + " (>= 0.05)",
    )
    assert not weak.resilient and weak.fit.nrmse <= 1e-9
    for name, res in strong.items():
        assert res.resilient and res.fit.nrmse >= 0.05, name


def test_criterion_07_estimation_ordering(scenario_runs):
    truth = default_signature()
    axis = np.linspace(-1.0, 1.0, 20)
    gx, gy = np.meshgrid(axis, axis)
    noiseless = fit_signature(SampleSet(gx, gy, eval_signature(truth, gx, gy)))
    rel = max(
        abs(noiseless.terms[key] - coeff) / abs(coeff) for key, coeff in truth.terms.items()
    )
    rows = {
        (r.source, r.n): r.nrmse
        for r in estimation_study(scenario_runs["scenario1"].attacked)
    }
    spiral_1000 = rows[("spiral", 1000)]
    spiral_150 = rows[("spiral", 150)]
    traj_150 = rows[("trajectory", 150)]
    ok = (
        rel <= 1e-6
        and spiral_1000 < 0.1
        and 0.1 <= spiral_150 <= 0.5
        and traj_150 >= 1.5 * spiral_150
    )
    _report(
        7, ok,
        f"noiseless grid recovery {rel:.1e} rel (<= 1e-6); spiral@1000 {spiral_1000:.3f} < 0.1;"
        f" spiral@150 {spiral_150:.3f} in [0.1, 0.5];"
        f" trajectory@150 {traj_150:.2f} >= 1.5 x spiral@150",
    )
    assert rel <= 1e-6
    assert spiral_1000 < 0.1
    assert 0.1 <= spiral_150 <= 0.5
    assert traj_150 >= 1.5 * spiral_150


def test_criterion_08_scalar_family_classification():
    verdicts = {v.family: v for v in verdict_table()}
    lin, quad, expo = verdicts[TAG_LINEAR], verdicts[TAG_QUADRATIC], verdicts[TAG_EXPONENTIAL]
    structural = (
        lin.kind == CLASS_CONTINUOUS and lin.constraint == "alpha*beta = 1"
        and quad.kind == CLASS_CONTINUOUS and quad.constraint == "alpha*beta^2 = 1"
        and expo.kind == CLASS_TRIVIAL and expo.candidates == []
    )
    trig_ok = True
    trig_desc = []
    for tag, expected in ((TAG_COSINE, (1.0, -1.0)), (TAG_SINE, (-1.0, -1.0))):
        v = verdicts[tag]
        fam = ScalarFamily(tag)
        grid = default_grid(fam)
        subs = all(attack_residual(fam, a, b, grid) <= 1e-9 for a, b in v.candidates)
        matches = (
            len(v.candidates) == 1
            and abs(v.candidates[0][0] - expected[0]) <= 1e-6
            and abs(v.candidates[0][1] - expected[1]) <= 1e-9
        )
        trig_ok = trig_ok and subs and matches
        trig_desc.append(f"{tag} (alpha, beta) = ({expected[0]:g}, {expected[1]:g})")
    ok = structural and trig_ok
    _report(
        8, ok,
        "Linear -> continuous alpha*beta = 1; Quadratic -> continuous alpha*beta^2 = 1;"
        " Exponential -> trivial-only; " + "; ".join(trig_desc) + " by numeric substitution",
    )
    assert structural
    assert trig_ok


def _serve_in_thread(fn, **kwargs):
    box = {}
    ready = threading.Event()

    def on_bound(port):
        box["port"] = port
        ready.set()

    def runner():
        try:
            box["result"] = fn(on_bound=on_bound, **kwargs)
        except Exception as exc:
            box["error"] = exc
            ready.set()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(TIMEOUT), "server did not bind"
    assert "error" not in box, box.get("error")
    box["thread"] = thread
    return box


def _join(box):
    box["thread"].join(TIMEOUT)
    assert not box["thread"].is_alive()
    if "error" in box:
        raise box["error"]
    return box.get("result")


def test_criterion_09_networked_fidelity(scenario_runs):
    # identity proxy, 10 s: networked == in-process fieldwise
    cfg = SimConfig(duration=10.0)
    plant = _serve_in_thread(serve_plant, cfg=cfg, port=0, timeout=TIMEOUT)
    proxy = _serve_in_thread(
        serve_proxy, attack=None, listen=("127.0.0.1", 0),
        upstream=("127.0.0.1", plant["port"]), timeout=TIMEOUT,
    )
    ctrl = run_controller(cfg, connect=("127.0.0.1", proxy["port"]), timeout=TIMEOUT)
    merged = merge_views(_join(plant), ctrl)
    _join(proxy)
    identity_dev = float(np.max(np.abs(merged.data - run(cfg).data)))

    # scenario-1 attack through the proxy, full 30 s, against the in-process nominal
    bundle = scenario_runs["scenario1"]
    sim = bundle.scenario.sim
    plant = _serve_in_thread(
        serve_plant, cfg=sim, signature=bundle.scenario.signature, port=0, timeout=TIMEOUT
    )
    proxy = _serve_in_thread(
        serve_proxy, attack=bundle.attack, listen=("127.0.0.1", 0),
        upstream=("127.0.0.1", plant["port"]), timeout=TIMEOUT,
    )
    ctrl = run_controller(
        sim, connect=("127.0.0.1", proxy["port"]),
        signature=bundle.scenario.signature, timeout=TIMEOUT,
    )
    attacked = merge_views(_join(plant), ctrl)
    _join(proxy)
    report = undetectability_report(attacked, bundle.nominal, bundle.attack)

    # wire round-trip property, 10,000 random messages
    rng = np.random.default_rng(1234)
    arity = {"Obs": 3, "Cmd": 2, "Sig": 1, "Hello": 2, "Bye": 1}
    kinds = list(arity)
    wire_ok = True
    for _ in range(10_000):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("Hello", "Bye"):
            payload = tuple(
                "".join(chr(c) for c in rng.integers(32, 127, size=rng.integers(0, 20)))
                for _ in range(arity[kind])
            )
        else:
            payload = tuple(
                float(rng.standard_normal() * 10.0 ** rng.integers(-12, 13))
                for _ in range(arity[kind])
            )
        msg = WireMessage(kind, int(rng.integers(0, 1 << 31)),
                          float(rng.standard_normal()), payload)
        if decode(encode(msg)) != msg:
            wire_ok = False
            break

    ok = identity_dev <= 1e-9 and report.sup_obs_dev <= 1e-9 and wire_ok
    _report(
        9, ok,
        f"identity proxy deviation {identity_dev:.1e} over 10 s (<= 1e-9); attacked session"
        f" sup|obs - nominal| = {report.sup_obs_dev:.1e} over sockets (<= 1e-9);"
        f" 10,000 random wire messages round-tripped",
    )
    assert identity_dev <= 1e-9
    assert report.sup_obs_dev <= 1e-9
    assert wire_ok


def test_criterion_10_byte_identical_artifacts(tmp_path):
    names = ("nominal", "scenario1", "scenario2", "scenario3")
    files = ("trace.csv", "nominal.csv", "attack.json", "monitor.csv", "summary.json")
    mismatches = []
    for name in names:
        first = tmp_path / "first" / name
        second = tmp_path / "second" / name
        run_scenario(name, first)
        run_scenario(name, second)
        for artifact in files:
            if (first / artifact).read_bytes() != (second / artifact).read_bytes():
                mismatches.append(f"{name}/{artifact}")
    ok = not mismatches
    _report(
        10, ok,
        "all four built-in scenarios wrote byte-identical artifact sets on repeat"
        if ok else "differing artifacts: " + ", ".join(mismatches),
    )
    assert not mismatches, mismatches
