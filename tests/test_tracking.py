"""Reference generation and the controller tick: error, control law, Lyapunov value."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fdia_lab.cli import main
from fdia_lab.kinematics import Posture, rk4_step
from fdia_lab.scenarios import ScenarioError, load_scenario, scenario_from_dict
from fdia_lab.simloop import RunDiverged, run
from fdia_lab.tracking import (
    REFERENCE_CACHE_SIZE,
    ControllerGains,
    RefConfig,
    _omega_ref,
    control,
    reference_table,
)

GAINS = ControllerGains(2.0, 2000.0, 100.0)
REF = RefConfig()


def tick(p_ref, pose, ref=REF, t=0.0):
    """control() at the observed pose against the reference posture p_ref at time t.

    The feedforward turn rate is written out here as the oracle for the
    table's omega_r column. Returns (v, omega, xe, ye, thetae, V).
    """
    omega_r = ref.omega_amp * math.sin(2.0 * math.pi * t / ref.omega_period)
    return control(ref, GAINS, (*p_ref, omega_r), *pose)


def error(p_ref, pose):
    """Body-frame error (xe, ye, thetae) of the pose against the reference."""
    return tick(p_ref, pose)[2:5]


def lyapunov(p_ref, pose=(0.0, 0.0, 0.0)):
    return tick(p_ref, pose)[5]


def test_gains_must_be_positive():
    for bad in ({"kx": 0.0}, {"ky": -1.0}, {"ktheta": float("nan")}):
        with pytest.raises(ValueError):
            ControllerGains(**{"kx": 2.0, "ky": 2000.0, "ktheta": 100.0, **bad})


def test_ref_config_validation():
    with pytest.raises(ValueError):
        RefConfig(v_ref=0.0)
    with pytest.raises(ValueError):
        RefConfig(omega_period=0.0)
    with pytest.raises(ValueError):
        RefConfig(duration=-1.0)


def test_a_period_whose_phase_overflows_is_refused_before_the_table_is_built():
    # 2*pi*t/omega_period is inf for a subnormal period, and sin(inf) raises
    ref = RefConfig(omega_period=2.2250738585e-313, duration=0.02)
    with pytest.raises(ValueError, match="phase overflows"):
        reference_table(ref, 0.01)
    with pytest.raises(ScenarioError, match="phase overflows"):
        scenario_from_dict({"seed": 1, "duration": 0.02, "ref": {"omega_period": 2.2250738585e-313}})


def test_a_reference_heading_that_overflows_ends_the_run_as_diverged(tmp_path, capsys):
    # omega_amp 1e308 held over a 40 s period drives the reference heading past
    # float64's range about 4.9 s in; the 4 s default period keeps it finite
    doc = {"seed": 1, "duration": 5, "ref": {"omega_amp": 1e308, "omega_period": 40}}
    sc = scenario_from_dict(doc)
    with pytest.raises(RunDiverged,
                       match=r"^run diverged: non-finite reference heading at t = 4\.91 s$"):
        reference_table(sc.sim.ref, sc.sim.dt)
    with pytest.raises(RunDiverged, match="non-finite reference heading"):
        run(sc.sim, sc.attack, sc.signature)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: run diverged: non-finite reference heading at t = 4.91 s\n")
    default_period = replace(sc.sim.ref, omega_period=4.0)
    assert np.isfinite(reference_table(default_period, sc.sim.dt)).all()


def test_feedforward_profile():
    """On the reference the command is the feedforward (v_ref, omega_amp*sin(2*pi*t/period))."""
    cfg = RefConfig(omega_amp=0.7)
    on_ref = (0.3, -0.2, 0.1)
    assert tick(on_ref, on_ref, cfg, 0.0)[:2] == (0.02, 0.0)
    v, omega = tick(on_ref, on_ref, cfg, 1.0)[:2]
    assert v == 0.02
    assert abs(omega - 0.7) <= 1e-15


def test_reference_follows_its_own_feedforward():
    """The reference posture is the hold-and-step integration of the feedforward."""
    cfg = RefConfig(duration=4.0)
    x = y = th = 0.0
    for k in range(200):
        on_ref = (x, y, th)
        v, omega = tick(on_ref, on_ref, cfg, k * 0.01)[:2]
        x, y, th = rk4_step(x, y, th, v, omega, 0.01)
    table = reference_table(cfg, 0.01)
    assert tuple(table[200, :3]) == (x, y, th)
    on_ref = tuple(table[200, :3])
    v, omega = tick(on_ref, on_ref, cfg, 2.0)[:2]
    assert abs(omega) <= 1e-12, "half a period later the turn rate crosses zero"
    assert v == 0.02


@pytest.mark.parametrize("cfg, dt", [
    (RefConfig(), 0.01),
    (RefConfig(duration=1.01), 0.01),
    (RefConfig(v_ref=0.5, omega_amp=-1.3, omega_period=2.7, duration=5.0), 0.003),
    (RefConfig(omega_amp=0.0, duration=2.0), 0.02),
    (RefConfig(omega_amp=2.5, omega_period=0.37, duration=3.3), 0.001),
])
def test_reference_rows_carry_the_feedforward_bitwise(cfg, dt):
    """Column 3 of row k is _omega_ref(cfg, k*dt), the turn rate held over step k."""
    table = reference_table(cfg, dt)
    assert table.shape == (int(math.ceil(cfg.duration / dt - 1e-9)) + 1, 4)
    omega = [_omega_ref(cfg, k * dt) for k in range(len(table))]
    assert table[:, 3].tobytes() == np.array(omega).tobytes()  # bitwise, signed zeros too
    x = y = th = 0.0
    for k in range(len(table) - 1):
        x, y, th = rk4_step(x, y, th, cfg.v_ref, omega[k], dt)
        assert table[k + 1, :3].tolist() == [x, y, th]


def test_reference_cache_is_bounded():
    reference_table.cache_clear()
    for k in range(REFERENCE_CACHE_SIZE + 3):
        reference_table(RefConfig(duration=0.1 + 0.01 * k), 0.01)
    info = reference_table.cache_info()
    assert info.maxsize == REFERENCE_CACHE_SIZE
    assert info.currsize == REFERENCE_CACHE_SIZE
    reference_table.cache_clear()


def test_body_frame_error_examples():
    origin = (0.0, 0.0, 0.0)
    assert error(origin, origin) == (0.0, 0.0, 0.0)

    assert error((1.0, 2.0, 0.3), origin) == (1.0, 2.0, 0.3)

    xe, ye, thetae = error((1.0, 0.0, math.pi / 2), (0.0, 0.0, math.pi / 2))
    assert abs(xe) <= 1e-15
    assert abs(ye + 1.0) <= 1e-15
    assert thetae == 0.0


def test_body_frame_error_inverts():
    """Rotating the error back out of the body frame recovers the reference."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        p_r = tuple(float(c) for c in rng.uniform(-2, 2, 3))
        x, y, th = (float(c) for c in rng.uniform(-2, 2, 3))
        xe, ye, thetae = error(p_r, (x, y, th))
        c = math.cos(th)
        s = math.sin(th)
        assert abs(x + c * xe - s * ye - p_r[0]) <= 1e-12
        assert abs(y + s * xe + c * ye - p_r[1]) <= 1e-12
        assert abs(th + thetae - p_r[2]) <= 1e-12


def test_kanayama_zero_error_passes_feedforward_bitwise():
    rng = np.random.default_rng(22)
    for _ in range(50):
        ref = RefConfig(v_ref=float(rng.uniform(0.01, 1.0)),
                        omega_amp=float(rng.uniform(-1.0, 1.0)))
        t = float(rng.uniform(0.0, 30.0))
        on_ref = tuple(float(c) for c in rng.uniform(-2, 2, 3))
        v, omega = tick(on_ref, on_ref, ref, t)[:2]
        assert v == ref.v_ref
        assert omega == ref.omega_amp * math.sin(2.0 * math.pi * t / ref.omega_period)


def test_kanayama_hand_examples():
    # error (0.1, 0, pi/2) against the feedforward (1, 0)
    v, omega = tick((0.1, 0.0, math.pi / 2), (0.0, 0.0, 0.0), RefConfig(v_ref=1.0))[:2]
    assert abs(v - 0.2) <= 1e-12
    assert abs(omega - 100.0) <= 1e-12

    # error (0, 0.001, 0) against the feedforward (0.02, 0)
    v, omega = tick((0.0, 0.001, 0.0), (0.0, 0.0, 0.0))[:2]
    assert v == 0.02
    assert abs(omega - 0.04) <= 1e-15


def test_lyapunov_examples():
    assert lyapunov((0.0, 0.0, 0.0)) == 0.0
    assert lyapunov((1.0, 0.0, 0.0)) == 0.5
    assert abs(lyapunov((0.0, 0.0, math.pi)) - 0.001) <= 1e-18


def test_lyapunov_nonnegative_and_zero_only_at_equilibrium():
    rng = np.random.default_rng(23)
    for _ in range(200):
        assert lyapunov(tuple(float(c) for c in rng.uniform(-3, 3, 3))) >= 0.0
    for k in (-2, -1, 1, 2):
        assert lyapunov((0.0, 0.0, 2.0 * math.pi * k)) <= 1e-12
    for _ in range(50):
        thetae = float(rng.uniform(0.1, 6.0))
        assert lyapunov((0.0, 0.0, thetae)) > 0.0


def test_closed_loop_regulates_small_initial_error():
    """Small initial offset: V decreases per step after 0.5 s and the error dies out."""
    sc = load_scenario("nominal")
    cfg = replace(sc.sim, p0=Posture(0.01, 0.03, 0.02))
    trace = run(cfg)
    after = trace.t >= 0.5
    assert float(np.max(np.diff(trace.V[after]))) <= 1e-6
    assert math.hypot(float(trace.xe[-1]), float(trace.ye[-1])) < 1e-3
