"""Tests for the closed-loop simulator and its trace logging."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdia_lab.fdia import attack_command, attack_state, build_reflection
from fdia_lab.kinematics import Posture
from fdia_lab.simloop import (
    TRACE_COLUMNS,
    SimConfig,
    SimTrace,
    run,
    undetectability_report,
    write_csv,
)
from fdia_lab.smsf import eval_signature
from fdia_lab.tracking import RefConfig, control, reference_table


def test_trace_column_order():
    assert TRACE_COLUMNS == (
        "t", "x", "y", "theta", "x_obs", "y_obs", "theta_obs",
        "v_cmd", "w_cmd", "v_rx", "w_rx",
        "xe", "ye", "thetae", "V", "phi_plant", "phi_ctrl",
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(log_stride=0)
    with pytest.raises(ValueError):
        SimConfig(duration=-1.0)
    with pytest.raises(ValueError):
        SimConfig(ref=RefConfig(duration=10.0), duration=30.0)


def test_duration_must_be_whole_steps():
    # 0.015 and 0.025 would both end at t = 0.02, and 0.004 would run no step
    for bad in (0.015, 0.025, 0.004, 1.005):
        with pytest.raises(ValueError):
            SimConfig(duration=bad)
    # 30 / 0.01 is 2999.9999999999995 in floating point: still 3000 steps
    for good, steps in ((30.0, 3000), (5.0, 500), (1.0, 100), (0.2, 20), (0.01, 1)):
        assert SimConfig(duration=good).n_steps() == steps


def test_diverging_run_raises():
    # a start 1e308 m off the reference commands an infinite speed at once
    with pytest.raises(ValueError):
        run(SimConfig(p0=Posture(1e308, 0.0, 0.0), duration=1.0))


def test_time_grid_shape(scenario_runs):
    trace = scenario_runs["nominal"].nominal
    assert len(trace) == 1501
    assert trace.t[0] == 0.0
    assert trace.t[-1] == 30.0
    diffs = np.diff(trace.t)
    assert np.all(diffs > 0.0)
    assert float(np.max(np.abs(diffs - 0.02))) <= 1e-9


def test_runs_are_deterministic(scenario_runs):
    bundle = scenario_runs["scenario1"]
    again = run(bundle.scenario.sim, attack=bundle.attack,
                signature=bundle.scenario.signature)
    np.testing.assert_array_equal(again.data, bundle.attacked.data)


def test_zero_initial_error_stays_on_reference():
    # Starting exactly on the reference origin, the logged error channels are
    # identically zero and the command equals the feedforward at each tick.
    cfg = SimConfig(p0=Posture(0.0, 0.0, 0.0), duration=1.0)
    trace = run(cfg)
    np.testing.assert_array_equal(trace.xe, np.zeros(len(trace)))
    np.testing.assert_array_equal(trace.ye, np.zeros(len(trace)))
    np.testing.assert_array_equal(trace.thetae, np.zeros(len(trace)))
    for t, v, w in zip(trace.t.tolist(), trace.v_cmd.tolist(), trace.w_cmd.tolist()):
        assert v == cfg.ref.v_ref
        assert w == cfg.ref.omega_amp * math.sin(2.0 * math.pi * t / cfg.ref.omega_period)


def test_observed_columns_follow_attack_map(scenario_runs):
    bundle = scenario_runs["scenario3"]
    act = np.stack([bundle.attacked.x, bundle.attacked.y, bundle.attacked.theta], axis=1)
    expected = act @ bundle.attack.s_x.T + bundle.attack.d_x
    obs = np.stack(
        [bundle.attacked.x_obs, bundle.attacked.y_obs, bundle.attacked.theta_obs], axis=1
    )
    assert float(np.max(np.abs(obs - expected))) <= 1e-12


def test_received_commands_follow_attack_map(scenario_runs):
    s2 = scenario_runs["scenario2"].attacked
    a2 = scenario_runs["scenario2"].attack
    np.testing.assert_array_equal(s2.v_rx, a2.s_u[0, 0] * s2.v_cmd)
    np.testing.assert_array_equal(s2.w_rx, s2.w_cmd)

    s1 = scenario_runs["scenario1"].attacked
    np.testing.assert_array_equal(s1.v_rx, s1.v_cmd)
    np.testing.assert_array_equal(s1.w_rx, -s1.w_cmd)

    nom = scenario_runs["nominal"].nominal
    np.testing.assert_array_equal(nom.v_rx, nom.v_cmd)
    np.testing.assert_array_equal(nom.w_rx, nom.w_cmd)


def test_plant_slows_to_half_speed_under_scaling(scenario_runs):
    s2 = scenario_runs["scenario2"].attacked
    tail = s2.t >= 25.0
    assert abs(float(np.mean(s2.v_rx[tail])) - 0.01) <= 2e-3
    nom = scenario_runs["nominal"].nominal
    assert abs(float(np.mean(nom.v_rx[tail])) - 0.02) <= 2e-3


def test_logged_lyapunov_and_signature_columns(scenario_runs):
    bundle = scenario_runs["scenario2"]
    trace = bundle.attacked
    sig = bundle.scenario.signature
    gains = bundle.scenario.sim.gains
    v_re = 0.5 * (trace.xe**2 + trace.ye**2) + (1.0 - np.cos(trace.thetae)) / gains.ky
    assert float(np.max(np.abs(trace.V - v_re))) <= 1e-12
    np.testing.assert_allclose(trace.phi_plant, eval_signature(sig, trace.x, trace.y),
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(trace.phi_ctrl, eval_signature(sig, trace.x_obs, trace.y_obs),
                               rtol=0.0, atol=1e-15)


def test_unknown_column_raises():
    trace = run(SimConfig(duration=1.0))
    with pytest.raises(AttributeError):
        trace.no_such_column


def test_logged_columns_are_the_controller_tick(scenario_runs):
    # the logged observation, command and error columns are control() at the
    # observed posture, bitwise, on an attacked run
    bundle = scenario_runs["scenario3"]
    cfg = bundle.scenario.sim
    trace = bundle.attacked
    table = reference_table(cfg.ref, cfg.dt)
    for row in trace.data[::25].tolist():
        k = round(row[0] / cfg.dt)
        assert row[0] == k * cfg.dt
        assert tuple(row[4:7]) == attack_state(bundle.attack, *row[1:4])
        tick = control(cfg.ref, cfg.gains, table[k].tolist(), row[0], *row[4:7])
        assert (row[7], row[8], *row[11:15]) == tick
        assert tuple(row[9:11]) == attack_command(bundle.attack, row[7], row[8])


def test_undetectability_report_on_builtin_attacks(scenario_runs):
    nominal = scenario_runs["nominal"].nominal
    for name in ("scenario1", "scenario2"):
        bundle = scenario_runs[name]
        report = undetectability_report(bundle.attacked, nominal, bundle.attack)
        assert report.undetectable
        assert report.sup_obs_dev <= 1e-9
        assert report.sup_actual_dev <= 1e-9


def test_undetectability_report_rejects_mismatched_grids(scenario_runs):
    bundle = scenario_runs["scenario1"]
    short = run(SimConfig(duration=1.0))
    with pytest.raises(ValueError):
        undetectability_report(short, bundle.nominal, bundle.attack)


def test_wrong_anchor_breaks_undetectability(scenario_runs):
    # Condition 1 is an equality on d_x at the true initial posture; anchoring
    # the reflection 1 cm off makes the observed stream jump at t = 0.
    nominal = scenario_runs["nominal"].nominal
    sim = scenario_runs["nominal"].scenario.sim
    bad = build_reflection(1.0, Posture(0.0, 0.03, 0.0))
    attacked = run(sim, attack=bad)
    report = undetectability_report(attacked, nominal, bad)
    assert not report.undetectable
    assert report.sup_obs_dev >= 0.009


def test_attacked_error_signals_match_nominal(scenario_runs):
    # The controller sees the same residual stream it would see on an honest
    # run, which is exactly what makes these attacks invisible to it.
    nominal = scenario_runs["nominal"].nominal
    for name in ("scenario1", "scenario2"):
        attacked = scenario_runs[name].attacked
        for col in ("xe", "ye", "thetae", "v_cmd", "w_cmd"):
            dev = float(np.max(np.abs(getattr(attacked, col) - getattr(nominal, col))))
            assert dev <= 1e-9, f"{name}.{col} deviates by {dev}"


def test_csv_round_trip_is_bitwise(tmp_path, scenario_runs):
    trace = scenario_runs["scenario3"].attacked
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline().strip() == ",".join(TRACE_COLUMNS)
    back = SimTrace.from_csv(path)
    np.testing.assert_array_equal(back.data, trace.data)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6))
def test_write_csv_round_trips_float64_exactly(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    write_csv(path, ("label", "count", "flag", "value"),
              [("a b;c", 7, True, v) for v in values])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label,count,flag,value"
    back = []
    for line in lines[1:]:
        label, count, flag, value = line.split(",")
        assert (label, count, flag) == ("a b;c", "7", "1")
        back.append(float(value))
    # bitwise, so the sign of zero, subnormals and infinities all count
    assert np.array(back).view(np.int64).tolist() == np.array(values).view(np.int64).tolist()


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        SimTrace.from_csv(path)
