"""Tests for the closed-loop simulator and its trace logging."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdia_lab import _csvfloat
from fdia_lab.fdia import (
    _inverse_state,
    attack_command,
    attack_state,
    build_reflection,
    build_scaling,
    identity_attack,
)
from fdia_lab.kinematics import Posture, rk4_step
from fdia_lab.netlink import CTRL_VIEW_COLUMNS, PLANT_VIEW_COLUMNS
from fdia_lab.scenarios import builtin_names, load_scenario
from fdia_lab.simloop import (
    TRACE_COLUMNS,
    RunDiverged,
    SimConfig,
    SimTrace,
    _packed_rows,
    run,
    undetectability_report,
    write_csv,
    write_trace_csv,
)
from fdia_lab.smsf import default_signature, eval_signature
from fdia_lab.tracking import (
    _MAX_ROWS,
    RefConfig,
    _reference_rows,
    _table_steps,
    control,
    reference_table,
)


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
    # 30 / 0.01 is 2999.9999999999995 in floating point: still 3000 steps; a
    # stride of 1 divides every step count
    for good, steps in ((30.0, 3000), (5.0, 500), (1.0, 100), (0.2, 20), (0.01, 1)):
        assert SimConfig(duration=good, log_stride=1).n_steps() == steps


def test_diverging_run_raises():
    # a start 1e308 m off the reference commands an infinite speed at once
    with pytest.raises(RunDiverged, match="non-finite values"):
        run(SimConfig(p0=Posture(1e308, 0.0, 0.0), duration=1.0))
    assert issubclass(RunDiverged, ValueError)


def test_an_infinite_heading_raises_run_diverged():
    # a 1e300 m/s reference speed commands an infinite turn rate, and the next
    # tick takes math.cos of an infinite heading
    with pytest.raises(RunDiverged, match="non-finite heading at t = 0.01 s"):
        run(SimConfig(ref=RefConfig(v_ref=1e300, duration=1.0), duration=1.0))


def test_a_reference_table_past_sys_maxsize_bytes_is_refused():
    # checked on the ratio alone: nothing here allocates a table
    assert _MAX_ROWS * 32 <= sys.maxsize < (_MAX_ROWS + 1) * 32
    top = float(_MAX_ROWS - 1)
    if top > _MAX_ROWS - 1:  # the nearest float rounded up
        top = math.nextafter(top, 0.0)
    beyond = math.nextafter(top, math.inf)
    assert _table_steps(RefConfig(duration=top), 1.0) == top
    with pytest.raises(ValueError, match="sys.maxsize bytes"):
        _table_steps(RefConfig(duration=beyond), 1.0)
    assert SimConfig(ref=RefConfig(duration=top), dt=1.0, duration=top).n_steps() == top
    for duration in (beyond, 1e300):
        with pytest.raises(ValueError, match="sys.maxsize bytes"):
            SimConfig(ref=RefConfig(duration=duration), dt=1.0, duration=duration)
    # a reference longer than its run is sized by its own duration
    with pytest.raises(ValueError, match="sys.maxsize bytes"):
        SimConfig(ref=RefConfig(duration=1e300), duration=1.0)
    # reference_table used to raise OverflowError from bytearray
    with pytest.raises(ValueError, match="sys.maxsize bytes"):
        reference_table(RefConfig(duration=1e300), 1.0)


def test_a_reference_shorter_than_the_run_raises():
    # 9e-9 s is within 1e-9 s of the run, but at dt = 1e-9 its table is one
    # row short: SimConfig counts the rows reference_table builds
    ref = RefConfig(duration=9e-9)
    assert len(reference_table(ref, 1e-9)) == 10
    with pytest.raises(ValueError, match="shorter"):
        SimConfig(ref=ref, dt=1e-9, duration=1e-8)
    # the loops' own guard still refuses a table one row short
    with pytest.raises(ValueError, match="shorter"):
        _reference_rows(ref, 1e-9, 11)
    assert len(list(_reference_rows(ref, 1e-9, 10))) == 10


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-4, 1.0), st.integers(1, 10**6))
@example(9e-9, 1e-9, 10)  # within 1e-9 s of the run, one row short
@example(1.01, 0.01, 100)  # a reference a tick longer than a 1 s run
@example(30.0, 0.01, 3000)  # 30 / 0.01 is 2999.9999999999995
@example(5e7, 0.5, 10**8 + 1)  # 1e8 - 1e-9 rounds to 1e8: exactly one row short
def test_sim_config_builds_exactly_when_the_reference_table_is_long_enough(
        ref_duration, dt, steps):
    ref = RefConfig(duration=ref_duration)
    rows = math.ceil(ref_duration / dt - 1e-9) + 1  # what reference_table builds
    if rows >= steps + 1:  # a stride of 1 divides any step count
        assert SimConfig(ref=ref, dt=dt, duration=steps * dt, log_stride=1).n_steps() == steps
    else:
        with pytest.raises(ValueError, match="shorter"):
            SimConfig(ref=ref, dt=dt, duration=steps * dt, log_stride=1)


def test_builtin_and_benchmark_configs_still_build():
    for name in builtin_names():
        sim = load_scenario(name).sim
        assert len(reference_table(sim.ref, sim.dt)) >= sim.n_steps() + 1
    # a one-row-longer table beside a 1 s run
    assert SimConfig(ref=RefConfig(duration=1.01), duration=1.0).n_steps() == 100


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


def _tuple_loop(cfg, attack, sig):
    """run()'s table as the loop built it before packed rows: 15-tuples, one
    np.array conversion, and one eval_signature call per signature column."""
    n_steps = cfg.n_steps()
    x, y, th = cfg.p0.x, cfg.p0.y, cfg.p0.theta
    rows = []
    for k, p_ref in enumerate(_reference_rows(cfg.ref, cfg.dt, n_steps + 1)):
        xo, yo, tho = (x, y, th) if attack is None else attack_state(attack, x, y, th)
        v, w, xe, ye, the, lyap = control(cfg.ref, cfg.gains, p_ref, xo, yo, tho)
        v_rx, w_rx = (v, w) if attack is None else attack_command(attack, v, w)
        if k % cfg.log_stride == 0:
            rows.append((k * cfg.dt, x, y, th, xo, yo, tho, v, w, v_rx, w_rx, xe, ye, the, lyap))
        if k < n_steps:
            x, y, th = rk4_step(x, y, th, v_rx, w_rx, cfg.dt)
    data = np.empty((len(rows), len(TRACE_COLUMNS)))
    data[:, :-2] = rows
    data[:, -2] = eval_signature(sig, data[:, 1], data[:, 2])
    data[:, -1] = eval_signature(sig, data[:, 4], data[:, 5])
    return data


_P0 = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-math.pi, math.pi))
_BETA = st.floats(0.25, 4.0) | st.floats(-4.0, -0.25)


@settings(max_examples=40, deadline=None)
@given(_P0, st.sampled_from([None, build_reflection, build_scaling]), _BETA,
       st.floats(-math.pi, math.pi), st.integers(1, 150), st.integers(1, 4))
@example((0.0, 0.02, 0.0), build_reflection, 1.0, 0.0, 100, 2)
@example((0.0, 0.02, 0.0), None, 1.0, 0.0, 1, 1)  # two ticks, one logged row past a step
def test_run_equals_the_tuple_loop_bitwise(p0, builder, beta11, theta0, steps, stride):
    assume(steps % stride == 0)  # SimConfig refuses a stride that skips the final tick
    p0 = Posture(*p0)
    attack = None if builder is None else builder(beta11, Posture(p0.x, p0.y, theta0))
    cfg = SimConfig(p0=p0, duration=steps * 0.01, log_stride=stride)
    sig = default_signature()
    data = run(cfg, attack, sig).data
    assert data.shape == (steps // stride + 1, len(TRACE_COLUMNS))
    assert data.tobytes() == _tuple_loop(cfg, attack, sig).tobytes()


def test_packed_rows_read_back_bitwise():
    rows = [(0.0, -0.0, 5e-324), (math.pi, -1e308, 2.0**-1074)]
    pack, table = _packed_rows(3)
    got = table([pack(*row) for row in rows])
    assert got.shape == (2, 3) and got.flags.writeable
    assert got.tobytes() == np.array(rows).tobytes()
    # no rows: the empty table keeps its width, as a session cut before its first tick
    assert table([]).shape == (0, 3)
    assert SimTrace(table([]), PLANT_VIEW_COLUMNS[:3]).data.shape == (0, 3)


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


@pytest.mark.parametrize("columns", [TRACE_COLUMNS, PLANT_VIEW_COLUMNS, CTRL_VIEW_COLUMNS],
                         ids=["trace", "plant", "ctrl"])
def test_trace_refuses_data_of_the_wrong_width(columns):
    n = len(columns)
    for shape in [(n, n + 1), (n + 1, n - 1), (2 * n,), (1, n, 1)]:
        with pytest.raises(ValueError):
            SimTrace(np.zeros(shape), columns)
    # a session that ends before its first tick hands back an empty view
    for empty in [np.zeros(0), np.zeros((0, n)), []]:
        assert SimTrace(empty, columns).data.shape == (0, n)
    assert SimTrace(np.zeros((3, n)), columns).data.shape == (3, n)


def test_traces_compare_by_identity():
    a, b = SimTrace(np.zeros((2, 17))), SimTrace(np.zeros((2, 17)))
    assert a == a
    assert (a == b) is False and (a != b) is True


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
        omega_r = cfg.ref.omega_amp * math.sin(2.0 * math.pi * row[0] / cfg.ref.omega_period)
        tick = control(cfg.ref, cfg.gains, (*table[k, :3].tolist(), omega_r), *row[4:7])
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


def test_undetectability_report_rejects_a_view(scenario_runs):
    bundle = scenario_runs["scenario1"]
    attacked = bundle.attacked
    view = SimTrace(attacked.data[:, :len(CTRL_VIEW_COLUMNS)], CTRL_VIEW_COLUMNS)
    with pytest.raises(ValueError, match="full traces"):
        undetectability_report(view, bundle.nominal, bundle.attack)
    with pytest.raises(ValueError, match="full traces"):
        undetectability_report(attacked, view, bundle.attack)


def _inverted(attack, nom):
    """The nominal postures (one per row) mapped back by _inverse_state."""
    return np.stack(_inverse_state(attack, *nom.T), axis=1)


def _solved(attack, nom):
    """LAPACK's inverse image of the nominal postures, the oracle for _inverse_state."""
    return np.linalg.solve(attack.s_x, (nom - attack.d_x).T).T


def _stacked_report(attacked, nominal, attack, inverse=_inverted):
    """undetectability_report's two sups as computed from stacked column copies,
    the nominal posture mapped back by inverse(attack, nom)."""
    obs = np.stack([attacked.x_obs, attacked.y_obs, attacked.theta_obs], axis=1)
    nom = np.stack([nominal.x, nominal.y, nominal.theta], axis=1)
    act = np.stack([attacked.x, attacked.y, attacked.theta], axis=1)
    mapped = inverse(attack, nom)
    return float(np.max(np.abs(obs - nom))), float(np.max(np.abs(act - mapped)))


def _bits(*values):
    return np.array(values).tobytes()


def test_undetectability_report_equals_the_stacked_columns_bitwise(scenario_runs):
    nominal = scenario_runs["nominal"].nominal
    for name in ("scenario1", "scenario2", "scenario3"):
        bundle = scenario_runs[name]
        report = undetectability_report(bundle.attacked, nominal, bundle.attack)
        want = _stacked_report(bundle.attacked, nominal, bundle.attack)
        assert _bits(report.sup_obs_dev, report.sup_actual_dev) == _bits(*want)


def test_the_builtin_reports_are_the_ones_lapack_solve_gave(scenario_runs):
    # summary.json's sup_actual_dev: the plain-float inverse gives the bits
    # that np.linalg.solve gave on the four builtins, so their artifacts stay
    nominal = scenario_runs["nominal"].nominal
    for name in ("nominal", "scenario1", "scenario2", "scenario3"):
        bundle = scenario_runs[name]
        attack = bundle.attack or identity_attack()
        attacked = bundle.attacked or nominal
        report = undetectability_report(attacked, nominal, attack)
        want = _stacked_report(attacked, nominal, attack, _solved)
        assert _bits(report.sup_obs_dev, report.sup_actual_dev) == _bits(*want), name


@settings(max_examples=25, deadline=None)
@given(_P0, st.sampled_from([build_reflection, build_scaling]), _BETA,
       st.floats(-math.pi, math.pi), st.floats(-0.05, 0.05))
# a draw whose sup_actual_dev np.linalg.solve puts 2 ulp away from _inverse_state's
@example((0.3999365133868543, 0.21785608481447594, -2.152619843227927), build_reflection,
         -3.1170630152471013, -2.1763203584700053, 0.04493484620529023)
def test_undetectability_report_on_drawn_attacks_equals_the_stacked_columns(
        p0, builder, beta11, theta0, anchor_shift):
    # anchored at p0 the attack hides; shifted, it does not, and both sups move
    p0 = Posture(*p0)
    cfg = SimConfig(p0=p0, duration=0.5, log_stride=1)
    attack = builder(beta11, Posture(p0.x + anchor_shift, p0.y, theta0))
    attacked, nominal = run(cfg, attack), run(cfg)
    report = undetectability_report(attacked, nominal, attack)
    want = _stacked_report(attacked, nominal, attack)
    assert _bits(report.sup_obs_dev, report.sup_actual_dev) == _bits(*want)
    assert report.undetectable == (want[0] <= 1e-9)


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


@pytest.mark.parametrize("columns", [TRACE_COLUMNS, PLANT_VIEW_COLUMNS, CTRL_VIEW_COLUMNS],
                         ids=["trace", "plant_view", "ctrl_view"])
def test_csv_round_trip_is_bitwise(tmp_path, scenario_runs, columns):
    trace = scenario_runs["scenario3"].attacked
    table = SimTrace(np.column_stack([getattr(trace, c) for c in columns]), columns)
    path = tmp_path / "table.csv"
    write_trace_csv(path, table)
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline().strip() == ",".join(columns)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert back.view(np.int64).tolist() == table.data.view(np.int64).tolist()


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


def _per_value_write_csv(path, columns, rows):
    """The writer write_csv replaced, one format() per value: the oracle for its bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join([v if isinstance(v, str) else format(v, ".17g")
                               for v in row]) + "\n")


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
_CELLS = {
    "str": st.text(st.characters(codec="utf-8"), max_size=8),
    "int": st.integers(min_value=-(10**300), max_value=10**300),
    "bool": st.booleans(),
    "float": st.floats() | st.sampled_from(_EDGE_FLOATS),
}


@st.composite
def _tables(draw):
    """Column kinds, and rows holding one kind per column as array.tolist() gives them."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=6))
    return kinds, draw(st.lists(st.tuples(*(_CELLS[k] for k in kinds)).map(list), max_size=8))


@settings(max_examples=300, deadline=None)
@given(_tables())
@example((["float", "str"], []))  # a header with no rows
def test_write_csv_bytes_equal_the_per_value_writer(tmp_path_factory, table):
    kinds, rows = table
    base = tmp_path_factory.getbasetemp()
    columns = [f"{kind}{k}" for k, kind in enumerate(kinds)]
    write_csv(base / "template.csv", columns, rows)
    _per_value_write_csv(base / "per_value.csv", columns, rows)
    assert (base / "template.csv").read_bytes() == (base / "per_value.csv").read_bytes()


def test_write_csv_refuses_a_string_in_a_numeric_column(tmp_path):
    # the first row fixes each column's kind; a later value of the other kind is not written
    path = tmp_path / "mixed.csv"
    with pytest.raises(TypeError):
        write_csv(path, ("label", "value"), [("a", 1.5), ("b", "oops")])
    assert path.read_text(encoding="utf-8") == "label,value\na,1.5\n"
    with pytest.raises(TypeError):
        write_csv(path, ("a",), [("x",), (0.1,)])
    assert path.read_text(encoding="utf-8") == "a\nx\n"


# ---------------------------------------------------------------------------
# the float kernel of write_csv: arrays must write the per-value writer's bytes


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@st.composite
def _near_ties(draw):
    """m * 2**-(k+1) for odd m: 17 significant digits m * 5**k / 2 that end in exactly
    .5 when 1e16 <= m * 5**k / 2 <= 1e17, so "%.17g" rounds a tie; then moved by up to 3 ulps."""
    k = draw(st.integers(min_value=1, max_value=24))
    low = -(-2 * 10**16 // 5**k)
    high = min(2 * 10**17 // 5**k, 2**53 - 1)
    m = draw(st.integers(min_value=low, max_value=high)) | 1
    value = _nudged(math.ldexp(m, -(k + 1)), draw(st.integers(min_value=-3, max_value=3)))
    return -value if draw(st.booleans()) else value


# "%.17g" writes fixed form for exponents -4..16 and d.ddde±XX outside it
_EXPONENT_EDGES = st.sampled_from([-5, -4, 16, 17]).flatmap(
    lambda x: st.floats(min_value=0.99999 * 10.0**x, max_value=1.00001 * 10.0**x)
    | st.floats(min_value=0.99999 * 10.0 ** (x + 1), max_value=10.0 ** (x + 1))
).flatmap(lambda v: st.sampled_from([v, -v]))
_KERNEL_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS) | _near_ties() | _EXPONENT_EDGES


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.lists(_KERNEL_FLOATS, max_size=40))
@example(1, [math.ldexp(131073, -17)])  # 1.00000762939453125: a tie, rounded to even
@example(2, [1e-5, 1e-4, 1e16, 1e17, 99999999999999984.0, 1e-11, 9.9999999999999994e-12, 0.0])
def test_write_csv_array_bytes_equal_the_per_value_writer(tmp_path_factory, cols, values):
    rows = np.array(values[:len(values) - len(values) % cols]).reshape(-1, cols)
    base = tmp_path_factory.getbasetemp()
    columns = [f"c{k}" for k in range(cols)]
    write_csv(base / "array.csv", columns, rows)
    _per_value_write_csv(base / "per_value.csv", columns, rows.tolist())
    assert (base / "array.csv").read_bytes() == (base / "per_value.csv").read_bytes()


def _bulk_values(rng) -> np.ndarray:
    """Over a million float64 values of the kinds the kernel proves, and of those it may not."""
    n = 220_000
    powers = np.array([10.0**k for k in range(-30, 31)])
    near_powers = [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]
    ties = []
    for k in range(1, 25):
        high = min(2 * 10**17 // 5**k, 2**53 - 1)
        m = rng.integers(-(-2 * 10**16 // 5**k), high, 2_000, endpoint=True) | 1
        tie = np.ldexp(m.astype(float), -(k + 1))
        ties += [tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)]
    digits = 10.0 ** rng.integers(0, 9, n)
    values = np.concatenate([
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),  # any bit pattern
        rng.uniform(-1e3, 1e3, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-14.0, 19.0, n),  # log-uniform
        np.rint(rng.uniform(-1e3, 1e3, n) * digits) / digits,  # short decimals
        rng.choice([-1.0, 1.0], 144_000) * np.concatenate(ties),
        *near_powers, -np.concatenate(near_powers), np.array(_EDGE_FLOATS),
    ])
    rng.shuffle(values)
    return values


def test_write_csv_array_bytes_on_a_million_values(tmp_path):
    values = _bulk_values(np.random.default_rng(20261018))
    assert values.size >= 1_000_000
    rows = values[:values.size - values.size % 8].reshape(-1, 8)
    columns = [f"c{k}" for k in range(8)]
    write_csv(tmp_path / "array.csv", columns, rows)
    _per_value_write_csv(tmp_path / "per_value.csv", columns, rows.tolist())
    got = (tmp_path / "array.csv").read_bytes().splitlines()
    want = (tmp_path / "per_value.csv").read_bytes().splitlines()
    mismatched = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want) and not mismatched, f"{len(mismatched)} rows differ"


@st.composite
def _deep_near_ties(draw):
    """The float nearest a 17-digit decimal ending in 5 at exponent -38..-12, where the
    kernel scales by two products, then moved by up to 3 ulps."""
    digits = draw(st.integers(min_value=10**15, max_value=10**16 - 1)) * 10 + 5
    value = float(f"{digits}e{draw(st.integers(min_value=-38, max_value=-12)) - 16}")
    value = _nudged(value, draw(st.integers(min_value=-3, max_value=3)))
    return -value if draw(st.booleans()) else value


_DEEP_FLOATS = (st.floats(min_value=1e-38, max_value=1e-11)
                | st.floats(min_value=-38.5, max_value=-10.5).map(lambda p: 10.0**p)
                | _deep_near_ties())


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.lists(_DEEP_FLOATS, max_size=40))
@example(1, [1e-38, 9.9999999999999996e-39, 1e-12, 9.9999999999999998e-13, 1.5e-20])
def test_write_csv_array_bytes_below_1e_11_equal_the_per_value_writer(
        tmp_path_factory, cols, values):
    rows = np.array(values[:len(values) - len(values) % cols]).reshape(-1, cols)
    base = tmp_path_factory.getbasetemp()
    columns = [f"c{k}" for k in range(cols)]
    write_csv(base / "array.csv", columns, rows)
    _per_value_write_csv(base / "per_value.csv", columns, rows.tolist())
    assert (base / "array.csv").read_bytes() == (base / "per_value.csv").read_bytes()


def test_write_csv_array_bytes_within_0_02_of_a_deep_tie(tmp_path):
    # floats whose exact scaled value |x| * 10**(16 - E) lies within 0.02 of a
    # rounding tie at E = -38..-12: the kernel proves those beyond its 0.012
    # guard and hands the rest to "%.17g"
    rng = np.random.default_rng(20261019)
    values = []
    while len(values) < 1000:
        e = int(rng.integers(-38, -11))
        value = float(f"{int(rng.integers(10**15, 10**16)) * 10 + 5}e{e - 16}")
        scaled = Fraction(value) * 10 ** (16 - e)
        if abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 50):
            values.append(value)
    rows = np.array(values).reshape(-1, 4) * np.array([1.0, -1.0, 1.0, -1.0])
    write_csv(tmp_path / "array.csv", ("a", "b", "c", "d"), rows)
    _per_value_write_csv(tmp_path / "per_value.csv", ("a", "b", "c", "d"), rows.tolist())
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "per_value.csv").read_bytes()


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_write_csv_narrow_tables_cross_block_boundaries(tmp_path, cols):
    # 5,000 rows of 1-3 columns span two to four value-count blocks
    rng = np.random.default_rng(cols)
    values = rng.choice([-1.0, 1.0], 5000 * cols) * 10.0 ** rng.uniform(-40.0, 19.0, 5000 * cols)
    values[::97] = 0.0
    values[::101] = rng.integers(0, 2**64, values[::101].size, dtype=np.uint64).view(np.float64)
    rows = values.reshape(5000, cols)
    assert rows.size > _csvfloat._BLOCK
    columns = [f"c{k}" for k in range(cols)]
    write_csv(tmp_path / "array.csv", columns, rows)
    _per_value_write_csv(tmp_path / "per_value.csv", columns, rows.tolist())
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "per_value.csv").read_bytes()


def test_write_csv_kernel_proves_all_but_the_near_ties_of_a_trace(scenario_runs):
    # the late Lyapunov values below 1e-11 take the kernel too; what is left
    # for "%.17g" is about 1.3% of scenario1's trace, values near a tie
    values = scenario_runs["scenario1"].attacked.data.ravel()
    ok, _, _ = _csvfloat._significands(values, _csvfloat._tables())
    assert int((~ok & (values != 0)).sum()) <= 400


def test_write_csv_without_extended_precision_writes_the_same_bytes(
        tmp_path, monkeypatch, scenario_runs):
    # on a platform whose long double has no 64-bit significand every value
    # takes the per-value fallback
    data = scenario_runs["scenario1"].attacked.data
    write_csv(tmp_path / "kernel.csv", TRACE_COLUMNS, data)
    monkeypatch.setattr(_csvfloat, "_EXTENDED", False)
    write_csv(tmp_path / "fallback.csv", TRACE_COLUMNS, data)
    _per_value_write_csv(tmp_path / "per_value.csv", TRACE_COLUMNS, data.tolist())
    expected = (tmp_path / "per_value.csv").read_bytes()
    assert (tmp_path / "kernel.csv").read_bytes() == expected
    assert (tmp_path / "fallback.csv").read_bytes() == expected


def test_write_csv_refuses_an_array_of_the_wrong_shape(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ("a", "b"), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ("a",), np.zeros(3))
    write_csv(tmp_path / "empty.csv", ("a", "b"), np.zeros((0, 2)))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


# Input built from integer bit patterns and exact arithmetic only: numpy's own
# transcendental kernels (np.exp, np.sin) return other bits under another dispatch.
_DISPATCH_INPUT = """
import numpy as np
rng = np.random.default_rng(7)
n = 60_000
bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
scaled = np.ldexp(rng.integers(-2**53, 2**53, n).astype(float), rng.integers(-75, 45, n))
block = np.concatenate([bits, scaled]).reshape(-1, 12)
"""


def _run_python(script: str, *args, avx512: bool, coretype: str | None = None) -> None:
    """Run script in a fresh interpreter on this checkout's package.

    avx512=False turns numpy's AVX-512 dispatch off, as on a CPU without
    AVX-512. coretype sets OPENBLAS_CORETYPE, the kernel family a
    DYNAMIC_ARCH OpenBLAS loads; None leaves OpenBLAS to pick by CPU model.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    if avx512:
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
    else:
        env["NPY_DISABLE_CPU_FEATURES"] = "AVX512_SPR AVX512_ICL X86_V4"
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_write_csv_bytes_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    """The kernel writes the same bytes with numpy's AVX-512 kernels turned off.

    np.log10 seeds each exponent and runs under numpy's CPU dispatch; the
    long double product then proves or corrects it. The subprocess turns the
    AVX-512 dispatch off, as on a CPU without AVX-512; on such a CPU both
    runs take the same kernels and the test passes trivially.
    """
    script = _DISPATCH_INPUT + (
        "import sys\nfrom fdia_lab.simloop import write_csv\n"
        "write_csv(sys.argv[1], [str(k) for k in range(block.shape[1])], block)\n")
    _run_python(script, tmp_path / "off.csv", avx512=False)
    scope = {}
    exec(_DISPATCH_INPUT, scope)
    block = scope["block"]
    columns = [str(k) for k in range(block.shape[1])]
    write_csv(tmp_path / "default.csv", columns, block)
    _per_value_write_csv(tmp_path / "per_value.csv", columns, block.tolist())
    expected = (tmp_path / "per_value.csv").read_bytes()
    assert (tmp_path / "default.csv").read_bytes() == expected
    assert (tmp_path / "off.csv").read_bytes() == expected


# a reflection about an off-axis start pose: two nonzero products in a row of
# s_x p0, which an FMA kernel rounds once and a non-FMA one twice
_OFF_AXIS_RUN = """
import json, sys
from pathlib import Path
from fdia_lab.cli import main
out = Path(sys.argv[1])
out.mkdir()
doc = out / "off_axis.json"
doc.write_text(json.dumps({"seed": 5, "duration": 5.0, "p0": [-0.524, 0.088, -0.39],
                           "attack": {"kind": "Reflection", "beta11": 1.41}}))
sys.exit(main(["simulate", "--scenario", str(doc), "--out-dir", str(out / "run")]))
"""


def test_simulate_bytes_do_not_depend_on_the_openblas_kernel(tmp_path):
    """An off-axis attack's artifacts are the same under OpenBLAS's default and Sandybridge kernels.

    The builders write d_x = (I - s_x) p0 as plain float sums, so no BLAS
    kernel, with or without FMA, decides its bits. On a CPU whose default
    kernel is Sandybridge's both runs take the same kernel and the test
    passes trivially.
    """
    _run_python(_OFF_AXIS_RUN, tmp_path / "default", avx512=True)
    _run_python(_OFF_AXIS_RUN, tmp_path / "sandybridge", avx512=True, coretype="Sandybridge")
    files = sorted(p.name for p in (tmp_path / "default" / "run").iterdir())
    assert files == ["attack.json", "monitor.csv", "nominal.csv", "summary.json", "trace.csv"]
    differ = [name for name in files if (tmp_path / "default" / "run" / name).read_bytes()
              != (tmp_path / "sandybridge" / "run" / name).read_bytes()]
    assert not differ, f"{len(differ)} files differ: {differ}"

# the built-in scenarios and a 10 s reflection: numpy's AVX-512 and baseline
# power kernels give other x^3 and x^4 bits on some of their positions
_CLI_RUNS = """
import json, sys
from pathlib import Path
from fdia_lab.cli import main
out = Path(sys.argv[1])
out.mkdir()
doc = out / "reflection.json"
doc.write_text(json.dumps({"seed": 5, "duration": 10.0,
                           "attack": {"kind": "Reflection", "beta11": 1.0}}))
for name in ("nominal", "scenario1", "scenario2", "scenario3", str(doc)):
    main(["simulate", "--scenario", name, "--out-dir", str(out / Path(name).stem)])
main(["monitor", "--scenario", str(doc), "--out", str(out / "monitor.csv")])
main(["estimate", "--out", str(out / "estimate.csv")])
"""


def test_cli_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    """simulate, monitor --out and estimate --out write the same bytes with AVX-512 off.

    The signature's powers are chains of IEEE products, never numpy's power
    kernel, which numpy picks from the CPU's features. On a CPU without
    AVX-512 both runs take the same kernels and the test passes trivially.
    """
    _run_python(_CLI_RUNS, tmp_path / "default", avx512=True)
    _run_python(_CLI_RUNS, tmp_path / "off", avx512=False)
    files = sorted(p.relative_to(tmp_path / "default")
                   for p in (tmp_path / "default").rglob("*") if p.is_file())
    assert len(files) == 5 * 5 + 3
    assert files == sorted(p.relative_to(tmp_path / "off")
                           for p in (tmp_path / "off").rglob("*") if p.is_file())
    differ = [str(f) for f in files
              if (tmp_path / "default" / f).read_bytes() != (tmp_path / "off" / f).read_bytes()]
    assert not differ, f"{len(differ)} files differ: {differ}"
