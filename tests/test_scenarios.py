"""Tests for scenario documents, artifact runs, and the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON_SCALARS, JSONISH
from fdia_lab import cli, fdia, netlink, scenarios, smsf
from fdia_lab.cli import main
from fdia_lab.fdia import (
    KIND_IDENTITY,
    KIND_REFLECTION,
    KIND_SCALING,
    AffineAttack,
    AttackError,
    _attack_from_dict,
    build_reflection,
    load_attack,
)
from fdia_lab.kinematics import Posture
from fdia_lab.scenarios import (
    ScenarioError,
    builtin_names,
    load_scenario,
    resolve_out_dir,
    run_scenario,
    scenario_from_dict,
    validate_scenario,
    write_monitor_csv,
)
from fdia_lab.simloop import SimConfig, SimTrace, run
from fdia_lab.smsf import default_signature, eval_signature, monitor, signature_from_dict

ARTIFACTS = ("trace.csv", "nominal.csv", "attack.json", "monitor.csv", "summary.json")
SRC = Path(__file__).resolve().parent.parent / "src"


def _quick_doc(**overrides):
    doc = {"name": "quick", "seed": 7, "duration": 1.0}
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# builtin catalog


def test_builtin_names():
    assert builtin_names() == ("nominal", "scenario1", "scenario2", "scenario3")


def test_builtins_load_and_validate(scenario_runs):
    seeds = {"nominal": 100, "scenario1": 101, "scenario2": 102, "scenario3": 103}
    for name, bundle in scenario_runs.items():
        sc = bundle.scenario
        assert sc.name == name
        assert sc.seed == seeds[name]
        assert sc.sim.p0.x == 0.0 and sc.sim.p0.y == 0.02
        assert validate_scenario(sc) is sc.attack
        assert (sc.attack is None) == (name == "nominal")
    assert scenario_runs["scenario1"].scenario.attack.kind == KIND_REFLECTION
    assert scenario_runs["scenario2"].scenario.attack.kind == KIND_SCALING
    assert scenario_runs["scenario2"].scenario.attack.beta11 == 0.5
    assert scenario_runs["scenario3"].scenario.sim.p0.theta == math.pi / 6.0
    assert scenario_runs["nominal"].scenario.sim.p0.theta == 0.0


def test_builtin_attack_matrices(scenario_runs):
    a2 = scenario_runs["scenario2"].attack
    np.testing.assert_array_equal(a2.s_x, np.diag([2.0, 2.0, 1.0]))
    np.testing.assert_array_equal(a2.d_x, [0.0, -0.02, 0.0])
    np.testing.assert_array_equal(a2.s_u, np.diag([0.5, 1.0]))

    a3 = scenario_runs["scenario3"].attack
    np.testing.assert_allclose(
        a3.d_x, [-0.01 * math.sqrt(3.0), 0.03, math.pi / 3.0], rtol=0.0, atol=1e-15
    )


def test_unknown_builtin_is_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="unknown scenario"):
        load_scenario("scenario9")
    with pytest.raises(ScenarioError, match="unknown scenario"):
        load_scenario(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# scenario documents


_MALFORMED_VALUES = [
    # a builtin exception must not escape from these
    {"p0": ["a", 0, 0]},
    {"duration": "x"},
    {"p0": [math.nan, 0, 0]},
    {"gains": []},
    {"ref": 5},
    {"signature": {"terms": []}},
    {"duration": 10**400},
    {"gains": {"kx": 10**400}},
    {"attack": {"kind": "Reflection", "beta11": 10**400}},
    {"log_stride": math.inf},
    {"dt": 1e-308, "duration": 1e308},
    # nor may these load through a silent coercion
    {"log_stride": 2.5},
    {"detection": {"window": 2.7}},
    {"signature": {"terms": {"2,0": 1.0}, "max_degree": 4.5}},
    {"log_stride": True},
    {"ref": {"omega_period": True}},
    {"dt": "0.01"},
    {"detection": []},
    {"signature": {"terms": {"2,0": "1.0"}}},
    {"signature": {"terms": {" 2,0": 1.0}}},
    {"signature": {"terms": {"2,0": 1.0}, "secret": 1}},
    {"signature": {}},
    {"signature": {"terms": [1]}},
    {"signature": True},
    {"signature": {"terms": {"01,1": 1.0}}},
    {"signature": {"terms": {"2,0": True}}},
    # nor a number float64 cannot hold exactly, which would load rounded
    {"p0": [2**53 + 1, 0, 0]},
    {"duration": 2**53 + 1},
    {"gains": {"kx": 2**53 + 1}},
    {"attack": {"kind": "Reflection", "beta11": 2**53 + 1}},
    {"signature": {"terms": {"2,0": 2**53 + 1}}},
]


def test_document_validation_errors():
    with pytest.raises(ScenarioError, match="declare a seed"):
        scenario_from_dict({"name": "x"})
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        scenario_from_dict(_quick_doc(bogus=1))
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        scenario_from_dict({"seed": 1, 1: 2, "a": 3})  # keys that do not sort together
    with pytest.raises(ScenarioError, match="unknown ref keys"):
        scenario_from_dict(_quick_doc(ref={"speed": 1.0}))
    # the run's duration is the reference table's: a document has only the one
    with pytest.raises(ScenarioError, match="unknown ref keys"):
        scenario_from_dict(_quick_doc(ref={"duration": 1.0}))
    assert scenario_from_dict(_quick_doc()).sim.ref.duration == 1.0
    with pytest.raises(ScenarioError, match="unknown gains keys"):
        scenario_from_dict(_quick_doc(gains={"kp": 1.0}))
    with pytest.raises(ScenarioError, match="unknown detection keys"):
        scenario_from_dict(_quick_doc(detection={"threshold": 1.0}))
    with pytest.raises(ScenarioError, match="unknown attack keys"):
        scenario_from_dict(_quick_doc(attack={"kind": "Reflection", "gamma": 2.0}))
    with pytest.raises(ScenarioError, match="invalid attack"):
        scenario_from_dict(_quick_doc(attack={"kind": "Warp"}))
    with pytest.raises(ScenarioError, match="custom attacks"):
        scenario_from_dict(_quick_doc(attack={"kind": "Custom"}))
    with pytest.raises(ScenarioError, match="invalid attack"):
        scenario_from_dict(_quick_doc(attack={"kind": "Reflection", "beta11": [2.0]}))
    with pytest.raises(ScenarioError, match="signature"):
        scenario_from_dict(_quick_doc(signature="secret"))
    with pytest.raises(ScenarioError, match="p0"):
        scenario_from_dict(_quick_doc(p0=[1.0, 2.0]))
    with pytest.raises(ScenarioError, match="invalid scenario settings"):
        scenario_from_dict(_quick_doc(dt=-0.01))
    with pytest.raises(ScenarioError, match="seed"):
        scenario_from_dict(_quick_doc(seed=-3))
    for overrides in _MALFORMED_VALUES:
        with pytest.raises(ScenarioError):
            scenario_from_dict(_quick_doc(**overrides))


@pytest.mark.parametrize("read, error, where, known", [
    (scenario_from_dict, ScenarioError, "scenario", {"seed": 1}),
    *[(lambda sec, key=key: scenario_from_dict(_quick_doc(**{key: sec})), ScenarioError, key, {})
      for key in ("ref", "gains", "detection")],
    (lambda sec: scenario_from_dict(_quick_doc(attack=sec)), ScenarioError, "attack",
     {"kind": "Reflection"}),
    (lambda sec: scenario_from_dict(_quick_doc(signature=sec)), ScenarioError, "signature",
     {"terms": {}}),
    (_attack_from_dict, AttackError, "attack", {}),
    (signature_from_dict, ValueError, "signature", {"terms": {}}),
], ids=["scenario", "ref", "gains", "detection", "scenario attack", "scenario signature",
        "attack file", "signature"])
def test_every_reader_refuses_a_non_object_and_an_unknown_key(read, error, where, known):
    # one object rule for every document, each reader raising its own class;
    # a long value is cut short in the message
    for value in ([1], "secret", 3.0, 10**5000, [0] * 10_000):
        with pytest.raises(error, match=f"{where} must be an object, got ") as exc:
            read(value)
        assert exc.type is error and len(str(exc.value)) < 200
    with pytest.raises(error, match=f"unknown {where} keys: \\['bogus'\\]") as exc:
        read({**known, "bogus": 1})
    assert exc.type is error


def test_a_document_of_only_a_seed_runs_simconfigs_defaults():
    assert scenario_from_dict({"seed": 0}).sim == SimConfig()


def test_integral_settings_may_be_written_as_floats():
    sc = scenario_from_dict(_quick_doc(log_stride=4.0, detection={"window": 3.0}))
    assert (sc.sim.log_stride, sc.detection.window) == (4, 3)
    assert isinstance(sc.sim.log_stride, int) and isinstance(sc.detection.window, int)


def _over(keys, values):
    """Objects over the known keys (each optional) or anything JSON-ish."""
    return st.dictionaries(st.sampled_from(sorted(keys)), values, max_size=len(keys)) | JSONISH


_TERM_KEYS = st.sampled_from(["0,1", "1,0", "2,2", "4,0", "0,0", "5,0", "01,2", "1,x", "a"])
_DOCS = st.fixed_dictionaries(
    {"seed": st.integers(min_value=-1, max_value=2**64) | JSON_SCALARS},
    optional={
        "name": st.text(max_size=4) | JSON_SCALARS,
        "p0": st.lists(JSON_SCALARS, min_size=3, max_size=3) | JSONISH,
        "dt": st.sampled_from([0.01, 0.02, 0.1]) | JSON_SCALARS,
        "duration": st.sampled_from([0.2, 1.0]) | JSON_SCALARS,
        "log_stride": st.integers(min_value=0, max_value=5) | JSON_SCALARS,
        "ref": _over({"v_ref", "omega_amp", "omega_period", "duration"}, JSON_SCALARS),
        "gains": _over({"kx", "ky", "ktheta"}, JSON_SCALARS),
        "detection": _over({"epsilon", "window"}, JSON_SCALARS),
        "signature": st.just("default") | _over(
            {"terms", "max_degree"}, st.dictionaries(_TERM_KEYS, JSON_SCALARS, max_size=3)
            | JSON_SCALARS),
        "attack": st.none() | _over(
            {"kind", "beta11"},
            st.sampled_from(["Reflection", "Scaling", "Identity", "Custom"]) | JSON_SCALARS),
    },
)


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_any_document_loads_or_raises_scenario_error(doc):
    try:
        validate_scenario(scenario_from_dict(json.loads(json.dumps(doc))))
    except ScenarioError:
        pass


@pytest.mark.parametrize("doc", [
    {"seed": -(10**5000)},
    {"seed": 1, "p0": 10**5000},
    {"seed": 1, "ref": 10**5000},
    {"seed": 1, "attack": 10**5000},
    {"seed": 1, "name": 10**5000},
    {"seed": 1, "p0": [10**5000]},
    {"seed": 1, "attack": {"kind": 10**5000}},
], ids=["seed", "p0", "ref", "attack", "name", "p0 list", "attack kind"])
def test_an_int_past_the_digit_limit_raises_scenario_error(doc):
    # the messages show such a value by its size; its repr would raise ValueError
    with pytest.raises(ScenarioError, match="an? (int|list) "):
        scenario_from_dict(doc)


def test_validation_draws_no_random_numbers(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("validation drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refused)
    for name in builtin_names():
        sc = load_scenario(name)
        assert validate_scenario(sc) is sc.attack
    # so the seed is only a label: two seeds validate to the same attack
    attacks = [validate_scenario(scenario_from_dict(_quick_doc(
        seed=seed, p0=[0.1, -0.2, 0.4], attack={"kind": "Reflection", "beta11": -1.5})))
        for seed in (0, 2**40)]
    assert fdia._attack_to_dict(attacks[0]) == fdia._attack_to_dict(attacks[1])


def test_identity_attack_declares_beta11_one():
    # the identity channel has no beta11 knob: a document may not claim another one
    with pytest.raises(ScenarioError, match="not what the maps carry: Identity with beta11 = 1.0"):
        scenario_from_dict(_quick_doc(attack={"kind": "Identity", "beta11": 2.0}))
    sc = scenario_from_dict(_quick_doc(attack={"kind": "Identity"}))
    assert (sc.attack.kind, sc.attack.beta11) == (KIND_IDENTITY, 1.0)


def test_a_declaration_whose_maps_carry_another_label_is_refused():
    # a scaling by 1 builds the identity maps: refused rather than relabelled
    with pytest.raises(ScenarioError, match="^invalid attack declaration: the declared 'Scaling'"
                                            " with beta11 = 1.0 is not what the maps carry:"
                                            " Identity with beta11 = 1.0$"):
        scenario_from_dict(_quick_doc(attack={"kind": "Scaling", "beta11": 1}))
    for kind, beta11 in (("Scaling", -1.0), ("Reflection", 1.0), ("Reflection", 0.25)):
        sc = scenario_from_dict(_quick_doc(p0=[0.3, -0.1, 2.5],
                                           attack={"kind": kind, "beta11": beta11}))
        assert (sc.attack.kind, sc.attack.beta11) == (kind, beta11)


@pytest.mark.parametrize("name", ["/elsewhere", "../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
def test_a_name_that_is_not_one_path_component_is_refused(name):
    # the name is the last component of the artifact directory
    with pytest.raises(ScenarioError, match="one path component"):
        scenario_from_dict(_quick_doc(name=name))


def test_a_file_stem_that_is_not_a_name_is_refused(tmp_path):
    path = tmp_path / "...json"  # its stem is ".."
    path.write_text(json.dumps({"seed": 1, "duration": 1.0}), encoding="utf-8")
    with pytest.raises(ScenarioError, match="one path component"):
        load_scenario(path)


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_cli_simulate_writes_nothing_outside_the_artifact_directory(absolute, tmp_path,
                                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FDIA_LAB_OUT_DIR", raising=False)
    doc = tmp_path / "escape.json"
    name = str(tmp_path / "elsewhere") if absolute else "../escaped"
    doc.write_text(json.dumps(_quick_doc(name=name)), encoding="utf-8")
    assert main(["simulate", "--scenario", str(doc)]) == 2
    assert "one path component" in capsys.readouterr().err
    # runs/../escaped and the absolute name would both land in tmp_path
    assert [p.name for p in tmp_path.iterdir()] == ["escape.json"]


def test_duration_off_the_step_grid_is_rejected():
    # 0.015 s would quietly run to 0.02 s; the document is refused instead
    for duration in (0.015, 0.004):
        with pytest.raises(ScenarioError, match="whole number of dt"):
            scenario_from_dict(_quick_doc(duration=duration))
    assert scenario_from_dict(_quick_doc(duration=0.02)).sim.n_steps() == 2


def test_a_log_stride_that_skips_the_final_tick_is_refused():
    # 100 steps at stride 3 would log 34 rows ending at t = 0.99 s, and the
    # summary's final values would describe that tick
    with pytest.raises(ScenarioError, match="log_stride 3 does not divide the run's 100 steps"):
        scenario_from_dict(_quick_doc(log_stride=3))
    with pytest.raises(ValueError, match="does not divide"):
        SimConfig(duration=1.0, log_stride=3)
    trace = run(scenario_from_dict(_quick_doc(log_stride=4)).sim)
    assert len(trace) == 26 and trace.t[-1] == 1.0


def test_custom_file_loads_and_validates(tmp_path):
    path = tmp_path / "tilted.json"
    doc = _quick_doc(
        p0=[0.1, -0.2, 0.4],
        attack={"kind": "Scaling", "beta11": 2.0},
        signature="default",
        detection={"epsilon": 1e-5, "window": 5},
    )
    path.write_text(json.dumps(doc), encoding="utf-8")
    sc = load_scenario(path)
    assert sc.name == "quick"
    assert sc.sim.duration == 1.0
    assert sc.detection.epsilon == 1e-5
    attack = validate_scenario(sc)
    np.testing.assert_array_equal(attack.s_u, np.diag([2.0, 1.0]))


def test_invalid_signature_fails_at_load(tmp_path):
    path = tmp_path / "bad.json"
    doc = _quick_doc(signature={"terms": {"0,0": 1.0, "2,0": 1.0}})
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioError, match="invalid signature"):
        load_scenario(path)


def test_a_degree_nine_signature_loads_without_a_declaration():
    sc = scenario_from_dict(_quick_doc(signature={"terms": {"2,0": 1, "0,2": 1, "9,0": 1e-3}}))
    assert sc.signature.terms == {(0, 2): 1.0, (2, 0): 1.0, (9, 0): 1e-3}
    validate_scenario(sc)


def test_a_signature_that_declares_max_degree_is_a_scenario_error():
    doc = _quick_doc(signature={"terms": {"2,0": 1.0, "0,2": 1.0}, "max_degree": 4})
    with pytest.raises(ScenarioError, match=r"unknown signature keys: \['max_degree'\]$"):
        scenario_from_dict(doc)


def test_validate_scenario_refuses_an_attack_that_breaks_either_condition():
    # the builders meet both conditions by construction, so only a Scenario
    # built around another attack reaches these refusals
    sc = scenario_from_dict(_quick_doc(p0=[0.0, 0.02, 0.0]))
    elsewhere = replace(sc, attack=build_reflection(1.0, Posture(0.0, 0.5, 0.0)))
    with pytest.raises(ScenarioError,
                       match=r"^scenario 'quick': initial-state consistency residual 9\.600e-01 > "):
        validate_scenario(elsewhere)
    loose = replace(sc, attack=AffineAttack(np.eye(3), np.zeros(3), np.diag([2.0, 2.0]),
                                            np.zeros(2)))
    with pytest.raises(ScenarioError,
                       match=r"^scenario 'quick': kinematic closure residual 1\.000e\+00 > "):
        validate_scenario(loose)


@pytest.mark.parametrize("kind, beta11, p0, cause", [
    # 1/beta11 = 1e160 times a 1e150 position overflows d_x to -inf ...
    ("Scaling", 1e-160, [1e150, 0.02, 0.0], "AffineAttack.d_x must be finite"),
    # ... or, with products of either sign, to inf - inf = nan
    ("Reflection", 1e-160, [1e150, -1e150, math.pi / 8], "AffineAttack.d_x must be finite"),
    # no product of s_x = 1e-300 entries overflows; 2*theta0 does
    ("Reflection", 1e300, [0.0, 0.02, 1e308], "math domain error"),
])
def test_an_extreme_beta11_that_cannot_be_built_is_a_scenario_error(kind, beta11, p0, cause):
    doc = _quick_doc(p0=p0, attack={"kind": kind, "beta11": beta11})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match=f"^invalid attack declaration: {cause}$"):
            scenario_from_dict(doc)


def test_a_heading_gain_just_off_one_passes_the_sampled_check_but_not_validation():
    # check_condition2 draws theta only in [-2*pi, 2*pi], where s22 = 1 + 1e-12
    # moves theta~ by under 1e-11; the exact closure residual is inf
    sc = scenario_from_dict(_quick_doc())
    near = AffineAttack(np.diag([1.0, 1.0, 1.0 + 1e-12]), np.zeros(3), np.eye(2), np.zeros(2))
    assert fdia.check_condition2(near) <= 1e-10
    with pytest.raises(ScenarioError,
                       match=r"^scenario 'quick': kinematic closure residual inf > "):
        validate_scenario(replace(sc, attack=near))


def test_a_sparse_high_degree_signature_costs_only_its_chain(tmp_path):
    # a document may ask for x^100000: the powers take about 2*log2(k)
    # products each, never a table of every power up to the highest exponent
    path = tmp_path / "sparse.json"
    terms = {"2,0": 1, "0,2": 1, "100000,0": 1}
    path.write_text(json.dumps(_quick_doc(signature={"terms": terms})),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        sc = load_scenario(path)
        validate_scenario(sc)
        trace = run(sc.sim, sc.attack, sc.signature)
        # and near |x| = 1, where x^100000 neither underflows nor overflows
        x = np.concatenate([trace.x, np.linspace(-1.0002, 1.0002, 41)])
        y = np.concatenate([trace.y, np.linspace(0.5, -0.5, 41)])
        scalar = [eval_signature(sc.signature, a, b) for a, b in zip(x.tolist(), y.tolist())]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.complete and trace.t[-1] == 1.0
    assert peak < 2_000_000, f"peak {peak} B"
    arr = eval_signature(sc.signature, x, y)
    np.testing.assert_array_equal(np.array(scalar).view(np.int64), arr.view(np.int64))
    np.testing.assert_array_equal(arr[:len(trace.t)], trace.phi_plant)
    assert np.isfinite(arr).all() and arr.max() > 1.0


def test_an_exponent_of_three_hundred_digits_loads_and_validates():
    k = 10**300
    sc = scenario_from_dict(_quick_doc(signature={"terms": {"2,0": 1, "0,2": 1, f"{k},0": 1}}))
    validate_scenario(sc)
    assert eval_signature(sc.signature, 0.5, 0.5) == 0.5
    assert eval_signature(sc.signature, -1.0, 0.0) == 2.0


def test_non_json_file_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)
    # bad UTF-8, an integer past the interpreter's digit limit, and deep nesting
    for body in (b'{"seed": 1, "name": "\xff"}', b'{"seed": ' + b"1" * 5000 + b"}",
                 b"[" * 100000 + b"]" * 100000):
        path.write_bytes(body)
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)


def test_fallback_name_comes_from_file_stem(tmp_path):
    path = tmp_path / "mytest.json"
    path.write_text(json.dumps({"seed": 1, "duration": 1.0}), encoding="utf-8")
    assert load_scenario(path).name == "mytest"


# ---------------------------------------------------------------------------
# artifact runs


def test_resolve_out_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("FDIA_LAB_OUT_DIR", raising=False)
    assert resolve_out_dir("s", tmp_path / "explicit") == tmp_path / "explicit"
    assert resolve_out_dir("s") == resolve_out_dir("s", None)
    assert str(resolve_out_dir("s")).endswith("runs/s")
    monkeypatch.setenv("FDIA_LAB_OUT_DIR", str(tmp_path / "env"))
    assert resolve_out_dir("s") == tmp_path / "env" / "s"
    assert resolve_out_dir("s", tmp_path / "explicit") == tmp_path / "explicit"


def test_run_scenario_writes_artifacts(tmp_path):
    out = tmp_path / "s2"
    summary = run_scenario("scenario2", out)
    for name in ARTIFACTS:
        assert (out / name).is_file(), name
    assert summary == json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["schema"] == 1
    assert summary["seed"] == 102
    assert summary["attack"] == {"kind": "Scaling", "beta11": 0.5}
    assert summary["undetectable"] is True
    assert summary["sup_obs_dev"] <= 1e-9
    assert summary["detection"]["flag"] is True
    assert summary["detection"]["detect_t"] <= 1.0
    assert abs(summary["lyapunov_final"]) < 1e-6

    attack = load_attack(out / "attack.json")
    np.testing.assert_array_equal(attack.s_x, np.diag([2.0, 2.0, 1.0]))

    monitor_lines = (out / "monitor.csv").read_text(encoding="utf-8").splitlines()
    assert monitor_lines[0] == "t,residual,exceeds"
    assert len(monitor_lines) == 1502
    assert (out / "trace.csv").read_bytes() != (out / "nominal.csv").read_bytes()


def test_run_scenario_nominal_is_its_own_shadow(tmp_path):
    out = tmp_path / "nom"
    summary = run_scenario("nominal", out)
    assert summary["attack"] is None
    assert summary["undetectable"] is True
    assert summary["sup_obs_dev"] == 0.0
    assert summary["detection"]["flag"] is False
    assert (out / "trace.csv").read_bytes() == (out / "nominal.csv").read_bytes()
    assert load_attack(out / "attack.json").kind == KIND_IDENTITY


def test_repeat_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_scenario("scenario3", first)
    run_scenario("scenario3", second)
    for name in ARTIFACTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_simulate(tmp_path, capsys):
    assert main(["simulate", "--scenario", "scenario1", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "scenario1" in out and "undetectable" in out
    assert (tmp_path / "summary.json").is_file()


def test_two_simulates_check_the_shared_signature_once(tmp_path, capsys, monkeypatch):
    # every builtin monitors the one default instance; drop any verdict an
    # earlier test kept on it, so that exactly one check is left to count
    assert {load_scenario(n).signature is default_signature() for n in builtin_names()} == {True}
    monkeypatch.delitem(vars(default_signature()), "_refusal", raising=False)
    validations, grid_checks = [], []
    validate, powers = scenarios.validate_scenario, smsf._powers

    def counting_validate(sc):
        validations.append(sc.name)
        return validate(sc)

    def counting_powers(v, ks):
        if v is smsf._GRID_AXIS:
            grid_checks.append(len(ks))
        return powers(v, ks)

    monkeypatch.setattr(scenarios, "validate_scenario", counting_validate)
    monkeypatch.setattr(smsf, "_powers", counting_powers)
    for name in ["scenario1", "scenario3"]:
        assert main(["simulate", "--scenario", name, "--out-dir", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert validations == ["scenario1"] * 3 + ["scenario3"] * 3
    assert len(grid_checks) == 1


def test_cli_verify_pass_and_fail(capsys):
    assert main(["verify", "--scenario", "scenario1"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--scenario", "scenario1", "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_prints_the_summary_deviations(tmp_path, capsys):
    summary = run_scenario("scenario2", tmp_path)
    assert main(["verify", "--scenario", "scenario2"]) == 0
    out = capsys.readouterr().out
    assert f"= {summary['sup_obs_dev']:.3e}" in out
    assert f"= {summary['sup_actual_dev']:.3e}" in out


def test_cli_monitor_writes_csv(tmp_path, capsys):
    out = tmp_path / "mon.csv"
    assert main(["monitor", "--scenario", "scenario2", "--out", str(out)]) == 0
    assert "DETECTED" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").splitlines()[0] == "t,residual,exceeds"
    run_scenario("scenario2", tmp_path / "s2")
    assert out.read_bytes() == (tmp_path / "s2" / "monitor.csv").read_bytes()


def test_cli_monitor_judges_with_the_scenarios_own_detection(tmp_path, capsys):
    # the document's detection section is the only detector setting, so
    # monitor --out is simulate's monitor.csv byte for byte
    doc = tmp_path / "strict.json"
    doc.write_text(json.dumps(_quick_doc(attack={"kind": "Scaling", "beta11": 0.5},
                                         detection={"epsilon": 1e-3, "window": 3})),
                   encoding="utf-8")
    out = tmp_path / "mon.csv"
    assert main(["monitor", "--scenario", str(doc), "--out", str(out)]) == 0
    assert "(epsilon 0.001, window 3)" in capsys.readouterr().out
    run_scenario(doc, tmp_path / "sim")
    written = out.read_bytes()
    assert written == (tmp_path / "sim" / "monitor.csv").read_bytes()
    # and the section matters: the default detector marks other samples
    default = scenario_from_dict(_quick_doc(attack={"kind": "Scaling", "beta11": 0.5}))
    write_monitor_csv(tmp_path / "default.csv",
                      monitor(run(default.sim, default.attack, default.signature),
                              default.signature))
    assert (tmp_path / "default.csv").read_bytes() != written


def test_cli_estimate_spiral_band(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = main(["estimate", "--scenario", "scenario1", "--source", "spiral",
                 "--n", "1000", "--out", str(out)])
    assert code == 0
    assert "spiral" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "source,n,nrmse"
    source, n, value = lines[1].split(",")
    assert (source, n) == ("spiral", "1000")
    assert float(value) < 0.1


def test_cli_estimate_probes_the_scenarios_own_signature(tmp_path, capsys):
    # noiseless, a degree-4 fit of the spiral recovers any quartic exactly; the
    # probe used to sample the default signature whatever the scenario declared
    doc = tmp_path / "quartic.json"
    doc.write_text(json.dumps(_quick_doc(duration=30.0, signature={
        "terms": {"2,0": 1, "0,2": 1, "4,0": 3}})), encoding="utf-8")
    out = tmp_path / "study.csv"
    assert main(["estimate", "--scenario", str(doc), "--noise-std", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [r[0] for r in rows] == ["trajectory"] * 3 + ["spiral"] * 3
    for source, n, value in rows:
        assert float(value) < 1e-6, (source, n, value)


def test_cli_vulncheck_table(tmp_path, capsys):
    out = tmp_path / "verdicts.csv"
    assert main(["vulncheck", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Linear" in stdout and "trivial-only" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "family,classification,constraint,n_candidates,best_residual"
    assert len(lines) == 6
    assert lines[1].startswith("Linear,continuous-family,alpha*beta = 1,")
    assert lines[4].startswith("Quadratic,continuous-family,alpha*beta^2 = 1,")
    assert lines[5].startswith("Exponential,trivial-only,,0,")


def test_cli_unknown_scenario_exits_2(capsys):
    assert main(["simulate", "--scenario", "scenario9"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["vulncheck", "--tol", "0"],
    ["vulncheck", "--tol", "x"],
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "-1e-9"],
    ["estimate", "--noise-std", "nan"],
    ["estimate", "--noise-std", "-0.1"],
    ["estimate", "--seed", "-1"],
    ["estimate", "--n", "150,0"],
    ["proxy", "--sig-scale", "inf"],
    ["proxy", "--sig-offset", "nan"],
    ["serve-plant", "--listen", "127.0.0.1:99999"],
    ["serve-controller", "--connect", ":-1"],
])
def test_cli_refuses_out_of_range_numbers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_cli_estimate_refuses_too_few_samples(capsys):
    assert main(["estimate", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: under-determined") and "Traceback" not in err


@pytest.mark.parametrize("source", ["both", "trajectory", "spiral"])
def test_cli_estimate_refuses_more_samples_than_the_run_logs(source, capsys):
    # the study fits the trajectory source under every --source
    assert main(["estimate", "--n", "150,2000", "--source", source]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario scenario1 logs 1501 samples, fewer than --n 2000")


@pytest.mark.parametrize("terms", [{}, {"2,0": 0.0}], ids=["no terms", "zero coefficient"])
def test_cli_estimate_refuses_a_signature_that_is_identically_zero(terms, tmp_path, capsys):
    # nrmse normalizes by the truth's range on the hold-out grid, which is 0
    doc = tmp_path / "z.json"
    doc.write_text(json.dumps({"seed": 1, "duration": 5.0, "signature": {"terms": terms}}),
                   encoding="utf-8")
    assert main(["estimate", "--n", "150", "--scenario", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: scenario z: the study cannot score its signature:"
                   " truth has zero range on the evaluation set\n")


def test_cli_estimate_refuses_noise_that_overflows_the_design(capsys):
    assert main(["estimate", "--noise-std", "1e150"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no fit: sample positions overflow") and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "verify", "monitor", "estimate"])
@pytest.mark.parametrize("overrides", [
    {"gains": {"kx": 1e300}},
    {"p0": [1e300, 0.0, 0.0]},
    {"ref": {"v_ref": 1e300}},  # math.cos of an infinite heading
    # a finite state whose x^4 overflows Phi: simulate used to exit 0 with inf
    # phi columns and "peak_residual": NaN in summary.json
    {"p0": [1e150, 0.0, 0.0]},
], ids=["kx", "p0", "v_ref", "phi"])
def test_cli_reports_a_diverging_run_as_an_error(command, overrides, tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FDIA_LAB_OUT_DIR", raising=False)
    doc = tmp_path / "diverging.json"
    doc.write_text(json.dumps(_quick_doc(**overrides)), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--scenario", str(doc)]) == 2
    assert capsys.readouterr().err.startswith("error: run diverged")
    assert not list(tmp_path.glob("runs/*/summary.json"))


# p0, gains and ref values up to 1e300 in magnitude: uniform over the range,
# and over every decade of either sign
_DECADES = st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                     st.floats(min_value=1.0, max_value=10.0), st.integers(-300, 299))
_HUGE = st.floats(min_value=-1e300, max_value=1e300) | _DECADES | _DECADES.map(lambda v: -v)
_SHORT_DOCS = st.fixed_dictionaries(
    {"seed": st.just(1), "duration": st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.2])},
    optional={
        "p0": st.lists(_HUGE, min_size=3, max_size=3),
        "log_stride": st.integers(min_value=1, max_value=25),
        "ref": st.dictionaries(st.sampled_from(["v_ref", "omega_amp", "omega_period"]), _HUGE),
        "gains": st.dictionaries(st.sampled_from(["kx", "ky", "ktheta"]), _HUGE),
        "attack": st.fixed_dictionaries({"kind": st.sampled_from(["Reflection", "Scaling"]),
                                         "beta11": _HUGE}),
    },
)


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=300, deadline=None)
@given(_SHORT_DOCS)
# a reference heading that overflows, past the draws' duration and magnitude
@example({"seed": 1, "duration": 5, "ref": {"omega_amp": 1e308, "omega_period": 40}})
def test_simulate_writes_finite_artifacts_or_reports_an_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "doc.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--scenario", str(path), "--out-dir", str(out)])
        if code == 2:
            assert err.getvalue().startswith("error: "), err.getvalue()
            return
        assert code == 0
        for name in ("trace.csv", "nominal.csv", "monitor.csv"):
            table = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
            assert np.isfinite(table).all(), name
        for name in ("summary.json", "attack.json"):
            _strict_json((out / name).read_text(encoding="utf-8"))


def test_the_parser_is_built_once_and_each_call_parses_its_own_arguments(monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: seen.append(args) or 0)
    assert main(["verify", "--tol", "0.5"]) == 0
    assert main(["verify"]) == 0
    first, second = seen
    assert (first.scenario, first.tol) == ("scenario1", 0.5)
    assert (second.scenario, second.tol) == ("scenario1", 1e-9)
    assert cli._build_parser() is cli._build_parser()


def test_a_failed_simulate_leaves_no_artifact_directory(tmp_path, monkeypatch, capsys):
    # the directory is made only after the run succeeds
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FDIA_LAB_OUT_DIR", raising=False)
    doc = tmp_path / "far.json"
    doc.write_text(json.dumps({"seed": 1, "duration": 1.0, "p0": [1e150, 0, 0]}),
                   encoding="utf-8")
    assert main(["simulate", "--scenario", str(doc)]) == 2
    assert capsys.readouterr().err.startswith("error: run diverged")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "monitor", "estimate"])
def test_cli_refuses_a_run_whose_reference_table_passes_sys_maxsize_bytes(command, tmp_path,
                                                                          monkeypatch, capsys):
    # refused from the ratio alone, before any table is allocated
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FDIA_LAB_OUT_DIR", raising=False)
    doc = tmp_path / "unsizeable.json"
    doc.write_text(json.dumps({"seed": 1, "duration": 1e300, "dt": 1.0}), encoding="utf-8")
    with pytest.raises(ScenarioError, match="sys.maxsize bytes"):
        load_scenario(doc)
    assert main([command, "--scenario", str(doc)]) == 2
    assert "sys.maxsize bytes" in capsys.readouterr().err


@pytest.mark.parametrize("doc", ["{}", '{"s_x": 1}', "[1, 2", '{"d_x": ["0", "0", "0"]}'])
def test_cli_proxy_refuses_a_malformed_attack_file(doc, tmp_path, capsys):
    path = tmp_path / "attack.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["proxy", "--attack", str(path), "--listen", "127.0.0.1:0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_proxy_refuses_a_relabelled_attack_file_before_binding(tmp_path, capsys,
                                                                   monkeypatch):
    # scenario1's reflection, announced as a scaling
    path = tmp_path / "attack.json"
    fdia.save_attack(load_scenario("scenario1").attack, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, "kind": "Scaling", "beta11": 5.0}), encoding="utf-8")

    def bound(*args, **kwargs):
        raise AssertionError("the proxy bound a socket")

    monkeypatch.setattr(netlink, "serve_proxy", bound)
    assert main(["proxy", "--attack", str(path), "--listen", "127.0.0.1:0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the declared 'Scaling' with beta11 = 5.0")


def test_cli_proxy_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["proxy", "--attack", "a.json", "--scenario", "scenario1"])
    assert exc.value.code == 2


def test_cli_networked_pair(tmp_path, capsys):
    doc = tmp_path / "quick.json"
    doc.write_text(json.dumps(_quick_doc()), encoding="utf-8")
    plant_csv = tmp_path / "plant.csv"
    ctrl_csv = tmp_path / "ctrl.csv"
    codes = {}

    def serve():
        codes["plant"] = main(["serve-plant", "--scenario", str(doc),
                               "--listen", "127.0.0.1:47701", "--out", str(plant_csv)])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    out = ""
    for _ in range(100):  # the plant needs a moment to bind its port
        code = main(["serve-controller", "--scenario", str(doc),
                     "--connect", "127.0.0.1:47701", "--out", str(ctrl_csv)])
        captured = capsys.readouterr()
        out += captured.out
        if not (code == 2 and "Connection refused" in captured.err):
            break
        time.sleep(0.05)
    thread.join(15.0)
    assert not thread.is_alive()
    assert code == 0 and codes["plant"] == 0
    assert "complete" in out
    assert plant_csv.read_text(encoding="utf-8").splitlines()[0].startswith("t,x,y,theta")
    assert ctrl_csv.read_text(encoding="utf-8").splitlines()[0].startswith("t,x_obs")


@contextlib.contextmanager
def _processes():
    """A list to start fdia-lab processes into; each is killed and reaped on exit."""
    procs = []
    try:
        yield procs
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()


def _cli_process(procs, *argv) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, "-m", "fdia_lab.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=str(SRC)),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    procs.append(proc)
    return proc


def _serve(procs, *argv) -> int:
    """Start a listening command as a process; the port its first stdout line names."""
    line = _cli_process(procs, *argv).stdout.readline()
    found = re.search(r"127\.0\.0\.1:(\d+)", line)
    assert found and int(found[1]) != 0, line
    return int(found[1])


def test_cli_servers_print_the_port_they_bound(tmp_path):
    # plant and proxy as processes on port 0: each first stdout line names the
    # port the system picked, and a controller completes a session through both
    doc = tmp_path / "short.json"
    doc.write_text(json.dumps(_quick_doc(duration=0.2)), encoding="utf-8")
    with _processes() as procs:
        plant = _serve(procs, "serve-plant", "--scenario", str(doc), "--listen", "127.0.0.1:0")
        proxy = _serve(procs, "proxy", "--scenario", str(doc), "--listen", "127.0.0.1:0",
                       "--connect", "127.0.0.1:%d" % plant)
        view = netlink.run_controller(load_scenario(doc).sim, connect=("127.0.0.1", proxy),
                                      timeout=15.0)
        codes = [proc.wait(15.0) for proc in procs]
    assert view.complete and len(view) == 11
    assert codes == [0, 0]


@pytest.mark.parametrize("proxied", [True, False], ids=["proxied", "direct"])
def test_a_three_process_session_merges_bitwise_to_the_in_process_run(proxied, tmp_path):
    # plant, proxy and controller as three processes, as the README runs them;
    # the view CSVs read back and merged equal run() bit for bit
    doc = tmp_path / "reflected.json"
    doc.write_text(json.dumps(_quick_doc(attack={"kind": "Reflection", "beta11": 1.0})),
                   encoding="utf-8")
    plant_csv, ctrl_csv = tmp_path / "plant.csv", tmp_path / "ctrl.csv"
    with _processes() as procs:
        port = _serve(procs, "serve-plant", "--scenario", str(doc), "--listen", "127.0.0.1:0",
                      "--out", str(plant_csv))
        if proxied:
            port = _serve(procs, "proxy", "--scenario", str(doc), "--listen", "127.0.0.1:0",
                          "--connect", "127.0.0.1:%d" % port)
        _cli_process(procs, "serve-controller", "--scenario", str(doc),
                     "--connect", "127.0.0.1:%d" % port, "--out", str(ctrl_csv))
        codes = [proc.wait(15.0) for proc in procs]
    assert codes == [0] * len(procs)
    views = []
    for path, columns in ((plant_csv, netlink.PLANT_VIEW_COLUMNS),
                          (ctrl_csv, netlink.CTRL_VIEW_COLUMNS)):
        assert path.read_text(encoding="utf-8").split("\n", 1)[0] == ",".join(columns)
        views.append(SimTrace(np.loadtxt(path, delimiter=",", skiprows=1), columns))
    sc = load_scenario(doc)
    expected = run(sc.sim, sc.attack if proxied else None, sc.signature)
    assert len(expected) == 51
    assert netlink.merge_views(*views).data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("overrides", [
    {"gains": {"kx": 1e300}},
    {"ref": {"v_ref": 1e300}},
    {"p0": [1e150, 0.0, 0.0]},
], ids=["kx", "v_ref", "phi"])
def test_a_networked_divergence_is_reported_by_the_plant(overrides, tmp_path):
    # the plant's own state or signature value overflows: it used to end with
    # its own encoder refusing the Sig frame, a WireFormatError
    doc = tmp_path / "diverging.json"
    doc.write_text(json.dumps(_quick_doc(**overrides)), encoding="utf-8")
    sc = load_scenario(doc)
    with _processes() as procs:
        port = _serve(procs, "serve-plant", "--scenario", str(doc), "--listen", "127.0.0.1:0")
        view = netlink.run_controller(sc.sim, connect=("127.0.0.1", port),
                                      signature=sc.signature, timeout=15.0)
        _out, err = procs[0].communicate(timeout=15.0)
    assert procs[0].returncode == 2
    assert re.fullmatch(r"error: run diverged: non-finite value at t = \S+ s\n", err), err
    assert not view.complete and len(view) <= 1


def _closed_port() -> socket.socket:
    """A socket bound to a loopback port and not listening: connecting to it is refused."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    return sock


@pytest.mark.parametrize("command", ["serve-plant", "serve-controller", "proxy"])
def test_cli_network_commands_report_os_errors(command, capsys):
    # a port already in use for the two listeners, a refused connection for the controller
    with socket.create_server(("127.0.0.1", 0)) as busy, _closed_port() as closed:
        address = "127.0.0.1:%d" % busy.getsockname()[1]
        argv = {
            "serve-plant": ["serve-plant", "--listen", address],
            "serve-controller": ["serve-controller",
                                 "--connect", "127.0.0.1:%d" % closed.getsockname()[1]],
            "proxy": ["proxy", "--listen", address],
        }[command]
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_controller_reports_a_refused_session(tmp_path, capsys):
    # the plant runs another configuration: each side refuses the other's digest
    doc = tmp_path / "quick.json"
    doc.write_text(json.dumps(_quick_doc()), encoding="utf-8")
    ready = threading.Event()
    box = {}

    def serve():
        try:
            netlink.serve_plant(SimConfig(duration=2.0), port=0, timeout=15.0,
                                on_bound=lambda port: (box.update(port=port), ready.set()))
        except netlink.ProtocolError as exc:
            box["plant"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(15.0)
    assert main(["serve-controller", "--scenario", str(doc),
                 "--connect", "127.0.0.1:%d" % box["port"]]) == 2
    thread.join(15.0)
    assert not thread.is_alive() and "config digest mismatch" in str(box["plant"])
    err = capsys.readouterr().err
    assert err.startswith("error: config digest mismatch") and "Traceback" not in err
