"""Tests for scenario documents, artifact runs, and the command-line interface."""

from __future__ import annotations

import json
import math
import threading
import time

import numpy as np
import pytest

from fdia_lab.cli import main
from fdia_lab.fdia import (
    KIND_IDENTITY,
    KIND_REFLECTION,
    KIND_SCALING,
    attack_to_dict,
    load_attack,
)
from fdia_lab.scenarios import (
    ScenarioError,
    builtin_names,
    load_scenario,
    resolve_out_dir,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

ARTIFACTS = ("trace.csv", "nominal.csv", "attack.json", "monitor.csv", "summary.json")


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


def test_dict_round_trip():
    sc = load_scenario("scenario3")
    back = scenario_from_dict(scenario_to_dict(sc))
    assert back.name == sc.name
    assert back.seed == sc.seed
    assert back.sim == sc.sim
    assert attack_to_dict(back.attack) == attack_to_dict(sc.attack)
    assert back.signature.terms == sc.signature.terms
    assert back.detection == sc.detection


def test_document_validation_errors():
    with pytest.raises(ScenarioError, match="declare a seed"):
        scenario_from_dict({"name": "x"})
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        scenario_from_dict(_quick_doc(bogus=1))
    with pytest.raises(ScenarioError, match="unknown ref keys"):
        scenario_from_dict(_quick_doc(ref={"speed": 1.0}))
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


def test_identity_attack_declares_beta11_one():
    # the identity channel has no beta11 knob: a document may not claim another one
    with pytest.raises(ScenarioError, match="Identity requires beta11 = 1"):
        scenario_from_dict(_quick_doc(attack={"kind": "Identity", "beta11": 2.0}))
    sc = scenario_from_dict(_quick_doc(attack={"kind": "Identity"}))
    assert (sc.attack.kind, sc.attack.beta11) == (KIND_IDENTITY, 1.0)
    assert scenario_to_dict(sc)["attack"] == {"kind": "Identity", "beta11": 1.0}


def test_duration_off_the_step_grid_is_rejected():
    # 0.015 s would quietly run to 0.02 s; the document is refused instead
    for duration in (0.015, 0.004):
        with pytest.raises(ScenarioError, match="whole number of dt"):
            scenario_from_dict(_quick_doc(duration=duration))
    assert scenario_from_dict(_quick_doc(duration=0.02)).sim.n_steps() == 2


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
    doc = _quick_doc(signature={"max_degree": 2, "terms": {"0,0": 1.0, "2,0": 1.0}})
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioError, match="invalid signature"):
        load_scenario(path)


def test_non_json_file_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
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
    code = None
    for _ in range(100):  # the plant needs a moment to bind its port
        try:
            code = main(["serve-controller", "--scenario", str(doc),
                         "--connect", "127.0.0.1:47701", "--out", str(ctrl_csv)])
            break
        except ConnectionRefusedError:
            time.sleep(0.05)
    thread.join(15.0)
    assert not thread.is_alive()
    assert code == 0 and codes["plant"] == 0
    assert "complete" in capsys.readouterr().out
    assert plant_csv.read_text(encoding="utf-8").splitlines()[0].startswith("t,x,y,theta")
    assert ctrl_csv.read_text(encoding="utf-8").splitlines()[0].startswith("t,x_obs")
