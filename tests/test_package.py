"""The package namespace and the public surface of its modules."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import fdia_lab
print(json.dumps({
    "modules": sorted(n for n in sys.modules if n.startswith("fdia_lab.")),
    "names": sorted(n for n in vars(fdia_lab) if not n.startswith("_")),
    "version": fdia_lab.__version__,
}))
"""


def test_importing_the_package_loads_no_module_and_binds_only_the_version():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout)
    assert seen["modules"] == []
    assert seen["names"] == []
    assert isinstance(seen["version"], str) and seen["version"]


# every top-level public name of the public modules, by module; a new public
# name must be added here, and a name nothing outside its module and the
# tests uses should be made private instead
PUBLIC = {
    "adversary": "STUDY_NOISE_STD UnderdeterminedFit SampleSet fit_signature nrmse spiral_samples"
                 " trajectory_samples holdout_grid spoof StudyRow estimation_study",
    "cli": "main",
    "fdia": "KIND_REFLECTION KIND_SCALING KIND_IDENTITY KIND_CUSTOM AttackError AffineAttack"
            " identity_attack build_reflection build_scaling attack_state attack_command"
            " check_condition1 check_condition2 save_attack load_attack",
    "kinematics": "Posture rk4_step",
    "netlink": "MAX_FRAME DEFAULT_PLANT_PORT DEFAULT_PROXY_PORT PLANT_VIEW_COLUMNS"
               " CTRL_VIEW_COLUMNS NetlinkError FrameLengthError TruncatedFrameError"
               " WireFormatError UnknownKindError ProtocolError WireMessage encode decode"
               " recv_message send_message serve_plant run_controller serve_proxy merge_views",
    "scenarios": "ScenarioError Scenario builtin_names validate_scenario scenario_from_dict"
                 " load_scenario resolve_out_dir Evaluation evaluate write_monitor_csv"
                 " run_scenario",
    "simloop": "TRACE_COLUMNS SimConfig SimTrace write_csv write_trace_csv run"
               " UndetectabilityReport undetectability_report",
    "smsf": "PolySignature default_signature eval_signature validate_smsf AffineFit"
            " ResilienceResult resilience_check DetectionConfig MonitorResult monitor"
            " signature_to_dict signature_from_dict",
    "tracking": "REFERENCE_CACHE_SIZE RunDiverged ControllerGains RefConfig reference_table"
                " control",
    "vulncheck": "TAG_LINEAR TAG_COSINE TAG_SINE TAG_QUADRATIC TAG_EXPONENTIAL CLASS_CONTINUOUS"
                 " CLASS_DISCRETE CLASS_TRIVIAL ScalarFamily default_grid VulnVerdict classify"
                 " verdict_table",
}


def _defined_names(tree: ast.Module) -> list:
    """Names a module's top-level statements define: functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def test_the_public_surface_is_the_listed_names():
    found = {}
    for path in sorted((SRC / "fdia_lab").glob("*.py")):
        if path.stem.startswith("_"):
            continue  # the package itself and its private modules
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.stem] = sorted(n for n in _defined_names(tree) if not n.startswith("_"))
    assert found == {module: sorted(names.split()) for module, names in PUBLIC.items()}
    assert sum(map(len, found.values())) == 99


def test_the_only_function_level_import_is_the_csv_kernels():
    # a module imports what it needs at its top; simloop.write_csv alone defers
    # _csvfloat, which compiles its tables, to the first array write
    found = []
    for path in sorted((SRC / "fdia_lab").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, func.name, ast.unparse(node)) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == [("simloop", "write_csv", "from ._csvfloat import write_array")]


# every defaulted parameter of the public functions and every defaulted field
# of the public classes, as function.parameter or Class.field by module: a new
# knob must be added here, and a default no caller relies on should go instead
DEFAULTED = {
    "adversary": "spiral_samples.sig spiral_samples.noise_std"
                 " spiral_samples.seed trajectory_samples.noise_std trajectory_samples.seed"
                 " estimation_study.truth estimation_study.ns estimation_study.noise_std"
                 " estimation_study.seed",
    "cli": "main.argv",
    "fdia": "check_condition2.seed",
    "kinematics": "",
    "netlink": "serve_plant.signature serve_plant.host serve_plant.port serve_plant.on_bound"
               " serve_plant.timeout run_controller.connect run_controller.signature"
               " run_controller.timeout serve_proxy.attack serve_proxy.listen"
               " serve_proxy.upstream serve_proxy.sig_scale serve_proxy.sig_offset"
               " serve_proxy.on_bound serve_proxy.timeout",
    "scenarios": "scenario_from_dict.fallback_name resolve_out_dir.out_dir evaluate.tol"
                 " run_scenario.out_dir",
    "simloop": "SimConfig.ref SimConfig.gains SimConfig.p0 SimConfig.dt SimConfig.log_stride"
               " SimConfig.duration SimTrace.columns SimTrace.complete run.attack"
               " run.signature undetectability_report.tol",
    "smsf": "DetectionConfig.epsilon DetectionConfig.window monitor.cfg",
    "tracking": "ControllerGains.kx ControllerGains.ky ControllerGains.ktheta RefConfig.v_ref"
                " RefConfig.omega_amp RefConfig.omega_period RefConfig.duration",
    "vulncheck": "classify.tol verdict_table.tol",
}


def _defaulted_names(tree: ast.Module) -> list:
    """function.parameter for each defaulted parameter of a public top-level function,
    Class.field for each annotated field with a default in a public top-level class."""
    names = []
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            names += [f"{node.name}.{a.arg}" for a in defaulted]
            names += [f"{node.name}.{a.arg}" for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        elif isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{s.target.id}" for s in node.body
                      if isinstance(s, ast.AnnAssign) and s.value is not None]
    return names


def test_the_defaulted_parameters_and_fields_are_the_listed_ones():
    found = {}
    for path in sorted((SRC / "fdia_lab").glob("*.py")):
        if not path.stem.startswith("_"):
            found[path.stem] = sorted(_defaulted_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == {module: sorted(names.split()) for module, names in DEFAULTED.items()}
