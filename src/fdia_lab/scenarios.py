"""Named experiment setups: builtins, JSON loading, and one-call execution.

A scenario bundles a closed-loop configuration, an optional attack built at
the start pose, the monitored signature, and detector settings under a stable
name and seed. Loading validates the bundle: the signature must pass its
structural checks and a declared attack must satisfy both undetectability
conditions (initial-state consistency and kinematic closure) before anything runs.

Builtins:
  nominal    no attack, p0 = (0, 0.02, 0)
  scenario1  reflection about the start pose, beta11 = 1
  scenario2  similarity scaling about the origin, beta11 = 0.5
  scenario3  reflection with a rotated start pose, theta0 = pi/6
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fdia import (
    KIND_CUSTOM,
    KIND_IDENTITY,
    KIND_REFLECTION,
    KIND_SCALING,
    AffineAttack,
    _closure_residual,
    _fields,
    _integer,
    _labelled,
    _number,
    _read_json,
    _shown,
    build_reflection,
    build_scaling,
    check_condition1,
    identity_attack,
    save_attack,
)
from .kinematics import Posture
from .simloop import (
    SimConfig,
    SimTrace,
    UndetectabilityReport,
    run,
    undetectability_report,
    write_csv,
    write_trace_csv,
)
from .smsf import (
    DetectionConfig,
    MonitorResult,
    PolySignature,
    default_signature,
    monitor,
    signature_from_dict,
    validate_smsf,
)
from .tracking import ControllerGains, RefConfig

# the builtins are scenario documents like any other
_BUILTIN_DOCS = {
    "nominal": {"seed": 100},
    "scenario1": {"seed": 101, "attack": {"kind": KIND_REFLECTION, "beta11": 1.0}},
    "scenario2": {"seed": 102, "attack": {"kind": KIND_SCALING, "beta11": 0.5}},
    "scenario3": {"seed": 103, "p0": [0.0, 0.02, math.pi / 6.0],
                  "attack": {"kind": KIND_REFLECTION, "beta11": 1.0}},
}

_CONDITION1_TOL = 1e-12
_CONDITION2_TOL = 1e-10
_UNDETECTABLE_TOL = 1e-9

_TOP_KEYS = {"name", "seed", "p0", "dt", "duration", "log_stride",
             "ref", "gains", "signature", "attack", "detection"}
_REF_KEYS = {"v_ref", "omega_amp", "omega_period"}  # the table runs as long as the run
_GAIN_KEYS = {"kx", "ky", "ktheta"}
_DET_KEYS = {"epsilon", "window"}
_ATTACK_KEYS = {"kind", "beta11"}


class ScenarioError(Exception):
    """Scenario is unknown, malformed, or fails its self-checks."""


@dataclass(frozen=True)
class Scenario:
    """A named, self-validating experiment setup; seed is a label for summary.json."""

    name: str
    sim: SimConfig
    attack: AffineAttack | None
    signature: PolySignature
    detection: DetectionConfig
    seed: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError(f"scenario name must be a non-empty string, got {_shown(self.name)}")
        # the name is the artifact directory's last component: never a path
        if self.name in (".", "..") or any(c in self.name for c in "/\\\0"):
            raise ScenarioError(f"scenario name must be one path component, got {_shown(self.name)}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ScenarioError(f"seed must be a non-negative int, got {_shown(self.seed)}")


def builtin_names() -> tuple:
    return tuple(_BUILTIN_DOCS)


def _declared_attack(kind, beta11: float, p0: Posture) -> AffineAttack:
    """Materialize a declared attack family and beta11 at the start pose; the
    built maps must carry the declared kind and beta11."""
    if kind == KIND_CUSTOM:
        raise ScenarioError("custom attacks cannot be declared inline; use the attack file API")
    if kind not in (KIND_REFLECTION, KIND_SCALING, KIND_IDENTITY):
        raise ScenarioError(f"invalid attack declaration: unknown kind {_shown(kind)}")
    try:
        if kind == KIND_IDENTITY:
            attack = identity_attack()
        else:
            attack = (build_reflection if kind == KIND_REFLECTION else build_scaling)(beta11, p0)
        return _labelled(attack, kind, beta11)
    except ValueError as exc:  # AttackError is one
        raise ScenarioError(f"invalid attack declaration: {exc}") from exc


def _attack_doc(attack: AffineAttack | None) -> dict | None:
    """The document form of an attack: its kind and beta11."""
    return None if attack is None else {"kind": attack.kind, "beta11": attack.beta11}


def validate_scenario(sc: Scenario) -> AffineAttack | None:
    """Run the self-checks; returns the scenario's attack (or None).

    The signature must have no constant term and be nonnegative on the
    operational grid. A declared attack must satisfy the initial-state
    consistency condition to 1e-12 and the kinematic closure identity to
    1e-10 in every coefficient, so for every heading, speed and turn rate.
    No check draws random numbers: the verdict does not depend on the
    scenario's seed.
    """
    try:
        validate_smsf(sc.signature)
    except ValueError as exc:
        raise ScenarioError(f"scenario {sc.name!r}: invalid signature: {exc}") from exc
    attack = sc.attack
    if attack is not None:
        r1 = check_condition1(attack, sc.sim.p0)
        if r1 > _CONDITION1_TOL:
            raise ScenarioError(
                f"scenario {sc.name!r}: initial-state consistency residual {r1:.3e} > {_CONDITION1_TOL}"
            )
        r2 = _closure_residual(attack)
        if r2 > _CONDITION2_TOL:
            raise ScenarioError(
                f"scenario {sc.name!r}: kinematic closure residual {r2:.3e} > {_CONDITION2_TOL}"
            )
    return attack


def _section(d: dict, key: str, allowed: set) -> dict:
    """An optional sub-object of the document over the allowed keys."""
    return _fields(d.get(key, {}), allowed, key, ScenarioError)


def _numbers(sec: dict, where: str) -> dict:
    return {k: _number(v, f"{where}.{k}", ScenarioError) for k, v in sec.items()}


def scenario_from_dict(d: dict, fallback_name: str = "custom") -> Scenario:
    """Parse a scenario document; anything malformed raises ScenarioError.

    Numbers must be JSON numbers that float64 holds exactly, integer settings
    must be integral and sections must be objects; nothing is coerced.
    """
    _fields(d, _TOP_KEYS, "scenario", ScenarioError)
    if "seed" not in d:
        raise ScenarioError("scenario document must declare a seed")
    name = d.get("name", fallback_name)
    seed = d["seed"]

    p0 = SimConfig.p0
    if "p0" in d:
        p0_raw = d["p0"]
        if not (isinstance(p0_raw, (list, tuple)) and len(p0_raw) == 3):
            raise ScenarioError(f"p0 must be a list of three numbers, got {_shown(p0_raw)}")
        p0 = Posture(*(_number(v, "p0", ScenarioError) for v in p0_raw))

    duration = _number(d.get("duration", SimConfig.duration), "duration", ScenarioError)
    ref_raw = _numbers(_section(d, "ref", _REF_KEYS), "ref")
    gains_raw = _numbers(_section(d, "gains", _GAIN_KEYS), "gains")
    det_raw = _section(d, "detection", _DET_KEYS)
    det_kwargs = {k: (_integer if k == "window" else _number)(v, f"detection.{k}", ScenarioError)
                  for k, v in det_raw.items()}
    dt = _number(d.get("dt", SimConfig.dt), "dt", ScenarioError)
    log_stride = _integer(d.get("log_stride", SimConfig.log_stride), "log_stride", ScenarioError)
    try:
        sim = SimConfig(ref=RefConfig(duration=duration, **ref_raw),
                        gains=ControllerGains(**gains_raw), p0=p0,
                        dt=dt, log_stride=log_stride, duration=duration)
        detection = DetectionConfig(**det_kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario settings: {exc}") from exc

    sig_raw = d.get("signature", "default")
    try:
        signature = default_signature() if sig_raw == "default" else signature_from_dict(sig_raw)
    except ValueError as exc:
        raise ScenarioError(f'invalid signature ("default" or an object): {exc}') from exc

    attack_raw = d.get("attack")
    if attack_raw is None:
        attack = None
    else:
        if "kind" not in _fields(attack_raw, _ATTACK_KEYS, "attack", ScenarioError):
            raise ScenarioError("attack must be null or declare a kind")
        beta11 = _number(attack_raw.get("beta11", 1.0), "attack.beta11", ScenarioError)
        attack = _declared_attack(attack_raw["kind"], beta11, p0)

    return Scenario(name, sim, attack, signature, detection, seed)


def load_scenario(name_or_path) -> Scenario:
    """Resolve a builtin name or a JSON file path; validates before returning."""
    name = str(name_or_path)
    if name in _BUILTIN_DOCS:
        sc = scenario_from_dict(_BUILTIN_DOCS[name], fallback_name=name)
    else:
        path = Path(name_or_path)
        if not path.is_file():
            raise ScenarioError(
                f"unknown scenario {name!r}: not one of {builtin_names()} and not a file"
            )
        sc = scenario_from_dict(_read_json(path, "scenario", ScenarioError),
                                fallback_name=path.stem)
    validate_scenario(sc)
    return sc


def resolve_out_dir(name: str, out_dir=None) -> Path:
    """Output directory precedence: explicit arg, FDIA_LAB_OUT_DIR, ./runs/<name>."""
    if out_dir is not None:
        return Path(out_dir)
    env = os.environ.get("FDIA_LAB_OUT_DIR")
    if env:
        return Path(env) / name
    return Path("runs") / name


@dataclass
class Evaluation:
    """An attacked run beside its nominal shadow, scored two ways."""

    channel: AffineAttack  # the scenario's attack, or the identity when it has none
    attacked: SimTrace
    nominal: SimTrace  # the attacked trace itself when there is no attack
    report: UndetectabilityReport
    monitor: MonitorResult


def evaluate(sc: Scenario, tol: float = _UNDETECTABLE_TOL) -> Evaluation:
    """Validate the scenario, run it attacked and nominal, and score the pair.

    The report compares the attacked run's observed stream with the nominal
    run to tol; the monitor scores the attacked trace with the scenario's
    detector settings.
    """
    attack = validate_scenario(sc)
    attacked = run(sc.sim, attack, sc.signature)
    nominal = attacked if attack is None else run(sc.sim, None, sc.signature)
    channel = attack if attack is not None else identity_attack()
    report = undetectability_report(attacked, nominal, channel, tol=tol)
    mon = monitor(attacked, sc.signature, cfg=sc.detection)
    return Evaluation(channel, attacked, nominal, report, mon)


def write_monitor_csv(path, result: MonitorResult) -> None:
    """The monitor.csv schema: t, residual, and 1 where monitor counted an exceedance."""
    write_csv(path, ("t", "residual", "exceeds"),
              np.column_stack([result.t, result.residual, result.exceeds]))


def run_scenario(name_or_path, out_dir=None) -> dict:
    """Execute a scenario end to end and write its artifact set.

    Artifacts (all deterministic, byte-identical across repeat runs):
      trace.csv    attacked closed-loop trace (the run itself when no attack)
      nominal.csv  unattacked shadow run from the same configuration
      attack.json  the applied channel (identity when no attack is declared)
      monitor.csv  residual stream with per-sample exceedance flags
      summary.json run metrics; see the "schema" field

    Returns the summary dict.
    """
    sc = load_scenario(name_or_path)
    ev = evaluate(sc)
    out = resolve_out_dir(sc.name, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", ev.attacked)
    write_trace_csv(out / "nominal.csv", ev.nominal)
    save_attack(ev.channel, out / "attack.json")
    write_monitor_csv(out / "monitor.csv", ev.monitor)

    summary = {
        "schema": 1,
        "name": sc.name,
        "seed": sc.seed,
        "attack": _attack_doc(sc.attack),
        "sup_obs_dev": ev.report.sup_obs_dev,
        "sup_actual_dev": ev.report.sup_actual_dev,
        "undetectable": ev.report.undetectable,
        "detection": {
            "flag": ev.monitor.flag,
            "first_exceed_t": ev.monitor.first_exceed_t,
            "detect_t": ev.monitor.detect_t,
            "peak_residual": float(ev.monitor.residual.max()),
        },
        "lyapunov_final": float(ev.attacked.V[-1]),
        "terminal_error": {
            "xe": float(ev.attacked.xe[-1]),
            "ye": float(ev.attacked.ye[-1]),
            "thetae": float(ev.attacked.thetae[-1]),
        },
        "artifacts": {
            "trace": "trace.csv",
            "nominal": "nominal.csv",
            "attack": "attack.json",
            "monitor": "monitor.csv",
            "summary": "summary.json",
        },
    }
    # strict JSON: a non-finite metric raises here, before the file is opened
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return summary
