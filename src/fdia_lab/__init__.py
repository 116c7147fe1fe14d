"""Desk-scale laboratory for affine false-data-injection attacks on a
differential-drive trajectory tracking loop.

The lab couples a unicycle plant, a Kanayama tracking controller, an affine
attack channel on both the observable and command streams, a polynomial
state-monitoring signature function with an online detector, an adversarial
signature estimator, a scalar-function vulnerability checker, and a lock-step
TCP harness with a man-in-the-middle attack proxy.
"""

from .kinematics import Posture
from .tracking import ControllerGains, RefConfig, control
from .fdia import (
    AffineAttack,
    attack_command,
    attack_from_dict,
    attack_state,
    attack_to_dict,
    build_reflection,
    build_scaling,
    check_condition1,
    check_condition2,
    identity_attack,
    load_attack,
    save_attack,
)
from .simloop import (
    SimConfig,
    SimTrace,
    TRACE_COLUMNS,
    UndetectabilityReport,
    run,
    undetectability_report,
)
from .smsf import (
    AffineFit,
    DetectionConfig,
    MonitorResult,
    PolySignature,
    ResilienceResult,
    affine_fit,
    default_signature,
    eval_signature,
    monitor,
    resilience_check,
    signature_from_dict,
    signature_to_dict,
    validate_smsf,
)
from .adversary import (
    SampleSet,
    UnderdeterminedFit,
    estimation_study,
    fit_signature,
    holdout_grid,
    monomial_basis,
    nrmse,
    spiral_samples,
    spoof,
    trajectory_samples,
)
from .vulncheck import (
    ScalarFamily,
    VulnVerdict,
    attack_residual,
    classify,
    default_families,
    verdict_table,
)
from .scenarios import Scenario, ScenarioError, builtin_names, load_scenario, run_scenario

__version__ = "0.1.0"
