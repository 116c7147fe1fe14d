"""Affine false-data-injection attacks on the observable and command channels.

The attacker rewrites the plant-to-controller observable as
p~ = S_x p + d_x and the controller-to-plant command as q~ = S_u q + d_u.
Perfect undetectability requires two conditions: the offset must hide the
initial state, d_x = (I - S_x) p(0), and the transformed kinematics must
close, S_x J(theta) (S_u q + d_u) = J(theta~) q with
theta~ = S_x[2,2]*theta + d_x[2]. For the unicycle the admissible command
maps are diagonal with |beta22| = 1 and beta11 != 0; the two nontrivial
families are a reflection about the line through the initial position at
heading theta0 and a pure scaling of the plane.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import Posture

KIND_REFLECTION = "Reflection"
KIND_SCALING = "Scaling"
KIND_IDENTITY = "Identity"
KIND_CUSTOM = "Custom"
KINDS = (KIND_REFLECTION, KIND_SCALING, KIND_IDENTITY, KIND_CUSTOM)

_OFFDIAG_TOL = 1e-12


@dataclass(eq=False)
class AffineAttack:
    """Affine channel maps: observable p -> s_x p + d_x, command q -> s_u q + d_u.

    Arrays are stored read-only; s_x must be invertible so the actual
    trajectory can be recovered from the observed one.
    """

    s_x: np.ndarray
    d_x: np.ndarray
    s_u: np.ndarray
    d_u: np.ndarray
    kind: str = KIND_CUSTOM
    beta11: float = 1.0

    def __post_init__(self):
        self.s_x = np.array(self.s_x, dtype=float).reshape(3, 3)
        self.d_x = np.array(self.d_x, dtype=float).reshape(3)
        self.s_u = np.array(self.s_u, dtype=float).reshape(2, 2)
        self.d_u = np.array(self.d_u, dtype=float).reshape(2)
        for name in ("s_x", "d_x", "s_u", "d_u"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"AffineAttack.{name} must be finite")
            arr.setflags(write=False)
        if abs(np.linalg.det(self.s_x)) <= 1e-12:
            raise ValueError("AffineAttack.s_x must be invertible")
        if self.kind not in KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not math.isfinite(self.beta11):
            raise ValueError("AffineAttack.beta11 must be finite")


def identity_attack() -> AffineAttack:
    """The do-nothing channel; useful as the null case in reports."""
    return AffineAttack(np.eye(3), np.zeros(3), np.eye(2), np.zeros(2), kind=KIND_IDENTITY)


def build_reflection(beta11: float, p0: Posture) -> AffineAttack:
    """Reflection attack about the line through (x0, y0) at heading theta0.

    s_x = [[cos(2*theta0)/b, sin(2*theta0)/b, 0],
           [sin(2*theta0)/b, -cos(2*theta0)/b, 0],
           [0, 0, -1]],  s_u = diag(b, -1),  d_u = 0,  d_x = (I - s_x) p0.

    The command's angular sign flip makes the mirrored plant motion project
    onto the unmirrored observable exactly.
    """
    if not (math.isfinite(beta11) and beta11 != 0.0):
        raise ValueError(f"beta11 must be nonzero and finite, got {beta11}")
    c2 = math.cos(2.0 * p0.theta)
    s2 = math.sin(2.0 * p0.theta)
    s_x = np.array(
        [
            [c2 / beta11, s2 / beta11, 0.0],
            [s2 / beta11, -c2 / beta11, 0.0],
            [0.0, 0.0, -1.0],
        ]
    )
    arr = p0.as_array()
    d_x = arr - s_x @ arr
    s_u = np.array([[beta11, 0.0], [0.0, -1.0]])
    return AffineAttack(s_x, d_x, s_u, np.zeros(2), kind=KIND_REFLECTION, beta11=beta11)


def build_scaling(beta11: float, p0: Posture) -> AffineAttack:
    """Scaling attack: the plant moves at 1/beta11 scale of the observable.

    s_x = diag(1/b, 1/b, 1), s_u = diag(b, 1), d_u = 0, d_x = (I - s_x) p0.
    beta11 = 1 yields the identity channel for every p0.
    """
    if not (math.isfinite(beta11) and beta11 != 0.0):
        raise ValueError(f"beta11 must be nonzero and finite, got {beta11}")
    s_x = np.diag([1.0 / beta11, 1.0 / beta11, 1.0])
    arr = p0.as_array()
    d_x = arr - s_x @ arr
    s_u = np.diag([beta11, 1.0])
    return AffineAttack(s_x, d_x, s_u, np.zeros(2), kind=KIND_SCALING, beta11=beta11)


def attack_state(a: AffineAttack, x: float, y: float, theta: float) -> tuple:
    """Observable (x~, y~, theta~) = s_x p + d_x the controller sees for the actual p."""
    return tuple((a.s_x @ np.array((x, y, theta)) + a.d_x).tolist())


def attack_command(a: AffineAttack, v: float, omega: float) -> tuple:
    """Command (v~, omega~) = s_u q + d_u the plant receives for the controller output q."""
    return tuple((a.s_u @ np.array((v, omega)) + a.d_u).tolist())


def check_condition1(a: AffineAttack, p0: Posture) -> float:
    """Max-norm residual of the initial-state hiding condition d_x = (I - s_x) p0."""
    arr = p0.as_array()
    return float(np.max(np.abs((arr - a.s_x @ arr) - a.d_x)))


def check_condition2(a: AffineAttack, n_samples: int = 1000, seed: int = 0) -> float:
    """Sampled max-norm residual of the kinematic closure condition.

    Draws theta in [-2*pi, 2*pi] and v, omega in [-1, 1], then evaluates
    max || s_x J(theta)(s_u q + d_u) - J(theta~) q ||_inf with
    theta~ = s_x[2,2]*theta + d_x[2]. Undetectable attacks score at float
    noise; any inadmissible s_u or nonzero d_u scores well above 1e-3.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, n_samples)
    v = rng.uniform(-1.0, 1.0, n_samples)
    omega = rng.uniform(-1.0, 1.0, n_samples)

    u = a.s_u @ np.stack([v, omega]) + a.d_u[:, None]  # received command, (2, n)
    plant_rate = np.stack([u[0] * np.cos(theta), u[0] * np.sin(theta), u[1]])
    lhs = a.s_x @ plant_rate

    theta_t = a.s_x[2, 2] * theta + a.d_x[2]
    rhs = np.stack([v * np.cos(theta_t), v * np.sin(theta_t), omega])
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class SuVerdict:
    """Outcome of the command-map admissibility test."""

    admissible: bool
    beta11: float | None = None
    reason: str | None = None


def admissible_su(s_u) -> SuVerdict:
    """Admissibility of a command map: diagonal, |beta22| = 1, beta11 != 0.

    The first violated condition is reported, in the order beta12, beta21,
    beta22, beta11.
    """
    m = np.asarray(s_u, dtype=float).reshape(2, 2)
    if abs(m[0, 1]) > _OFFDIAG_TOL:
        return SuVerdict(False, reason="beta12 != 0")
    if abs(m[1, 0]) > _OFFDIAG_TOL:
        return SuVerdict(False, reason="beta21 != 0")
    if abs(abs(m[1, 1]) - 1.0) > _OFFDIAG_TOL:
        return SuVerdict(False, reason="beta22 not in {-1, 1}")
    if abs(m[0, 0]) <= _OFFDIAG_TOL:
        return SuVerdict(False, reason="beta11 = 0")
    return SuVerdict(True, beta11=float(m[0, 0]))


def attack_to_dict(a: AffineAttack) -> dict:
    """Flat JSON-ready form: matrices row-major, offsets as lists."""
    return {
        "kind": a.kind,
        "beta11": a.beta11,
        "s_x": [float(v) for v in a.s_x.ravel()],
        "d_x": [float(v) for v in a.d_x],
        "s_u": [float(v) for v in a.s_u.ravel()],
        "d_u": [float(v) for v in a.d_u],
    }


def attack_from_dict(d: dict) -> AffineAttack:
    return AffineAttack(
        np.array(d["s_x"], dtype=float).reshape(3, 3),
        np.array(d["d_x"], dtype=float),
        np.array(d["s_u"], dtype=float).reshape(2, 2),
        np.array(d["d_u"], dtype=float),
        kind=d.get("kind", KIND_CUSTOM),
        beta11=float(d.get("beta11", 1.0)),
    )


def save_attack(a: AffineAttack, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(attack_to_dict(a), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_attack(path) -> AffineAttack:
    with open(path, "r", encoding="utf-8") as fh:
        return attack_from_dict(json.load(fh))
