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
_KINDS = (KIND_REFLECTION, KIND_SCALING, KIND_IDENTITY, KIND_CUSTOM)

_SHAPES = {"s_x": (3, 3), "d_x": (3,), "s_u": (2, 2), "d_u": (2,)}
_DOC_KEYS = {*_SHAPES, "kind", "beta11"}  # an attack document's keys


class AttackError(ValueError):
    """An attack is malformed: a bad document, a non-finite or singular map."""


@dataclass(frozen=True, eq=False)
class AffineAttack:
    """Affine channel maps: observable p -> s_x p + d_x, command q -> s_u q + d_u.

    Immutable: the arrays are read-only. Their values are also kept as flat
    row-major tuples of Python floats, _state_map (s_x then d_x, 12 floats)
    and _command_map (s_u then d_u, 6 floats), which attack_state and
    attack_command unpack in one step. s_x must be invertible so the actual
    trajectory can be recovered from the observed one.
    """

    s_x: np.ndarray
    d_x: np.ndarray
    s_u: np.ndarray
    d_u: np.ndarray
    kind: str = KIND_CUSTOM
    beta11: float = 1.0

    def __post_init__(self):
        floats = []  # s_x, d_x, s_u, d_u, each row-major
        for name, shape in _SHAPES.items():
            arr, size = np.array(getattr(self, name), dtype=float), math.prod(shape)
            if arr.size != size:
                raise AttackError(f"AffineAttack.{name} must hold {size} numbers, got {arr.size}")
            floats += arr.ravel().tolist()
            arr = arr.reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise AttackError(f"AffineAttack.{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_state_map", tuple(floats[:12]))
        object.__setattr__(self, "_command_map", tuple(floats[12:]))
        if not _invertible(self._state_map):
            raise AttackError("AffineAttack.s_x must be invertible")
        if self.kind not in _KINDS:
            raise AttackError(f"unknown attack kind {_shown(self.kind)}")
        if not math.isfinite(self.beta11):
            raise AttackError("AffineAttack.beta11 must be finite")


def _invertible(m: tuple) -> bool:
    """Whether the 3x3 row-major matrix at the front of m is invertible.

    Each row is scaled to max-norm 1 before the determinant is taken in plain
    floats, so the verdict does not depend on the rows' scale and no product
    can overflow: a zero row is singular, and otherwise the scaled
    determinant must exceed 1e-12 in magnitude.
    """
    rows = []
    for row in (m[0:3], m[3:6], m[6:9]):
        top = max(map(abs, row))
        if top == 0.0:
            return False
        rows.append([v / top for v in row])
    (a, b, c), (d, e, f), (g, h, i) = rows
    return abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) > 1e-12


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
    with np.errstate(over="ignore", invalid="ignore"):  # AffineAttack refuses a non-finite d_x
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
    with np.errstate(over="ignore", invalid="ignore"):  # AffineAttack refuses a non-finite d_x
        d_x = arr - s_x @ arr
    s_u = np.diag([beta11, 1.0])
    return AffineAttack(s_x, d_x, s_u, np.zeros(2), kind=KIND_SCALING, beta11=beta11)


def attack_state(a: AffineAttack, x: float, y: float, theta: float) -> tuple:
    """Observable (x~, y~, theta~) = s_x p + d_x the controller sees for the actual p.

    Each row is the float sum s0*x + s1*y + s2*theta + d, left to right, so
    the result does not depend on which BLAS kernel is loaded.
    """
    s00, s01, s02, s10, s11, s12, s20, s21, s22, d0, d1, d2 = a._state_map
    return (s00 * x + s01 * y + s02 * theta + d0,
            s10 * x + s11 * y + s12 * theta + d1,
            s20 * x + s21 * y + s22 * theta + d2)


def attack_command(a: AffineAttack, v: float, omega: float) -> tuple:
    """Command (v~, omega~) = s_u q + d_u the plant receives for the controller output q.

    Summed left to right per row, like attack_state.
    """
    s00, s01, s10, s11, d0, d1 = a._command_map
    return (s00 * v + s01 * omega + d0, s10 * v + s11 * omega + d1)


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


def _closure_residual(a: AffineAttack) -> float:
    """Exact max gap of the kinematic closure identity, or inf.

    Both sides of s_x J(theta)(s_u q + d_u) = J(theta~) q, with
    theta~ = s22*theta + d2 (s22 = s_x[2,2], d2 = d_x[2]), are sums over
    {cos theta, sin theta, 1} x {v, omega, 1} when s22 is -1, 0 or 1:
    cos(theta~) = cos(d2) C - s22 sin(d2) sin(theta) and
    sin(theta~) = sin(d2) C + s22 cos(d2) sin(theta), where C is cos(theta),
    or 1 when s22 = 0. Any other s22 puts cos(theta~) outside that span, so
    no s_u or d_u closes it. The result is the largest gap between the two
    sides' 27 coefficients, in plain floats: 0 up to rounding exactly when
    the identity holds for every theta, v and omega. check_condition2
    samples the same identity.
    """
    sx = a._state_map  # s_x row-major, then d_x
    s22, d2 = sx[8], sx[11]
    if s22 not in (-1.0, 0.0, 1.0):
        return math.inf
    c, s = math.cos(d2), math.sin(d2)
    # the right side's rows by basis function; only v enters its first two
    heading = ((c, -s22 * s, 0.0), (s, s22 * c, 0.0)) if s22 else ((0.0, 0.0, c), (0.0, 0.0, s))
    rhs = [[(w, 0.0, 0.0) for w in row] for row in heading]
    rhs.append([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    # the received command (v~, omega~) over (v, omega, 1)
    u00, u01, u10, u11, e0, e1 = a._command_map
    speed, turn = (u00, u01, e0), (u10, u11, e1)
    return max(abs(r * q - want)
               for s_row, row in zip((sx[0:3], sx[3:6], sx[6:9]), rhs)
               for r, form, wants in zip(s_row, (speed, speed, turn), row)
               for q, want in zip(form, wants))


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


def _shown(v) -> str:
    """repr(v) for an error message, cut to 80 characters, short of an int
    too long for the interpreter's digit limit, alone or inside a container."""
    if isinstance(v, int) and v.bit_length() > 1024:
        return f"an int of {v.bit_length()} bits"
    try:
        text = repr(v)
    except (ValueError, RecursionError):
        return f"a {type(v).__name__} too large to show"
    return text if len(text) <= 80 else text[:77] + "..."


def _number(value, where: str, error=AttackError) -> float:
    """A JSON number (not a bool or a string) that float64 holds exactly and
    finitely, as a float; the one rule for every number read from outside."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"invalid {where}: expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an int beyond float64's range
        out = math.inf
    if not (math.isfinite(out) and out == value):  # int == float compares exactly
        raise error(f"invalid {where}: not exactly a finite float64")
    return out


def _integer(value, where: str, error) -> int:
    """An integral JSON number (2 or 2.0, never 2.5 or true) within float64's
    range, as an exact int: unlike _number, a 300-digit int stays itself."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"invalid {where}: expected an integer, got {type(value).__name__}")
    try:
        integral = float(value).is_integer()
    except OverflowError:
        integral = False
    if not integral:
        raise error(f"invalid {where}: expected an integer within float64's range")
    return int(value)


def _fields(d, allowed: set, where: str, error):
    """d, a JSON object whose keys are all in allowed; the one rule for every
    object read from outside. Anything else raises error."""
    if not isinstance(d, dict):
        raise error(f"{where} must be an object, got {_shown(d)}")
    extra = d.keys() - allowed
    if extra:
        raise error(f"unknown {where} keys: {sorted(map(str, extra))}")
    return d


def _read_json(path, what: str, error):
    """The document in the JSON file at path; bad UTF-8 or JSON raises error."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an integer past the digit limit, or deep nesting
        raise error(f"{what} file {path} is not valid JSON: {exc}") from exc


def attack_from_dict(d: dict) -> AffineAttack:
    """Parse an attack document; anything malformed raises AttackError.

    s_x, d_x, s_u and d_u are required lists of 9, 3, 4 and 2 JSON numbers
    (row-major); kind and beta11 are optional. Nothing is coerced.
    """
    _fields(d, _DOC_KEYS, "attack", AttackError)
    maps = {}
    for name, shape in _SHAPES.items():
        if name not in d:
            raise AttackError(f"attack document must declare {name}")
        values = d[name]
        size = math.prod(shape)
        if not (isinstance(values, list) and len(values) == size):
            raise AttackError(f"{name} must be a list of {size} numbers")
        maps[name] = [_number(v, name) for v in values]
    kind = d.get("kind", KIND_CUSTOM)
    if not isinstance(kind, str):
        raise AttackError(f"attack kind must be a string, got {type(kind).__name__}")
    return AffineAttack(**maps, kind=kind, beta11=_number(d.get("beta11", 1.0), "beta11"))


def save_attack(a: AffineAttack, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(attack_to_dict(a), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_attack(path) -> AffineAttack:
    """Read an attack file; bad UTF-8, JSON or content raises AttackError."""
    return attack_from_dict(_read_json(path, "attack", AttackError))
