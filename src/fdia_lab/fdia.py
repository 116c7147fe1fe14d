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

_SHAPES = {"s_x": (3, 3), "d_x": (3,), "s_u": (2, 2), "d_u": (2,)}
_DOC_KEYS = {*_SHAPES, "kind", "beta11"}  # an attack document's keys
_CLOSURE_DRAWS = 1000  # check_condition2's sampled (theta, v, omega) triples


class AttackError(ValueError):
    """An attack is malformed: a bad document, a non-finite or singular map."""


@dataclass(frozen=True, eq=False)
class AffineAttack:
    """Affine channel maps: observable p -> s_x p + d_x, command q -> s_u q + d_u.

    Immutable: the arrays are read-only. Their values are also kept as flat
    row-major tuples of Python floats, _state_map (s_x then d_x, 12 floats)
    and _command_map (s_u then d_u, 6 floats), which attack_state and
    attack_command unpack in one step. s_x must be invertible so the actual
    trajectory can be recovered from the observed one. kind and beta11 are
    read off the maps, never stored beside them.
    """

    s_x: np.ndarray
    d_x: np.ndarray
    s_u: np.ndarray
    d_u: np.ndarray

    def __post_init__(self):
        floats = []  # s_x, d_x, s_u, d_u, each row-major
        for name, shape in _SHAPES.items():
            arr, size = np.array(getattr(self, name), dtype=float), math.prod(shape)
            if arr.size != size:
                raise AttackError(f"AffineAttack.{name} must hold {size} numbers, got {arr.size}")
            values = arr.ravel().tolist()
            if not all(map(math.isfinite, values)):
                raise AttackError(f"AffineAttack.{name} must be finite")
            floats += values
            arr = arr.reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_state_map", tuple(floats[:12]))
        object.__setattr__(self, "_command_map", tuple(floats[12:]))
        if not _invertible(self._state_map):
            raise AttackError("AffineAttack.s_x must be invertible")

    @property
    def beta11(self) -> float:
        """The speed gain s_u[0][0]."""
        return self._command_map[0]

    @property
    def kind(self) -> str:
        """Reflection or Scaling when s_x, s_u, d_u and d_x[2] (2*theta0 or 0) are
        exactly what build_reflection or build_scaling writes at beta11, Identity
        when all four maps are the identity, else Custom. d_x[0:2] is the pose's
        to judge (check_condition1), but at beta11 = 1 build_scaling writes the
        identity at every pose, so a translation alone is Custom."""
        state, command = self._state_map, self._command_map
        beta11, heading = command[0], state[11]
        if beta11 == 0.0 or command[4:] != (0.0, 0.0):
            return KIND_CUSTOM
        maps = state[:9] + command[:4]
        if maps == _reflection(beta11, heading):
            return KIND_REFLECTION
        if heading == 0.0 and maps == _scaling(beta11):
            if beta11 != 1.0:
                return KIND_SCALING
            if state[9:11] == (0.0, 0.0):
                return KIND_IDENTITY
        return KIND_CUSTOM


def _reflection(beta11: float, heading: float) -> tuple:
    """s_x then s_u, row-major in one tuple, of the reflection at beta11 about a
    line at angle heading/2: build_reflection passes 2*theta0, which it also
    writes as d_x[2]. A zero beta11 raises ZeroDivisionError."""
    c2, s2 = math.cos(heading), math.sin(heading)
    return (c2 / beta11, s2 / beta11, 0.0, s2 / beta11, -c2 / beta11, 0.0, 0.0, 0.0, -1.0,
            beta11, 0.0, 0.0, -1.0)


def _scaling(beta11: float) -> tuple:
    """s_x then s_u, row-major in one tuple, of the scaling at beta11; the
    identity's at beta11 = 1. A zero beta11 raises ZeroDivisionError."""
    return (1.0 / beta11, 0.0, 0.0, 0.0, 1.0 / beta11, 0.0, 0.0, 0.0, 1.0,
            beta11, 0.0, 0.0, 1.0)


def _labelled(a: AffineAttack, kind, beta11) -> AffineAttack:
    """a, when a declared kind and beta11 are the ones its maps carry; the one
    rule for attack files and scenario documents. Else AttackError."""
    if (kind, beta11) != (a.kind, a.beta11):
        raise AttackError(f"the declared {_shown(kind)} with beta11 = {beta11!r} is not"
                          f" what the maps carry: {a.kind} with beta11 = {a.beta11!r}")
    return a


def _scaled_rows(m: tuple):
    """The 3x3 row-major matrix at the front of m as (its rows' max-norms, its
    rows scaled to max-norm 1, the scaled rows' determinant), in plain floats;
    None when a row is zero. No product of scaled entries can overflow."""
    tops, rows = [], []
    for row in (m[0:3], m[3:6], m[6:9]):
        top = max(map(abs, row))
        if top == 0.0:
            return None
        tops.append(top)
        rows.append([v / top for v in row])
    (a, b, c), (d, e, f), (g, h, i) = rows
    return tops, rows, a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _invertible(m: tuple) -> bool:
    """Whether the 3x3 row-major matrix at the front of m is invertible: no
    zero row, and the determinant of its scaled rows exceeds 1e-12 in
    magnitude, a verdict that does not depend on the rows' scale."""
    scaled = _scaled_rows(m)
    return scaled is not None and abs(scaled[2]) > 1e-12


def _inverse_state(a: AffineAttack, x, y, theta) -> tuple:
    """The actual posture s_x^-1 (p - d_x) behind the observable p = (x, y, theta).

    With s_x = D R, D its rows' max-norms, s_x^-1 = R^-1 D^-1, and each entry
    is a cofactor of R over det R, then over a max-norm. Floats or arrays
    alike, each row summed left to right as attack_state sums it, so no BLAS
    or LAPACK kernel decides the bits.
    """
    m = a._state_map
    tops, ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)), det = _scaled_rows(m)
    cof = ((r11 * r22 - r12 * r21, r02 * r21 - r01 * r22, r01 * r12 - r02 * r11),
           (r12 * r20 - r10 * r22, r00 * r22 - r02 * r20, r02 * r10 - r00 * r12),
           (r10 * r21 - r11 * r20, r01 * r20 - r00 * r21, r00 * r11 - r01 * r10))
    (n00, n01, n02), (n10, n11, n12), (n20, n21, n22) = (
        [c / det / top for c, top in zip(row, tops)] for row in cof)
    u0, u1, u2 = x - m[9], y - m[10], theta - m[11]
    return (n00 * u0 + n01 * u1 + n02 * u2,
            n10 * u0 + n11 * u1 + n12 * u2,
            n20 * u0 + n21 * u1 + n22 * u2)


def identity_attack() -> AffineAttack:
    """The do-nothing channel; useful as the null case in reports."""
    return AffineAttack(np.eye(3), np.zeros(3), np.eye(2), np.zeros(2))


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
    maps = _reflection(beta11, 2.0 * p0.theta)
    return AffineAttack(maps[:9], _hiding_offset(maps, p0), maps[9:], (0.0, 0.0))


def build_scaling(beta11: float, p0: Posture) -> AffineAttack:
    """Scaling attack: the plant moves at 1/beta11 scale of the observable.

    s_x = diag(1/b, 1/b, 1), s_u = diag(b, 1), d_u = 0, d_x = (I - s_x) p0.
    beta11 = 1 yields the identity channel for every p0.
    """
    if not (math.isfinite(beta11) and beta11 != 0.0):
        raise ValueError(f"beta11 must be nonzero and finite, got {beta11}")
    maps = _scaling(beta11)
    return AffineAttack(maps[:9], _hiding_offset(maps, p0), maps[9:], (0.0, 0.0))


def _hiding_offset(m: tuple, p0: Posture) -> tuple:
    """d_x = (I - s_x) p0 for the row-major s_x at the front of m, each row summed left to
    right in plain floats as attack_state sums it, so no BLAS kernel decides its bits.
    AffineAttack refuses an overflow's inf or nan."""
    s00, s01, s02, s10, s11, s12, s20, s21, s22 = m[:9]
    x, y, theta = p0.x, p0.y, p0.theta
    return (x - (s00 * x + s01 * y + s02 * theta),
            y - (s10 * x + s11 * y + s12 * theta),
            theta - (s20 * x + s21 * y + s22 * theta))


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
    """Max-norm residual of the initial-state hiding condition d_x = (I - s_x) p0, summed as
    the builders sum it (a built attack scores 0.0 at its pose); inf, not nan, on overflow."""
    m = a._state_map  # s_x row-major, then d_x
    gaps = [abs(want - d) for want, d in zip(_hiding_offset(m, p0), m[9:])]
    return math.inf if any(map(math.isnan, gaps)) else max(gaps)


def check_condition2(a: AffineAttack, seed: int = 0) -> float:
    """Sampled max-norm residual of the kinematic closure condition.

    Draws 1,000 seeded triples, theta in [-2*pi, 2*pi] and v, omega in
    [-1, 1], then evaluates
    max || s_x J(theta)(s_u q + d_u) - J(theta~) q ||_inf with
    theta~ = s_x[2,2]*theta + d_x[2]. Undetectable attacks score at float
    noise; any inadmissible s_u or nonzero d_u scores well above 1e-3.
    An s22 just off +-1 is not seen: on this range s22 = 1 + 1e-12 moves
    theta~ by under 1e-11 and scores about 6e-12. _closure_residual, which
    validate_scenario applies, refuses every s22 outside {-1, 0, 1}.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, _CLOSURE_DRAWS)
    v = rng.uniform(-1.0, 1.0, _CLOSURE_DRAWS)
    omega = rng.uniform(-1.0, 1.0, _CLOSURE_DRAWS)

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


def _attack_to_dict(a: AffineAttack) -> dict:
    """Flat JSON-ready form: matrices row-major, offsets as lists, and the labels
    the maps carry."""
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


def _attack_from_dict(d: dict) -> AffineAttack:
    """Parse an attack document; anything malformed raises AttackError.

    s_x, d_x, s_u and d_u are required lists of 9, 3, 4 and 2 JSON numbers
    (row-major); kind and beta11 are optional, and when given must be the
    ones the maps carry. Nothing is coerced.
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
    if not isinstance(d.get("kind", ""), str):
        raise AttackError(f"attack kind must be a string, got {type(d['kind']).__name__}")
    a = AffineAttack(**maps)
    return _labelled(a, d.get("kind", a.kind), _number(d.get("beta11", a.beta11), "beta11"))


def save_attack(a: AffineAttack, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_attack_to_dict(a), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_attack(path) -> AffineAttack:
    """Read an attack file; bad UTF-8, JSON or content raises AttackError."""
    return _attack_from_dict(_read_json(path, "attack", AttackError))
