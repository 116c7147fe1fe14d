"""State-monitoring signature functions.

A signature is a secret bivariate polynomial Phi(x, y) that the plant
evaluates on its actual position and streams to the controller, which
compares it against Phi evaluated on the observed position. A signature is
resilient to a given affine attack when no scalar affine channel
s_phi*Phi(actual) + d_phi can reproduce Phi(observed) over the operating
neighborhood of the attack's anchor posture.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .fdia import _fields, _integer, _number, attack_state

_SIGNATURE_KEYS = {"terms", "max_degree"}
_TERM_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")  # canonical exponents only
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_GRID_AXIS = np.linspace(-1.0, 1.0, 201)  # validate_smsf's grid: [-1, 1] at 0.01
_GRID_AXIS.setflags(write=False)
_HALF_WIDTH, _GRID_N = 0.1, 101  # resilience_check's grid: half width [m], points per axis
_RESILIENCE_NRMSE = 0.05  # resilience_check calls a fit at or below this NRMSE vulnerable


def _chain(ks) -> list:
    """Every exponent above 1 that the powers v^k, k in ks, take along the
    fixed chain v^m = v^(m//2) * v^(m - m//2), so v^3 = v * v^2: each such k
    and, in turn, the halves of each, about 2*log2(k) in all per k. Ascending,
    so each power comes after its halves; walked with a stack, so no exponent
    can exhaust the recursion limit.
    """
    need, todo = set(), list(ks)
    while todo:
        m = todo.pop()
        if m > 1 and m not in need:
            need.add(m)
            todo += (m // 2, m - m // 2)
    return sorted(need)


def _powers(v, ks) -> dict:
    """{k: v^k} over 0, 1, the exponents ks and their chain intermediates, for
    v a float or an array.

    Every power is a fixed chain of IEEE products, so its bits depend only on
    v and k, for a float or an array, under any numpy SIMD dispatch. Power 0
    is the float 1.0, which broadcasts.
    """
    pw = {0: 1.0, 1: v}
    for m in _chain(ks):
        pw[m] = pw[m // 2] * pw[m - m // 2]
    return pw


@functools.lru_cache(maxsize=64)
def _products(keys: tuple) -> tuple:
    """The chain products that evaluate the monomials x^i y^j, (i, j) in keys,
    over one list of values [1.0, x, y, ...]: each power the keys use, as the
    (lo, hi) slots it multiplies into the next slot, then each key's (x slot,
    y slot). Cached by keys, since a fitted signature's are always the same."""
    steps, slots = [], ({0: 0, 1: 1}, {0: 0, 1: 2})
    for axis, slot in enumerate(slots):
        for m in _chain({key[axis] for key in keys}):
            slot[m] = 3 + len(steps)
            steps.append((slot[m // 2], slot[m - m // 2]))
    xs, ys = slots
    return tuple(steps), tuple([(xs[i], ys[j]) for i, j in keys])


@dataclass(frozen=True)
class PolySignature:
    """Sparse bivariate polynomial: terms maps (i, j) to the x^i y^j coefficient.

    Immutable: terms is a read-only mapping in sorted key order, checked once
    here, so every exponent stays within max_degree.
    """

    terms: Mapping
    max_degree: int = 4

    def __post_init__(self):
        if not isinstance(self.max_degree, int) or self.max_degree < 1:
            raise ValueError(f"max_degree must be a positive int, got {self.max_degree}")
        canon = {}
        for key, coeff in self.terms.items():
            i, j = key
            if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                raise ValueError(f"exponents must be non-negative ints, got {key}")
            if i + j > self.max_degree:
                raise ValueError(f"term {key} exceeds max total degree {self.max_degree}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient for {key} must be finite")
            canon[(i, j)] = coeff
        # fixed iteration order keeps evaluation bitwise reproducible
        object.__setattr__(self, "terms", MappingProxyType(dict(sorted(canon.items()))))
        # the plan eval_signature runs: its products, then each term as
        # (coeff, x slot, y slot), in sorted order
        steps, slots = _products(tuple(self.terms))
        terms = tuple([(c, i, j) for c, (i, j) in zip(self.terms.values(), slots)])
        object.__setattr__(self, "_plan", (steps, terms))

    def __reduce__(self):
        return PolySignature, (dict(self.terms), self.max_degree)


_DEFAULT_SIGNATURE = PolySignature({(4, 0): 1.0, (0, 4): 1.0, (2, 0): 1.0, (0, 2): 25.0,
                                    (2, 1): -100.0, (1, 2): -10.0, (2, 2): 2501.0})


def default_signature() -> PolySignature:
    """Expanded form of x^4 + y^4 + (x - 50xy)^2 + (xy - 5y)^2; one shared, frozen instance."""
    return _DEFAULT_SIGNATURE


def eval_signature(sig: PolySignature, x, y):
    """Evaluate Phi at scalar or array positions (broadcasting).

    One body for both: the signature's plan multiplies out the chain powers
    its terms use, then sums the terms in sorted order. Scalar x and y
    (Python ints or floats, numpy floats) run the same products on plain
    floats and return a Python float, bitwise equal to the array path.
    """
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        pw, acc = [1.0, float(x), float(y)], 0.0
    else:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        pw, acc = [1.0, x, y], np.zeros(np.broadcast_shapes(x.shape, y.shape))
    steps, terms = sig._plan
    for lo, hi in steps:
        pw.append(pw[lo] * pw[hi])
    for coeff, i, j in terms:
        acc += coeff * pw[i] * pw[j]
    return acc if isinstance(acc, np.ndarray) and acc.ndim else float(acc)


def validate_smsf(sig: PolySignature) -> bool:
    """Check a signature is fit for monitoring duty.

    Requires no constant term (Phi(0,0) = 0, anchoring the zero of the
    residual) and nonnegativity on the operational grid [-1, 1]^2 sampled at
    0.01 resolution. Raises ValueError on violation.

    The verdict is the dense 201 x 201 grid's, but only rows that may hold a
    negative value are evaluated. On the row y = y_r, Phi is sum_i a_i x^i
    with a_i = sum_j c_ij y_r^j. A chain power of an |x| <= 1 is a float in
    [-1, 1], and an even one, a float square, is >= 0, so the row's grid
    values are at least
        L_r = a_0 + sum_{even i > 0} min(a_i, 0) - sum_{odd i} |a_i|
    less rounding. The y powers are eval_signature's own floats and the x
    powers enter only through that range, so no chain length enters the
    rounding: with n terms and m_r = sum_t |c_t y_r^j|, the grid's products
    and sum and this L_r's are each off by at most 2(n + 1) eps m_r, plus
    n * 2^-1074 for underflow. The slack 8(n + 1) eps m_r + n tiny covers
    both, and the rounding of m_r itself. A row is skipped only when L_r
    beats the slack and 2 m_r is finite, so no partial sum on it can
    overflow; every other row, a bound that is not finite included, is
    evaluated as Phi of the axis against those rows' y, bitwise the dense
    grid's rows.
    """
    if sig.terms.get((0, 0), 0.0) != 0.0:
        raise ValueError("signature has a constant term: Phi(0,0) != 0")
    axis = _GRID_AXIS
    coeffs, mass = {}, np.zeros_like(axis)
    with np.errstate(over="ignore", invalid="ignore"):
        py = _powers(axis, [j for _i, j in sig.terms])
        for (i, j), coeff in sig.terms.items():
            cy = coeff * py[j]
            coeffs[i] = coeffs.get(i, 0.0) + cy
            mass = mass + np.abs(cy)
        low = sum(a if i == 0 else -np.abs(a) if i % 2 else np.minimum(a, 0.0)
                  for i, a in coeffs.items())
        n = len(sig.terms)
        slack = 8.0 * (n + 1) * _EPS * mass + n * _TINY
        skip = (low - slack > 0.0) & np.isfinite(mass + mass)
    rows = axis[~skip, None]
    if rows.size and float(eval_signature(sig, axis, rows).min()) < 0.0:
        raise ValueError("signature is negative on the operational grid")
    return True


@dataclass
class AffineFit:
    """Least-squares scalar channel phi_out ~ s_phi*phi_in + d_phi."""

    s_phi: float
    d_phi: float
    nrmse: float


def _affine_fit(phi_in: np.ndarray, phi_out: np.ndarray) -> AffineFit:
    """Fit phi_out = s_phi*phi_in + d_phi by least squares over two equal-length arrays.

    nrmse is the fit RMSE normalized by the output range. Degenerate input
    spread (range below 1e-12, a single sample included) is rejected: no
    affine channel is identifiable from a constant input stream.
    """
    if float(phi_in.max() - phi_in.min()) < 1e-12:
        raise ValueError("degenerate input spread: phi_in range < 1e-12")
    design = np.column_stack([phi_in, np.ones_like(phi_in)])
    coeff, _, _, _ = np.linalg.lstsq(design, phi_out, rcond=None)
    resid = design @ coeff - phi_out
    rmse = float(np.sqrt(np.mean(resid**2)))
    out_range = float(phi_out.max() - phi_out.min())
    if rmse == 0.0:
        nrmse = 0.0
    elif out_range == 0.0:
        nrmse = math.inf
    else:
        nrmse = rmse / out_range
    return AffineFit(float(coeff[0]), float(coeff[1]), nrmse)


@dataclass
class ResilienceResult:
    """resilient means no affine channel reproduces the observed stream."""

    resilient: bool
    fit: AffineFit


def resilience_check(sig: PolySignature, attack, trace) -> ResilienceResult:
    """Resilience of sig against an affine attack near a run's anchor posture.

    Fits Phi(observed) = s_phi*Phi(actual) + d_phi, the best scalar channel
    the attacker could splice into the plant-side stream, over a 101 x 101
    grid of actual positions covering the square of half width 0.1 m
    centered on the run's starting position (heading held at its starting
    value). The signature is vulnerable when the fit's NRMSE is at most 0.05.

    The neighborhood scale matters: every anchored affine state map looks
    affine in Phi far from its anchor, so the verdict is only informative at
    desk scale, where the anchor offsets are a structural fraction of the
    region. A fit restricted to the one-dimensional path actually driven is
    strictly easier for the attacker and is not what this check answers; use
    monitor() to judge a specific run.
    """
    x0 = float(trace.x[0])
    y0 = float(trace.y[0])
    theta0 = float(trace.theta[0])
    ax = np.linspace(x0 - _HALF_WIDTH, x0 + _HALF_WIDTH, _GRID_N)
    ay = np.linspace(y0 - _HALF_WIDTH, y0 + _HALF_WIDTH, _GRID_N)
    gx, gy = np.meshgrid(ax, ay)
    x, y = gx.ravel(), gy.ravel()
    x_obs, y_obs, _ = attack_state(attack, x, y, theta0)
    fit = _affine_fit(eval_signature(sig, x, y), eval_signature(sig, x_obs, y_obs))
    return ResilienceResult(fit.nrmse > _RESILIENCE_NRMSE, fit)


@dataclass(frozen=True)
class DetectionConfig:
    """Online residual detector: flag after `window` consecutive exceedances of epsilon."""

    epsilon: float = 1e-6
    window: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not isinstance(self.window, int) or self.window < 1:
            raise ValueError(f"window must be a positive int, got {self.window}")


@dataclass
class MonitorResult:
    t: np.ndarray
    residual: np.ndarray
    exceeds: np.ndarray  # per sample: residual above epsilon, or not finite
    flag: bool
    first_exceed_t: float | None
    detect_t: float | None


def _windowed_detect(t: np.ndarray, exceed: np.ndarray, window: int):
    """First time a run of `window` consecutive True samples completes, or None."""
    if len(exceed) >= window:
        runs = np.convolve(exceed.astype(float), np.ones(window), mode="valid")
        hits = np.nonzero(runs >= window)[0]
        if len(hits):
            return float(t[hits[0] + window - 1])
    return None


def monitor(trace, sig: PolySignature, cfg: DetectionConfig = DetectionConfig()) -> MonitorResult:
    """The one SMSF residual r(t) = |phi_plant(t) - Phi(x_obs(t), y_obs(t))| over a trace.

    phi_plant is the signature stream as the controller received it, and sig
    is the controller's own secret, evaluated at the posture it observed.
    Only the t, phi_plant, x_obs and y_obs columns are read, so the same call
    judges an in-process trace, a merged networked trace and the controller's
    own view; a tampered or spoofed stream is simply a trace
    whose phi_plant column differs. A residual that is not finite counts as
    an exceedance, so a NaN stream is flagged, not passed.
    """
    t = trace.t  # one column lookup
    residual = np.abs(trace.phi_plant - eval_signature(sig, trace.x_obs, trace.y_obs))
    exceed = ~(residual <= cfg.epsilon)  # NaN compares false, so it exceeds
    detect_t = _windowed_detect(t, exceed, cfg.window)
    first_exceed_t = float(t[np.argmax(exceed)]) if bool(exceed.any()) else None
    return MonitorResult(np.array(t), residual, exceed, detect_t is not None, first_exceed_t,
                         detect_t)


def signature_to_dict(sig: PolySignature) -> dict:
    """JSON-ready form with "i,j" string keys in sorted order."""
    return {
        "max_degree": sig.max_degree,
        "terms": {f"{i},{j}": coeff for (i, j), coeff in sorted(sig.terms.items())},
    }


def signature_from_dict(d) -> PolySignature:
    """Parse a signature document; anything malformed raises ValueError.

    An object over "terms" and an optional "max_degree" (default 4): terms
    maps canonical "i,j" exponent keys to JSON numbers that float64 holds
    exactly, and max_degree is an integral number. Nothing is coerced.
    """
    raw = _fields(d, _SIGNATURE_KEYS, "signature", ValueError).get("terms")
    if not isinstance(raw, dict):
        raise ValueError(f"signature terms must be an object, got {type(raw).__name__}")
    terms = {}
    for key, coeff in raw.items():
        exps = _TERM_KEY.fullmatch(key) if isinstance(key, str) else None
        if exps is None:
            raise ValueError(f'signature term keys must read "i,j", got {key!r}')
        terms[int(exps[1]), int(exps[2])] = _number(coeff, f"signature.terms.{key}", ValueError)
    max_degree = _integer(d.get("max_degree", 4), "signature.max_degree", ValueError)
    return PolySignature(terms, max_degree=max_degree)
