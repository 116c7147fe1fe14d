"""Sinusoidal reference generation and the Kanayama tracking law.

The reference carries a constant linear velocity and a sinusoidal angular
feedforward. Its posture is integrated with the same zero-order-hold RK4
step the plant uses, so the reference is exactly trackable by the discrete
loop: with zero initial error the closed loop reproduces it bitwise. Each
reference row also holds the turn rate held over its step, so the controller
tick reads the feedforward from the table instead of evaluating it again.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kinematics import rk4_step

_TWO_PI = 2.0 * math.pi
REFERENCE_CACHE_SIZE = 8  # reference tables kept by reference_table
_ROW = struct.Struct("4d")  # one reference_table row as native float64s
_MAX_ROWS = sys.maxsize // _ROW.size  # a bytearray indexes at most sys.maxsize bytes


@dataclass(frozen=True)
class ControllerGains:
    """Kanayama gains (kx, ky, ktheta), all strictly positive."""

    kx: float = 2.0
    ky: float = 2000.0
    ktheta: float = 100.0

    def __post_init__(self):
        for name in ("kx", "ky", "ktheta"):
            g = getattr(self, name)
            if not (math.isfinite(g) and g > 0.0):
                raise ValueError(f"ControllerGains.{name} must be positive, got {g}")


@dataclass(frozen=True)
class RefConfig:
    """Feedforward profile: v_ref constant, omega_r = omega_amp*sin(2*pi*t/omega_period)."""

    v_ref: float = 0.02  # m/s
    omega_amp: float = 0.3  # rad/s
    omega_period: float = 4.0  # s
    duration: float = 30.0  # s

    def __post_init__(self):
        if not (math.isfinite(self.v_ref) and self.v_ref > 0.0):
            raise ValueError(f"RefConfig.v_ref must be positive, got {self.v_ref}")
        if not math.isfinite(self.omega_amp):
            raise ValueError("RefConfig.omega_amp must be finite")
        if not (math.isfinite(self.omega_period) and self.omega_period > 0.0):
            raise ValueError(f"RefConfig.omega_period must be positive, got {self.omega_period}")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"RefConfig.duration must be positive, got {self.duration}")


def _omega_ref(cfg: RefConfig, t: float) -> float:
    """Feedforward turn rate omega_r(t); the feedforward speed is cfg.v_ref."""
    return cfg.omega_amp * math.sin(_TWO_PI * t / cfg.omega_period)


def _table_steps(cfg: RefConfig, dt: float) -> int:
    """The last row index of reference_table(cfg, dt): ceil(cfg.duration/dt - 1e-9).

    Raises ValueError when the table's rows would pass sys.maxsize bytes, which
    no bytearray can index; the ratio is compared before it is rounded, so an
    overflowing one never reaches ceil. Raises ValueError too when the sine's
    phase overflows by the last row, as it does for a subnormal omega_period:
    the phase grows with k, so a finite last phase keeps every row's finite.
    """
    ratio = cfg.duration / dt - 1e-9
    # ceil(ratio) + 1 <= _MAX_ROWS exactly when ratio <= _MAX_ROWS - 1
    if not ratio <= _MAX_ROWS - 1:
        raise ValueError(f"reference duration {cfg.duration} at dt={dt} needs a table"
                         f" of more than sys.maxsize bytes")
    n = math.ceil(ratio)
    if not math.isfinite(_TWO_PI * (n * dt) / cfg.omega_period):
        raise ValueError(f"RefConfig.omega_period {cfg.omega_period} is too small for a"
                         f" reference of {cfg.duration} s: its phase overflows")
    return n


@lru_cache(maxsize=REFERENCE_CACHE_SIZE)
def reference_table(cfg: RefConfig, dt: float = 0.01) -> np.ndarray:
    """Reference rows (xr, yr, thr, omega_r) on the grid k*dt for k = 0..ceil(duration/dt).

    The posture is integrated from the origin by holding the feedforward
    omega_r(k*dt) over each step, matching the plant's own discretization;
    omega_r is the same expression the step used. Cached per (cfg, dt),
    keeping the REFERENCE_CACHE_SIZE most recently used tables.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = _table_steps(cfg, dt)
    rows = bytearray(_ROW.size * (n + 1))
    x = y = th = 0.0
    for k in range(n):
        w = _omega_ref(cfg, k * dt)
        _ROW.pack_into(rows, _ROW.size * k, x, y, th, w)
        x, y, th = rk4_step(x, y, th, cfg.v_ref, w, dt)
    _ROW.pack_into(rows, _ROW.size * n, x, y, th, _omega_ref(cfg, n * dt))
    table = np.frombuffer(rows).reshape(n + 1, 4)
    table.setflags(write=False)
    return table


def _reference_rows(cfg: RefConfig, dt: float, n: int):
    """The first n rows of reference_table(cfg, dt), unpacked one float tuple at a time.

    A loop over them holds no Python copy of the table. Raises ValueError
    when the table is shorter than n rows.
    """
    table = reference_table(cfg, dt)
    if len(table) < n:
        raise ValueError("reference table shorter than the run")
    return _ROW.iter_unpack(table[:n])


def control(ref: RefConfig, gains: ControllerGains, p_ref, x: float, y: float, theta: float):
    """One controller tick: the Kanayama law at the observed posture (x, y, theta).

    p_ref is one reference_table row (xr, yr, thr, omega_r): the reference
    posture and feedforward turn rate at the tick's time. The error is the
    world-frame offset to the reference rotated into the body frame:

    xe = cos(theta)*(xr-x) + sin(theta)*(yr-y)
    ye = -sin(theta)*(xr-x) + cos(theta)*(yr-y)
    thetae = thr - theta   (headings unwrapped on both sides)

    and with the feedforward (v_r, omega_r) = (v_ref, omega_r):

    v = v_r*cos(thetae) + kx*xe
    omega = omega_r + v_r*(ky*ye + ktheta*sin(thetae))
    V = (xe^2 + ye^2)/2 + (1 - cos(thetae))/ky   (tracking Lyapunov value)

    Returns (v, omega, xe, ye, thetae, V).
    """
    xr, yr, thr, omega_r = p_ref
    c = math.cos(theta)
    s = math.sin(theta)
    dx = xr - x
    dy = yr - y
    xe = c * dx + s * dy
    ye = -s * dx + c * dy
    thetae = thr - theta
    ce = math.cos(thetae)
    v_r = ref.v_ref
    v = v_r * ce + gains.kx * xe
    omega = omega_r + v_r * (gains.ky * ye + gains.ktheta * math.sin(thetae))
    lyap = 0.5 * (xe * xe + ye * ye) + (1.0 - ce) / gains.ky
    return v, omega, xe, ye, thetae, lyap
