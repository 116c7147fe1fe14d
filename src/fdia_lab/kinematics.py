"""Unicycle kinematics and a fixed-step RK4 integrator for the plant.

The posture is p = (x, y, theta) in the world frame and the command is
q = (v, omega) in the body frame, related by pdot = J(theta) q. The heading
is never wrapped: reflection attacks map theta to 2*theta0 - theta, and
wrapping on either side of the channel would break that affine identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Posture:
    """World-frame pose (x [m], y [m], theta [rad], unwrapped)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        for name in ("x", "y", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Posture.{name} must be finite")


def rk4_step(x: float, y: float, theta: float, v: float, omega: float, dt: float):
    """One classical RK4 step with the command held constant over dt.

    The heading rate equals the held omega at every stage, so the theta
    update is exact (theta + dt*omega) and stages 2 and 3 coincide for the
    position rows; the position combination below is bitwise the classical
    (k1 + 2*k2 + 2*k3 + k4)/6.
    """
    th_mid = theta + 0.5 * dt * omega
    th_end = theta + dt * omega
    k1x = v * math.cos(theta)
    k1y = v * math.sin(theta)
    k2x = v * math.cos(th_mid)
    k2y = v * math.sin(th_mid)
    k4x = v * math.cos(th_end)
    k4y = v * math.sin(th_end)
    return (
        x + dt * ((k1x + 4.0 * k2x + k4x) / 6.0),
        y + dt * ((k1y + 4.0 * k2y + k4y) / 6.0),
        th_end,
    )
