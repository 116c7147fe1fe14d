"""Integrator checks against closed-form motion oracles."""

import math

import numpy as np
import pytest

from fdia_lab.kinematics import Posture, rk4_step

DT = 0.01


def test_posture_rejects_non_finite():
    with pytest.raises(ValueError):
        Posture(0.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        Posture(float("inf"), 0.0, 0.0)


def test_straight_line_is_exact():
    """With omega = 0 the integrator reduces to exact forward motion."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta0 = float(rng.uniform(-math.pi, math.pi))
        v = float(rng.uniform(-1.0, 1.0))
        n = int(rng.integers(1, 400))
        x = y = 0.0
        th = theta0
        for _ in range(n):
            x, y, th = rk4_step(x, y, th, v, 0.0, DT)
        assert abs(x - n * DT * v * math.cos(theta0)) <= 1e-12
        assert abs(y - n * DT * v * math.sin(theta0)) <= 1e-12
        assert th == theta0


def test_constant_turn_matches_circular_arc():
    """Constant (v, omega != 0) follows the closed-form arc within 1e-9 per second."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        theta0 = float(rng.uniform(-math.pi, math.pi))
        v = float(rng.uniform(-1.0, 1.0))
        omega = float(rng.uniform(0.1, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        n = int(rng.integers(50, 500))
        x, y, th = 0.2, -0.1, theta0
        for _ in range(n):
            x, y, th = rk4_step(x, y, th, v, omega, DT)
        t = n * DT
        x_true = 0.2 + (v / omega) * (math.sin(theta0 + omega * t) - math.sin(theta0))
        y_true = -0.1 - (v / omega) * (math.cos(theta0 + omega * t) - math.cos(theta0))
        tol = 1e-9 * t
        assert abs(x - x_true) <= tol, f"x off by {abs(x - x_true):.2e} after {t} s"
        assert abs(y - y_true) <= tol, f"y off by {abs(y - y_true):.2e} after {t} s"
        assert abs(th - (theta0 + omega * t)) <= 1e-12


def test_theta_update_is_linear():
    """The heading row integrates exactly: one step adds dt*omega bitwise."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        x, y, th = (float(c) for c in rng.uniform(-2, 2, 3))
        v, omega = (float(c) for c in rng.uniform(-2, 2, 2))
        assert rk4_step(x, y, th, v, omega, DT)[2] == th + DT * omega


def test_step_is_deterministic():
    first = rk4_step(0.3, -0.7, 1.1, 0.4, -0.9, DT)
    for _ in range(5):
        assert rk4_step(0.3, -0.7, 1.1, 0.4, -0.9, DT) == first
