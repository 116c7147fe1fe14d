"""Shared fixtures, strategies and oracles: the built-in scenario runs, JSON-ish
documents, and the exhaustive residual of a scalar-family attack."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from fdia_lab.fdia import AffineAttack
from fdia_lab.scenarios import Scenario, load_scenario
from fdia_lab.simloop import SimTrace, run
from fdia_lab.vulncheck import _FUNCTIONS, ScalarFamily

# JSON-ish values for the untrusted-input properties (scenario and attack
# documents, wire frames): every JSON scalar, integers far outside float64,
# and lists and string-keyed objects nested up to twelve leaves.
JSON_SCALARS = (st.none() | st.booleans() | st.floats()
                | st.integers(min_value=-(10**400), max_value=10**400) | st.text(max_size=8))
JSONISH = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=12,
)


def attack_residual(fam: ScalarFamily, alpha: float, beta: float, grid) -> float:
    """max |alpha*g(beta*x) - g(x)| over the grid; alpha, beta and the grid must be finite."""
    x = np.asarray(grid, dtype=float)
    if x.size == 0:
        raise ValueError("empty evaluation grid")
    if not (math.isfinite(alpha) and math.isfinite(beta) and np.isfinite(x).all()):
        raise ValueError(f"alpha {alpha!r}, beta {beta!r} and the grid must be finite")
    g = _FUNCTIONS[fam.tag]
    return float(np.max(np.abs(alpha * g(beta * x) - g(x))))


@dataclass(frozen=True)
class RunBundle:
    """One built-in scenario with its attack and both full 30 s traces."""

    scenario: Scenario
    attack: AffineAttack | None
    attacked: SimTrace | None
    nominal: SimTrace


def _bundle(name: str) -> RunBundle:
    sc = load_scenario(name)
    attack = sc.attack
    nominal = run(sc.sim, signature=sc.signature)
    attacked = run(sc.sim, attack=attack, signature=sc.signature) if attack is not None else None
    return RunBundle(sc, attack, attacked, nominal)


@pytest.fixture(scope="session")
def scenario_runs():
    """Map of scenario name to RunBundle for every built-in scenario."""
    return {name: _bundle(name) for name in ("nominal", "scenario1", "scenario2", "scenario3")}
