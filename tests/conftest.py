"""Shared fixtures: the built-in scenario runs are reused across test modules."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from fdia_lab.fdia import AffineAttack
from fdia_lab.scenarios import Scenario, load_scenario
from fdia_lab.simloop import SimTrace, run


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
