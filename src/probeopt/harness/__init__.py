"""Experiment harness: scenario configs, runners, and report files."""

from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    ScenarioResult,
    default_problem,
    run_scenario,
)

__all__ = [
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioResult",
    "default_problem",
    "run_scenario",
]
