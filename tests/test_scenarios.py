"""Scenario harness configuration and edge behavior."""

from __future__ import annotations

import pytest

from probeopt.errors import ConfigError
from probeopt.harness.scenarios import ScenarioConfig, default_problem, run_scenario


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig("warp-drive")


def test_per_scenario_defaults_and_overrides():
    cfg = ScenarioConfig("async-probe")
    assert cfg.budget == 10
    assert cfg.latency == (2, 5)
    cfg = ScenarioConfig("sync-ok")
    assert cfg.latency == (1, 1)
    cfg = ScenarioConfig("bo-qubo", budget=4, latency=(1, 1))
    assert cfg.budget == 4
    assert cfg.latency == (1, 1)
    assert cfg.problem == default_problem()


def test_step_limit_exhaustion_is_failure_not_deadlock():
    # The budget cannot complete within the step allowance; the run must
    # end as a plain shortfall, not be painted as a deadlock.
    result = run_scenario(
        ScenarioConfig("async-probe", seed=1, budget=10, max_steps=30)
    )
    assert not result.ok
    assert not result.report.deadlock_detected
    assert result.summary["completed"] < 10
    assert result.summary["ok"] is False


@pytest.mark.parametrize("seed", range(5))
def test_lockstep_scenarios_keep_their_outcome(seed):
    # Step counts and the diagnostic are part of a lockstep run's behaviour,
    # and the same for every seed: sync-ok's latency is one step, and
    # sync-deadlock's optimizer blocks on its first recv at any latency >= 2.
    ok = run_scenario(ScenarioConfig("sync-ok", seed=seed))
    assert ok.ok and ok.summary["completed"] == 3
    assert not ok.report.deadlock_detected
    assert ok.report.steps_executed == {"optimizer": 6, "evaluator": 7}
    stuck = run_scenario(ScenarioConfig("sync-deadlock", seed=seed))
    assert stuck.ok and stuck.summary["completed"] == 0
    assert stuck.report.deadlock_detected
    assert stuck.report.steps_executed == {"optimizer": 1, "evaluator": 2}
    assert stuck.report.deadlock_diagnostic == "optimizer blocked in recv on optimizer.result_in"
