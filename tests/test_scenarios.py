"""Scenario harness configuration and edge behavior."""

from __future__ import annotations

import json

import pytest

from probeopt.errors import ConfigError
from probeopt.harness.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    _iteration_rows,
    default_problem,
    run_scenario,
)
from probeopt.runtime.trace import ListRecorder

SUMMARY_KEYS = {
    "scenario",
    "seed",
    "budget",
    "completed",
    "deadlock_detected",
    "deadlock_diagnostic",
    "best_x",
    "best_y",
    "probe_attempts",
    "sleeps",
    "evaluations_served",
    "wall_time",
    "ok",
}


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


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_summary_has_the_same_keys(scenario, tmp_path):
    result = run_scenario(ScenarioConfig(scenario, budget=2, out=tmp_path))
    assert set(result.summary) == SUMMARY_KEYS
    written = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert set(written) == SUMMARY_KEYS


@pytest.mark.parametrize("seed", range(5))
def test_every_wait_strategy_writes_the_same_rows(seed, tmp_path):
    # With a one-step evaluator every optimizer sees the same results in the
    # same order: the lockstep one, the probing one on the virtual clock and
    # the probing one on the wall clock differ only in how they wait.
    def written_rows(scenario):
        out = tmp_path / scenario
        result = run_scenario(ScenarioConfig(scenario, seed=seed, budget=6, latency=(1, 1), out=out))
        assert result.ok
        lines = (out / "iterations.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        return [{f: row[f] for f in ("iter", "x", "y", "y_best", "latency_steps")} for row in rows]

    lockstep = written_rows("sync-ok")
    assert len(lockstep) == 6
    assert written_rows("bo-qubo") == lockstep
    assert written_rows("async-probe") == lockstep


def test_rows_take_their_latency_by_request_id():
    """Service records in another order than the iterations: each row still
    gets the latency of the request it folded in."""
    recorder = ListRecorder()
    recorder.emit("evaluation", request=1, latency=5, x=[0.3, 0.4], y=2.0)
    recorder.emit("evaluation", request=0, latency=2, x=[0.1, 0.2], y=1.0)
    for k, (x, y) in enumerate([([0.1, 0.2], 1.0), ([0.3, 0.4], 2.0)]):
        recorder.emit(
            "iteration", iter=k + 1, request=k, x=x, y=y, y_best=y, probe_attempts=1, sleeps=0
        )
    rows = _iteration_rows(recorder)
    assert [(r["iter"], r["x"], r["latency_steps"]) for r in rows] == [
        (1, [0.1, 0.2], 2),
        (2, [0.3, 0.4], 5),
    ]
