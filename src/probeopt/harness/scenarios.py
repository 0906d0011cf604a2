"""Canned optimizer/evaluator experiments, all run by ``run_scenario``.

Four scenarios over the same two-process graph, an evaluator and one of
the two optimizers of ``probeopt.optimizer``:

* ``sync-ok``: lockstep execution (a virtual clock on which every turn
  rests one tick) with the ``BlockingOptimizer`` and a single-step
  evaluator. Completes: each round's request is answered before the
  optimizer next blocks.
* ``sync-deadlock``: same graph, evaluator latency of two or more steps.
  The optimizer blocks on a result that cannot arrive, and the run
  reports the deadlock at that recv, at once.
* ``async-probe``: wall-clock time, on which the driver sleeps until
  each process is due; the ``AsyncOptimizer`` probes and sleeps instead
  of blocking. Completes regardless of latency.
* ``bo-qubo``: the same probing loop paced on a virtual clock, so reruns
  are byte-identical.

A scenario decides only three things: the optimizer, the time source and
the expected outcome (a deadlock short of the budget for
``sync-deadlock``, a clean finish at the budget for the rest). Everything
else is one path: the evaluator, the wiring, the run's limits and
timeout, the per-iteration rows, a summary with the same keys for every
scenario, and the files under ``--out``.

Every run setting has its one default in ``ScenarioConfig``; the budget
and the evaluator latency, which differ by scenario, come from
``SCENARIO_DEFAULTS``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..bo.search import BayesSearch
from ..errors import ConfigError
from ..evaluator import (
    REQUEST_PORT,
    EvalConfig,
    LatencyModel,
    SchedulingEvaluator,
    search_space,
)
from ..evaluator import RESULT_PORT as EVALUATOR_RESULT_PORT
from ..optimizer.loop import (
    CANDIDATE_PORT,
    RESULT_PORT,
    AsyncOptimizer,
    BlockingOptimizer,
    OptimizerCore,
)
from ..qubo.anneal import AnnealParams
from ..qubo.problem import SatelliteProblem
from ..runtime.graph import ProcessGraph, RunLimits, RunReport
from ..runtime.timesource import VirtualClock
from ..runtime.trace import ListRecorder

# Each scenario's default budget (evaluations to complete) and evaluator
# service time in steps, (min, max) inclusive.
SCENARIO_DEFAULTS = {
    "sync-ok": {"budget": 3, "latency": (1, 1)},
    "sync-deadlock": {"budget": 3, "latency": (2, 5)},
    "async-probe": {"budget": 10, "latency": (2, 5)},
    "bo-qubo": {"budget": 25, "latency": (2, 5)},
}
SCENARIOS = tuple(SCENARIO_DEFAULTS)

# Longest a run may take before ``handle.wait`` raises TimeoutError. A
# would-block channel op is reported as the deadlock at once, so this
# bounds only a step that never returns.
RUN_TIMEOUT_S = 150.0


def default_problem() -> SatelliteProblem:
    return SatelliteProblem(
        n_satellites=3,
        n_requests=12,
        view_height=0.4,
        turn_speed=1.0,
        seed=7,
    )


@dataclass
class ScenarioConfig:
    """One run's settings. ``budget`` and ``latency`` left as None take the
    scenario's entry in ``SCENARIO_DEFAULTS``."""

    scenario: str
    seed: int = 7
    budget: Optional[int] = None
    sleep_ms: float = 10.0
    step_ms: float = 5.0
    sweeps: int = 200
    max_steps: int = RunLimits.max_steps
    out: Optional[Path] = None
    problem: SatelliteProblem = field(default_factory=default_problem)
    latency: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick one of {SCENARIOS}")
        for name, value in SCENARIO_DEFAULTS[self.scenario].items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        if self.budget < 1:
            raise ConfigError(f"--budget must be at least 1, got {self.budget}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {self.seed}")
        if self.sweeps < 1:
            raise ConfigError(f"--sweeps must be at least 1, got {self.sweeps}")
        # The virtual clock advances a process only by the time it sleeps:
        # a paced process that sleeps 0 keeps the floor and starves its peer.
        paced = self.scenario == "bo-qubo"
        for flag, value, what in (
            ("--step-ms", self.step_ms, "evaluator step"),
            ("--sleep-ms", self.sleep_ms, "probe sleep"),
        ):
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{flag}: {what} must be nonnegative and finite, got {value:g} ms")
            if paced and value == 0.0:
                raise ConfigError(f"{flag}: {what} must be positive on the paced bo-qubo run, got 0 ms")


@dataclass
class ScenarioResult:
    ok: bool
    report: RunReport
    summary: dict[str, Any]
    rows: list[dict[str, Any]]
    written: list[Path] = field(default_factory=list)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Build, run, judge and report one scenario; write its files under ``cfg.out``."""
    search = BayesSearch(search_space(), seed=cfg.seed)
    if cfg.scenario.startswith("sync-"):
        optimizer: OptimizerCore = BlockingOptimizer("optimizer", search, cfg.budget)
        # Lockstep: both rest one tick per turn, so each tick of the clock
        # steps both, in name order.
        optimizer.step_interval = 1.0
        step_duration = 1.0
    else:
        probe_sleep = cfg.sleep_ms / 1000.0
        optimizer = AsyncOptimizer("optimizer", search, cfg.budget, probe_sleep=probe_sleep)
        step_duration = cfg.step_ms / 1000.0
    eval_config = EvalConfig(
        problem=cfg.problem,
        latency=LatencyModel(*cfg.latency),
        solver=AnnealParams(sweeps=cfg.sweeps),
        seed=cfg.seed,
    )
    evaluator = SchedulingEvaluator("evaluator", eval_config, step_duration=step_duration)
    graph = ProcessGraph()
    graph.add_process(optimizer)
    graph.add_process(evaluator)
    graph.connect(optimizer.out_port(CANDIDATE_PORT), evaluator.in_port(REQUEST_PORT), capacity=8)
    graph.connect(evaluator.out_port(EVALUATOR_RESULT_PORT), optimizer.in_port(RESULT_PORT), capacity=8)

    clock = None if cfg.scenario == "async-probe" else VirtualClock()
    recorder = ListRecorder()
    run = graph.start(RunLimits(max_steps=cfg.max_steps), time_source=clock, recorder=recorder)
    report = run.wait(RUN_TIMEOUT_S)

    completed = optimizer.completed
    if cfg.scenario == "sync-deadlock":
        ok = report.deadlock_detected and completed < cfg.budget
    else:
        ok = (
            not report.deadlock_detected
            and completed == cfg.budget
            and optimizer.failure is None
            and not report.errors
        )
    rows = _iteration_rows(recorder)
    best_row = max(rows, key=lambda r: r["y"], default=None)
    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "budget": cfg.budget,
        "completed": completed,
        "deadlock_detected": report.deadlock_detected,
        "deadlock_diagnostic": report.deadlock_diagnostic,
        "best_x": best_row["x"] if best_row else None,
        "best_y": best_row["y"] if best_row else None,
        "probe_attempts": optimizer.probe_attempts,
        "sleeps": optimizer.sleeps,
        "evaluations_served": evaluator.served,
        "wall_time": report.wall_time,
        "ok": ok,
    }
    result = ScenarioResult(ok, report, summary, rows)
    if cfg.out is not None:
        _write_outputs(cfg, result)
    return result


def _iteration_rows(recorder: ListRecorder) -> list[dict[str, Any]]:
    """One row per optimizer iteration, in completion order, with the
    service latency of the request it folded in, joined by request id."""
    latency = {e["request"]: e["latency"] for e in recorder.events("evaluation")}
    return [
        {
            "iter": it["iter"],
            "x": it["x"],
            "y": it["y"],
            "y_best": it["y_best"],
            "probe_attempts": it["probe_attempts"],
            "sleeps": it["sleeps"],
            "latency_steps": latency.get(it["request"]),
        }
        for it in recorder.events("iteration")
    ]


def _write_outputs(cfg: ScenarioConfig, result: ScenarioResult) -> None:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    # Written on every run, empty when no iteration completed, so an earlier
    # run's rows never sit beside this run's summary.
    rows_path = out / "iterations.jsonl"
    with rows_path.open("w", encoding="utf-8") as fh:
        for row in result.rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    result.written.append(rows_path)
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(result.summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    result.written.append(summary_path)
