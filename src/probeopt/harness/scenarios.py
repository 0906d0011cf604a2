"""Canned optimizer/evaluator experiments.

Four scenarios over the same two-process graph:

* ``sync-ok``: lockstep barrier execution with a blocking optimizer and a
  single-step evaluator. Completes: each round's request is answered
  before the optimizer next blocks.
* ``sync-deadlock``: same graph, evaluator latency of two or more steps.
  The optimizer blocks on a result that cannot arrive, the barrier round
  never completes, and the watchdog reports the deadlock.
* ``async-probe``: free-running threads, the optimizer probes and sleeps
  instead of blocking. Completes regardless of latency.
* ``bo-qubo``: the full asynchronous loop over the satellite-scheduling
  QUBO, paced on a virtual clock so reruns are byte-identical, with
  per-iteration JSONL metrics and a summary report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..bo.search import BayesSearch, Observation
from ..errors import ConfigError
from ..evaluator import (
    EvalConfig,
    LatencyModel,
    SchedulingEvaluator,
    search_space,
)
from ..optimizer.loop import AsyncOptimizer, CANDIDATE_PORT, RESULT_PORT
from ..qubo.anneal import AnnealParams
from ..qubo.problem import SatelliteProblem
from ..runtime.graph import Mode, ProcessGraph, RunLimits, RunReport
from ..runtime.process import Process, ProcessContext
from ..runtime.timesource import VirtualClock
from ..runtime.tokens import ParamVector, ResultTuple
from ..runtime.trace import ListRecorder

SCENARIOS = ("sync-ok", "sync-deadlock", "async-probe", "bo-qubo")

_DEFAULT_BUDGET = {
    "sync-ok": 3,
    "sync-deadlock": 3,
    "async-probe": 10,
    "bo-qubo": 25,
}

# Longest an asynchronous run may take before ``handle.wait`` raises
# TimeoutError; the watchdog ends a stalled run long before this.
RUN_TIMEOUT_S = 150.0

# Evaluator service time in steps, (min, max) inclusive.
_DEFAULT_LATENCY = {
    "sync-ok": (1, 1),
    "sync-deadlock": (2, 5),
    "async-probe": (2, 5),
    "bo-qubo": (2, 5),
}


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
    scenario: str
    seed: int = 7
    budget: Optional[int] = None
    watchdog_s: float = 2.0
    sleep_ms: float = 10.0
    step_ms: float = 5.0
    sweeps: int = 200
    max_steps: int = 500_000
    out: Optional[Path] = None
    problem: SatelliteProblem = field(default_factory=default_problem)
    latency: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick one of {SCENARIOS}")

    @property
    def effective_budget(self) -> int:
        return self.budget if self.budget is not None else _DEFAULT_BUDGET[self.scenario]

    @property
    def effective_latency(self) -> tuple[int, int]:
        return self.latency if self.latency is not None else _DEFAULT_LATENCY[self.scenario]


@dataclass
class ScenarioResult:
    scenario: str
    ok: bool
    report: RunReport
    summary: dict[str, Any]
    rows: list[dict[str, Any]] = field(default_factory=list)
    written: list[Path] = field(default_factory=list)


class BlockingOptimizer(Process):
    """Lockstep counterpart of AsyncOptimizer: recv instead of probe.

    Alternates send and receive steps. The receive blocks, which is
    harmless when the evaluator answers within the same barrier round and
    fatal when it does not. It has no ``done`` flag: the harness reads its
    ``completed`` count, and the evaluator stops once this process has
    finished and its candidate port has closed.
    """

    def __init__(self, name: str, search: Any, budget: int) -> None:
        super().__init__(name)
        self.search = search
        self.budget = budget
        self.add_in_port(RESULT_PORT)
        self.add_out_port(CANDIDATE_PORT)
        self.completed = 0
        self._pending: Optional[tuple[float, ...]] = None

    def step(self, ctx: ProcessContext) -> bool:
        if self._pending is None:
            x = self.search.suggest()
            params = ParamVector(tuple(float(v) for v in x))
            ctx.send(CANDIDATE_PORT, params)
            self._pending = params.values
            return False
        token = ctx.recv(RESULT_PORT)  # blocks until the evaluator answers
        if isinstance(token, ResultTuple) and token.params == self._pending:
            self.search.update(Observation(x=token.params, y=token.score))
            self.completed += 1
            ctx.emit("iteration", iter=self.completed, x=list(token.params), y=token.score)
        else:
            ctx.emit("result_dropped", reason="echo mismatch or bad token")
        self._pending = None
        return self.completed >= self.budget


# -- graph assembly -----------------------------------------------------------


def _build_graph(
    cfg: ScenarioConfig,
    optimizer: Process,
    step_duration: float,
) -> tuple[ProcessGraph, SchedulingEvaluator]:
    lat = cfg.effective_latency
    eval_config = EvalConfig(
        problem=cfg.problem,
        latency=LatencyModel(min_steps=lat[0], max_steps=lat[1]),
        solver=AnnealParams(sweeps=cfg.sweeps),
        seed=cfg.seed,
    )
    evaluator = SchedulingEvaluator("evaluator", eval_config, step_duration=step_duration)
    graph = ProcessGraph()
    graph.add_process(optimizer)
    graph.add_process(evaluator)
    graph.connect(optimizer.out_port(CANDIDATE_PORT), evaluator.in_port("request_in"), capacity=8)
    graph.connect(evaluator.out_port("result_out"), optimizer.in_port(RESULT_PORT), capacity=8)
    return graph, evaluator


# -- scenario runners -----------------------------------------------------------


def _run_sync(cfg: ScenarioConfig, expect_deadlock: bool) -> ScenarioResult:
    search = BayesSearch(search_space(), seed=cfg.seed)
    optimizer = BlockingOptimizer("optimizer", search, cfg.effective_budget)
    graph, _ = _build_graph(cfg, optimizer, step_duration=0.0)
    recorder = ListRecorder()
    report = graph.run(
        Mode.SYNC_BARRIER,
        RunLimits(max_steps=cfg.max_steps, watchdog_timeout=cfg.watchdog_s),
        recorder=recorder,
    )
    completed = optimizer.completed
    if expect_deadlock:
        ok = report.deadlock_detected and completed < cfg.effective_budget
    else:
        ok = not report.deadlock_detected and completed == cfg.effective_budget
    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "budget": cfg.effective_budget,
        "completed": completed,
        "deadlock_detected": report.deadlock_detected,
        "deadlock_diagnostic": report.deadlock_diagnostic,
        "wall_time": report.wall_time,
        "ok": ok,
    }
    return ScenarioResult(cfg.scenario, ok, report, summary)


def _run_async(cfg: ScenarioConfig, paced: bool) -> ScenarioResult:
    search = BayesSearch(search_space(), seed=cfg.seed)
    optimizer = AsyncOptimizer(
        "optimizer", search, cfg.effective_budget, probe_sleep=cfg.sleep_ms / 1000.0
    )
    graph, evaluator = _build_graph(cfg, optimizer, step_duration=cfg.step_ms / 1000.0)
    recorder = ListRecorder()
    clock = VirtualClock() if paced else None
    handle = graph.start(
        Mode.ASYNC,
        RunLimits(max_steps=cfg.max_steps, watchdog_timeout=cfg.watchdog_s),
        time_source=clock,
        recorder=recorder,
    )
    report = handle.wait(RUN_TIMEOUT_S)
    completed = optimizer.completed
    ok = (
        graph.ref_port("optimizer", "done").read()
        and not report.deadlock_detected
        and completed == cfg.effective_budget
        and optimizer.failure is None
        and not report.errors
    )
    rows = _iteration_rows(recorder)
    best_row = max(rows, key=lambda r: r["y"]) if rows else None
    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "budget": cfg.effective_budget,
        "completed": completed,
        "deadlock_detected": report.deadlock_detected,
        "best_x": best_row["x"] if best_row else None,
        "best_y": best_row["y"] if best_row else None,
        "probe_attempts": optimizer.probe_attempts,
        "sleeps": optimizer.sleeps,
        "evaluations_served": evaluator.served,
        "wall_time": report.wall_time,
        "ok": ok,
    }
    return ScenarioResult(cfg.scenario, ok, report, summary, rows=rows)


def _iteration_rows(recorder: ListRecorder) -> list[dict[str, Any]]:
    """Join optimizer iterations with evaluator service records, in order."""
    iters = recorder.events("iteration")
    evals = recorder.events("evaluation")
    rows = []
    for k, it in enumerate(iters):
        if k < len(evals) and evals[k]["x"] == it["x"]:
            latency = evals[k]["latency"]
        else:  # pragma: no cover - defensive; echo checking keeps these aligned
            latency = None
        rows.append(
            {
                "iter": it["iter"],
                "x": it["x"],
                "y": it["y"],
                "y_best": it["y_best"],
                "probe_attempts": it["probe_attempts"],
                "sleeps": it["sleeps"],
                "latency_steps": latency,
            }
        )
    return rows


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    if cfg.scenario == "sync-ok":
        result = _run_sync(cfg, expect_deadlock=False)
    elif cfg.scenario == "sync-deadlock":
        result = _run_sync(cfg, expect_deadlock=True)
    elif cfg.scenario == "async-probe":
        result = _run_async(cfg, paced=False)
    else:
        result = _run_async(cfg, paced=True)
    if cfg.out is not None:
        _write_outputs(cfg, result)
    return result


def _write_outputs(cfg: ScenarioConfig, result: ScenarioResult) -> None:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if result.rows:
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
