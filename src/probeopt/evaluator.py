"""Scheduling evaluator: serves parameter requests with a stochastic delay.

The evaluator is deliberately bursty. Each accepted request costs a
uniformly drawn number of service steps during which the process stays
busy and does not touch its ports; only on the final step does it run the
annealing pipeline and send the score back, echoing the request's id so
the caller can pair them up. The id also picks the solve's random stream
(``solver_rng``). It stops once its request port is empty and
closed: the runtime closes that port when the optimizer finishes.

Scoring is out-of-band reproducible: ``evaluate_params`` with the same
problem, parameters and generator state returns exactly what the process
would send, so tests can predict every reply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ProbeoptError, ConfigError
from .qubo.anneal import AnnealParams, solve
from .qubo.conflict import ConflictGraph, build_conflict_graph
from .qubo.model import to_qubo
from .qubo.problem import QuboWeights, SatelliteProblem, generate_geometry
from .qubo.schedule import decode
from .bo.search import SearchSpace
from .runtime.process import Process, ProcessContext
from .runtime.tokens import ParamVector, ResultTuple

REQUEST_PORT = "request_in"
RESULT_PORT = "result_out"

# Tuned parameters carried in each request: (w_penalty, t_start).
PARAM_DIM = 2
W_PENALTY_BOUNDS = (0.5, 8.0)
T_START_BOUNDS = (0.5, 5.0)

# Seed-stream tags, so latency draws and per-request solver draws can
# never collide even though they derive from the same experiment seed.
_LATENCY_STREAM = 1
_SOLVER_STREAM = 2


def search_space() -> SearchSpace:
    return SearchSpace(
        lower=(W_PENALTY_BOUNDS[0], T_START_BOUNDS[0]),
        upper=(W_PENALTY_BOUNDS[1], T_START_BOUNDS[1]),
    )


def latency_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _LATENCY_STREAM]))


def solver_rng(seed: int, request: int) -> np.random.Generator:
    """The solve stream of request id ``request``, derived from the run seed.

    Keyed by the id, not by arrival, so a request scores the same whichever
    evaluator serves it and whenever.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, _SOLVER_STREAM, request]))


@dataclass(frozen=True)
class LatencyModel:
    min_steps: int
    max_steps: int

    def __post_init__(self) -> None:
        if not 1 <= self.min_steps <= self.max_steps:
            raise ConfigError("latency needs 1 <= min_steps <= max_steps")


@dataclass(frozen=True)
class EvalConfig:
    problem: SatelliteProblem
    latency: LatencyModel
    solver: AnnealParams
    seed: int


@lru_cache(maxsize=1)
def conflict_graph(problem: SatelliteProblem) -> ConflictGraph:
    """The instance's conflict graph, built once per problem.

    Geometry and conflicts do not depend on the QUBO weights, which are
    the only part of the problem a request changes. A run tunes one
    problem, so one cached graph serves all its requests. Both builders are
    looked up in this module at call time, so patching them here sees
    every cache miss.
    """
    return build_conflict_graph(generate_geometry(problem), problem)


def evaluate_params(
    problem: SatelliteProblem,
    x: tuple[float, ...],
    solver: AnnealParams,
    rng: np.random.Generator,
) -> int:
    """Score one (w_penalty, t_start) point: anneal, repair, count requests."""
    weights = QuboWeights(problem.qubo_weights.w_reward, float(x[0]))
    params = AnnealParams(solver.sweeps, float(x[1]), solver.t_end)
    graph = conflict_graph(problem)
    if graph.n == 0:
        return 0
    qubo = to_qubo(graph, weights)
    return decode(solve(qubo, params, rng), graph).score


class SchedulingEvaluator(Process):
    """Request/serve loop around ``evaluate_params``."""

    def __init__(self, name: str, config: EvalConfig, step_duration: float = 0.0) -> None:
        super().__init__(name)
        self.config = config
        self.step_interval = step_duration
        self.add_in_port(REQUEST_PORT)
        self.add_out_port(RESULT_PORT)
        self.served = 0
        self._latency_rng = latency_rng(config.seed)
        self._current: Optional[ParamVector] = None
        self._latency: int = 0
        self._remaining: int = 0

    def step(self, ctx: ProcessContext) -> bool:
        if self._current is None:
            probe = ctx.probe(REQUEST_PORT)
            if probe.empty:
                # Idle. Exit for good once no producer can ever feed us.
                return ctx.port_disconnected(REQUEST_PORT)
            if not self._admit(ctx, ctx.recv(REQUEST_PORT)):
                return False
            self._latency = int(
                self._latency_rng.integers(
                    self.config.latency.min_steps, self.config.latency.max_steps + 1
                )
            )
            # The receipt step is the first service step.
            self._remaining = self._latency - 1
        else:
            self._remaining -= 1
        if self._remaining > 0:
            return False
        self._respond(ctx)
        return False

    def _admit(self, ctx: ProcessContext, token: object) -> bool:
        if not isinstance(token, ParamVector):
            ctx.emit("request_dropped", reason=f"unexpected token {type(token).__name__}")
            return False
        if len(token.values) != PARAM_DIM:
            # Malformed request: answer immediately with a failure score so
            # the sender's loop keeps moving.
            ctx.send(RESULT_PORT, ResultTuple(token.request, -1.0))
            ctx.emit("request_malformed", got=len(token.values), expected=PARAM_DIM)
            return False
        self._current = token
        return True

    def _respond(self, ctx: ProcessContext) -> None:
        assert self._current is not None
        request, x = self._current.request, self._current.values
        rng = solver_rng(self.config.seed, request)
        try:
            score = float(evaluate_params(self.config.problem, x, self.config.solver, rng))
        except (ProbeoptError, ValueError) as exc:
            ctx.emit("evaluation_error", error=str(exc))
            score = -1.0
        ctx.send(RESULT_PORT, ResultTuple(request, score))
        ctx.emit(
            "evaluation",
            request=request,
            latency=self._latency,
            x=list(x),
            y=score,
        )
        self.served += 1
        self._current = None
