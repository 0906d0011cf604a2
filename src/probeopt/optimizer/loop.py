"""The optimizer processes: one core, two ways to wait for a result.

Both optimizers share ``OptimizerCore``: one request in flight, paired
with its result by request id, and the ``done`` flag. They differ only
in ``loop_step``. ``AsyncOptimizer`` probes its result port and sleeps
for ``probe_sleep`` while nothing has arrived; because its only wait is
a bounded sleep, it cannot deadlock however slow or bursty the
evaluator is. ``BlockingOptimizer`` waits in ``recv``, which is harmless
when the evaluator answers before the optimizer's receive step and a
deadlock when it does not.

Run/Pause/Stop are handled by the runtime between steps, as for every
process. Completion is published once, from ``finish``, which the runtime
calls on every way out of the run: a ``done`` flag readable from outside
through a reference port, pollable without touching any channel. The
runtime then closes the candidate port, and a peer evaluator stops once it
finds that port closed.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..errors import ConfigError, Disconnected
from ..runtime.process import Process, ProcessContext
from ..runtime.tokens import ParamVector, ResultTuple
from ..bo.search import Observation

RESULT_PORT = "result_in"
CANDIDATE_PORT = "candidates"


class OptimizerCore(Process):
    """Drives a suggest/update search over an evaluator, one request at a time.

    Request k (from 0) carries id k, and only a result with the pending
    id is folded in, paired with the point the optimizer kept. Every
    result is folded into the search before the next suggestion, so the
    model behind suggestion k always contains the first k - 1
    observations. ``probe_attempts`` and ``sleeps`` count a probing
    optimizer's waits, and ``failure`` names why it gave up; a blocking
    one leaves them at 0, 0 and None.
    """

    def __init__(self, name: str, search: Any, budget: int) -> None:
        super().__init__(name)
        self.search = search
        self.budget = budget
        self.add_in_port(RESULT_PORT)
        self.add_out_port(CANDIDATE_PORT)
        self.expose_ref("done", False)
        self.completed = 0
        self.probe_attempts = 0
        self.sleeps = 0
        self.failure: Optional[str] = None
        self._pending: Optional[ParamVector] = None
        self._waits_before = (0, 0)  # (probe_attempts, sleeps) at the last iteration

    @property
    def in_flight(self) -> int:
        return 0 if self._pending is None else 1

    def step(self, ctx: ProcessContext) -> bool:
        # loop_step stays a method of its own: perfbench/spans.py times it.
        return self.loop_step(ctx)

    def finish(self, ctx: ProcessContext) -> None:
        """Raise the done flag."""
        ctx.set_ref("done", True)

    def _send_next(self, ctx: ProcessContext) -> None:
        request = ParamVector(self.completed, tuple(map(float, self.search.suggest())))
        ctx.send(CANDIDATE_PORT, request)
        self._pending = request

    def _accept(self, ctx: ProcessContext, token: Any) -> bool:
        """Fold in an incoming result. False when it is dropped."""
        if not isinstance(token, ResultTuple):
            ctx.emit("result_dropped", reason=f"unexpected token {type(token).__name__}")
            return False
        pending = self._pending
        if pending is None or token.request != pending.request:
            ctx.emit(
                "result_dropped",
                reason="echo mismatch",
                expected=None if pending is None else pending.request,
                got=token.request,
            )
            return False
        obs = Observation(x=pending.values, y=token.score)
        self.search.update(obs)
        self.completed += 1
        self._pending = None
        probes, sleeps = self._waits_before
        ctx.emit(
            "iteration",
            iter=self.completed,
            request=pending.request,
            x=list(obs.x),
            y=obs.y,
            y_best=self.search.y_best,
            probe_attempts=self.probe_attempts - probes,
            sleeps=self.sleeps - sleeps,
        )
        self._waits_before = (self.probe_attempts, self.sleeps)
        return True


class AsyncOptimizer(OptimizerCore):
    """Waits for a result by probing its port and sleeping between probes."""

    def __init__(self, name: str, search: Any, budget: int, probe_sleep: float) -> None:
        super().__init__(name, search, budget)
        if not 0.0 <= probe_sleep < math.inf:
            raise ConfigError(f"probe sleep must be nonnegative and finite, got {probe_sleep:g} s")
        self.probe_sleep = probe_sleep

    def loop_step(self, ctx: ProcessContext) -> bool:
        """One probe, fold, suggest or sleep. True once the optimizer is done."""
        try:
            probe = ctx.probe(RESULT_PORT)
            self.probe_attempts += 1
            if probe.available and self._accept(ctx, ctx.recv(RESULT_PORT)):
                return False

            if self.completed >= self.budget:
                ctx.emit("optimizer_finished", completed=self.completed)
                return True

            if self._pending is None:
                self._send_next(ctx)
                return False

            if probe.empty and ctx.port_disconnected(RESULT_PORT):
                return self._fail(ctx, "result port disconnected with a request in flight")
        except Disconnected as exc:
            return self._fail(ctx, f"peer disconnected: {exc}")

        self.sleeps += 1
        ctx.sleep(self.probe_sleep)
        return False

    def _fail(self, ctx: ProcessContext, reason: str) -> bool:
        self.failure = reason
        ctx.emit("optimizer_failed", reason=reason)
        return True


class BlockingOptimizer(OptimizerCore):
    """Waits for a result in ``recv``: the lockstep counterpart of AsyncOptimizer."""

    def loop_step(self, ctx: ProcessContext) -> bool:
        """Send a request, or block until its result arrives. True once the budget is met."""
        if self._pending is None:
            self._send_next(ctx)
            return False
        self._accept(ctx, ctx.recv(RESULT_PORT))  # blocks until the evaluator answers
        return self.completed >= self.budget
