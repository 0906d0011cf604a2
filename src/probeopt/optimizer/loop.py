"""Non-blocking optimizer loop.

The optimizer never blocks on its result port. Each step does, in order:
probe the result port and fold in a result if one arrived; finish if the
budget is met; send the next candidate if none is outstanding; otherwise
sleep for ``probe_sleep`` seconds. Because the only wait is a bounded
sleep, the loop cannot deadlock no matter how slow or bursty the
evaluator is. Run/Pause/Stop are handled by the runtime between steps, as
for every process, so a Stop is observed within one sleep plus one step.

Completion is published once, from ``finish``, which the runtime calls on
every way out of the run (budget met, Stop, failed peer, crash, step
limit): a ``done`` flag readable from outside through a reference port,
pollable without touching any channel. The runtime then closes the
candidate port, and a peer evaluator stops once it finds that port closed.
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


class AsyncOptimizer(Process):
    """Drives a suggest/update search over an asynchronous evaluator.

    One request is kept in flight at a time: every result is folded into
    the search before the next suggestion, so the model behind suggestion
    k always contains the first k - 1 observations.
    """

    def __init__(self, name: str, search: Any, budget: int, probe_sleep: float) -> None:
        super().__init__(name)
        if not 0.0 <= probe_sleep < math.inf:
            raise ConfigError(f"probe sleep must be nonnegative and finite, got {probe_sleep:g} s")
        self.search = search
        self.budget = budget
        self.probe_sleep = probe_sleep
        self.add_in_port(RESULT_PORT)
        self.add_out_port(CANDIDATE_PORT)
        self.expose_ref("done", False)
        self.completed = 0
        self.in_flight = 0
        self.probe_attempts = 0
        self.sleeps = 0
        self.failure: Optional[str] = None
        self._pending: Optional[tuple[float, ...]] = None
        self._probes_delta = 0
        self._sleeps_delta = 0

    # -- Process interface ---------------------------------------------------

    def step(self, ctx: ProcessContext) -> bool:
        # loop_step stays a method of its own: perfbench/spans.py times it.
        return self.loop_step(ctx)

    def finish(self, ctx: ProcessContext) -> None:
        """Raise the done flag."""
        ctx.set_ref("done", True)

    # -- the loop --------------------------------------------------------------

    def loop_step(self, ctx: ProcessContext) -> bool:
        """One probe, fold, suggest or sleep. True once the optimizer is done."""
        try:
            probe = ctx.probe(RESULT_PORT)
            self.probe_attempts += 1
            self._probes_delta += 1
            if probe.available and self._accept(ctx, ctx.recv(RESULT_PORT)):
                return False

            if self.completed >= self.budget:
                ctx.emit("optimizer_finished", completed=self.completed)
                return True

            if self.in_flight == 0:
                x = self.search.suggest()
                params = ParamVector(tuple(float(v) for v in x))
                ctx.send(CANDIDATE_PORT, params)
                self._pending = params.values
                self.in_flight = 1
                return False

            if probe.empty and ctx.port_disconnected(RESULT_PORT):
                return self._fail(ctx, "result port disconnected with a request in flight")
        except Disconnected as exc:
            return self._fail(ctx, f"peer disconnected: {exc}")

        self.sleeps += 1
        self._sleeps_delta += 1
        ctx.sleep(self.probe_sleep)
        return False

    # -- helpers ----------------------------------------------------------------

    def _accept(self, ctx: ProcessContext, token: Any) -> bool:
        """Fold in an incoming result. False when it is dropped."""
        if not isinstance(token, ResultTuple):
            ctx.emit("result_dropped", reason=f"unexpected token {type(token).__name__}")
            return False
        if token.params != self._pending:
            ctx.emit(
                "result_dropped",
                reason="echo mismatch",
                expected=list(self._pending or ()),
                got=list(token.params),
            )
            return False
        obs = Observation(x=token.params, y=token.score)
        self.search.update(obs)
        self.completed += 1
        self.in_flight = 0
        self._pending = None
        ctx.emit(
            "iteration",
            iter=self.completed,
            x=list(obs.x),
            y=obs.y,
            y_best=self.search.y_best,
            probe_attempts=self._probes_delta,
            sleeps=self._sleeps_delta,
        )
        self._probes_delta = 0
        self._sleeps_delta = 0
        return True

    def _fail(self, ctx: ProcessContext, reason: str) -> bool:
        self.failure = reason
        ctx.emit("optimizer_failed", reason=reason)
        return True
