"""Optimizer loops: iteration order, echo checking, run control, done handshake."""

from __future__ import annotations

import threading
import time

import pytest

from probeopt.errors import ConfigError
from probeopt.optimizer.loop import (
    CANDIDATE_PORT,
    RESULT_PORT,
    AsyncOptimizer,
    BlockingOptimizer,
)
from probeopt.runtime.graph import ProcessGraph, RunLimits
from probeopt.runtime.process import Process, RefPortHandle, RefVar
from probeopt.runtime.timesource import VirtualClock
from probeopt.runtime.tokens import CommandKind, ParamVector, ResultTuple
from support import Scalar, await_done, wire_standalone


class _ScriptedSearch:
    """Deterministic stand-in for the model-based search."""

    def __init__(self, points):
        self.points = list(points)
        self.updates = []
        self._i = 0

    def suggest(self):
        x = self.points[self._i % len(self.points)]
        self._i += 1
        return x

    def update(self, obs):
        self.updates.append(obs)

    @property
    def y_best(self):
        return max((o.y for o in self.updates), default=None)


_POINTS = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6), (0.7, 0.8)]


def _make_optimizer(budget=3, sleep=0.0005):
    search = _ScriptedSearch(_POINTS)
    opt = AsyncOptimizer("opt", search, budget, probe_sleep=sleep)
    ctx, channels, recorder = wire_standalone(opt)
    return opt, search, ctx, channels, recorder


def test_first_iteration_suggests():
    opt, search, ctx, ch, _ = _make_optimizer()
    assert opt.loop_step(ctx) is False
    assert ch[CANDIDATE_PORT].probe().count == 1
    token = ch[CANDIDATE_PORT].recv()
    assert token == ParamVector(0, (0.1, 0.2))
    assert opt.in_flight == 1
    assert opt.sleeps == 0  # a suggesting step does not sleep


def test_sleeps_while_request_outstanding():
    opt, _, ctx, _, _ = _make_optimizer()
    opt.loop_step(ctx)  # suggest
    assert opt.loop_step(ctx) is False
    assert opt.loop_step(ctx) is False
    assert opt.sleeps == 2
    assert opt.probe_attempts >= 2  # probed before every sleep


def test_forwards_result_and_updates_search():
    opt, search, ctx, ch, _ = _make_optimizer()
    opt.loop_step(ctx)
    ch[RESULT_PORT].send(ResultTuple(0, 7.0))
    assert opt.loop_step(ctx) is False
    assert len(search.updates) == 1
    assert search.updates[0].x == (0.1, 0.2) and search.updates[0].y == 7.0
    assert opt.in_flight == 0 and opt.completed == 1
    assert opt.sleeps == 0  # a step that folds in a result does not sleep


def test_at_most_one_recv_per_iteration():
    opt, search, ctx, ch, _ = _make_optimizer(budget=5)
    opt.loop_step(ctx)
    # Queue several results; only the head may be consumed per iteration.
    ch[RESULT_PORT].send(ResultTuple(0, 1.0))
    ch[RESULT_PORT].send(ResultTuple(1, 2.0))
    opt.loop_step(ctx)
    assert len(search.updates) == 1
    assert ch[RESULT_PORT].probe().count == 1  # second result still queued


def test_finishes_after_budget_and_publishes_done():
    opt, search, ctx, ch, _ = _make_optimizer(budget=2)
    done = RefPortHandle(opt.refs["done"])
    for k in range(2):
        assert opt.loop_step(ctx) is False  # suggests
        sent = ch[CANDIDATE_PORT].recv()
        assert sent.request == k  # ids count completed requests from 0
        ch[RESULT_PORT].send(ResultTuple(sent.request, float(k)))
        assert opt.loop_step(ctx) is False  # folds the result in
        assert opt.completed == k + 1
    assert opt.loop_step(ctx) is True
    assert opt.sleeps == 0
    assert opt.completed == 2 and opt.in_flight == 0  # conservation
    assert not done.read()  # published by finish, which the runtime calls next
    opt.finish(ctx)
    assert done.read() is True
    assert ch[CANDIDATE_PORT].probe().empty  # finish sends nothing: the runtime closes the port


@pytest.mark.parametrize(
    "make, sleeps",
    [
        (lambda search: AsyncOptimizer("opt", search, 3, probe_sleep=0.0005), 1),
        (lambda search: BlockingOptimizer("opt", search, 3), 0),
    ],
    ids=["async", "blocking"],
)
def test_echo_mismatch_dropped_with_diagnostic(make, sleeps):
    # One echo rule for both optimizers: a result for any id but the pending
    # one is dropped, and the optimizer keeps waiting for the pending one.
    search = _ScriptedSearch(_POINTS)
    opt = make(search)
    ctx, ch, recorder = wire_standalone(opt)
    opt.loop_step(ctx)  # sends request 0, at (0.1, 0.2)
    ch[RESULT_PORT].send(ResultTuple(5, 3.0))  # a stale id
    ch[RESULT_PORT].send(ResultTuple(0, 7.0))
    assert opt.loop_step(ctx) is False
    assert opt.sleeps == sleeps  # the async loop sleeps while its request is in flight
    assert search.updates == []
    assert opt.completed == 0 and opt.in_flight == 1
    drops = recorder.events("result_dropped")
    assert len(drops) == 1 and drops[0]["reason"] == "echo mismatch"
    assert (drops[0]["expected"], drops[0]["got"]) == (0, 5)
    assert opt.loop_step(ctx) is False
    # The point comes from the optimizer's own pending request.
    assert [(o.x, o.y) for o in search.updates] == [((0.1, 0.2), 7.0)]
    assert [e["request"] for e in recorder.events("iteration")] == [0]
    assert opt.completed == 1 and opt.in_flight == 0
    assert ch[CANDIDATE_PORT].probe().count == 1  # the drop sent no fresh suggestion


def test_non_result_token_dropped():
    opt, search, ctx, ch, recorder = _make_optimizer()
    opt.loop_step(ctx)
    ch[RESULT_PORT].send(Scalar(1.0))
    assert opt.loop_step(ctx) is False
    assert opt.sleeps == 1
    assert search.updates == []
    assert recorder.events("result_dropped")


def test_disconnect_with_request_in_flight_fails_loudly():
    opt, _, ctx, ch, recorder = _make_optimizer()
    opt.loop_step(ctx)
    ch[RESULT_PORT].close_producer()
    assert opt.loop_step(ctx) is True
    assert opt.failure is not None
    assert recorder.events("optimizer_failed")
    opt.finish(ctx)
    assert opt.refs["done"].read() is True


def test_negative_probe_sleep_rejected():
    with pytest.raises(ConfigError, match="probe sleep"):
        AsyncOptimizer("opt", _ScriptedSearch(_POINTS), 3, probe_sleep=-0.001)


@pytest.mark.parametrize("sleep", [float("nan"), float("inf")])
def test_non_finite_probe_sleep_rejected(sleep):
    # NaN slips past a `< 0` check, and would poison a virtual clock.
    with pytest.raises(ConfigError, match="finite"):
        AsyncOptimizer("opt", _ScriptedSearch(_POINTS), 3, probe_sleep=sleep)


# -- under the runtime: commands, crashes and done ----------------------------


class _Echo(Process):
    """Evaluator stand-in: answers each request in the step that takes it.

    It stops once its request port is empty and closed. A reply to an
    optimizer that has already stopped raises Disconnected, on which the
    runtime finishes it too.
    """

    def __init__(self, name):
        super().__init__(name)
        self.step_interval = 0.001
        self.add_in_port("request_in")
        self.add_out_port("result_out")

    def step(self, ctx):
        if ctx.probe("request_in").empty:
            return ctx.port_disconnected("request_in")
        token = ctx.recv("request_in")
        ctx.send("result_out", ResultTuple(token.request, sum(token.values)))
        return False


def _graph(search, budget):
    optimizer = AsyncOptimizer("optimizer", search, budget, probe_sleep=0.001)
    evaluator = _Echo("evaluator")
    graph = ProcessGraph()
    graph.add_process(optimizer)
    graph.add_process(evaluator)
    graph.connect(optimizer.out_port(CANDIDATE_PORT), evaluator.in_port("request_in"), capacity=8)
    graph.connect(evaluator.out_port("result_out"), optimizer.in_port(RESULT_PORT), capacity=8)
    return graph, optimizer


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.002)
    return predicate()


def test_pause_skips_probing_until_run():
    graph, opt = _graph(_ScriptedSearch(_POINTS), budget=1_000_000)
    handle = graph.start(RunLimits(max_steps=10_000_000))
    assert _wait_until(lambda: opt.completed >= 2), "run never warmed up"
    graph.issue_command("optimizer", CommandKind.PAUSE)
    time.sleep(0.05)  # let the pause land
    frozen = opt.probe_attempts
    time.sleep(0.1)  # 100 of the 1-ms probe sleeps, ~20 paused turns
    assert opt.probe_attempts == frozen  # paused turns do not probe
    graph.issue_command("optimizer", CommandKind.RUN)
    assert _wait_until(lambda: opt.probe_attempts > frozen)
    graph.issue_command("optimizer", CommandKind.STOP)
    report = handle.wait(5.0)
    assert not report.deadlock_detected and not report.errors


def test_stop_command_halts_loop_and_sets_done():
    graph, opt = _graph(_ScriptedSearch(_POINTS), budget=1_000_000)
    done = graph.ref_port("optimizer", "done")
    handle = graph.start(RunLimits(max_steps=10_000_000))
    assert _wait_until(lambda: opt.completed >= 2), "run never warmed up"
    assert not done.read()
    graph.issue_command("optimizer", CommandKind.STOP)
    report = handle.wait(5.0)
    assert done.read() is True
    assert graph.is_terminated("evaluator")
    assert not report.deadlock_detected and not report.errors


class _CrashingSearch(_ScriptedSearch):
    def suggest(self):
        raise RuntimeError("no candidates left")


@pytest.mark.parametrize("paced", [False, True], ids=["threaded", "paced"])
def test_crashing_search_still_publishes_done(paced):
    graph, _ = _graph(_CrashingSearch(_POINTS), budget=5)
    done = graph.ref_port("optimizer", "done")
    report = graph.start(
        RunLimits(max_steps=100_000),
        time_source=VirtualClock() if paced else None,
    ).wait(10.0)
    assert "RuntimeError: no candidates left" in report.errors["optimizer"]
    assert done.read() is True
    assert graph.is_terminated("evaluator")
    assert "evaluator" not in report.errors  # it stopped on the closed port
    assert not report.deadlock_detected


def test_await_done_sees_flag_within_one_poll():
    var = RefVar(False)
    handle = RefPortHandle(var)
    flip_at = []

    def flipper():
        time.sleep(0.1)
        flip_at.append(time.monotonic())
        var.write(True)

    t = threading.Thread(target=flipper, daemon=True)
    t.start()
    status = await_done(handle, poll_interval=0.005, timeout=5.0)
    returned = time.monotonic()
    t.join(1.0)
    assert status == "finished"
    assert returned - flip_at[0] < 0.1  # one poll plus scheduler slack


def test_await_done_times_out_when_flag_never_flips():
    handle = RefPortHandle(RefVar(False))
    t0 = time.monotonic()
    status = await_done(handle, poll_interval=0.005, timeout=0.08)
    assert status == "timed_out"
    assert 0.05 < time.monotonic() - t0 < 1.0


def test_await_done_immediate_when_already_set():
    handle = RefPortHandle(RefVar(True))
    t0 = time.monotonic()
    assert await_done(handle, poll_interval=0.5, timeout=5.0) == "finished"
    assert time.monotonic() - t0 < 0.1  # no sleep before the first read
