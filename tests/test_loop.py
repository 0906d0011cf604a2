"""Optimizer loop: iteration order, echo checking, run control, done handshake."""

from __future__ import annotations

import threading
import time

import pytest

from probeopt.errors import ConfigError
from probeopt.optimizer.loop import (
    AsyncOptimizer,
    CANDIDATE_PORT,
    RESULT_PORT,
    await_done,
)
from probeopt.runtime.graph import Mode, ProcessGraph, RunLimits
from probeopt.runtime.process import Process, RefPortHandle, RefVar
from probeopt.runtime.timesource import VirtualClock
from probeopt.runtime.tokens import CommandKind, Done, ParamVector, ResultTuple, Scalar
from support import wire_standalone


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
    ctx, channels, recorder, mgmt = wire_standalone(opt)
    return opt, search, ctx, channels, recorder, mgmt


def test_first_iteration_suggests():
    opt, search, ctx, ch, _, _ = _make_optimizer()
    assert opt.loop_step(ctx) is False
    assert ch[CANDIDATE_PORT].probe().count == 1
    token = ch[CANDIDATE_PORT].recv()
    assert token == ParamVector((0.1, 0.2))
    assert opt.in_flight == 1
    assert opt.sleeps == 0  # a suggesting step does not sleep


def test_sleeps_while_request_outstanding():
    opt, _, ctx, _, _, _ = _make_optimizer()
    opt.loop_step(ctx)  # suggest
    assert opt.loop_step(ctx) is False
    assert opt.loop_step(ctx) is False
    assert opt.sleeps == 2
    assert opt.probe_attempts >= 2  # probed before every sleep


def test_forwards_result_and_updates_search():
    opt, search, ctx, ch, _, _ = _make_optimizer()
    opt.loop_step(ctx)
    ch[RESULT_PORT].send(ResultTuple(params=(0.1, 0.2), score=7.0))
    assert opt.loop_step(ctx) is False
    assert len(search.updates) == 1
    assert search.updates[0].x == (0.1, 0.2) and search.updates[0].y == 7.0
    assert opt.in_flight == 0 and opt.completed == 1
    assert opt.sleeps == 0  # a step that folds in a result does not sleep


def test_at_most_one_recv_per_iteration():
    opt, search, ctx, ch, _, _ = _make_optimizer(budget=5)
    opt.loop_step(ctx)
    # Queue several results; only the head may be consumed per iteration.
    ch[RESULT_PORT].send(ResultTuple(params=(0.1, 0.2), score=1.0))
    ch[RESULT_PORT].send(ResultTuple(params=(0.3, 0.4), score=2.0))
    opt.loop_step(ctx)
    assert len(search.updates) == 1
    assert ch[RESULT_PORT].probe().count == 1  # second result still queued


def test_finishes_after_budget_and_publishes_done():
    opt, search, ctx, ch, _, _ = _make_optimizer(budget=2)
    done = RefPortHandle(opt.refs["done"], lambda: False)
    for k in range(2):
        assert opt.loop_step(ctx) is False  # suggests
        sent = ch[CANDIDATE_PORT].recv()
        ch[RESULT_PORT].send(ResultTuple(params=sent.values, score=float(k)))
        assert opt.loop_step(ctx) is False  # folds the result in
        assert opt.completed == k + 1
    assert opt.loop_step(ctx) is True
    assert opt.sleeps == 0
    assert opt.completed == 2 and opt.in_flight == 0  # conservation
    assert not done.read()  # published by finish, which the runtime calls next
    opt.finish(ctx)
    assert done.read() is True
    assert isinstance(ch[CANDIDATE_PORT].recv(), Done)  # shutdown sentinel


def test_echo_mismatch_dropped_with_diagnostic():
    opt, search, ctx, ch, recorder, _ = _make_optimizer()
    opt.loop_step(ctx)
    ch[RESULT_PORT].send(ResultTuple(params=(9.9, 9.9), score=3.0))
    assert opt.loop_step(ctx) is False
    assert opt.sleeps == 1  # dropped, request still in flight, so it slept
    assert search.updates == []
    assert opt.completed == 0 and opt.in_flight == 1
    drops = recorder.events("result_dropped")
    assert len(drops) == 1 and drops[0]["reason"] == "echo mismatch"


def test_non_result_token_dropped():
    opt, search, ctx, ch, recorder, _ = _make_optimizer()
    opt.loop_step(ctx)
    ch[RESULT_PORT].send(Scalar(1.0))
    assert opt.loop_step(ctx) is False
    assert opt.sleeps == 1
    assert search.updates == []
    assert recorder.events("result_dropped")


def test_disconnect_with_request_in_flight_fails_loudly():
    opt, _, ctx, ch, recorder, _ = _make_optimizer()
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


# -- under the runtime: commands, crashes and done ----------------------------


class _Echo(Process):
    """Evaluator stand-in: answers each request in the step that takes it."""

    def __init__(self, name):
        super().__init__(name)
        self.step_interval = 0.001
        self.add_in_port("request_in")
        self.add_out_port("result_out")
        self.got_done = False

    def step(self, ctx):
        if ctx.probe("request_in").empty:
            return ctx.port_disconnected("request_in")
        token = ctx.recv("request_in")
        if isinstance(token, Done):
            self.got_done = True
            return True
        # nowait: a Stop may close the optimizer's result port at any time,
        # and the Done sentinel it sent first must still be read.
        ctx.send_nowait("result_out", ResultTuple(params=token.values, score=sum(token.values)))
        return False


def _graph(search, budget):
    optimizer = AsyncOptimizer("optimizer", search, budget, probe_sleep=0.001)
    evaluator = _Echo("evaluator")
    graph = ProcessGraph()
    graph.add_process(optimizer)
    graph.add_process(evaluator)
    graph.connect(optimizer.out_port(CANDIDATE_PORT), evaluator.in_port("request_in"), capacity=8)
    graph.connect(evaluator.out_port("result_out"), optimizer.in_port(RESULT_PORT), capacity=8)
    return graph, optimizer, evaluator


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.002)
    return predicate()


def test_pause_skips_probing_until_run():
    graph, opt, _ = _graph(_ScriptedSearch(_POINTS), budget=1_000_000)
    handle = graph.start(Mode.ASYNC, RunLimits(max_steps=10_000_000, watchdog_timeout=0.3))
    assert _wait_until(lambda: opt.completed >= 2), "run never warmed up"
    graph.issue_command("optimizer", CommandKind.PAUSE)
    time.sleep(0.05)  # let the pause land
    frozen = opt.probe_attempts
    time.sleep(0.6)  # twice the watchdog window
    assert opt.probe_attempts == frozen  # paused turns do not probe
    assert not handle.aborted
    graph.issue_command("optimizer", CommandKind.RUN)
    assert _wait_until(lambda: opt.probe_attempts > frozen)
    graph.issue_command("optimizer", CommandKind.STOP)
    report = handle.wait(5.0)
    assert not report.deadlock_detected and not report.errors


def test_stop_command_halts_loop_and_sets_done():
    graph, opt, evaluator = _graph(_ScriptedSearch(_POINTS), budget=1_000_000)
    done = graph.ref_port("optimizer", "done")
    handle = graph.start(Mode.ASYNC, RunLimits(max_steps=10_000_000, watchdog_timeout=2.0))
    assert _wait_until(lambda: opt.completed >= 2), "run never warmed up"
    assert not done.read()
    graph.issue_command("optimizer", CommandKind.STOP)
    report = handle.wait(5.0)
    assert done.read() is True
    assert evaluator.got_done  # the shutdown sentinel reached the evaluator
    assert graph.is_terminated("evaluator")
    assert not report.deadlock_detected and not report.errors


class _CrashingSearch(_ScriptedSearch):
    def suggest(self):
        raise RuntimeError("no candidates left")


@pytest.mark.parametrize("paced", [False, True], ids=["threaded", "paced"])
def test_crashing_search_still_publishes_done(paced):
    graph, _, evaluator = _graph(_CrashingSearch(_POINTS), budget=5)
    done = graph.ref_port("optimizer", "done")
    report = graph.start(
        Mode.ASYNC,
        RunLimits(max_steps=100_000, watchdog_timeout=2.0),
        time_source=VirtualClock() if paced else None,
    ).wait(10.0)
    assert "RuntimeError: no candidates left" in report.errors["optimizer"]
    assert done.read() is True
    assert evaluator.got_done
    assert graph.is_terminated("evaluator")
    assert not report.deadlock_detected


def test_await_done_sees_flag_within_one_poll():
    var = RefVar(False)
    handle = RefPortHandle(var, lambda: False)
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
    handle = RefPortHandle(RefVar(False), lambda: False)
    t0 = time.monotonic()
    status = await_done(handle, poll_interval=0.005, timeout=0.08)
    assert status == "timed_out"
    assert 0.05 < time.monotonic() - t0 < 1.0


def test_await_done_immediate_when_already_set():
    handle = RefPortHandle(RefVar(True), lambda: True)
    t0 = time.monotonic()
    assert await_done(handle, poll_interval=0.5, timeout=5.0) == "finished"
    assert time.monotonic() - t0 < 0.1  # no sleep before the first read
