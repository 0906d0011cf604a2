"""Lockstep runs (a VirtualClock, one tick per turn): round-robin stepping, deadlock detection."""

from __future__ import annotations

import pytest

from probeopt.errors import ConfigError
from probeopt.runtime.graph import ProcessGraph, RunLimits
from probeopt.runtime.process import Process
from probeopt.runtime.timesource import VirtualClock
from probeopt.runtime.tokens import CommandKind
from probeopt.runtime.trace import ListRecorder
from support import Scalar, lockstep


class _PingPongCaller(Process):
    """Send a request, then block on the reply; repeat ``rounds`` times."""

    def __init__(self, name, rounds):
        super().__init__(name)
        self.add_out_port("req")
        self.add_in_port("resp")
        self.rounds = rounds
        self.completed = 0
        self._waiting = False

    def step(self, ctx):
        if not self._waiting:
            ctx.send("req", Scalar(self.completed))
            self._waiting = True
            return False
        token = ctx.recv("resp")  # blocking: fatal if the peer lags a round
        assert token.value == float(self.completed)
        self.completed += 1
        self._waiting = False
        return self.completed >= self.rounds


class _DelayedResponder(Process):
    """Answers each request after ``latency`` service steps (1 = same step)."""

    def __init__(self, name, latency):
        super().__init__(name)
        self.add_in_port("req")
        self.add_out_port("resp")
        self.latency = latency
        self._pending = None
        self._remaining = 0

    def step(self, ctx):
        if self._pending is None:
            if ctx.probe("req").empty:
                return ctx.port_disconnected("req")
            self._pending = ctx.recv("req")
            self._remaining = self.latency - 1
        else:
            self._remaining -= 1
        if self._remaining > 0:
            return False
        ctx.send("resp", Scalar(self._pending.value))
        self._pending = None
        return False


def _pingpong_graph(latency, rounds=3, responder_first=False):
    graph = ProcessGraph()
    caller = _PingPongCaller("caller", rounds)
    responder = _DelayedResponder("responder", latency)
    for proc in (responder, caller) if responder_first else (caller, responder):
        graph.add_process(proc)
    graph.connect(caller.out_port("req"), responder.in_port("req"), capacity=4)
    graph.connect(responder.out_port("resp"), caller.in_port("resp"), capacity=4)
    lockstep(caller, responder)
    return graph, caller


def _run_lockstep(graph, limits, recorder=None):
    return graph.start(limits, time_source=VirtualClock(), recorder=recorder).wait(30.0)


def test_lockstep_completes_with_single_step_latency():
    graph, caller = _pingpong_graph(latency=1)
    report = _run_lockstep(graph, RunLimits(max_steps=1000))
    assert not report.deadlock_detected
    assert caller.completed == 3


@pytest.mark.parametrize("latency", [2, 3, 5])
def test_lockstep_deadlocks_when_latency_exceeds_one(latency):
    graph, caller = _pingpong_graph(latency=latency)
    report = _run_lockstep(graph, RunLimits(max_steps=100_000))
    assert report.deadlock_detected
    assert caller.completed == 0
    # Diagnostic names the stuck process and the empty port it blocks on.
    assert "caller" in report.deadlock_diagnostic
    assert "resp" in report.deadlock_diagnostic
    assert "recv" in report.deadlock_diagnostic


@pytest.mark.parametrize("latency", [1, 2, 3, 5])
def test_lockstep_outcome_ignores_registration_order(latency):
    """Responder registered first: a round still runs in name order."""
    graph, caller = _pingpong_graph(latency=latency, responder_first=True)
    report = _run_lockstep(graph, RunLimits(max_steps=100_000))
    assert report.deadlock_detected == (latency > 1)
    assert caller.completed == (3 if latency == 1 else 0)


def test_barrier_accepts_a_virtual_clock():
    graph, caller = _pingpong_graph(latency=1)
    clock = VirtualClock()
    report = graph.start(RunLimits(max_steps=1000), clock).wait(30.0)
    assert not report.deadlock_detected
    assert caller.completed == 3
    assert clock.floor() is None  # every process left the clock it was given


class _Ticker(Process):
    def __init__(self, name, limit):
        super().__init__(name)
        self.limit = limit

    def step(self, ctx):
        ctx.emit("tick", index=ctx.steps)
        return ctx.steps + 1 >= self.limit


def test_barrier_keeps_step_counters_within_one():
    graph = ProcessGraph()
    a = _Ticker("a", 40)
    b = _Ticker("b", 40)
    graph.add_process(a)
    graph.add_process(b)
    lockstep(a, b)
    recorder = ListRecorder()
    report = _run_lockstep(graph, RunLimits(max_steps=100), recorder)
    assert not report.deadlock_detected
    counts = {"a": 0, "b": 0}
    for event in recorder.events("tick"):
        counts[event["proc"]] += 1
        assert abs(counts["a"] - counts["b"]) <= 1  # never a full round apart
    assert counts == {"a": 40, "b": 40}


def test_stop_command_terminates_process_in_lockstep():
    graph = ProcessGraph()
    a = _Ticker("a", 1_000_000)
    graph.add_process(a)
    lockstep(a)
    graph.issue_command("a", CommandKind.STOP)
    report = _run_lockstep(graph, RunLimits(max_steps=100_000))
    assert not report.deadlock_detected
    assert report.steps_executed["a"] == 0  # stopped before its first step


def test_empty_graph_and_bad_limits_rejected():
    with pytest.raises(ConfigError):
        ProcessGraph().start()
    with pytest.raises(ConfigError):
        RunLimits(max_steps=0)


def test_max_steps_bounds_lockstep_run():
    graph = ProcessGraph()
    lockstep(graph.add_process(_Ticker("a", 1_000_000)))
    report = _run_lockstep(graph, RunLimits(max_steps=25))
    assert report.steps_executed["a"] == 25
