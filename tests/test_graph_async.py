"""Free-running mode: liveness, pausing, watchdog, paced determinism."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from probeopt.errors import CommandAfterStop, UnknownProcess
from probeopt.runtime.graph import Mode, ProcessGraph, RunLimits
from probeopt.runtime.process import Process
from probeopt.runtime.timesource import VirtualClock
from probeopt.runtime.tokens import CommandKind, Scalar
from probeopt.runtime.trace import ListRecorder


class _ProbingCaller(Process):
    """Request/response client that probes instead of blocking."""

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
        if ctx.probe("resp").empty:
            ctx.sleep(0.002)
            return False
        token = ctx.recv("resp")
        assert token.value == float(self.completed)
        self.completed += 1
        self._waiting = False
        ctx.emit("round_done", k=self.completed)
        return self.completed >= self.rounds


class _RandomLatencyResponder(Process):
    def __init__(self, name, seed, max_latency=6):
        super().__init__(name)
        self.add_in_port("req")
        self.add_out_port("resp")
        self.step_interval = 0.001
        self._rng = np.random.default_rng(seed)
        self._max = max_latency
        self._pending = None
        self._remaining = 0

    def step(self, ctx):
        if self._pending is None:
            if ctx.probe("req").empty:
                return ctx.port_disconnected("req")
            self._pending = ctx.recv("req")
            self._remaining = int(self._rng.integers(1, self._max + 1)) - 1
        else:
            self._remaining -= 1
        if self._remaining > 0:
            return False
        ctx.send("resp", Scalar(self._pending.value))
        ctx.emit("served", value=self._pending.value)
        self._pending = None
        return False


def _async_pair(seed, rounds=5):
    graph = ProcessGraph()
    caller = _ProbingCaller("caller", rounds)
    responder = _RandomLatencyResponder("responder", seed)
    graph.add_process(caller)
    graph.add_process(responder)
    graph.connect(caller.out_port("req"), responder.in_port("req"), capacity=4)
    graph.connect(responder.out_port("resp"), caller.in_port("resp"), capacity=4)
    return graph, caller


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_probing_client_never_deadlocks(seed):
    graph, caller = _async_pair(seed)
    report = graph.run(Mode.ASYNC, RunLimits(max_steps=100_000, watchdog_timeout=2.0))
    assert not report.deadlock_detected
    assert caller.completed == 5
    assert not report.errors


class _FloodSender(Process):
    """Floods one port and never feeds the other."""

    def __init__(self, name, count):
        super().__init__(name)
        self.add_out_port("out")
        self.add_out_port("aux")
        self.count = count
        self._sent = 0

    def step(self, ctx):
        ctx.send("out", Scalar(self._sent))  # blocks once the buffer fills
        self._sent += 1
        return self._sent >= self.count


class _DeafSink(Process):
    """Owns the inbound port but waits forever on a different one."""

    def __init__(self, name):
        super().__init__(name)
        self.add_in_port("inbox")
        self.add_in_port("never")

    def step(self, ctx):
        ctx.recv("never")
        return False


def test_watchdog_catches_blocked_sender_and_names_both_ports():
    graph = ProcessGraph()
    sender = _FloodSender("sender", count=5)
    sink = _DeafSink("sink")
    graph.add_process(sender)
    graph.add_process(sink)
    graph.connect(sender.out_port("out"), sink.in_port("inbox"), capacity=4)
    graph.connect(sender.out_port("aux"), sink.in_port("never"), capacity=4)
    # The sink ignores its inbox and waits on "aux" traffic that never comes,
    # so the sender jams on the full inbox: mutual silence, zero progress.
    report = graph.run(Mode.ASYNC, RunLimits(max_steps=10_000, watchdog_timeout=0.4))
    assert report.deadlock_detected
    assert "sender" in report.deadlock_diagnostic and "send" in report.deadlock_diagnostic
    assert "sink" in report.deadlock_diagnostic and "recv" in report.deadlock_diagnostic


class _Counter(Process):
    def __init__(self, name):
        super().__init__(name)
        self.step_interval = 0.002
        self.expose_ref("count", 0)
        self._n = 0

    def step(self, ctx):
        self._n += 1
        ctx.set_ref("count", self._n)
        return False


def test_pause_freezes_steps_and_run_resumes():
    graph = ProcessGraph()
    graph.add_process(_Counter("c"))
    count = graph.ref_port("c", "count")
    handle = graph.start(Mode.ASYNC, RunLimits(max_steps=1_000_000, watchdog_timeout=5.0))
    time.sleep(0.05)
    graph.issue_command("c", CommandKind.PAUSE)
    time.sleep(0.05)  # let the pause land
    frozen = count.read()
    time.sleep(0.1)
    assert count.read() == frozen  # no steps while paused
    graph.issue_command("c", CommandKind.RUN)
    time.sleep(0.1)
    assert count.read() > frozen
    graph.issue_command("c", CommandKind.STOP)
    report = handle.wait(5.0)
    assert not report.deadlock_detected


@pytest.mark.parametrize(
    "mode, clock",
    [(Mode.ASYNC, None), (Mode.ASYNC, VirtualClock), (Mode.SYNC_BARRIER, None)],
    ids=["threaded", "paced", "barrier"],
)
def test_pause_longer_than_the_watchdog_is_not_a_deadlock(mode, clock):
    """A paused process is waiting, not stalled, even when it is the only one."""
    graph = ProcessGraph()
    graph.add_process(_Counter("c"))
    count = graph.ref_port("c", "count")
    handle = graph.start(
        mode,
        RunLimits(max_steps=10_000_000, watchdog_timeout=0.3),
        time_source=clock() if clock else None,
    )
    time.sleep(0.05)
    graph.issue_command("c", CommandKind.PAUSE)
    time.sleep(0.05)  # let the pause land
    frozen = count.read()
    time.sleep(0.6)  # twice the watchdog window
    assert count.read() == frozen
    assert not handle.aborted
    graph.issue_command("c", CommandKind.STOP)  # the command queue is still open
    report = handle.wait(5.0)
    assert handle.finished
    assert not report.deadlock_detected and not report.errors
    assert graph.is_terminated("c")


def test_stop_is_prompt_and_terminal():
    graph = ProcessGraph()
    graph.add_process(_Counter("c"))
    handle = graph.start(Mode.ASYNC, RunLimits(max_steps=1_000_000, watchdog_timeout=5.0))
    time.sleep(0.03)
    t0 = time.monotonic()
    graph.issue_command("c", CommandKind.STOP)
    report = handle.wait(5.0)
    assert time.monotonic() - t0 < 1.0
    assert not report.deadlock_detected
    assert report.steps_executed["c"] > 0
    with pytest.raises(CommandAfterStop):
        graph.issue_command("c", CommandKind.RUN)


def test_issue_command_unknown_process():
    graph = ProcessGraph()
    graph.add_process(_Counter("c"))
    with pytest.raises(UnknownProcess):
        graph.issue_command("nobody", CommandKind.STOP)


class _Crasher(Process):
    def __init__(self, name):
        super().__init__(name)

    def step(self, ctx):
        raise RuntimeError("boom")


def test_crashed_process_is_reported_not_hung():
    graph = ProcessGraph()
    graph.add_process(_Crasher("bad"))
    report = graph.run(Mode.ASYNC, RunLimits(max_steps=100, watchdog_timeout=2.0))
    assert "bad" in report.errors
    assert "boom" in report.errors["bad"]


def test_probe_stays_fast_under_contention():
    """A probe must never block, even while both endpoints hammer the channel."""
    graph, caller = _async_pair(seed=9, rounds=50)
    req = caller.out_port("req").channel
    handle = graph.start(Mode.ASYNC, RunLimits(max_steps=1_000_000, watchdog_timeout=5.0))
    worst = 0.0
    for _ in range(300):
        t0 = time.perf_counter()
        req.probe()
        worst = max(worst, time.perf_counter() - t0)
    report = handle.wait(20.0)
    assert not report.deadlock_detected
    # Watchdog window here is 5 s; a probe taking 1% of that would be absurd.
    assert worst < 0.05


def _paced_run(seed):
    graph, caller = _async_pair(seed, rounds=6)
    recorder = ListRecorder()
    clock = VirtualClock()
    report = graph.run(
        Mode.ASYNC,
        RunLimits(max_steps=100_000, watchdog_timeout=2.0),
        time_source=clock,
        recorder=recorder,
    )
    assert not report.deadlock_detected
    return [(e["kind"], e.get("k", e.get("value"))) for e in recorder.events()]


def test_virtual_clock_makes_interleaving_reproducible():
    first = _paced_run(seed=5)
    for _ in range(3):
        assert _paced_run(seed=5) == first


class _Ticker(Process):
    """Never finishes on its own; only the step limit ends it."""

    def __init__(self, name):
        super().__init__(name)
        self.ticks = 0

    def step(self, ctx):
        self.ticks += 1
        return False


def test_step_limit_exhaustion_is_finished_not_deadlocked():
    graph = ProcessGraph()
    graph.add_process(_Ticker("ticker"))
    handle = graph.start(Mode.ASYNC, RunLimits(max_steps=50, watchdog_timeout=0.3))
    deadline = time.monotonic() + 5.0
    while not handle.finished and time.monotonic() < deadline:
        time.sleep(0.005)
    assert handle.finished
    # Linger past the watchdog window before joining: a run that is over
    # must not be reported as stalled while the caller dawdles.
    time.sleep(0.7)
    report = handle.wait(5.0)
    assert not report.deadlock_detected
    assert not handle.aborted
    assert report.steps_executed["ticker"] == 50


# -- paced runs: one driver thread steps every process -------------------------


def test_paced_pause_run_and_stop_from_outside():
    graph = ProcessGraph()
    graph.add_process(_Counter("c"))
    graph.add_process(_Counter("d"))
    c, d = graph.ref_port("c", "count"), graph.ref_port("d", "count")
    handle = graph.start(
        Mode.ASYNC, RunLimits(max_steps=10_000_000, watchdog_timeout=5.0), time_source=VirtualClock()
    )
    time.sleep(0.05)
    graph.issue_command("c", CommandKind.PAUSE)
    time.sleep(0.05)  # let the pause land
    frozen, moving = c.read(), d.read()
    time.sleep(0.1)
    assert c.read() == frozen  # no steps while paused
    assert d.read() > moving  # the driver keeps stepping the other process
    graph.issue_command("c", CommandKind.RUN)
    time.sleep(0.1)
    assert c.read() > frozen
    graph.issue_command("c", CommandKind.STOP)
    graph.issue_command("d", CommandKind.STOP)
    report = handle.wait(5.0)
    assert not report.deadlock_detected
    assert not report.errors
    assert graph.is_terminated("c") and graph.is_terminated("d")


def test_paced_step_limit_exhaustion_is_finished_not_deadlocked():
    graph = ProcessGraph()
    graph.add_process(_Ticker("ticker"))
    graph.add_process(_Counter("counter"))
    handle = graph.start(
        Mode.ASYNC, RunLimits(max_steps=50, watchdog_timeout=0.3), time_source=VirtualClock()
    )
    time.sleep(0.7)  # linger past the watchdog window before joining
    report = handle.wait(5.0)
    assert not report.deadlock_detected
    assert not handle.aborted
    assert report.steps_executed == {"ticker": 50, "counter": 50}


def test_paced_crash_is_reported_and_others_run_on():
    graph = ProcessGraph()
    graph.add_process(_Crasher("bad"))
    graph.add_process(_Ticker("ticker"))
    report = graph.start(
        Mode.ASYNC, RunLimits(max_steps=100, watchdog_timeout=2.0), time_source=VirtualClock()
    ).wait(10.0)
    assert "boom" in report.errors["bad"]
    assert report.steps_executed["ticker"] == 100
    assert not report.deadlock_detected


class _ThreadSpy(Process):
    """Records which thread steps it and which threads exist meanwhile."""

    def __init__(self, name, before):
        super().__init__(name)
        self.step_interval = 0.001
        self.before = before
        self.stepped_on = set()
        self.new_threads = set()

    def step(self, ctx):
        self.stepped_on.add(threading.current_thread())
        self.new_threads |= set(threading.enumerate()) - self.before
        return ctx.steps >= 20


def test_paced_run_starts_one_driver_thread_plus_watchdog():
    before = set(threading.enumerate())
    graph = ProcessGraph()
    spies = [graph.add_process(_ThreadSpy(name, before)) for name in ("a", "b", "c")]
    report = graph.start(
        Mode.ASYNC, RunLimits(max_steps=1_000, watchdog_timeout=2.0), time_source=VirtualClock()
    ).wait(10.0)
    assert not report.deadlock_detected and not report.errors
    (driver,) = set.union(*(spy.stepped_on for spy in spies))
    new_threads = set.union(*(spy.new_threads for spy in spies))
    assert len(new_threads) == 2
    assert driver in new_threads
    assert {t.name for t in new_threads} - {driver.name} == {"watchdog"}


class _Idle(Process):
    """Owns an outbound port it never uses; sleeps every step."""

    def __init__(self, name):
        super().__init__(name)
        self.add_out_port("out")

    def step(self, ctx):
        ctx.sleep(0.001)
        return False


def test_paced_process_blocked_in_recv_trips_watchdog():
    graph = ProcessGraph()
    idle = graph.add_process(_Idle("idle"))
    sink = graph.add_process(_DeafSink("sink"))
    graph.connect(idle.out_port("out"), sink.in_port("never"), capacity=4)
    t0 = time.monotonic()
    report = graph.start(
        Mode.ASYNC, RunLimits(max_steps=10_000, watchdog_timeout=0.4), time_source=VirtualClock()
    ).wait(10.0)
    assert time.monotonic() - t0 < 3.0
    assert report.deadlock_detected
    assert "sink blocked in recv on sink.never" in report.deadlock_diagnostic
    assert graph.is_terminated("idle") and graph.is_terminated("sink")
