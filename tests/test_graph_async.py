"""The one driver: liveness, pausing, deadlock at the op, paced determinism."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from probeopt.errors import CommandAfterStop, UnknownProcess
from probeopt.runtime.graph import ProcessGraph, RunLimits
from probeopt.runtime.process import Process
from probeopt.runtime.timesource import TimeSource, VirtualClock
from probeopt.runtime.tokens import CommandKind
from probeopt.runtime.trace import ListRecorder
from support import Scalar, lockstep


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
    report = graph.start(RunLimits(max_steps=100_000)).wait(30.0)
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
    handle = graph.start(RunLimits(max_steps=1_000_000))
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
    "clock, tick",
    [(None, False), (VirtualClock, False), (VirtualClock, True)],
    ids=["threaded", "paced", "barrier"],
)
def test_long_pause_is_not_a_deadlock(clock, tick):
    """A paused process is waiting, not stalled, even when it is the only one."""
    graph = ProcessGraph()
    counter = graph.add_process(_Counter("c"))
    if tick:
        lockstep(counter)
    count = graph.ref_port("c", "count")
    handle = graph.start(
        RunLimits(max_steps=10_000_000),
        time_source=clock() if clock else None,
    )
    time.sleep(0.05)
    graph.issue_command("c", CommandKind.PAUSE)
    time.sleep(0.05)  # let the pause land
    frozen = count.read()
    time.sleep(0.1)  # a pause of many step intervals
    assert count.read() == frozen
    graph.issue_command("c", CommandKind.STOP)  # the command queue is still open
    report = handle.wait(5.0)
    assert not report.deadlock_detected and not report.errors
    assert graph.is_terminated("c")


class _CpuClockSpy(_Counter):
    """A counter that records the CPU clock of the thread that drives it."""

    def setup(self, ctx):
        self.cpu_clock = time.pthread_getcpuclockid(threading.get_ident())


@pytest.mark.parametrize("tick", [False, True], ids=["paced", "barrier"])
def test_paused_single_driver_does_not_spin(tick):
    """While every process is paused the driver thread sleeps wall time."""
    graph = ProcessGraph()
    spy = graph.add_process(_CpuClockSpy("c"))
    if tick:
        lockstep(spy)
    handle = graph.start(
        RunLimits(max_steps=10_000_000), time_source=VirtualClock()
    )
    time.sleep(0.05)
    graph.issue_command("c", CommandKind.PAUSE)
    time.sleep(0.05)  # let the pause land
    cpu0, wall0 = time.clock_gettime(spy.cpu_clock), time.monotonic()
    time.sleep(0.3)
    cpu1, wall1 = time.clock_gettime(spy.cpu_clock), time.monotonic()
    graph.issue_command("c", CommandKind.STOP)
    report = handle.wait(5.0)
    assert not report.deadlock_detected and not report.errors
    assert (cpu1 - cpu0) / (wall1 - wall0) < 0.3


def test_stop_is_prompt_and_terminal():
    graph = ProcessGraph()
    graph.add_process(_Counter("c"))
    handle = graph.start(RunLimits(max_steps=1_000_000))
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
    report = graph.start(RunLimits(max_steps=100)).wait(30.0)
    assert "bad" in report.errors
    assert "boom" in report.errors["bad"]


def test_probe_stays_fast_under_contention():
    """A probe must never block, even while both endpoints hammer the channel."""
    graph, caller = _async_pair(seed=9, rounds=50)
    req = caller.out_port("req").channel
    handle = graph.start(RunLimits(max_steps=1_000_000))
    worst = 0.0
    for _ in range(300):
        t0 = time.perf_counter()
        req.probe()
        worst = max(worst, time.perf_counter() - t0)
    report = handle.wait(20.0)
    assert not report.deadlock_detected
    # A probe taking 50 ms would be absurd.
    assert worst < 0.05


def _paced_run(seed):
    graph, caller = _async_pair(seed, rounds=6)
    recorder = ListRecorder()
    clock = VirtualClock()
    report = graph.start(
        RunLimits(max_steps=100_000),
        time_source=clock,
        recorder=recorder,
    ).wait(30.0)
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
    handle = graph.start(RunLimits(max_steps=50))
    deadline = time.monotonic() + 5.0
    while not graph.is_terminated("ticker") and time.monotonic() < deadline:
        time.sleep(0.005)
    assert graph.is_terminated("ticker")
    # Linger before joining: a run that is over must not be reported as
    # stalled while the caller dawdles.
    time.sleep(0.05)
    report = handle.wait(5.0)
    assert not report.deadlock_detected
    assert report.steps_executed["ticker"] == 50


# -- paced runs: one driver thread steps every process -------------------------


def test_paced_pause_run_and_stop_from_outside():
    graph = ProcessGraph()
    graph.add_process(_Counter("c"))
    graph.add_process(_Counter("d"))
    c, d = graph.ref_port("c", "count"), graph.ref_port("d", "count")
    handle = graph.start(
        RunLimits(max_steps=10_000_000), time_source=VirtualClock()
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
        RunLimits(max_steps=50), time_source=VirtualClock()
    )
    time.sleep(0.05)  # linger before joining
    report = handle.wait(5.0)
    assert not report.deadlock_detected
    assert report.steps_executed == {"ticker": 50, "counter": 50}


def test_paced_crash_is_reported_and_others_run_on():
    graph = ProcessGraph()
    graph.add_process(_Crasher("bad"))
    graph.add_process(_Ticker("ticker"))
    report = graph.start(
        RunLimits(max_steps=100), time_source=VirtualClock()
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


@pytest.mark.parametrize(
    "clock, tick",
    [(TimeSource, False), (VirtualClock, False), (VirtualClock, True)],
    ids=["wall", "paced", "barrier"],
)
def test_clock_run_starts_exactly_one_thread(clock, tick):
    """The driver steps every process; no other thread runs beside it."""
    before = set(threading.enumerate())
    graph = ProcessGraph()
    spies = [graph.add_process(_ThreadSpy(name, before)) for name in ("a", "b", "c")]
    if tick:
        lockstep(*spies)
    report = graph.start(RunLimits(max_steps=1_000), time_source=clock()).wait(10.0)
    assert not report.deadlock_detected and not report.errors
    (driver,) = set.union(*(spy.stepped_on for spy in spies))
    assert set.union(*(spy.new_threads for spy in spies)) == {driver}


class _Idle(Process):
    """Owns an outbound port it never uses; sleeps every step."""

    def __init__(self, name):
        super().__init__(name)
        self.add_out_port("out")

    def step(self, ctx):
        ctx.sleep(0.001)
        return False


class _BurstSender(_FloodSender):
    """Sends its whole count in its first step, before any peer's turn."""

    def step(self, ctx):
        for k in range(self.count):
            ctx.send("out", Scalar(k))
        return True


def _flood_into_deaf_sink(graph, sender_type=_FloodSender):
    sender = graph.add_process(sender_type("sender", count=5))
    sink = graph.add_process(_DeafSink("sink"))
    graph.connect(sender.out_port("out"), sink.in_port("inbox"), capacity=4)
    graph.connect(sender.out_port("aux"), sink.in_port("never"), capacity=4)


def _burst_into_deaf_sink(graph):
    _flood_into_deaf_sink(graph, _BurstSender)


def _idle_feeds_deaf_sink(graph):
    idle = graph.add_process(_Idle("idle"))
    sink = graph.add_process(_DeafSink("sink"))
    graph.connect(idle.out_port("out"), sink.in_port("never"), capacity=4)
    return idle, sink


def _lockstep_idle_feeds_deaf_sink(graph):
    lockstep(*_idle_feeds_deaf_sink(graph))


@pytest.mark.parametrize(
    "clock, build, expected",
    [
        (VirtualClock, _flood_into_deaf_sink, "sender blocked in send on sender.out"),
        (VirtualClock, _idle_feeds_deaf_sink, "sink blocked in recv on sink.never"),
        (VirtualClock, _lockstep_idle_feeds_deaf_sink, "sink blocked in recv on sink.never"),
        (TimeSource, _burst_into_deaf_sink, "sender blocked in send on sender.out"),
        (TimeSource, _idle_feeds_deaf_sink, "sink blocked in recv on sink.never"),
    ],
    ids=[
        "paced-send-full",
        "paced-recv-empty",
        "barrier-recv-empty",
        "wall-send-full",
        "wall-recv-empty",
    ],
)
def test_clock_deadlock_is_reported_at_the_blocking_op(clock, build, expected):
    """No stall window: the op that would block is the deadlock."""
    graph = ProcessGraph()
    build(graph)
    recorder = ListRecorder()
    t0 = time.monotonic()
    report = graph.start(
        RunLimits(max_steps=10_000),
        time_source=clock(),
        recorder=recorder,
    ).wait(10.0)
    assert time.monotonic() - t0 < 0.5
    assert report.deadlock_detected
    assert report.deadlock_diagnostic == expected
    assert [e["diagnostic"] for e in recorder.events("deadlock")] == [expected]
    assert not report.errors
    assert all(graph.is_terminated(name) for name in report.steps_executed)


class _OneShot(Process):
    """Sends one token, then finishes."""

    def __init__(self, name):
        super().__init__(name)
        self.add_out_port("out")

    def step(self, ctx):
        ctx.send("out", Scalar(1.0))
        return True


class _Drain(Process):
    """Receives until its producer is gone; every recv may find it empty."""

    def __init__(self, name):
        super().__init__(name)
        self.add_in_port("inp")
        self.received = []

    def step(self, ctx):
        self.received.append(ctx.recv("inp").value)  # Disconnected ends the run
        return False


@pytest.mark.parametrize(
    "clock, tick",
    [(None, False), (VirtualClock, False), (VirtualClock, True)],
    ids=["threaded", "paced", "barrier"],
)
def test_recv_after_producer_finished_disconnects_not_deadlocks(clock, tick):
    """A closed producer is checked before a would-block recv is reported."""
    graph = ProcessGraph()
    producer = graph.add_process(_OneShot("a"))
    consumer = graph.add_process(_Drain("b"))
    if tick:
        lockstep(producer, consumer)
    graph.connect(producer.out_port("out"), consumer.in_port("inp"), capacity=4)
    report = graph.start(
        RunLimits(max_steps=100),
        time_source=clock() if clock else None,
    ).wait(10.0)
    assert not report.deadlock_detected and report.deadlock_diagnostic is None
    assert not report.errors
    assert consumer.received == [1.0]
    assert report.steps_executed == {"a": 1, "b": 2}


class _Hang(Process):
    """Blocks inside its setup or its first step until the test releases it."""

    def __init__(self, name, where="step"):
        super().__init__(name)
        self.where = where
        self.release = threading.Event()

    def setup(self, ctx):
        if self.where == "setup":
            self.release.wait()

    def step(self, ctx):
        self.release.wait()
        return True


class _Once(Process):
    """Finishes in its first step."""

    def step(self, ctx):
        return True


@pytest.mark.parametrize("clock", [TimeSource, VirtualClock], ids=["wall", "paced"])
def test_step_that_never_returns_is_bounded_by_wait_timeout(clock):
    """Outside a channel op nothing reports a hung step: ``wait`` times out,
    naming the process whose turn never ended, not the one before it."""
    graph = ProcessGraph()
    hang = graph.add_process(_Hang("hang"))
    graph.add_process(_Once("finisher"))  # takes its one turn first, by name
    handle = graph.start(RunLimits(max_steps=10), time_source=clock())
    t0 = time.monotonic()
    with pytest.raises(TimeoutError, match="within 0.3s: stuck in hang's turn"):
        handle.wait(0.3)
    assert time.monotonic() - t0 < 1.0
    hang.release.set()
    report = handle.wait(5.0)
    assert not report.deadlock_detected and not report.errors
    assert report.steps_executed == {"finisher": 1, "hang": 1}


def test_setup_that_never_returns_names_its_process():
    graph = ProcessGraph()
    graph.add_process(_Once("finisher"))  # set up first
    hang = graph.add_process(_Hang("hang", where="setup"))
    handle = graph.start(RunLimits(max_steps=10), time_source=VirtualClock())
    with pytest.raises(TimeoutError, match="stuck in hang's turn"):
        handle.wait(0.2)
    hang.release.set()
    assert handle.wait(5.0).steps_executed == {"finisher": 1, "hang": 1}
