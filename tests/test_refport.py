"""Reference ports: atomic snapshots of a single shared variable."""

from __future__ import annotations

import threading

import pytest

from probeopt.errors import ConfigError, UnknownProcess
from probeopt.runtime.graph import ProcessGraph, RunLimits
from probeopt.runtime.process import Process, RefVar


class _Flagger(Process):
    """Counts a few steps, then flips its exposed flag and finishes."""

    def __init__(self, name, flips=5):
        super().__init__(name)
        self.expose_ref("done", False)
        self.expose_ref("value", (0, 0))
        self.flips = flips
        self._i = 0

    def step(self, ctx):
        self._i += 1
        ctx.set_ref("value", (self._i, self._i))  # both halves always agree
        if self._i >= self.flips:
            ctx.set_ref("done", True)
            return True
        return False


def test_refvar_read_write_roundtrip():
    var = RefVar(10)
    assert var.read() == 10
    var.write(11)
    assert var.read() == 11


def test_ref_port_unknown_process_and_var():
    graph = ProcessGraph()
    graph.add_process(_Flagger("p"))
    with pytest.raises(UnknownProcess):
        graph.ref_port("ghost", "done")
    with pytest.raises(ConfigError):
        graph.ref_port("p", "missing")


def test_ref_snapshot_never_torn_under_concurrent_writes():
    var = RefVar((0, 0))
    stop = threading.Event()

    def writer():
        i = 0
        while not stop.is_set():
            i += 1
            var.write((i, i))

    t = threading.Thread(target=writer, daemon=True)
    t.start()
    for _ in range(20_000):
        a, b = var.read()
        assert a == b  # a torn read would disagree
    stop.set()
    t.join(1.0)


def test_target_stopped_flag_and_last_value_persists():
    graph = ProcessGraph()
    graph.add_process(_Flagger("p", flips=3))
    done = graph.ref_port("p", "done")
    value = graph.ref_port("p", "value")
    assert not graph.is_terminated("p")
    report = graph.start(RunLimits(max_steps=100)).wait(30.0)
    assert not report.deadlock_detected
    assert graph.is_terminated("p")
    assert done.read() is True  # last write outlives the process
    assert value.read() == (3, 3)
