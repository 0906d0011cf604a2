"""Graph channels: lock-free, with the standalone channel's checks in its order."""

from __future__ import annotations

import hashlib

import pytest

from probeopt.errors import ConfigError, DirectionMismatch, Disconnected, RunAborted
from probeopt.harness.scenarios import ScenarioConfig, run_scenario
from probeopt.runtime.channel import Channel, ProbeResult
from probeopt.runtime.graph import ProcessGraph
from probeopt.runtime.process import Process, ProcessContext
from probeopt.runtime.timesource import VirtualClock
from probeopt.runtime.trace import Recorder
from support import Scalar

BO_QUBO_SEED7_MD5 = "032c72007c3ec2eb23ae5d74a7d183fa"  # the pin of tests/test_cli.py


class _NoEntry:
    """A condition variable that fails every use."""

    def __enter__(self):
        raise AssertionError("a graph channel entered its condition")

    def __exit__(self, *exc):
        return False

    def wait(self, timeout=None):
        raise AssertionError("a graph channel waited on its condition")

    def notify_all(self):
        raise AssertionError("a graph channel notified its condition")


def test_graph_channels_never_enter_their_condition(monkeypatch, tmp_path):
    connect = ProcessGraph.connect
    channels = []

    def without_condition(graph, src, dst, capacity=64):
        channel = connect(graph, src, dst, capacity)
        channel._cond = _NoEntry()
        channels.append(channel)
        return channel

    monkeypatch.setattr(ProcessGraph, "connect", without_condition)
    result = run_scenario(ScenarioConfig("bo-qubo", seed=7, out=tmp_path))
    assert len(channels) == 2
    assert result.ok and not result.report.errors
    assert all(channel.producer_closed and channel.consumer_closed for channel in channels)
    rows = (tmp_path / "iterations.jsonl").read_bytes()
    assert hashlib.md5(rows).hexdigest() == BO_QUBO_SEED7_MD5


def _graph_channel(capacity):
    """A graph channel from ``a.out`` to ``b.in``, and its two processes."""
    graph = ProcessGraph()
    a, b = graph.add_process(Process("a")), graph.add_process(Process("b"))
    a.add_out_port("out")
    b.add_in_port("in")
    return graph.connect(a.out_port("out"), b.in_port("in"), capacity=capacity)


def test_send_on_a_full_graph_channel_names_its_port():
    channel = _graph_channel(capacity=2)
    channel.send(Scalar(0))
    channel.send(Scalar(1))
    with pytest.raises(RunAborted, match=r"^a blocked in send on a\.out$"):
        channel.send(Scalar(2))
    assert [channel.recv().value for _ in range(2)] == [0, 1]


def test_recv_on_an_empty_graph_channel_names_its_port():
    channel = _graph_channel(capacity=2)
    with pytest.raises(RunAborted, match=r"^b blocked in recv on b\.in$"):
        channel.recv()


@pytest.mark.parametrize("blocking", [False, True], ids=["graph", "standalone"])
@pytest.mark.parametrize("fill", [0, 1, 2])
def test_send_to_a_closed_consumer_disconnects_even_when_full(blocking, fill):
    channel = _graph_channel(capacity=2) if not blocking else Channel(capacity=2)
    for i in range(fill):
        channel.send(Scalar(i))
    channel.close_consumer()
    with pytest.raises(Disconnected, match="consumer closed"):
        channel.send(Scalar(9))
    assert not channel.send_nowait(Scalar(9))
    assert channel.probe().count == fill


@pytest.mark.parametrize("blocking", [False, True], ids=["graph", "standalone"])
def test_recv_drains_a_closed_producer_before_it_disconnects(blocking):
    channel = _graph_channel(capacity=4) if not blocking else Channel(capacity=4)
    for i in range(3):
        channel.send(Scalar(i))
    channel.close_producer()
    assert [channel.recv().value for _ in range(3)] == [0, 1, 2]
    with pytest.raises(Disconnected, match="producer closed"):
        channel.recv()
    assert channel.probe().empty


@pytest.mark.parametrize("blocking", [False, True], ids=["graph", "standalone"])
def test_probe_at_capacity(blocking):
    capacity = 3
    channel = _graph_channel(capacity) if not blocking else Channel(capacity=capacity)
    seen = []
    for i in range(capacity):
        seen.append(channel.probe())
        channel.send(Scalar(i))
    full = channel.probe()
    assert full == ProbeResult(capacity) and full.available and not full.empty
    assert [probe.count for probe in seen] == [0, 1, 2]
    assert not channel.send_nowait(Scalar(capacity))
    assert channel.probe() is full  # one table, built once
    channel.recv()
    assert channel.probe() == ProbeResult(capacity - 1)


def test_context_checks_every_port_name_it_has_not_resolved():
    graph = ProcessGraph()
    proc = graph.add_process(Process("p"))
    proc.add_in_port("in")
    proc.add_out_port("out")
    proc.add_in_port("loose")  # never connected
    graph.connect(proc.out_port("out"), proc.in_port("in"), capacity=2)
    ctx = ProcessContext(proc, VirtualClock(), Recorder())
    for _ in range(2):  # a failed lookup is not kept: it fails again
        ctx.send("out", Scalar(1))
        assert ctx.probe("in").count == 1 and ctx.recv("in").value == 1
        with pytest.raises(ConfigError, match="no port named 'nope'"):
            ctx.probe("nope")
        with pytest.raises(ConfigError, match="p.loose is not connected"):
            ctx.recv("loose")
        with pytest.raises(DirectionMismatch, match="p.in is in"):
            ctx.send("in", Scalar(2))
        with pytest.raises(DirectionMismatch, match="p.out is out"):
            ctx.probe("out")
        with pytest.raises(DirectionMismatch, match="p.out is out"):
            ctx.recv("out")
    assert ctx.port_disconnected("loose")
    assert not ctx.port_disconnected("in") and not ctx.port_disconnected("out")
    proc.ports["out"].channel.close_producer()
    assert ctx.port_disconnected("in")
