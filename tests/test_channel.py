"""Channel semantics: FIFO, backpressure, probing, disconnects."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from probeopt.errors import ConfigError, Disconnected
from probeopt.runtime.channel import Channel
from probeopt.runtime.tokens import Scalar


def test_capacity_must_be_positive():
    with pytest.raises(ConfigError):
        Channel(capacity=0)
    with pytest.raises(ConfigError):
        Channel(capacity=-3)


def test_default_capacity_is_64():
    ch = Channel()
    for i in range(64):
        assert ch.send_nowait(Scalar(i))
    assert not ch.send_nowait(Scalar(64))


def test_fifo_order_single_thread():
    ch = Channel(capacity=32)
    for i in range(20):
        ch.send(Scalar(i))
    got = [ch.recv().value for _ in range(20)]
    assert got == list(range(20))


def test_probe_counts_and_never_blocks():
    ch = Channel(capacity=8)
    assert ch.probe().empty
    assert ch.probe().count == 0
    ch.send(Scalar(1))
    ch.send(Scalar(2))
    assert ch.probe().count == 2
    assert ch.probe().available
    ch.recv()
    assert ch.probe().count == 1


def test_send_blocks_on_full_until_recv():
    ch = Channel(capacity=2)
    ch.send(Scalar(0))
    ch.send(Scalar(1))
    done = threading.Event()

    def sender():
        ch.send(Scalar(2))  # must block until a slot opens
        done.set()

    t = threading.Thread(target=sender, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not done.is_set()
    assert ch.recv().value == 0
    assert done.wait(1.0)
    assert ch.recv().value == 1
    assert ch.recv().value == 2
    t.join(1.0)


def test_recv_blocks_on_empty_until_send():
    ch = Channel(capacity=2)
    got = []
    done = threading.Event()

    def receiver():
        got.append(ch.recv().value)
        done.set()

    t = threading.Thread(target=receiver, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not done.is_set()
    ch.send(Scalar(42))
    assert done.wait(1.0)
    assert got == [42]
    t.join(1.0)


def test_send_to_closed_consumer_raises():
    ch = Channel(capacity=4)
    ch.close_consumer()
    with pytest.raises(Disconnected):
        ch.send(Scalar(1))


def test_recv_drains_then_raises_after_producer_close():
    ch = Channel(capacity=4)
    ch.send(Scalar(1))
    ch.send(Scalar(2))
    ch.close_producer()
    # Buffered tokens still arrive; only then does the disconnect surface.
    assert ch.recv().value == 1
    assert ch.recv().value == 2
    with pytest.raises(Disconnected):
        ch.recv()


def test_probe_on_disconnected_is_empty_with_flag():
    ch = Channel(capacity=4)
    ch.close_producer()
    result = ch.probe()
    assert result.empty
    assert ch.producer_closed  # flag readable separately, probe itself is silent


def test_blocked_sender_wakes_on_consumer_close():
    ch = Channel(capacity=1)
    ch.send(Scalar(0))
    raised = []

    def sender():
        try:
            ch.send(Scalar(1))
        except Disconnected:
            raised.append(True)

    t = threading.Thread(target=sender, daemon=True)
    t.start()
    time.sleep(0.05)
    ch.close_consumer()
    t.join(1.0)
    assert raised == [True]


def test_spsc_stress_exactly_once_fifo():
    """Randomized producer/consumer interleaving, seeded."""
    rng = np.random.default_rng(1234)
    total = 20_000
    ch = Channel(capacity=7)
    received = []

    def producer():
        sent = 0
        while sent < total:
            burst = int(rng.integers(1, 16))
            for _ in range(burst):
                if sent >= total:
                    break
                ch.send(Scalar(sent))
                sent += 1
            if rng.random() < 0.01:
                time.sleep(0.0002)

    def consumer():
        while len(received) < total:
            probe = ch.probe()
            # Probe soundness: everything counted must be receivable now.
            for _ in range(probe.count):
                received.append(ch.recv().value)
            if probe.count == 0:
                time.sleep(0.0001)

    tp = threading.Thread(target=producer, daemon=True)
    tc = threading.Thread(target=consumer, daemon=True)
    tp.start()
    tc.start()
    tp.join(30.0)
    tc.join(30.0)
    assert not tp.is_alive() and not tc.is_alive()
    assert received == list(range(total))  # FIFO and exactly-once together
