"""Bounded single-producer single-consumer FIFO channels.

A channel is the only way data moves between processes. ``send`` waits
while the buffer is full, ``recv`` waits while it is empty, and ``probe``
never waits. Both check the closed peer first. Inside a graph one driver
thread steps every process, so no peer can ever end such a wait: a
graph's channels (``blocking=False``) raise RunAborted at the op instead,
and the driver reports it as the deadlock. Only that one thread ever
touches a graph channel, so its ops take no lock. A standalone channel
waits on a condition variable, so two threads of its own can drive it.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..errors import ConfigError, Disconnected, RunAborted
from .tokens import Token


@dataclass(frozen=True)
class ProbeResult:
    """Snapshot of an input port: how many tokens could be received now."""

    count: int

    @property
    def available(self) -> bool:
        return self.count > 0

    @property
    def empty(self) -> bool:
        return self.count == 0


class Channel:
    def __init__(self, cid: str = "channel", capacity: int = 64, blocking: bool = True) -> None:
        if capacity <= 0:
            raise ConfigError(f"channel capacity must be positive, got {capacity}")
        self.cid = cid
        self.capacity = capacity
        self._blocking = blocking
        self._buf: deque[Token] = deque()
        self._cond = threading.Condition()
        # Every answer probe can give, built once: the count never exceeds capacity.
        self._probes = tuple(ProbeResult(count) for count in range(capacity + 1))
        self._producer_closed = False
        self._consumer_closed = False
        # Endpoint labels, filled in by graph.connect for diagnostics.
        self.producer_label = "producer"
        self.consumer_label = "consumer"
        self.producer_port = cid
        self.consumer_port = cid

    # -- wiring -----------------------------------------------------------

    def set_labels(self, producer: str, producer_port: str, consumer: str, consumer_port: str) -> None:
        self.producer_label = producer
        self.producer_port = producer_port
        self.consumer_label = consumer
        self.consumer_port = consumer_port

    # -- state flags ------------------------------------------------------

    @property
    def producer_closed(self) -> bool:
        return self._producer_closed

    @property
    def consumer_closed(self) -> bool:
        return self._consumer_closed

    def close_producer(self) -> None:
        if not self._blocking:
            self._producer_closed = True
            return
        with self._cond:
            self._producer_closed = True
            self._cond.notify_all()

    def close_consumer(self) -> None:
        if not self._blocking:
            self._consumer_closed = True
            return
        with self._cond:
            self._consumer_closed = True
            self._cond.notify_all()

    # -- data plane -------------------------------------------------------
    #
    # Each op checks in the same order on both kinds of channel: a send to a
    # closed consumer raises Disconnected even when the buffer is full, and
    # recv drains the buffer before it raises Disconnected. Where a graph
    # channel would have to wait, it raises RunAborted naming the port.

    def send(self, token: Token) -> None:
        """Enqueue a token, waiting while the buffer is full."""
        if not self._blocking:
            if self._consumer_closed:
                raise Disconnected(f"{self.cid}: consumer closed")
            if len(self._buf) >= self.capacity:
                raise RunAborted(f"{self.producer_label} blocked in send on {self.producer_port}")
            self._buf.append(token)
            return
        with self._cond:
            while not self._consumer_closed and len(self._buf) >= self.capacity:
                self._cond.wait()
            if self._consumer_closed:
                raise Disconnected(f"{self.cid}: consumer closed")
            self._buf.append(token)
            self._cond.notify_all()

    def send_nowait(self, token: Token) -> bool:
        """Best-effort enqueue: False when full or closed."""
        with self._cond:
            if self._consumer_closed or len(self._buf) >= self.capacity:
                return False
            self._buf.append(token)
            self._cond.notify_all()
        return True

    def recv(self) -> Token:
        """Dequeue the oldest token, waiting while the buffer is empty."""
        if not self._blocking:
            if self._buf:
                return self._buf.popleft()
            if self._producer_closed:
                raise Disconnected(f"{self.cid}: producer closed")
            raise RunAborted(f"{self.consumer_label} blocked in recv on {self.consumer_port}")
        with self._cond:
            while not self._buf and not self._producer_closed:
                self._cond.wait()
            if not self._buf:
                raise Disconnected(f"{self.cid}: producer closed")
            token = self._buf.popleft()
            self._cond.notify_all()
        return token

    def probe(self) -> ProbeResult:
        """Count receivable tokens without blocking.

        Never raises: a disconnected channel simply probes Empty once
        drained, and the flag is readable via ``producer_closed``.
        """
        if not self._blocking:
            return self._probes[len(self._buf)]
        with self._cond:
            return self._probes[len(self._buf)]
