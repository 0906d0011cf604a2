"""Bounded single-producer single-consumer FIFO channels.

A channel is the only way data moves between processes. ``send`` blocks
while the buffer is full, ``recv`` blocks while it is empty, and ``probe``
never blocks. Both check the closed peer before reporting a would-block
op, which on a clock run the hooks turn into the deadlock. All
waiting is condition-variable based with a short wait timeout so an abort
(watchdog teardown) is noticed promptly even if a notify is lost to a race.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError, Disconnected, RunAborted
from .tokens import Token

# Safety net so an aborted run never leaves a thread parked forever on a
# missed notify. Purely an upper bound on wakeup latency, not a poll rate.
_WAIT_SLICE_S = 0.2


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


def _describe_blocked(table: dict[str, tuple[str, str]]) -> str:
    return "; ".join(f"{w} blocked in {op} on {port}" for w, (op, port) in sorted(table.items()))


class ChannelHooks:
    """What the channels of one run report: progress, and who is blocked where.

    ``progress`` is called on every completed send/recv so a watchdog can
    distinguish a stalled run from a slow one. ``blocked``/``unblocked``
    maintain a table of who is parked on which port, used to build the
    deadlock diagnostic. With ``single_driver`` set nothing can complete
    a would-block op, so ``blocked`` raises RunAborted before the op waits.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._progress = 0
        self._blocked: dict[str, tuple[str, str]] = {}
        self.single_driver = False

    def progress(self) -> None:
        with self._lock:
            self._progress += 1

    def progress_count(self) -> int:
        with self._lock:
            return self._progress

    def blocked(self, who: str, op: str, port: str) -> None:
        if self.single_driver:
            raise RunAborted(_describe_blocked({who: (op, port)}))
        with self._lock:
            self._blocked[who] = (op, port)

    def unblocked(self, who: str) -> None:
        with self._lock:
            self._blocked.pop(who, None)

    def describe_blocked(self) -> str:
        """``"<who> blocked in <op> on <port>"`` per parked process, by name."""
        with self._lock:
            return _describe_blocked(self._blocked)


class Channel:
    def __init__(
        self,
        cid: str = "channel",
        capacity: int = 64,
        hooks: Optional[ChannelHooks] = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigError(f"channel capacity must be positive, got {capacity}")
        self.cid = cid
        self.capacity = capacity
        self._hooks = hooks or ChannelHooks()
        self._buf: deque[Token] = deque()
        self._cond = threading.Condition()
        self._producer_closed = False
        self._consumer_closed = False
        self._aborted = False
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
        with self._cond:
            self._producer_closed = True
            self._cond.notify_all()

    def close_consumer(self) -> None:
        with self._cond:
            self._consumer_closed = True
            self._cond.notify_all()

    def abort(self) -> None:
        """Wake every blocked peer with RunAborted. Called on watchdog fire."""
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    # -- data plane -------------------------------------------------------

    def send(self, token: Token) -> None:
        """Enqueue a token, blocking while the buffer is full."""
        with self._cond:
            if self._consumer_closed:
                raise Disconnected(f"{self.cid}: consumer closed")
            if self._aborted:
                raise RunAborted(self.cid)
            if len(self._buf) >= self.capacity:
                self._hooks.blocked(self.producer_label, "send", self.producer_port)
                try:
                    while len(self._buf) >= self.capacity:
                        if self._consumer_closed:
                            raise Disconnected(f"{self.cid}: consumer closed")
                        if self._aborted:
                            raise RunAborted(self.cid)
                        self._cond.wait(_WAIT_SLICE_S)
                finally:
                    self._hooks.unblocked(self.producer_label)
            self._buf.append(token)
            self._cond.notify_all()
        self._hooks.progress()

    def send_nowait(self, token: Token) -> bool:
        """Best-effort enqueue: False when full, closed, or aborted."""
        with self._cond:
            if self._consumer_closed or self._aborted or len(self._buf) >= self.capacity:
                return False
            self._buf.append(token)
            self._cond.notify_all()
        self._hooks.progress()
        return True

    def recv(self) -> Token:
        """Dequeue the oldest token, blocking while the buffer is empty."""
        with self._cond:
            if not self._buf:
                if self._producer_closed:
                    raise Disconnected(f"{self.cid}: producer closed")
                self._hooks.blocked(self.consumer_label, "recv", self.consumer_port)
                try:
                    while not self._buf:
                        if self._producer_closed:
                            raise Disconnected(f"{self.cid}: producer closed")
                        if self._aborted:
                            raise RunAborted(self.cid)
                        self._cond.wait(_WAIT_SLICE_S)
                finally:
                    self._hooks.unblocked(self.consumer_label)
            token = self._buf.popleft()
            self._cond.notify_all()
        self._hooks.progress()
        return token

    def probe(self) -> ProbeResult:
        """Count receivable tokens without blocking.

        Never raises: a disconnected channel simply probes Empty once
        drained, and the flag is readable via ``producer_closed``.
        """
        with self._cond:
            return ProbeResult(count=len(self._buf))
