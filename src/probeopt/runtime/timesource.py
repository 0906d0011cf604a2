"""Sleep policies and pluggable time sources.

``TimeSource`` is the normal mode: sleeps are wall-clock and every
process of a free-running run has its own thread. ``VirtualClock``
replaces wall-clock sleeps with per-process logical times so a
free-running run becomes reproducible: the graph then runs every process
on one driver thread and gives each turn to the process that holds the
floor, the smallest (time, name) pair. A sleep only advances the
sleeper's time, so in a paced run a sleep ends the process's turn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError


@dataclass(frozen=True)
class SleepPolicy:
    """Backoff schedule for re-probing an empty port.

    ``delay(attempt)`` = min(base_delay * factor**attempt, max_delay).
    The defaults give a constant 10 ms pause, which in practice beats
    exponential backoff here: result latency is bounded, so the tail
    penalty of a long backoff is paid on every single iteration.
    """

    base_delay: float = 0.010
    factor: float = 1.0
    max_delay: float = 0.010

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("sleep delays must be nonnegative")
        if self.factor < 1.0:
            raise ConfigError("backoff factor must be >= 1")

    def delay(self, attempt: int) -> float:
        # Cap the exponent: beyond ~64 doublings every real schedule has
        # saturated at max_delay, and float ** raises on huge exponents.
        return min(self.base_delay * self.factor ** min(attempt, 64), self.max_delay)


class TimeSource:
    """Wall-clock time. gate is a no-op; sleep really sleeps."""

    def gate(self, name: str) -> None:
        """Called as ``name`` is about to act. No-op in real time."""

    def sleep(self, name: str, duration: float) -> None:
        if duration > 0:
            time.sleep(duration)


class VirtualClock(TimeSource):
    """Deterministic logical time shared by a set of named participants.

    The participant with the lexicographically smallest (time, name) pair
    holds the floor, and the run's driver steps only that participant.
    Ties are broken by name, so given fixed participant names the full
    interleaving of paced turns is a pure function of the sleep durations
    requested. Work a step does after sleeping still happens before any
    other participant's turn.
    """

    def __init__(self) -> None:
        self._times: dict[str, float] = {}

    def register(self, name: str) -> None:
        if name in self._times:
            raise ConfigError(f"duplicate clock participant {name!r}")
        self._times[name] = 0.0

    def unregister(self, name: str) -> None:
        self._times.pop(name, None)

    def floor(self) -> Optional[str]:
        """The participant whose turn is next; None once none is left."""
        if not self._times:
            return None
        return min(self._times, key=lambda name: (self._times[name], name))

    def gate(self, name: str) -> None:
        """No-op: the driver only gives a turn to the floor holder."""

    def sleep(self, name: str, duration: float) -> None:
        if name in self._times:
            self._times[name] += max(duration, 0.0)
