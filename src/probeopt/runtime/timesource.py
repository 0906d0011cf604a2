"""Pluggable time sources; each picks one of the graph's two drivers.

``TimeSource`` is wall-clock time: sleeps really sleep and every process
of a free-running run has its own thread. ``VirtualClock`` replaces
wall-clock sleeps with per-process logical times: the graph then runs
every process on one driver thread and gives each turn to the process
that holds the floor, the smallest (time, name) pair. A sleep only
advances the sleeper's time, so on this clock a sleep ends the process's
turn, and a run on this clock is reproducible. When every process rests
one tick per turn (``step_interval = 1.0``) the run is lockstep: each
tick steps every live process once, in name order.
A channel op that would block on this clock is reported as the deadlock
at once; only a wall-clock run starts the progress watchdog.
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import ConfigError


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
