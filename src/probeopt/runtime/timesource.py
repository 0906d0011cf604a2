"""Time sources: how the turns of a run's one driver wait.

One driver thread steps every process of a run. Each turn goes to the
participant that holds the floor, the smallest (time, name) pair. A
sleep only moves the sleeper's time on, so a sleep ends the process's
turn, and work a step does after sleeping still happens before any other
participant's turn. The time source decides only how a turn waits:

* ``TimeSource`` is wall-clock time. A participant's time is the
  monotonic instant at which it is next due, and ``gate`` sleeps until
  then.
* ``VirtualClock`` keeps logical times and never waits, so a run on it
  is reproducible. When every process rests one tick per turn
  (``step_interval = 1.0``) the run is lockstep: each tick steps every
  live process once, in name order.
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import ConfigError


class TimeSource:
    """Wall-clock time: each participant is due at a monotonic instant.

    Every participant starts at time 0, an instant already past, so the
    first pass goes in name order, as on the clock.
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
        floor, floor_at = None, 0.0
        for name, at in self._times.items():  # one pass for the least (time, name)
            if floor is None or at < floor_at or (at == floor_at and name < floor):
                floor, floor_at = name, at
        return floor

    def gate(self, name: str) -> None:
        """Called as ``name`` is about to act: sleep until it is due."""
        wait = self._times[name] - time.monotonic()
        if wait > 0:
            time.sleep(wait)

    def sleep(self, name: str, duration: float) -> None:
        """Make ``name`` due ``duration`` after now, or after its due instant if later."""
        if name in self._times:
            self._times[name] = max(self._times[name], time.monotonic()) + max(duration, 0.0)


class VirtualClock(TimeSource):
    """Deterministic logical time shared by a set of named participants.

    Ties are broken by name, so given fixed participant names the full
    interleaving of turns is a pure function of the sleep durations
    requested.
    """

    def gate(self, name: str) -> None:
        """No-op: logical time has nothing to wait for."""

    def sleep(self, name: str, duration: float) -> None:
        if name in self._times:
            self._times[name] += max(duration, 0.0)
