"""Minimal event recording for runs that need a post-hoc trace."""

from __future__ import annotations

import threading
from typing import Any


class Recorder:
    """Drops everything. Subclass to keep events."""

    def emit(self, kind: str, **fields: Any) -> None:
        pass


class ListRecorder(Recorder):
    """Thread-safe in-memory event list.

    Events are dicts with a monotonically increasing ``seq`` plus whatever
    the emitter supplied. No wall-clock timestamps: traces from paced runs
    must compare equal across reruns.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []

    def emit(self, kind: str, **fields: Any) -> None:
        with self._lock:
            self._events.append({"seq": len(self._events), "kind": kind, **fields})

    def events(self, kind: str | None = None) -> list[dict[str, Any]]:
        with self._lock:
            if kind is None:
                return list(self._events)
            return [e for e in self._events if e["kind"] == kind]
