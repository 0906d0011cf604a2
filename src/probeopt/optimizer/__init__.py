"""Non-blocking optimizer process and its done-flag poller."""

from .loop import AsyncOptimizer, await_done

__all__ = ["AsyncOptimizer", "await_done"]
