"""Non-blocking optimizer process."""

from .loop import AsyncOptimizer

__all__ = ["AsyncOptimizer"]
