"""Optimizer processes: the probing one and its blocking counterpart."""

from .loop import AsyncOptimizer, BlockingOptimizer

__all__ = ["AsyncOptimizer", "BlockingOptimizer"]
