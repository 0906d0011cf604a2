"""QUBO encoding of the conflict graph.

Selecting a node earns -w_reward on the diagonal; each conflict edge
carries +w_penalty off-diagonal. Minimizing x^T Q x therefore prefers
large conflict-free selections whenever w_penalty > w_reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, EmptyGraph
from .conflict import ConflictGraph
from .problem import QuboWeights


@dataclass(frozen=True)
class QuboMatrix:
    q: np.ndarray  # (n, n) float64, upper triangular

    @property
    def n(self) -> int:
        return self.q.shape[0]


def to_qubo(graph: ConflictGraph, weights: QuboWeights) -> QuboMatrix:
    n = graph.n
    if n == 0:
        raise EmptyGraph("conflict graph has no nodes")
    q = np.zeros((n, n), dtype=np.float64)
    np.fill_diagonal(q, -weights.w_reward)
    for i, j in graph.edges:
        q[i, j] = weights.w_penalty
    return QuboMatrix(q=q)


def energy(qubo: QuboMatrix, state: np.ndarray) -> float:
    """x^T Q x with Q upper triangular: each pair counted exactly once."""
    x = np.asarray(state, dtype=np.float64).ravel()
    if x.shape[0] != qubo.n:
        raise DimensionMismatch(f"state has {x.shape[0]} bits, QUBO has {qubo.n}")
    return float(x @ qubo.q @ x)

