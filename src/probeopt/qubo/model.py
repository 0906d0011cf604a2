"""QUBO encoding of the conflict graph.

Selecting a node earns -w_reward on the diagonal; each conflict edge
carries +w_penalty off-diagonal. Minimizing x^T Q x therefore prefers
large conflict-free selections whenever w_penalty > w_reward.

This weighted independent-set form is the only QUBO the package builds,
so it is stored sparsely: the two weights and each node's neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import EmptyGraph, MalformedGraph
from .conflict import ConflictGraph
from .problem import QuboWeights


@dataclass(frozen=True)
class ConflictQubo:
    n: int
    w_reward: float
    w_penalty: float
    neighbours: tuple[tuple[int, ...], ...]  # per node, sorted, no self or repeat


def to_qubo(graph: ConflictGraph, weights: QuboWeights) -> ConflictQubo:
    """Sparse QUBO of ``graph``; its edges must form a simple graph.

    A self-loop would overwrite a diagonal entry and a repeated edge
    would sum twice, so neither encodes as one ``w_penalty`` per edge.
    """
    if graph.n == 0:
        raise EmptyGraph("conflict graph has no nodes")
    return ConflictQubo(
        n=graph.n,
        w_reward=weights.w_reward,
        w_penalty=weights.w_penalty,
        neighbours=_neighbours(graph),
    )


@lru_cache(maxsize=1)
def _neighbours(graph: ConflictGraph) -> tuple[tuple[int, ...], ...]:
    """Each node's sorted neighbours. Cached: a run tunes the weights of
    one graph, so every request of a run shares this."""
    n = graph.n
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for i, j in graph.edges:
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedGraph(f"edge ({i}, {j}) is out of range for {n} nodes")
        if i == j:
            raise MalformedGraph(f"edge ({i}, {j}) is a self-loop")
        if j in neighbours[i]:
            raise MalformedGraph(f"edge ({i}, {j}) appears twice")
        neighbours[i].add(j)
        neighbours[j].add(i)
    return tuple(tuple(sorted(row)) for row in neighbours)
