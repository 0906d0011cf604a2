"""QUBO encoding of the conflict graph.

Selecting a node earns -w_reward on the diagonal; each conflict edge
carries +w_penalty off-diagonal. Minimizing x^T Q x therefore prefers
large conflict-free selections whenever w_penalty > w_reward.

This weighted independent-set form is the only QUBO the package builds,
so it is stored sparsely: the two weights and each node's neighbours,
plus the size of a greedy clique cover, which bounds every conflict-free
selection and lets the annealer certify an optimum.
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
    degree: int  # the most neighbours any node has
    # Cliques in a greedy clique cover. A conflict-free selection takes at
    # most one node of each clique, so it selects at most this many nodes;
    # one that selects exactly this many is a maximum independent set.
    clique_cover: int


def to_qubo(graph: ConflictGraph, weights: QuboWeights) -> ConflictQubo:
    """Sparse QUBO of ``graph``; its edges must form a simple graph.

    A self-loop would overwrite a diagonal entry and a repeated edge
    would sum twice, so neither encodes as one ``w_penalty`` per edge.
    """
    if graph.n == 0:
        raise EmptyGraph("conflict graph has no nodes")
    neighbours, degree, clique_cover = _graph_tables(graph)
    return ConflictQubo(
        n=graph.n,
        w_reward=weights.w_reward,
        w_penalty=weights.w_penalty,
        neighbours=neighbours,
        degree=degree,
        clique_cover=clique_cover,
    )


@lru_cache(maxsize=1)
def _graph_tables(graph: ConflictGraph) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """Each node's sorted neighbours, the largest degree, and the size of a
    greedy clique cover.

    Cached: a run tunes the weights of one graph, so every request of a
    run shares all three.
    """
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
    rows = tuple(tuple(sorted(row)) for row in neighbours)
    return rows, max(map(len, rows)), _greedy_clique_cover(rows, neighbours)


def _greedy_clique_cover(rows, neighbours) -> int:
    """Cliques in a greedy clique cover: each uncovered node, in index
    order, opens a clique and takes every uncovered neighbour, in index
    order, that is adjacent to all of the clique's members so far."""
    covered = [False] * len(rows)
    cliques = 0
    for v, row in enumerate(rows):
        if covered[v]:
            continue
        cliques += 1
        covered[v] = True
        common = neighbours[v]  # nodes adjacent to every member
        for u in row:
            if not covered[u] and u in common:
                covered[u] = True
                common = common & neighbours[u]
    return cliques
