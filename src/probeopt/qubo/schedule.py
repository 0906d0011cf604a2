"""Turn an annealer state into a feasible schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflict import ConflictGraph


@dataclass(frozen=True)
class Schedule:
    assignments: tuple[tuple[int, int], ...]  # conflict-free (satellite, request)
    score: int  # distinct requests served


def violated_edges(graph: ConflictGraph, selected: set[int]) -> list[tuple[int, int]]:
    return [(i, j) for i, j in graph.edges if i in selected and j in selected]


def decode(state: np.ndarray, graph: ConflictGraph) -> Schedule:
    """Greedy repair: repeatedly drop the selected node with the most
    violated incident edges (ties toward the higher index) until the
    selection is conflict-free, then score distinct requests served."""
    selected = {i for i, bit in enumerate(np.asarray(state).ravel().tolist()) if bit}
    while True:
        violated = violated_edges(graph, selected)
        if not violated:
            break
        degree: dict[int, int] = {}
        for i, j in violated:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        drop = max(degree.items(), key=lambda kv: (kv[1], kv[0]))[0]
        selected.remove(drop)
    assignments = tuple(sorted(graph.nodes[i] for i in selected))
    score = len({req for _sat, req in assignments})
    return Schedule(assignments=assignments, score=score)
