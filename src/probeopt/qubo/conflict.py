"""Conflict graph over feasible (satellite, request) assignments.

Two assignments conflict when they cannot both be honored:

* the same request assigned to two different satellites (duplicate work),
* two requests on the same satellite that are too close in sweep
  direction for the instrument to re-aim: |dy| > turn_speed * |dx|.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .problem import Geometry, SatelliteProblem


@dataclass(frozen=True)
class ConflictGraph:
    nodes: tuple[tuple[int, int], ...]  # (satellite, request), sorted
    edges: tuple[tuple[int, int], ...]  # node-index pairs, i < j

    @property
    def n(self) -> int:
        return len(self.nodes)


def visible_pairs(geometry: Geometry, problem: SatelliteProblem) -> list[tuple[int, int]]:
    half = problem.view_height / 2.0
    pairs = []
    for sat, track_y in enumerate(geometry.satellite_y):
        for req in range(problem.n_requests):
            if abs(geometry.request_xy[req, 1] - track_y) <= half:
                pairs.append((sat, req))
    return pairs


def build_conflict_graph(geometry: Geometry, problem: SatelliteProblem) -> ConflictGraph:
    nodes = sorted(visible_pairs(geometry, problem))
    index_of = {node: i for i, node in enumerate(nodes)}
    edges: set[tuple[int, int]] = set()

    by_request: dict[int, list[tuple[int, int]]] = {}
    by_satellite: dict[int, list[tuple[int, int]]] = {}
    for node in nodes:
        by_satellite.setdefault(node[0], []).append(node)
        by_request.setdefault(node[1], []).append(node)

    # One request, many satellites: all pairs conflict.
    for group in by_request.values():
        for a, b in combinations(group, 2):
            i, j = index_of[a], index_of[b]
            edges.add((min(i, j), max(i, j)))

    # One satellite, two requests: conflict when the lateral gap outruns
    # the instrument slew over the sweep distance.
    xy = geometry.request_xy
    for group in by_satellite.values():
        for a, b in combinations(group, 2):
            dx = abs(xy[a[1], 0] - xy[b[1], 0])
            dy = abs(xy[a[1], 1] - xy[b[1], 1])
            if dy > problem.turn_speed * dx:
                i, j = index_of[a], index_of[b]
                edges.add((min(i, j), max(i, j)))

    return ConflictGraph(nodes=tuple(nodes), edges=tuple(sorted(edges)))
