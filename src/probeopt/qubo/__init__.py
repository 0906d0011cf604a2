"""Satellite scheduling as a QUBO, solved by simulated annealing."""

from .anneal import AnnealParams, solve, temperature_schedule
from .conflict import ConflictGraph, build_conflict_graph, visible_pairs
from .model import ConflictQubo, to_qubo
from .problem import Geometry, QuboWeights, SatelliteProblem, generate_geometry
from .schedule import Schedule, decode, violated_edges

__all__ = [
    "AnnealParams",
    "ConflictGraph",
    "ConflictQubo",
    "Geometry",
    "QuboWeights",
    "SatelliteProblem",
    "Schedule",
    "build_conflict_graph",
    "decode",
    "generate_geometry",
    "solve",
    "temperature_schedule",
    "to_qubo",
    "violated_edges",
    "visible_pairs",
]
