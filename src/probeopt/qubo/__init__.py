"""Satellite scheduling as a QUBO, solved by simulated annealing."""

from .anneal import AnnealParams, AnnealResult, solve, temperature_schedule
from .conflict import ConflictGraph, build_conflict_graph, visible_pairs
from .model import QuboMatrix, energy, to_qubo
from .problem import Geometry, QuboWeights, SatelliteProblem, generate_geometry
from .schedule import Schedule, decode, violated_edges, violation_count

__all__ = [
    "AnnealParams",
    "AnnealResult",
    "ConflictGraph",
    "Geometry",
    "QuboMatrix",
    "QuboWeights",
    "SatelliteProblem",
    "Schedule",
    "build_conflict_graph",
    "decode",
    "energy",
    "generate_geometry",
    "solve",
    "temperature_schedule",
    "to_qubo",
    "violated_edges",
    "violation_count",
    "visible_pairs",
]
