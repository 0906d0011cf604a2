"""Simulated annealing over a QUBO with a geometric cooling schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .kernels import sweep
from .model import ConflictQubo


@dataclass(frozen=True)
class AnnealParams:
    sweeps: int = 200
    t_start: float = 2.0
    t_end: float = 0.05

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise ConfigError("need at least one sweep")
        if not self.t_start >= self.t_end > 0:
            raise ConfigError("temperatures must satisfy t_start >= t_end > 0")


def temperature_schedule(params: AnnealParams) -> np.ndarray:
    """Geometric ladder from t_start down to t_end, one rung per sweep."""
    if params.sweeps == 1:
        return np.array([params.t_start])
    ratio = params.t_end / params.t_start
    exponents = np.arange(params.sweeps) / (params.sweeps - 1)
    return params.t_start * ratio**exponents


def solve(qubo: ConflictQubo, params: AnnealParams, rng: np.random.Generator) -> np.ndarray:
    """Anneal from the all-zeros state; return the best state visited before
    a certified stop, int64 0/1.

    The accept rolls are the only randomness: those of
    ``rng.random((sweeps, n))``, so a given generator state fully
    determines the result. The sweeps stop once the best state selects
    ``qubo.clique_cover`` nodes with no conflict: it is then a maximum
    independent set, and the best state of the full schedule would score
    the same (``kernels``). The kernel draws the first sweep's rolls, and
    the rest only if it goes on.
    """
    n = qubo.n
    temps = temperature_schedule(params)
    state = np.zeros(n, dtype=np.int64)
    best_state = np.zeros(n, dtype=np.int64)
    sweep(qubo, temps, rng, state, best_state, clique_cover=qubo.clique_cover)
    return best_state
