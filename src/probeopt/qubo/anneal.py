"""Simulated annealing over a QUBO with a geometric cooling schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .kernels import sweep, temperature_schedule  # noqa: F401 - AnnealParams' ladder, re-exported
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


def solve(qubo: ConflictQubo, params: AnnealParams, rng: np.random.Generator) -> np.ndarray:
    """Anneal from the all-zeros state; return the best state visited before
    a certified stop, int64 0/1.

    The accept rolls are the only randomness: those of
    ``rng.random((sweeps, n))``, so a given generator state fully
    determines the result. The sweeps stop once the best state selects
    ``qubo.clique_cover`` nodes with no conflict: it is then a maximum
    independent set, and the best state of the full schedule would score
    the same (``kernels``). A solve pays only for the sweeps it runs: the
    kernel draws the first sweep's rolls and runs it at ``t_start``, and
    draws the other rolls and builds the ``temperature_schedule`` ladder
    only if it goes on.
    """
    state = np.zeros(qubo.n, dtype=np.int64)
    best_state = np.zeros(qubo.n, dtype=np.int64)
    sweep(qubo, params, rng, state, best_state, clique_cover=qubo.clique_cover)
    return best_state
