"""Sequential model-based search: suggest a point, fold in an observation.

The search is deterministic given (seed, observation history). The first
``n_init`` suggestions are uniform draws; afterwards each suggestion is
the expected-improvement argmax over a fresh batch of ``n_cand`` uniform
candidates, ties resolved toward the lowest candidate index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, OutOfBounds
from .acquisition import expected_improvement
from .gp import GPHyper, GPModel, gp_fit, gp_predict


@dataclass(frozen=True)
class SearchSpace:
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper) or not self.lower:
            raise DimensionMismatch("bounds must be nonempty and equal length")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise OutOfBounds(f"empty interval [{lo}, {hi}]")

    @property
    def dims(self) -> int:
        return len(self.lower)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            x.shape == (self.dims,)
            and np.all(x >= np.asarray(self.lower))
            and np.all(x <= np.asarray(self.upper))
        )

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.upper) - np.asarray(self.lower)


@dataclass(frozen=True)
class Observation:
    x: tuple[float, ...]
    y: float


def default_hyper(space: SearchSpace) -> GPHyper:
    # Length scale at a fifth of the mean box width: wide enough to share
    # information across the box, narrow enough to keep local structure.
    return GPHyper(
        signal_var=1.0,
        length_scale=0.2 * float(np.mean(space.widths)),
        noise_var=1e-4,
    )


def draw_candidates(rng: np.random.Generator, space: SearchSpace, n: int) -> np.ndarray:
    return rng.uniform(space.lower, space.upper, size=(n, space.dims))


class BayesSearch:
    """Ask/tell optimizer over a box, maximizing a noisy black box."""

    def __init__(
        self,
        space: SearchSpace,
        seed: int,
        n_init: int = 5,
        n_cand: int = 512,
        xi: float = 0.01,
        hyper: GPHyper | None = None,
    ) -> None:
        self.space = space
        self.n_init = n_init
        self.n_cand = n_cand
        self.xi = xi
        self.hyper = hyper or default_hyper(space)
        self.rng = np.random.default_rng(seed)
        self.observations: list[Observation] = []
        self.model: GPModel | None = None
        self._suggest_calls = 0

    @property
    def y_best(self) -> float | None:
        if not self.observations:
            return None
        return max(o.y for o in self.observations)

    def suggest(self) -> np.ndarray:
        """Next point to evaluate. Consumes RNG draws, so call order matters."""
        self._suggest_calls += 1
        if self._suggest_calls <= self.n_init or self.model is None:
            return self.rng.uniform(self.space.lower, self.space.upper, size=self.space.dims)
        cands = draw_candidates(self.rng, self.space, self.n_cand)
        mean, var = gp_predict(self.model, cands)
        ei = expected_improvement(mean, var, self.y_best, self.xi)
        # np.argmax returns the first maximizer: lowest index wins ties.
        return cands[int(np.argmax(ei))].copy()

    def update(self, obs: Observation) -> None:
        """Fold in one observation by bordering the model's factor, O(n^2)."""
        x = np.asarray(obs.x, dtype=float)
        if not self.space.contains(x):
            raise OutOfBounds(f"{obs.x} outside {self.space.lower}..{self.space.upper}")
        self.observations.append(obs)
        xs = np.array([o.x for o in self.observations], dtype=float)
        ys = np.array([o.y for o in self.observations], dtype=float)
        self.model = gp_fit(xs, ys, self.hyper, base=self.model)
