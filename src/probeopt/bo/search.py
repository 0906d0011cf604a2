"""Sequential model-based search: suggest a point, fold in an observation.

The search is deterministic given (seed, observation history). The first
``n_init`` suggestions are uniform draws; afterwards each suggestion is
the expected-improvement argmax over a fresh batch of ``n_cand`` uniform
candidates, ties resolved toward the lowest candidate index. EI is
computed only for the candidates whose EI bound reaches the best lower
bound (``ei_contenders``), which always hold that first argmax, so the
suggestion is the one the full batch's EI gives, bit for bit.

A uniform draw is ``lower + widths * rng.random(shape)``, bit for bit
``rng.uniform(lower, upper, shape)``, with the box arrays made once.
Each update appends its point to the training arrays and borders the
model by one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, OutOfBounds
from .acquisition import ei_contenders, expected_improvement
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
        return x.shape == (self.dims,) and all(
            lo <= v <= hi for lo, v, hi in zip(self.lower, x.tolist(), self.upper)
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
    """``n`` uniform points in the box: the batch ``BayesSearch`` draws, bit for bit."""
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
        self.y_best: float | None = None
        self._suggest_calls = 0
        # Box arrays for one point and, row-tiled, for a candidate batch;
        # the widths in float64, as rng.uniform takes them.
        self._lower = np.asarray(space.lower, dtype=float)
        self._widths = np.asarray(space.upper, dtype=float) - self._lower
        self._cand_lower = np.tile(self._lower, (n_cand, 1))
        self._cand_widths = np.tile(self._widths, (n_cand, 1))
        self._xs = np.empty((0, space.dims))
        self._ys = np.empty(0)

    def _draw(self, lower: np.ndarray, widths: np.ndarray) -> np.ndarray:
        x = self.rng.random(lower.shape)
        x *= widths
        x += lower
        return x

    def suggest(self) -> np.ndarray:
        """Next point to evaluate. Consumes RNG draws, so call order matters."""
        self._suggest_calls += 1
        if self._suggest_calls <= self.n_init or self.model is None:
            return self._draw(self._lower, self._widths)
        cands = self._draw(self._cand_lower, self._cand_widths)
        mean, var = gp_predict(self.model, cands)
        kept = ei_contenders(mean, var, self.y_best, self.xi)
        ei = expected_improvement(mean[kept], var[kept], self.y_best, self.xi)
        # np.argmax returns the first maximizer: lowest index wins ties.
        return cands[kept[int(np.argmax(ei))]].copy()

    def update(self, obs: Observation) -> None:
        """Fold in one observation by bordering the model's factor, O(n^2)."""
        x = np.asarray(obs.x, dtype=float)
        if not self.space.contains(x):
            raise OutOfBounds(f"{obs.x} outside {self.space.lower}..{self.space.upper}")
        self.observations.append(obs)
        if self.y_best is None or obs.y > self.y_best:
            self.y_best = obs.y
        self._xs = np.concatenate((self._xs, x[None]))
        self._ys = np.append(self._ys, obs.y)
        self.model = gp_fit(self._xs, self._ys, self.hyper, base=self.model)
