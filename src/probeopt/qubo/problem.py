"""Satellite observation-scheduling instances.

Requests are points in the unit square. Each satellite sweeps left to
right along a fixed horizontal track; satellite i of k flies at altitude
y = (i + 0.5) / k. A satellite can serve a request when the request lies
within half the view height of its track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class QuboWeights:
    w_reward: float = 1.0
    w_penalty: float = 2.0

    def __post_init__(self) -> None:
        # Non-finite weights would turn the annealer's zero terms into NaN.
        if not (0 < self.w_reward < math.inf and 0 < self.w_penalty < math.inf):
            raise ConfigError(
                f"qubo weights must be positive and finite, got "
                f"w_reward={self.w_reward}, w_penalty={self.w_penalty}"
            )


@dataclass(frozen=True)
class SatelliteProblem:
    n_satellites: int
    n_requests: int
    view_height: float
    turn_speed: float
    seed: int
    qubo_weights: QuboWeights = field(default_factory=QuboWeights)

    def __post_init__(self) -> None:
        if self.n_satellites <= 0 or self.n_requests <= 0:
            raise ConfigError("need at least one satellite and one request")
        if not 0.0 < self.view_height <= 1.0:
            raise ConfigError("view_height must lie in (0, 1]")
        if self.turn_speed <= 0:
            raise ConfigError("turn_speed must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def with_weights(self, **kwargs: float) -> "SatelliteProblem":
        return replace(self, qubo_weights=replace(self.qubo_weights, **kwargs))

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_satellites": self.n_satellites,
            "n_requests": self.n_requests,
            "view_height": self.view_height,
            "turn_speed": self.turn_speed,
            "seed": self.seed,
            "qubo_weights": {
                "w_reward": self.qubo_weights.w_reward,
                "w_penalty": self.qubo_weights.w_penalty,
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SatelliteProblem":
        weights = data.get("qubo_weights", {})
        return cls(
            n_satellites=int(data["n_satellites"]),
            n_requests=int(data["n_requests"]),
            view_height=float(data["view_height"]),
            turn_speed=float(data["turn_speed"]),
            seed=int(data["seed"]),
            qubo_weights=QuboWeights(
                w_reward=float(weights.get("w_reward", 1.0)),
                w_penalty=float(weights.get("w_penalty", 2.0)),
            ),
        )


@dataclass(frozen=True)
class Geometry:
    request_xy: np.ndarray  # (n_requests, 2) in the unit square
    satellite_y: np.ndarray  # (n_satellites,) track altitudes


def generate_geometry(problem: SatelliteProblem) -> Geometry:
    """Instance geometry is a pure function of the problem seed."""
    rng = np.random.default_rng(problem.seed)
    request_xy = rng.random((problem.n_requests, 2))
    satellite_y = (np.arange(problem.n_satellites) + 0.5) / problem.n_satellites
    return Geometry(request_xy=request_xy, satellite_y=satellite_y)
