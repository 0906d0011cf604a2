"""Satellite observation-scheduling instances.

Requests are points in the unit square. Each satellite sweeps left to
right along a fixed horizontal track; satellite i of k flies at altitude
y = (i + 0.5) / k. A satellite can serve a request when the request lies
within half the view height of its track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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
        # NaN or inf would compare false against every slew: no conflicts.
        if not 0 < self.turn_speed < math.inf:
            raise ConfigError(f"turn_speed must be positive and finite, got {self.turn_speed}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    @classmethod
    def from_dict(cls, data: Any) -> "SatelliteProblem":
        """The problem a parsed JSON document describes.

        The document comes from outside the program, so a missing or
        unknown field, a field that is not a number (or not an integer,
        where one is due), a boolean and a document that is not an object
        each raise ConfigError naming what is wrong.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"expected a JSON object, got {type(data).__name__}")
        _reject_unknown(data, cls)
        weights = data.get("qubo_weights", {})
        if not isinstance(weights, dict):
            raise ConfigError(f"field qubo_weights must be an object, got {weights!r}")
        _reject_unknown(weights, QuboWeights, "qubo_weights.")
        weights = {"w_reward": 1.0, "w_penalty": 2.0, **weights}
        return cls(
            n_satellites=_field(data, "n_satellites", int),
            n_requests=_field(data, "n_requests", int),
            view_height=_field(data, "view_height", float),
            turn_speed=_field(data, "turn_speed", float),
            seed=_field(data, "seed", int),
            qubo_weights=QuboWeights(
                w_reward=_field(weights, "w_reward", float, "qubo_weights."),
                w_penalty=_field(weights, "w_penalty", float, "qubo_weights."),
            ),
        )


def _reject_unknown(data: dict[str, Any], cls: type, where: str = "") -> None:
    """A misspelt key would otherwise fall back to its default unseen."""
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown field {where}{key}")


def _field(data: dict[str, Any], key: str, kind: type, where: str = "") -> Any:
    try:
        value = data[key]
    except KeyError:
        raise ConfigError(f"missing field {where}{key}") from None
    # Check the JSON type: int() would truncate 6.9, and take true as 1.
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, allowed) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    what = "an integer" if kind is int else "a number"
    raise ConfigError(f"field {where}{key} must be {what}, got {value!r}")


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
