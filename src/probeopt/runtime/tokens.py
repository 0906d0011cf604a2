"""Message types that travel through channels.

Every payload is immutable so a token cannot change after it is enqueued:
delivery is by reference, and exactly-once semantics would be meaningless
if the sender could mutate a token in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union


class CommandKind(Enum):
    RUN = "run"
    PAUSE = "pause"
    STOP = "stop"


@dataclass(frozen=True)
class ParamVector:
    """A point in the search space, sent optimizer -> evaluator.

    ``request`` numbers the request within its run, from 0. It is the one
    key that pairs a request with its result, seeds the solve that scores
    it and joins its rows.
    """

    request: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class ResultTuple:
    """The score of request ``request``, sent evaluator -> optimizer."""

    request: int
    score: float


Token = Union[ParamVector, ResultTuple]
