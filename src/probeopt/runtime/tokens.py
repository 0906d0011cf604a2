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
    """A point in the search space, sent optimizer -> evaluator."""

    values: tuple[float, ...]


@dataclass(frozen=True)
class ResultTuple:
    """An evaluated point, sent evaluator -> optimizer.

    ``params`` echoes the request so the receiver can pair results with
    requests without trusting arrival order alone.
    """

    params: tuple[float, ...]
    score: float


Token = Union[ParamVector, ResultTuple]
