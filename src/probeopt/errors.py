"""Exception types shared across the package."""

from __future__ import annotations


class ProbeoptError(Exception):
    """Base class for all package errors."""


class ConfigError(ProbeoptError, ValueError):
    """Invalid runtime or experiment configuration."""


class PortAlreadyConnected(ProbeoptError):
    pass


class DirectionMismatch(ProbeoptError):
    pass


class Disconnected(ProbeoptError):
    """Channel peer closed: send with no consumer, or recv with an empty
    buffer and no producer left to fill it."""


class UnknownProcess(ProbeoptError, KeyError):
    pass


class CommandAfterStop(ProbeoptError):
    """Stop is terminal; no further commands may target the process."""


class RunAborted(ProbeoptError):
    """Raised by a channel op that would block inside a graph: one driver
    steps every process, so no peer can complete it. Internal control
    flow; the driver converts it into a deadlock report."""


class DimensionMismatch(ProbeoptError, ValueError):
    pass


class OutOfBounds(ProbeoptError, ValueError):
    pass


class NotPositiveDefinite(ProbeoptError, ValueError):
    """Gram matrix failed its Cholesky factorization."""


class EmptyGraph(ProbeoptError, ValueError):
    """No visible satellite/request pairs, so there is nothing to encode."""


class MalformedGraph(ProbeoptError, ValueError):
    """Conflict edges with a self-loop, a repeat or an endpoint out of range."""
