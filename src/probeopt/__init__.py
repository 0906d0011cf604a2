"""probeopt: asynchronous probe-based optimization on a process graph.

An event-driven runtime (processes, bounded channels, non-blocking
probes, deadlock detection) plus a Gaussian-process optimizer
that drives a simulated-annealing QUBO solver for satellite observation
scheduling, entirely through asynchronous message passing.
"""

from . import bo, harness, optimizer, qubo, runtime
from .errors import ProbeoptError

__version__ = "0.1.0"

__all__ = ["ProbeoptError", "bo", "harness", "optimizer", "qubo", "runtime", "__version__"]
