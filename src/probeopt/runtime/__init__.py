"""Event-driven process graph: channels, probes, and one driver whose turns the time source paces."""

from .channel import Channel, ProbeResult
from .graph import ProcessGraph, RunHandle, RunLimits, RunReport
from .process import Direction, PortSpec, Process, ProcessContext, RefPortHandle, RefVar
from .timesource import TimeSource, VirtualClock
from .tokens import CommandKind, ParamVector, ResultTuple, Token
from .trace import ListRecorder, Recorder

__all__ = [
    "Channel",
    "CommandKind",
    "Direction",
    "ListRecorder",
    "ParamVector",
    "PortSpec",
    "ProbeResult",
    "Process",
    "ProcessContext",
    "ProcessGraph",
    "Recorder",
    "RefPortHandle",
    "RefVar",
    "ResultTuple",
    "RunHandle",
    "RunLimits",
    "RunReport",
    "TimeSource",
    "Token",
    "VirtualClock",
]
