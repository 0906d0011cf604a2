"""Event-driven process graph: channels, probes, barrier and async modes."""

from .channel import Channel, ChannelHooks, ProbeResult
from .graph import Mode, ProcessGraph, RunHandle, RunLimits, RunReport
from .process import Direction, PortSpec, Process, ProcessContext, RefPortHandle, RefVar
from .timesource import TimeSource, VirtualClock
from .tokens import Command, CommandKind, Done, ParamVector, ResultTuple, Scalar, Token
from .trace import ListRecorder, Recorder

__all__ = [
    "Channel",
    "ChannelHooks",
    "Command",
    "CommandKind",
    "Direction",
    "Done",
    "ListRecorder",
    "Mode",
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
    "Scalar",
    "TimeSource",
    "Token",
    "VirtualClock",
]
