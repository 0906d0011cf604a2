"""Process base class, ports, and the per-process execution context."""

from __future__ import annotations

import threading
from enum import Enum
from typing import Any, Optional

from ..errors import ConfigError, DirectionMismatch
from .channel import Channel, ProbeResult
from .timesource import TimeSource
from .tokens import Token
from .trace import Recorder


class Direction(Enum):
    IN = "in"
    OUT = "out"


class PortSpec:
    """A named endpoint on a process. Carries its channel once connected."""

    def __init__(self, name: str, direction: Direction, owner: "Process") -> None:
        self.name = name
        self.direction = direction
        self.owner = owner
        self.channel: Optional[Channel] = None

    @property
    def connected(self) -> bool:
        return self.channel is not None

    def __repr__(self) -> str:
        return f"PortSpec({self.owner.name}.{self.name}, {self.direction.value})"


class RefVar:
    """Single shared variable readable outside the owning process.

    Writes and reads are individually atomic; there is deliberately no
    read-modify-write, so torn updates cannot exist by construction.
    """

    def __init__(self, initial: Any) -> None:
        self._lock = threading.Lock()
        self._value = initial

    def read(self) -> Any:
        with self._lock:
            return self._value

    def write(self, value: Any) -> None:
        with self._lock:
            self._value = value


class RefPortHandle:
    """Reader-side view of another process's RefVar."""

    def __init__(self, var: RefVar) -> None:
        self._var = var

    def read(self) -> Any:
        """Snapshot the current value. Valid even after the target stops."""
        return self._var.read()


class Process:
    """A unit of computation driven by repeated ``step`` calls.

    ``step`` returns True when the process is finished. The runtime checks
    for Run/Pause/Stop between steps and calls ``finish`` once on every way
    out of the run, so a process never handles commands itself.
    """

    step_interval: float = 0.0

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigError("process name must be nonempty")
        self.name = name
        self.ports: dict[str, PortSpec] = {}
        self.refs: dict[str, RefVar] = {}

    # -- wiring -----------------------------------------------------------

    def add_in_port(self, name: str) -> PortSpec:
        return self._add_port(name, Direction.IN)

    def add_out_port(self, name: str) -> PortSpec:
        return self._add_port(name, Direction.OUT)

    def _add_port(self, name: str, direction: Direction) -> PortSpec:
        if name in self.ports:
            raise ConfigError(f"{self.name}: duplicate port {name!r}")
        spec = PortSpec(name, direction, self)
        self.ports[name] = spec
        return spec

    def in_port(self, name: str) -> PortSpec:
        return self._port(name, Direction.IN)

    def out_port(self, name: str) -> PortSpec:
        return self._port(name, Direction.OUT)

    def _port(self, name: str, direction: Optional[Direction] = None) -> PortSpec:
        """The port called ``name``, checked against ``direction`` when given."""
        try:
            spec = self.ports[name]
        except KeyError:
            raise ConfigError(f"{self.name}: no port named {name!r}") from None
        if direction is not None and spec.direction is not direction:
            raise DirectionMismatch(f"{self.name}.{name} is {spec.direction.value}")
        return spec

    def expose_ref(self, name: str, initial: Any) -> RefVar:
        if name in self.refs:
            raise ConfigError(f"{self.name}: duplicate ref {name!r}")
        var = RefVar(initial)
        self.refs[name] = var
        return var

    # -- lifecycle hooks ----------------------------------------------------

    def setup(self, ctx: "ProcessContext") -> None:
        pass

    def step(self, ctx: "ProcessContext") -> bool:
        raise NotImplementedError

    def finish(self, ctx: "ProcessContext") -> None:
        pass


class ProcessContext:
    """Everything a process may touch while running.

    Each port's channel is looked up, and checked, on its first use, and
    kept: the ops of a step then cost one dict lookup each.
    """

    def __init__(self, proc: Process, time_source: TimeSource, recorder: Recorder) -> None:
        self._proc = proc
        self._time = time_source
        self._recorder = recorder
        self._ins: dict[str, Channel] = {}
        self._outs: dict[str, Channel] = {}
        self.steps = 0

    def _channel(self, port_name: str, direction: Direction) -> Channel:
        """The channel of a connected port; raises for any other name."""
        spec = self._proc._port(port_name, direction)
        if spec.channel is None:
            raise ConfigError(f"{self._proc.name}.{port_name} is not connected")
        resolved = self._ins if direction is Direction.IN else self._outs
        resolved[port_name] = spec.channel
        return spec.channel

    def send(self, port_name: str, token: Token) -> None:
        try:
            channel = self._outs[port_name]
        except KeyError:
            channel = self._channel(port_name, Direction.OUT)
        channel.send(token)

    def recv(self, port_name: str) -> Token:
        try:
            channel = self._ins[port_name]
        except KeyError:
            channel = self._channel(port_name, Direction.IN)
        return channel.recv()

    def probe(self, port_name: str) -> ProbeResult:
        try:
            channel = self._ins[port_name]
        except KeyError:
            channel = self._channel(port_name, Direction.IN)
        return channel.probe()

    def port_disconnected(self, port_name: str) -> bool:
        """Has the peer side of this port closed? An unconnected port has no peer."""
        channel = self._ins.get(port_name)
        if channel is not None:
            return channel.producer_closed
        spec = self._proc._port(port_name)
        if spec.channel is None:
            return True
        if spec.direction is Direction.IN:
            return spec.channel.producer_closed
        return spec.channel.consumer_closed

    def sleep(self, duration: float) -> None:
        self._time.sleep(self._proc.name, duration)

    def set_ref(self, name: str, value: Any) -> None:
        self._proc.refs[name].write(value)

    def emit(self, kind: str, **fields: Any) -> None:
        self._recorder.emit(kind, proc=self._proc.name, **fields)
