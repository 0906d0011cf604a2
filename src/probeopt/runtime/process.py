"""Process base class, ports, and the per-process execution context."""

from __future__ import annotations

import threading
from enum import Enum
from typing import Any, Callable, Optional

from ..errors import ConfigError, DirectionMismatch
from .channel import Channel, ProbeResult
from .timesource import TimeSource
from .tokens import Command, CommandKind, Token
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

    def __init__(self, var: RefVar, stopped_fn: Callable[[], bool]) -> None:
        self._var = var
        self._stopped_fn = stopped_fn

    def read(self) -> Any:
        """Snapshot the current value. Valid even after the target stops."""
        return self._var.read()

    @property
    def target_stopped(self) -> bool:
        return self._stopped_fn()


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

    def _port(self, name: str, direction: Direction) -> PortSpec:
        try:
            spec = self.ports[name]
        except KeyError:
            raise ConfigError(f"{self.name}: no port named {name!r}") from None
        if spec.direction is not direction:
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
    """Everything a process may touch while running."""

    def __init__(
        self,
        proc: Process,
        time_source: TimeSource,
        recorder: Recorder,
        mgmt: Channel,
        probe_progress: Callable[[], None],
    ) -> None:
        self._proc = proc
        self._time = time_source
        self._recorder = recorder
        self._mgmt = mgmt
        self._probe_progress = probe_progress
        self.steps = 0
        self.probes = 0

    @property
    def name(self) -> str:
        return self._proc.name

    def _channel(self, port_name: str, direction: Direction) -> Channel:
        spec = self._proc._port(port_name, direction)
        if spec.channel is None:
            raise ConfigError(f"{self._proc.name}.{port_name} is not connected")
        return spec.channel

    def send(self, port_name: str, token: Token) -> None:
        self._channel(port_name, Direction.OUT).send(token)

    def send_nowait(self, port_name: str, token: Token) -> bool:
        return self._channel(port_name, Direction.OUT).send_nowait(token)

    def recv(self, port_name: str) -> Token:
        return self._channel(port_name, Direction.IN).recv()

    def probe(self, port_name: str) -> ProbeResult:
        result = self._channel(port_name, Direction.IN).probe()
        self.probes += 1
        self._probe_progress()
        return result

    def port_disconnected(self, port_name: str) -> bool:
        """Has the peer side of this port closed?"""
        spec = self._proc.ports.get(port_name)
        if spec is None or spec.channel is None:
            return True
        if spec.direction is Direction.IN:
            return spec.channel.producer_closed
        return spec.channel.consumer_closed

    def sleep(self, duration: float) -> None:
        self._time.sleep(self._proc.name, duration)

    def check_command(self) -> Optional[CommandKind]:
        """Pop the oldest pending management command, if any. Never blocks."""
        if self._mgmt.probe().empty:
            return None
        token = self._mgmt.recv()
        assert isinstance(token, Command)
        self._recorder.emit("command", proc=self._proc.name, command=token.kind.value)
        return token.kind

    def set_ref(self, name: str, value: Any) -> None:
        self._proc.refs[name].write(value)

    def emit(self, kind: str, **fields: Any) -> None:
        self._recorder.emit(kind, proc=self._proc.name, **fields)
