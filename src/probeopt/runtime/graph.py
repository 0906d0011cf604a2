"""Process graph construction and execution.

``ProcessGraph.start`` starts every run, and ``RunHandle.wait(timeout)``
joins it. One driver thread steps every process, giving each turn to the
process that holds the time source's floor, the smallest (time, name)
pair. The time source decides only how a turn waits: on wall-clock time
(a ``TimeSource``, the default) the driver sleeps until the process is
due; on a ``VirtualClock`` logical time moves on at once, so the run is
reproducible. Lockstep is a clock run with every process resting one
tick per turn (``step_interval = 1.0``): each tick of the clock then
steps every live process once, in name order (the clock's tie-break).

The turn is the only place Run/Pause/Stop are handled, for every
process: command check, then one step unless the process is paused.
Commands travel in a plain queue per process, which only the driver
pops. A process leaves the run through ``finish`` on every exit path:
Stop, its step returning True, a crash, the step limit or a deadlock.

Every channel peer is a process on the one driver thread, so a send on a
full channel or a recv on an empty one can never complete: the channel
raises RunAborted at that op, and the report names it. That is how
lockstep schedules deadlock when one side waits on data the other has
not produced yet. A run starts that one thread and no other, so only
``wait(timeout)`` bounds a step that never returns; its TimeoutError
names the process whose turn never ended.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..errors import (
    CommandAfterStop,
    ConfigError,
    DirectionMismatch,
    Disconnected,
    PortAlreadyConnected,
    RunAborted,
    UnknownProcess,
)
from .channel import Channel
from .process import Direction, PortSpec, Process, ProcessContext, RefPortHandle
from .timesource import TimeSource
from .tokens import CommandKind
from .trace import Recorder

log = logging.getLogger(__name__)

# Sleep between turns of a paused process, unless its step interval is longer.
_PAUSE_POLL_S = 0.005
# Wall time the driver sleeps after a pass over the live processes that
# stepped none of them (every one is paused), since a VirtualClock's
# gate never waits.
_IDLE_PASS_S = 0.0005


@dataclass(frozen=True)
class RunLimits:
    max_steps: int = 500_000

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ConfigError("max_steps must be positive")


@dataclass
class RunReport:
    steps_executed: dict[str, int]
    deadlock_detected: bool
    deadlock_diagnostic: Optional[str]
    wall_time: float
    errors: dict[str, str] = field(default_factory=dict)


class ProcessGraph:
    def __init__(self) -> None:
        self._procs: dict[str, Process] = {}  # in registration order
        self._n_channels = 0
        self._commands: dict[str, deque[CommandKind]] = {}
        self._last_command: dict[str, CommandKind] = {}
        self._terminated: set[str] = set()
        self._state_lock = threading.Lock()
        self._started = False

    # -- construction -------------------------------------------------------

    def add_process(self, proc: Process) -> Process:
        if proc.name in self._procs:
            raise ConfigError(f"duplicate process name {proc.name!r}")
        self._procs[proc.name] = proc
        self._commands[proc.name] = deque()
        return proc

    def connect(self, src: PortSpec, dst: PortSpec, capacity: int = 64) -> Channel:
        for spec in (src, dst):
            if spec.owner.name not in self._procs or self._procs[spec.owner.name] is not spec.owner:
                raise UnknownProcess(f"{spec.owner.name} is not part of this graph")
        if src.direction is not Direction.OUT:
            raise DirectionMismatch(f"{src!r} cannot be a channel source")
        if dst.direction is not Direction.IN:
            raise DirectionMismatch(f"{dst!r} cannot be a channel destination")
        if src.connected:
            raise PortAlreadyConnected(f"{src!r} already has a channel")
        if dst.connected:
            raise PortAlreadyConnected(f"{dst!r} already has a channel")
        cid = f"ch{self._n_channels}:{src.owner.name}.{src.name}->{dst.owner.name}.{dst.name}"
        channel = Channel(cid, capacity=capacity, blocking=False)
        channel.set_labels(
            src.owner.name,
            f"{src.owner.name}.{src.name}",
            dst.owner.name,
            f"{dst.owner.name}.{dst.name}",
        )
        src.channel = channel
        dst.channel = channel
        self._n_channels += 1
        return channel

    def ref_port(self, proc_name: str, var_name: str) -> RefPortHandle:
        if proc_name not in self._procs:
            raise UnknownProcess(proc_name)
        proc = self._procs[proc_name]
        if var_name not in proc.refs:
            raise ConfigError(f"{proc_name} exposes no ref {var_name!r}")
        return RefPortHandle(proc.refs[var_name])

    # -- control plane ------------------------------------------------------

    def issue_command(self, proc_name: str, kind: CommandKind) -> None:
        if proc_name not in self._procs:
            raise UnknownProcess(proc_name)
        with self._state_lock:
            if self._last_command.get(proc_name) is CommandKind.STOP:
                raise CommandAfterStop(f"{proc_name} already received Stop")
            self._last_command[proc_name] = kind
            self._commands[proc_name].append(kind)

    def is_terminated(self, proc_name: str) -> bool:
        with self._state_lock:
            return proc_name in self._terminated

    # -- execution ----------------------------------------------------------

    def start(
        self,
        limits: RunLimits = RunLimits(),
        time_source: Optional[TimeSource] = None,
        recorder: Optional[Recorder] = None,
    ) -> "RunHandle":
        """Start the one run of this graph and return it; its ``wait`` joins it.

        The run's turns wait on ``time_source``, wall-clock time by default.
        """
        if not self._procs:
            raise ConfigError("graph has no processes")
        if self._started:
            raise ConfigError("graph already started")
        self._started = True
        run = RunHandle(self, limits, time_source or TimeSource(), recorder or Recorder())
        run.start()
        return run

    # -- internals shared with RunHandle ------------------------------------

    def _mark_terminated(self, proc: Process) -> None:
        with self._state_lock:
            self._terminated.add(proc.name)
        for spec in proc.ports.values():
            if spec.channel is None:
                continue
            if spec.direction is Direction.OUT:
                spec.channel.close_producer()
            else:
                spec.channel.close_consumer()


class RunHandle:
    """One execution of a graph, as ``ProcessGraph.start`` returns it: its
    driver thread and its report."""

    def __init__(
        self,
        graph: ProcessGraph,
        limits: RunLimits,
        time_source: TimeSource,
        recorder: Recorder,
    ) -> None:
        self.graph = graph
        self.limits = limits
        self.ts = time_source
        self.recorder = recorder
        self.deadlock = False
        self.diagnostic: Optional[str] = None
        self.errors: dict[str, str] = {}
        self.ctxs: dict[str, ProcessContext] = {}
        self.turn: Optional[str] = None  # whose setup or turn ran last; a timeout names it
        self.t_start = 0.0
        self.wall_time = 0.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for proc in self.graph._procs.values():
            self.ctxs[proc.name] = ProcessContext(proc, self.ts, self.recorder)
            # Register every participant before the driver asks for the floor.
            self.ts.register(proc.name)
        self.t_start = time.monotonic()
        self.driver = threading.Thread(target=self._drive, name="driver", daemon=True)
        self.driver.start()

    # -- the turn ---------------------------------------------------------------

    def _setup(self, proc: Process) -> bool:
        """Run ``proc.setup``. A crash is recorded and finishes the process."""
        self.turn = proc.name
        try:
            proc.setup(self.ctxs[proc.name])
            return True
        except Exception as exc:  # noqa: BLE001
            self.errors[proc.name] = f"setup: {type(exc).__name__}: {exc}"
            self._finish_proc(proc)
            return False

    def _turn(self, proc: Process, ctx: ProcessContext, commands: deque, paused: set[str]) -> bool:
        """Command check, then one step unless the process is paused.

        Returns True once the process is done: it took Stop, its step said
        so, a peer disconnected, or the step crashed (recorded in
        ``errors``). RunAborted propagates: it is the deadlock.
        """
        if commands or paused:  # commands are rare: most turns skip straight to the step
            cmd = commands.popleft() if commands else None  # only the driver pops: no race
            if cmd is not None:
                self.recorder.emit("command", proc=proc.name, command=cmd.value)
            if cmd is CommandKind.STOP:
                return True
            if cmd is CommandKind.PAUSE:
                paused.add(proc.name)
            elif cmd is CommandKind.RUN:
                paused.discard(proc.name)
            if proc.name in paused:
                return False
        try:
            finished = proc.step(ctx)
        except Disconnected:
            finished = True
        except RunAborted:
            raise
        except Exception as exc:  # noqa: BLE001 - a crashed process must not hang the run
            log.exception("process %s crashed", proc.name)
            self.errors[proc.name] = f"{type(exc).__name__}: {exc}"
            finished = True
        ctx.steps += 1
        return finished

    def _finish_proc(self, proc: Process) -> None:
        if self.graph.is_terminated(proc.name):
            return
        try:
            proc.finish(self.ctxs[proc.name])
        except Exception as exc:  # noqa: BLE001
            self.errors.setdefault(proc.name, f"finish: {type(exc).__name__}: {exc}")
        self.graph._mark_terminated(proc)

    # -- the driver -------------------------------------------------------------

    def _drive(self) -> None:
        """Every turn goes to the time source's floor holder.

        A process acts only while its (time, name) is the smallest, and
        its sleeps move it on. A would-block channel op raises RunAborted:
        it is the deadlock.
        """
        ts = self.ts
        floor, gate, sleep = ts.floor, ts.gate, ts.sleep  # looked up once, not per turn
        procs, ctxs, queues = self.graph._procs, self.ctxs, self.graph._commands
        max_steps, turn = self.limits.max_steps, self._turn
        paused: set[str] = set()
        live = set(procs)
        idle: set[str] = set()  # processes that took a paused turn since the last step
        try:
            for proc in procs.values():
                if not self._setup(proc):
                    ts.unregister(proc.name)
                    live.discard(proc.name)
            while (name := floor()) is not None:
                proc, ctx = procs[name], ctxs[name]
                self.turn = name
                gate(name)
                if ctx.steps >= max_steps or turn(proc, ctx, queues[name], paused):
                    self._finish_proc(proc)
                    ts.unregister(name)
                    live.discard(name)
                    continue
                if name not in paused:
                    sleep(name, proc.step_interval)
                    idle.clear()
                    continue
                sleep(name, max(proc.step_interval, _PAUSE_POLL_S))
                idle.add(name)
                if idle >= live:  # a whole pass stepped nothing
                    time.sleep(_IDLE_PASS_S)
                    idle.clear()
        except RunAborted as exc:
            self.deadlock, self.diagnostic = True, str(exc)
            log.warning("run deadlocked: %s", self.diagnostic)
            self.recorder.emit("deadlock", diagnostic=self.diagnostic)
        finally:
            for proc in procs.values():
                self._finish_proc(proc)
            self.wall_time = time.monotonic() - self.t_start

    # -- completion -----------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> RunReport:
        self.driver.join(timeout)
        if self.driver.is_alive():
            raise TimeoutError(f"run did not finish within {timeout}s: stuck in {self.turn}'s turn")
        return RunReport(
            steps_executed={name: ctx.steps for name, ctx in self.ctxs.items()},
            deadlock_detected=self.deadlock,
            deadlock_diagnostic=self.diagnostic,
            wall_time=self.wall_time,
            errors=dict(self.errors),
        )
