"""Process graph construction and execution.

``ProcessGraph.start`` starts every run, and ``RunHandle.wait(timeout)``
joins it. The time source picks the driver:

* On wall-clock time (a ``TimeSource``, the default) every process has
  its own thread and runs free.
* On a ``VirtualClock`` one driver thread steps every process, giving
  each turn to the process that holds the clock's floor, so the run is
  reproducible. Lockstep is this driver with every process resting one
  tick per turn (``step_interval = 1.0``): each tick of the clock then
  steps every live process once, in name order (the clock's tie-break).
  A process that would block inside its step stalls the whole round for
  good, which is exactly how lockstep schedules deadlock when one side
  waits on data the other has not produced yet.

Both drivers share one turn, which is the only place Run/Pause/Stop are
handled, for every process: command check, then one step unless the
process is paused. Commands travel in a plain queue per process. A
process leaves the run through ``finish`` on every exit path: Stop, its
step returning True, a crash, the step limit or an abort.

On a clock run the one driver steps every channel peer, so a send on a
full channel or a recv on an empty one can never complete: the channel
hooks raise RunAborted at that op, and the report names it. A clock run
starts that one thread and no other, so only ``wait(timeout)`` bounds a
step that never returns. On a wall-clock run a watchdog thread monitors
a global progress counter (sends, recvs, probes, issued commands,
completed steps and paused turns all count: a paused process is waiting,
not stalled). If nothing progresses for ``watchdog_timeout`` seconds the
run is declared deadlocked: blocked channel operations are woken with an
abort, every thread unwinds, and the report carries a diagnostic naming
which process was parked on which port.
"""

from __future__ import annotations

import logging
import math
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
from .channel import Channel, ChannelHooks
from .process import Direction, PortSpec, Process, ProcessContext, RefPortHandle
from .timesource import TimeSource, VirtualClock
from .tokens import CommandKind
from .trace import Recorder

log = logging.getLogger(__name__)

# Sleep between turns of a paused process, unless its step interval is longer.
_PAUSE_POLL_S = 0.005
# Wall time the clock driver sleeps after a pass over the live processes
# that stepped none of them (every one is paused).
_IDLE_PASS_S = 0.0005


@dataclass(frozen=True)
class RunLimits:
    max_steps: int = 100_000
    watchdog_timeout: float = 2.0

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ConfigError("max_steps must be positive")
        if not 0 < self.watchdog_timeout < math.inf:
            raise ConfigError("watchdog_timeout must be positive and finite")


@dataclass
class RunReport:
    steps_executed: dict[str, int]
    deadlock_detected: bool
    deadlock_diagnostic: Optional[str]
    wall_time: float
    errors: dict[str, str] = field(default_factory=dict)


class ProcessGraph:
    def __init__(self) -> None:
        self._procs: dict[str, Process] = {}
        self._order: list[Process] = []
        self._channels: list[Channel] = []
        self._commands: dict[str, deque[CommandKind]] = {}
        self._hooks = ChannelHooks()
        self._last_command: dict[str, CommandKind] = {}
        self._terminated: set[str] = set()
        self._state_lock = threading.Lock()
        self._started = False

    # -- construction -------------------------------------------------------

    def add_process(self, proc: Process) -> Process:
        if proc.name in self._procs:
            raise ConfigError(f"duplicate process name {proc.name!r}")
        self._procs[proc.name] = proc
        self._order.append(proc)
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
        cid = f"ch{len(self._channels)}:{src.owner.name}.{src.name}->{dst.owner.name}.{dst.name}"
        channel = Channel(cid, capacity=capacity, hooks=self._hooks)
        channel.set_labels(
            src.owner.name,
            f"{src.owner.name}.{src.name}",
            dst.owner.name,
            f"{dst.owner.name}.{dst.name}",
        )
        src.channel = channel
        dst.channel = channel
        self._channels.append(channel)
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
        self._hooks.progress()

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
        """Start the one run of this graph; its handle's ``wait`` joins it.

        A ``VirtualClock`` gets the one-thread driver; any other time
        source, wall-clock time by default, one thread per process.
        """
        if not self._procs:
            raise ConfigError("graph has no processes")
        if self._started:
            raise ConfigError("graph already started")
        self._started = True
        run = _Run(self, limits, time_source or TimeSource(), recorder or Recorder())
        run.start()
        return RunHandle(run)

    # -- internals shared with _Run ------------------------------------------

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


class _Run:
    """One execution of a graph: driver threads, watchdog (wall clock only), report."""

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
        self.hooks = graph._hooks
        self.aborted = threading.Event()
        self.finished = threading.Event()
        self._live_lock = threading.Lock()
        self._live = 0
        self.deadlock = False
        self.diagnostic: Optional[str] = None
        self.errors: dict[str, str] = {}
        self.ctxs: dict[str, ProcessContext] = {}
        self.t_start = 0.0
        self.wall_time = 0.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        graph = self.graph
        for proc in graph._order:
            self.ctxs[proc.name] = ProcessContext(
                proc,
                self.ts,
                self.recorder,
                graph._commands[proc.name],
                self.hooks.progress,
            )
        self.t_start = time.monotonic()
        self.watchdog: Optional[threading.Thread] = None
        if isinstance(self.ts, VirtualClock):
            self.hooks.single_driver = True
            # Register every participant before the driver asks for the floor.
            for proc in graph._order:
                self.ts.register(proc.name)
            mains = [("paced-driver", self._paced_main, ())]
        else:
            mains = [(f"proc:{p.name}", self._async_main, (p,)) for p in graph._order]
            self.watchdog = threading.Thread(target=self._watchdog_main, name="watchdog", daemon=True)
            self.watchdog.start()
        threads = [
            threading.Thread(target=target, args=args, name=name, daemon=True)
            for name, target, args in mains
        ]
        self._live = len(threads)
        for t in threads:
            t.start()

    def _main_exited(self) -> None:
        """Last main thread out marks the run finished.

        Without this, a graph whose processes all terminate before the
        caller joins would look stalled to the watchdog and be reported
        as a deadlock even though the run is simply over.
        """
        with self._live_lock:
            self._live -= 1
            if self._live > 0:
                return
        if not self.finished.is_set():
            self.wall_time = time.monotonic() - self.t_start
            self.finished.set()

    def _abort(self, diagnostic: str) -> None:
        self.deadlock = True
        self.diagnostic = diagnostic
        self.aborted.set()
        for channel in self.graph._channels:
            channel.abort()

    def _watchdog_main(self) -> None:
        timeout = self.limits.watchdog_timeout
        last = self.hooks.progress_count()
        last_change = time.monotonic()
        while not self.finished.wait(min(0.05, timeout / 4)):
            current = self.hooks.progress_count()
            now = time.monotonic()
            if current != last:
                last, last_change = current, now
            elif now - last_change >= timeout:
                diagnostic = self._describe_stall(timeout)
                log.warning("watchdog fired: %s", diagnostic)
                self.recorder.emit("watchdog", diagnostic=diagnostic)
                self._abort(diagnostic)
                return

    def _describe_stall(self, timeout: float) -> str:
        detail = self.hooks.describe_blocked()
        if not detail:
            detail = "no process blocked on a port (stalled outside channel ops)"
        return f"no progress for {timeout:g}s: {detail}"

    # -- the turn every driver runs -----------------------------------------------

    def _setup(self, proc: Process) -> bool:
        """Run ``proc.setup``. A crash is recorded and finishes the process."""
        try:
            proc.setup(self.ctxs[proc.name])
            return True
        except Exception as exc:  # noqa: BLE001
            self.errors[proc.name] = f"setup: {type(exc).__name__}: {exc}"
            self._finish_proc(proc)
            return False

    def _turn(self, proc: Process, ctx: ProcessContext, paused: set[str]) -> bool:
        """Command check, then one step unless the process is paused.

        Returns True once the process is done: it took Stop, its step said
        so, a peer disconnected, or the step crashed (recorded in
        ``errors``). A paused turn counts as progress. RunAborted
        propagates: the whole run is unwinding.
        """
        cmd = ctx.check_command()
        if cmd is CommandKind.STOP:
            return True
        if cmd is CommandKind.PAUSE:
            paused.add(proc.name)
        elif cmd is CommandKind.RUN:
            paused.discard(proc.name)
        if proc.name in paused:
            self.hooks.progress()
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
        self.hooks.progress()
        return finished

    def _rest(self, proc: Process, paused: set[str]) -> float:
        """How long a process sleeps after a turn."""
        if proc.name in paused:
            return max(proc.step_interval, _PAUSE_POLL_S)
        return proc.step_interval

    def _finish_proc(self, proc: Process) -> None:
        if self.graph.is_terminated(proc.name):
            return
        try:
            proc.finish(self.ctxs[proc.name])
        except Exception as exc:  # noqa: BLE001
            self.errors.setdefault(proc.name, f"finish: {type(exc).__name__}: {exc}")
        self.graph._mark_terminated(proc)
        self.hooks.progress()

    # -- drivers ----------------------------------------------------------------

    def _async_main(self, proc: Process) -> None:
        """Wall-clock free-running: this thread drives ``proc`` alone."""
        ctx = self.ctxs[proc.name]
        paused: set[str] = set()
        try:
            if self._setup(proc):
                self.ts.gate(proc.name)
                while not self.aborted.is_set() and ctx.steps < self.limits.max_steps:
                    if self._turn(proc, ctx, paused):
                        break
                    ctx.sleep(self._rest(proc, paused))
        except RunAborted:
            pass
        finally:
            self._finish_proc(proc)
            self._main_exited()

    def _paced_main(self) -> None:
        """Clock run: every turn goes to the clock's floor holder.

        This is the interleaving the clock defines: a process acts only
        while its (time, name) is the smallest, and its sleeps move it on.
        A would-block channel op raises RunAborted: it is the deadlock.
        """
        clock = self.ts
        assert isinstance(clock, VirtualClock)
        paused: set[str] = set()
        live = {proc.name for proc in self.graph._order}
        idle: set[str] = set()  # processes that took a paused turn since the last step
        try:
            for proc in self.graph._order:
                if not self._setup(proc):
                    clock.unregister(proc.name)
                    live.discard(proc.name)
            while (name := clock.floor()) is not None:
                proc, ctx = self.graph._procs[name], self.ctxs[name]
                clock.gate(name)
                if ctx.steps >= self.limits.max_steps or self._turn(proc, ctx, paused):
                    self._finish_proc(proc)
                    clock.unregister(name)
                    live.discard(name)
                    continue
                ctx.sleep(self._rest(proc, paused))
                if name not in paused:
                    idle.clear()
                    continue
                idle.add(name)
                if idle >= live:  # a whole pass stepped nothing
                    time.sleep(_IDLE_PASS_S)
                    idle.clear()
        except RunAborted as exc:
            self.deadlock, self.diagnostic = True, str(exc)
            log.warning("clock run deadlocked: %s", self.diagnostic)
            self.recorder.emit("deadlock", diagnostic=self.diagnostic)
        finally:
            for proc in self.graph._order:
                self._finish_proc(proc)
            self._main_exited()

    # -- completion -----------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> RunReport:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.finished.wait(0.1):
            if self.aborted.is_set():
                # Grace period for unwinding channel waits. A thread stalled
                # outside channel ops cannot be recovered; it is a daemon,
                # so the report is built without it.
                self.finished.wait(2.0)
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"run did not finish within {timeout}s")
        if not self.finished.is_set():
            self.wall_time = time.monotonic() - self.t_start
            self.finished.set()
        if self.watchdog is not None:
            self.watchdog.join()
        return RunReport(
            steps_executed={name: ctx.steps for name, ctx in self.ctxs.items()},
            deadlock_detected=self.deadlock,
            deadlock_diagnostic=self.diagnostic,
            wall_time=self.wall_time,
            errors=dict(self.errors),
        )


class RunHandle:
    """Join handle for a started graph."""

    def __init__(self, run: _Run) -> None:
        self._run = run

    def wait(self, timeout: Optional[float] = None) -> RunReport:
        return self._run.wait(timeout)
