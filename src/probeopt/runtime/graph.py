"""Process graph construction and execution.

Two execution modes:

* ``SYNC_BARRIER``: a single driver steps every process once per round in
  registration order. A process that blocks inside its step stalls the
  whole round, which is exactly how lockstep schedules deadlock when one
  side waits on data the other has not produced yet.
* ``ASYNC``: free-running. Processes coordinate through channels, probes
  and sleeps only. On wall-clock time each process has its own thread.
  On a ``VirtualClock`` (a paced run) one driver thread steps them all,
  giving each turn to the process that holds the clock's floor.

All three drivers share one turn, which is the only place Run/Pause/Stop
are handled, for every process: command check, then one step unless the
process is paused. A process leaves the run through ``finish`` on every
exit path: Stop, its step returning True, a crash, the step limit or an
abort.

A watchdog thread monitors a global progress counter (sends, recvs,
probes, issued commands, completed steps and paused turns all count: a
paused process is waiting, not stalled). If nothing progresses for
``watchdog_timeout`` seconds the run is declared deadlocked: blocked
channel operations are woken with an abort, every thread unwinds, and the
report carries a diagnostic naming which process was parked on which port.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
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
from .tokens import Command, CommandKind
from .trace import Recorder

log = logging.getLogger(__name__)

# Sleep between turns of a paused process, unless its step interval is longer.
_PAUSE_POLL_S = 0.005


class Mode(Enum):
    SYNC_BARRIER = "sync_barrier"
    ASYNC = "async"


@dataclass(frozen=True)
class RunLimits:
    max_steps: int = 100_000
    watchdog_timeout: float = 2.0

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ConfigError("max_steps must be positive")
        if self.watchdog_timeout <= 0:
            raise ConfigError("watchdog_timeout must be positive")


@dataclass
class RunReport:
    steps_executed: dict[str, int]
    probe_counts: dict[str, int]
    deadlock_detected: bool
    deadlock_diagnostic: Optional[str]
    wall_time: float
    errors: dict[str, str] = field(default_factory=dict)


class _GraphHooks(ChannelHooks):
    """Progress counter plus a table of who is blocked where."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._progress = 0
        self._blocked: dict[str, tuple[str, str]] = {}

    def progress(self) -> None:
        with self._lock:
            self._progress += 1

    def progress_count(self) -> int:
        with self._lock:
            return self._progress

    def blocked(self, who: str, op: str, port: str) -> None:
        with self._lock:
            self._blocked[who] = (op, port)

    def unblocked(self, who: str) -> None:
        with self._lock:
            self._blocked.pop(who, None)

    def blocked_table(self) -> dict[str, tuple[str, str]]:
        with self._lock:
            return dict(self._blocked)


class ProcessGraph:
    def __init__(self) -> None:
        self._procs: dict[str, Process] = {}
        self._order: list[Process] = []
        self._channels: list[Channel] = []
        self._mgmt: dict[str, Channel] = {}
        self._hooks = _GraphHooks()
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
        self._mgmt[proc.name] = Channel(
            f"mgmt:{proc.name}", capacity=16, hooks=self._hooks
        )
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
        return RefPortHandle(
            proc.refs[var_name],
            lambda: self.is_terminated(proc_name),
        )

    # -- control plane ------------------------------------------------------

    def issue_command(self, proc_name: str, kind: CommandKind) -> None:
        if proc_name not in self._procs:
            raise UnknownProcess(proc_name)
        with self._state_lock:
            if self._last_command.get(proc_name) is CommandKind.STOP:
                raise CommandAfterStop(f"{proc_name} already received Stop")
            self._last_command[proc_name] = kind
        if not self._mgmt[proc_name].send_nowait(Command(kind)):
            raise ConfigError(f"command queue for {proc_name} is full or closed")

    def is_terminated(self, proc_name: str) -> bool:
        with self._state_lock:
            return proc_name in self._terminated

    # -- execution ----------------------------------------------------------

    def start(
        self,
        mode: Mode,
        limits: RunLimits = RunLimits(),
        time_source: Optional[TimeSource] = None,
        recorder: Optional[Recorder] = None,
    ) -> "RunHandle":
        if not self._procs:
            raise ConfigError("graph has no processes")
        if self._started:
            raise ConfigError("graph already started")
        self._started = True
        ts = time_source or TimeSource()
        rec = recorder or Recorder()
        run = _Run(self, mode, limits, ts, rec)
        run.start()
        return RunHandle(run)

    def run(
        self,
        mode: Mode,
        limits: RunLimits = RunLimits(),
        time_source: Optional[TimeSource] = None,
        recorder: Optional[Recorder] = None,
    ) -> RunReport:
        return self.start(mode, limits, time_source, recorder).wait()

    # -- internals shared with _Run ------------------------------------------

    def _mark_terminated(self, proc: Process) -> None:
        with self._state_lock:
            if proc.name in self._terminated:
                return
            self._terminated.add(proc.name)
        for spec in proc.ports.values():
            if spec.channel is None:
                continue
            if spec.direction is Direction.OUT:
                spec.channel.close_producer()
            else:
                spec.channel.close_consumer()


class _Run:
    """One execution of a graph: driver threads, watchdog, report assembly."""

    def __init__(
        self,
        graph: ProcessGraph,
        mode: Mode,
        limits: RunLimits,
        time_source: TimeSource,
        recorder: Recorder,
    ) -> None:
        self.graph = graph
        self.mode = mode
        self.limits = limits
        self.ts = time_source
        self.recorder = recorder
        self.hooks = graph._hooks
        self.aborted = threading.Event()
        self.finished = threading.Event()
        self._live_lock = threading.Lock()
        self._live = 0
        self._finished_procs: set[str] = set()
        self.deadlock = False
        self.diagnostic: Optional[str] = None
        self.errors: dict[str, str] = {}
        self.ctxs: dict[str, ProcessContext] = {}
        self.threads: list[threading.Thread] = []
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
                graph._mgmt[proc.name],
                self.hooks.progress,
            )
        self.t_start = time.monotonic()
        if self.mode is Mode.SYNC_BARRIER:
            mains = [("sync-driver", self._sync_main, ())]
        elif isinstance(self.ts, VirtualClock):
            # Register every participant before the driver asks for the floor.
            for proc in graph._order:
                self.ts.register(proc.name)
            mains = [("paced-driver", self._paced_main, ())]
        else:
            mains = [(f"proc:{p.name}", self._async_main, (p,)) for p in graph._order]
        self.threads = [
            threading.Thread(target=target, args=args, name=name, daemon=True)
            for name, target, args in mains
        ]
        self._live = len(self.threads)
        self.watchdog = threading.Thread(target=self._watchdog_main, name="watchdog", daemon=True)
        self.watchdog.start()
        for t in self.threads:
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
        for channel in self.graph._mgmt.values():
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
        table = self.hooks.blocked_table()
        if table:
            parts = [f"{who} blocked in {op} on {port}" for who, (op, port) in sorted(table.items())]
            detail = "; ".join(parts)
        else:
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

    @staticmethod
    def _rest(proc: Process, paused: set[str]) -> float:
        """How long a free-running process sleeps after a turn."""
        if proc.name in paused:
            return max(proc.step_interval, _PAUSE_POLL_S)
        return proc.step_interval

    def _finish_proc(self, proc: Process) -> None:
        if proc.name in self._finished_procs:
            return
        self._finished_procs.add(proc.name)
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
        """Paced free-running: every turn goes to the clock's floor holder.

        This is the interleaving the clock defines: a process acts only
        while its (time, name) is the smallest, and its sleeps move it on.
        """
        clock = self.ts
        assert isinstance(clock, VirtualClock)
        paused: set[str] = set()
        try:
            for proc in self.graph._order:
                if not self._setup(proc):
                    clock.unregister(proc.name)
            while not self.aborted.is_set():
                name = clock.floor()
                if name is None:
                    break
                proc, ctx = self.graph._procs[name], self.ctxs[name]
                clock.gate(name)
                if ctx.steps >= self.limits.max_steps or self._turn(proc, ctx, paused):
                    self._finish_proc(proc)
                    clock.unregister(name)
                else:
                    ctx.sleep(self._rest(proc, paused))
        except RunAborted:
            pass
        finally:
            for proc in self.graph._order:
                self._finish_proc(proc)
            self._main_exited()

    def _sync_main(self) -> None:
        order = [proc for proc in self.graph._order if self._setup(proc)]
        paused: set[str] = set()
        try:
            for _round in range(1, self.limits.max_steps + 1):
                live = [p for p in order if p.name not in self._finished_procs]
                if not live or self.aborted.is_set():
                    break
                stepped = 0
                for proc in live:
                    if self.aborted.is_set():
                        break
                    ctx = self.ctxs[proc.name]
                    before = ctx.steps
                    if self._turn(proc, ctx, paused):
                        self._finish_proc(proc)
                    stepped += ctx.steps - before
                if stepped == 0:
                    time.sleep(0.0005)  # every live process is paused
        except RunAborted:
            pass
        finally:
            for proc in order:
                self._finish_proc(proc)
            self._main_exited()

    # -- completion -----------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> RunReport:
        if self.finished.is_set():
            self.watchdog.join(1.0)
            return self.report()
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in self.threads:
            while t.is_alive():
                t.join(0.1)
                if not t.is_alive():
                    break
                if self.aborted.is_set():
                    # Grace period for unwinding channel waits. A thread
                    # stalled outside channel ops cannot be recovered; it is
                    # a daemon, so the report is built without it.
                    t.join(2.0)
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(f"run did not finish within {timeout}s")
        if not self.finished.is_set():
            self.wall_time = time.monotonic() - self.t_start
            self.finished.set()
        self.watchdog.join()
        return self.report()

    def report(self) -> RunReport:
        return RunReport(
            steps_executed={name: ctx.steps for name, ctx in self.ctxs.items()},
            probe_counts={name: ctx.probes for name, ctx in self.ctxs.items()},
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

    @property
    def aborted(self) -> bool:
        return self._run.aborted.is_set()

    @property
    def finished(self) -> bool:
        """True once every process in the run has terminated."""
        return self._run.finished.is_set()
