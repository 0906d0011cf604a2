"""Runtime benchmark: the driver's cost per turn, per channel op and per
recorder emit.

- Turns. Two trivial processes, ``ping`` and ``pong``, pass one token
  back and forth through a graph on a ``VirtualClock``, each resting one
  tick per turn, so every turn probes, receives and sends once. A run is
  timed from ``ProcessGraph.start`` to ``RunHandle.wait`` returning and
  divided by the turns it ran: ``SHORT`` round trips (about the turns of
  one bo-default run) and ``LONG`` ones, with the driver on its own
  thread, as every run has it, and on the caller's thread
  (``threading.Thread`` replaced, for that run only, by a stand-in whose
  ``start`` drives the run at once).
- Channel ops. ``OPS`` calls in a row of each of ``ProcessContext.send``,
  ``probe`` and ``recv`` on a graph channel (a process's out port wired
  to its in port) and on a standalone channel; the loop is included.
- Emits. ``OPS`` calls of ``ProcessContext.emit`` into a
  ``ListRecorder``, with the fields of the evaluator's ``evaluation``
  event.

Each of ``--repeats`` rounds times every figure once, with the garbage
collector off; the report gives every round and the median and
interquartile range in microseconds, plus the commit (``git describe
--always --dirty``), ``nproc``, Python and numpy.

With ``--baseline SRC`` the package sources under SRC, for example
``<dir>/src`` after ``git worktree add <dir> <rev>``, are timed beside
the checkout: each tree runs in a worker interpreter of its own, and the
rounds alternate between the two, the first swapping every round
(``_bench.interleave``).

Run from the repository root:

    python3 benchmarks/bench_runtime.py [--repeats 15] [--baseline ../parent/src] \\
        [--out BENCH_runtime.json]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
import threading
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from _bench import environment, interleave, serve, summarize, write_report  # noqa: E402

SHORT, LONG = 100, 2000  # round trips per timed run
OPS = 1000  # calls per channel-op and emit timing
TURNS = tuple(f"{driver}_{size}" for size in ("short", "long") for driver in ("thread", "caller"))
CHANNEL_OPS = tuple(f"{kind}_{op}" for kind in ("graph", "standalone") for op in ("send", "probe", "recv"))


class CallerThread:
    """Stands in for ``threading.Thread``: ``start`` runs the target at once."""

    def __init__(self, target=None, name=None, daemon=None):
        self._target = target

    def start(self):
        self._target()

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False


def ping_pong(rt, rounds):
    """A graph whose ``ping`` and ``pong`` pass one token back and forth
    ``rounds`` times; each then stops, in 2 * rounds + 2 turns in all."""
    token = rt.ResultTuple(0, 1.0)

    class Player(rt.Process):
        step_interval = 1.0

        def __init__(self, name, serve):
            super().__init__(name)
            self.add_in_port("in")
            self.add_out_port("out")
            self.holding, self.sent = serve, 0

        def step(self, ctx):
            if ctx.probe("in").available:
                ctx.recv("in")
                self.holding = True
            elif ctx.port_disconnected("in"):
                return True
            if self.holding:
                if self.sent == rounds:
                    return True
                ctx.send("out", token)
                self.sent += 1
                self.holding = False
            return False

    graph = rt.ProcessGraph()
    ping, pong = graph.add_process(Player("ping", True)), graph.add_process(Player("pong", False))
    graph.connect(ping.out_port("out"), pong.in_port("in"), capacity=1)
    graph.connect(pong.out_port("out"), ping.in_port("in"), capacity=1)
    return graph


def time_turn(rt, rounds, driver):
    """Seconds per turn of one ping-pong run, start to wait."""
    graph = ping_pong(rt, rounds)
    on_caller = mock.patch.object(threading, "Thread", CallerThread) if driver == "caller" else None
    start = time.perf_counter()
    if on_caller is None:
        run = graph.start(time_source=rt.VirtualClock())
    else:
        with on_caller:
            run = graph.start(time_source=rt.VirtualClock())
    report = run.wait(60.0)
    elapsed = time.perf_counter() - start
    turns = sum(report.steps_executed.values())
    if report.deadlock_detected or report.errors or turns != 2 * rounds + 2:
        raise RuntimeError(f"ping-pong run went wrong: {turns} turns, {report}")
    return elapsed / turns


def looped_context(rt, standalone):
    """A context whose ``out`` port feeds its own ``in`` port through one channel."""
    proc = rt.Process("loop")
    proc.add_in_port("in")
    proc.add_out_port("out")
    if standalone:
        channel = rt.Channel("standalone", capacity=OPS)
        proc.ports["in"].channel = proc.ports["out"].channel = channel
    else:
        graph = rt.ProcessGraph()
        graph.add_process(proc)
        graph.connect(proc.out_port("out"), proc.in_port("in"), capacity=OPS)
    return rt.ProcessContext(proc, rt.VirtualClock(), rt.ListRecorder())


def time_channel_ops(rt, ctx):
    """Seconds per send, probe and recv, ``OPS`` calls of each in a row."""
    token = rt.ResultTuple(0, 1.0)
    send, probe, recv = ctx.send, ctx.probe, ctx.recv
    t0 = time.perf_counter()
    for _ in range(OPS):
        send("out", token)
    t1 = time.perf_counter()
    for _ in range(OPS):
        probe("in")
    t2 = time.perf_counter()
    for _ in range(OPS):
        recv("in")
    t3 = time.perf_counter()
    if probe("in").count != 0:
        raise RuntimeError("the channel did not drain")
    return {"send": (t1 - t0) / OPS, "probe": (t2 - t1) / OPS, "recv": (t3 - t2) / OPS}


def time_emit(rt):
    """Seconds per ``ProcessContext.emit`` of an evaluation event into a fresh ListRecorder."""
    ctx = looped_context(rt, standalone=False)
    x = [2.5, 1.25]
    start = time.perf_counter()
    for k in range(OPS):
        ctx.emit("evaluation", request=k, latency=3, x=x, y=9.0)
    return (time.perf_counter() - start) / OPS


def prepare(src):
    """The runtime of the package under ``src``, and the tree's commit."""
    sys.path.insert(0, str(src))
    return importlib.import_module("probeopt.runtime"), {"commit": environment(src)["commit"]}


def measure(rt):
    """One round: seconds of every figure, keyed as in the report."""
    gc.collect()
    gc.disable()
    try:
        sample = {}
        for key in TURNS:
            driver, size = key.split("_")
            sample[f"turn_{key}"] = time_turn(rt, SHORT if size == "short" else LONG, driver)
        for kind in ("graph", "standalone"):
            for op, seconds in time_channel_ops(rt, looped_context(rt, kind == "standalone")).items():
                sample[f"{kind}_{op}"] = seconds
        sample["emit"] = time_emit(rt)
        return sample
    finally:
        gc.enable()


def summary(label, commit, samples):
    """A tree's report row from its rounds' samples."""
    column = {key: [sample[key] for sample in samples] for key in samples[0]}
    return {
        "label": label,
        "commit": commit,
        "turn": {key: summarize(column[f"turn_{key}"], "us") for key in TURNS},
        "channel_op": {key: summarize(column[key], "us") for key in CHANNEL_OPS},
        "emit": summarize(column["emit"], "us"),
    }


def print_row(row):
    turn, ops = row["turn"], row["channel_op"]
    print(
        f"{row['label']:>8}: us per turn, thread/caller: short {turn['thread_short']['median_us']:.2f}/"
        f"{turn['caller_short']['median_us']:.2f}, long {turn['thread_long']['median_us']:.2f}/"
        f"{turn['caller_long']['median_us']:.2f} | graph send/probe/recv {ops['graph_send']['median_us']:.3f}/"
        f"{ops['graph_probe']['median_us']:.3f}/{ops['graph_recv']['median_us']:.3f} us, standalone "
        f"{ops['standalone_send']['median_us']:.3f}/{ops['standalone_probe']['median_us']:.3f}/"
        f"{ops['standalone_recv']['median_us']:.3f} us | emit {row['emit']['median_us']:.3f} us"
    )


def run(repeats, baseline=None):
    if baseline is None:
        rt, info = prepare(ROOT / "src")
        samples = {"checkout": (info, [measure(rt) for _ in range(repeats)])}
    else:
        trees = {"checkout": ROOT / "src", "baseline": Path(baseline).resolve()}
        worker = [sys.executable, str(Path(__file__).resolve()), "--worker", "--src"]
        samples = interleave({label: [*worker, str(src)] for label, src in trees.items()}, repeats)
    results = [summary(label, info["commit"], rounds) for label, (info, rounds) in samples.items()]
    for row in results:
        print_row(row)
    report = {
        "benchmark": "runtime: us per driver turn, channel op and recorder emit",
        "environment": environment(ROOT),
        "repeats": repeats,
        "round_trips": {"short": SHORT, "long": LONG},
        "turns_per_run": {"short": 2 * SHORT + 2, "long": 2 * LONG + 2},
        "ops": OPS,
        "results": results,
    }
    if baseline is not None:
        checkout, base = results
        report["speedup"] = {
            f"turn_{key}": base["turn"][key]["median_us"] / checkout["turn"][key]["median_us"] for key in TURNS
        }
        ratios = ", ".join(f"{key} x{ratio:.2f}" for key, ratio in report["speedup"].items())
        print(f"baseline/checkout median per turn: {ratios}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--baseline", type=Path, help="package sources to time alongside the checkout")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_runtime.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        serve(lambda: prepare(args.src), measure)
        return 0
    write_report(run(args.repeats, args.baseline), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
