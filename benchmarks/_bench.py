"""What every ``benchmarks/bench_*.py`` script reports the same way: the
environment block, the timing summary and the report file. Each script
puts ``benchmarks/`` on ``sys.path`` and imports these three from here.

A script that compares two package trees of one interpreter process
each runs them as workers (``serve``) that time one round per request,
and ``interleave`` alternates which tree goes first, round by round, so
drift on the machine falls on both trees alike.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Seconds are multiplied by these to give each unit's figures.
UNITS = {"s": 1.0, "us": 1e6}


def environment(tree: Path) -> dict:
    """The commit of the git tree holding ``tree`` and the machine it ran on.

    The commit is ``git describe --always --dirty --abbrev=40``, so it ends
    in ``-dirty`` when that tree has uncommitted changes, and is None
    outside a git tree.
    """
    commit = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=40"],
        capture_output=True,
        text=True,
        check=False,
    ).stdout.strip()
    return {
        "commit": commit or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def summarize(seconds: list[float], unit: str = "s") -> dict:
    """Median, interquartile range and every run of ``seconds``, in ``unit``."""
    runs = [s * UNITS[unit] for s in seconds]
    iqr = 0.0
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4)
        iqr = q3 - q1
    return {f"median_{unit}": statistics.median(runs), f"iqr_{unit}": iqr, f"runs_{unit}": runs}


def write_report(report: dict, out: Path) -> None:
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def serve(prepare: Callable[[], tuple[Any, Any]], measure: Callable[[Any], Any]) -> None:
    """A worker's loop: ``prepare()`` gives (state, info); info goes out as
    the first JSON line on stdout, then each line read from stdin is
    answered with ``measure(state)`` as one JSON line. Nothing else may
    print to stdout."""
    state, info = prepare()
    print(json.dumps(info), flush=True)
    for _ in sys.stdin:
        print(json.dumps(measure(state)), flush=True)


def interleave(commands: dict[str, list[str]], rounds: int) -> dict[str, tuple[Any, list[Any]]]:
    """Run one ``serve`` worker per command and take ``rounds`` rounds from
    each, the order of the workers reversed every other round.

    Returns each label's (info, [one measure per round]). Raises
    RuntimeError if a worker exits early.
    """
    labels = list(commands)
    workers = {
        label: subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for label, argv in commands.items()
    }

    def answer(label: str, ask: bool = True) -> Any:
        worker = workers[label]
        try:
            if ask:
                worker.stdin.write("\n")
                worker.stdin.flush()
            line = worker.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            raise RuntimeError(f"{label}: worker exited with {worker.wait()}")
        return json.loads(line)

    try:
        results = {label: (answer(label, ask=False), []) for label in labels}
        for r in range(rounds):
            for label in labels if r % 2 == 0 else labels[::-1]:
                results[label][1].append(answer(label))
        return results
    finally:
        for worker in workers.values():
            try:
                worker.stdin.close()
            except BrokenPipeError:
                pass
            worker.wait()
            worker.stdout.close()
