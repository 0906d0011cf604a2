"""What every ``benchmarks/bench_*.py`` script reports the same way: the
environment block, the timing summary and the report file. Each script
puts ``benchmarks/`` on ``sys.path`` and imports these three from here.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

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
