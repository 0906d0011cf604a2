"""Cold-start benchmark: wall time of fresh ``probeopt run --scenario bo-qubo`` processes.

Each run spawns a new interpreter for ``python -m probeopt.cli run
--scenario bo-qubo --seed 7`` (the CLI's default budget and sweeps,
reports to a temporary directory) and is timed from spawn to exit, so the
figure includes interpreter start-up and every import the CLI pulls in,
not only the computation.

With ``--baseline SRC`` the package sources under SRC, for example
``<dir>/src`` after ``git worktree add <dir> <rev>``, are timed in the
same rounds as the checkout, alternating which tree goes first, so both
sides see the same machine state. Every run must exit 0, and every run
of one tree must write the same ``iterations.jsonl`` (its md5 is in the
report). The report gives every run and the median and interquartile
range per tree, plus the commit (the baseline's too), ``nproc``, Python
and numpy.

Run from the repository root:

    python3 benchmarks/bench_cold_start.py [--runs 10] [--baseline ../parent/src] \\
        [--out BENCH_cold_start.json]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from _bench import environment, summarize, write_report  # noqa: E402

SEED = 7


def timed(argv: list[str], src: Path, cwd: Path) -> float:
    """Seconds from spawning ``argv`` with ``src`` on the path to its exit."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return elapsed


def measure(trees: list[tuple[str, Path]], runs: int, cli_args: list[str]) -> list[dict]:
    """Time ``runs`` rounds; each round runs every tree once, in alternating order.

    Raises RuntimeError if a run fails or a tree's trajectory changes between runs.
    """
    samples = {label: {"run_s": [], "md5": set()} for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for r in range(runs):
            for label, src in trees if r % 2 == 0 else trees[::-1]:
                sample = samples[label]
                out = cwd / f"out-{label}"
                run_argv = [sys.executable, "-m", "probeopt.cli", "run", *cli_args, "--out", str(out)]
                sample["run_s"].append(timed(run_argv, src, cwd))
                sample["md5"].add(hashlib.md5((out / "iterations.jsonl").read_bytes()).hexdigest())
                if len(sample["md5"]) > 1:
                    raise RuntimeError(f"{label}: iterations.jsonl changed between runs")
    return [
        {
            "label": label,
            "run": summarize(samples[label]["run_s"]),
            "iterations_md5": samples[label]["md5"].pop(),
        }
        for label, _ in trees
    ]


def run(runs: int, baseline: Path | None = None, cli_args: list[str] | None = None) -> dict:
    cli_args = cli_args or ["--scenario", "bo-qubo", "--seed", str(SEED)]
    trees = [("checkout", ROOT / "src")]
    if baseline is not None:
        # Absolute: every run starts in a temporary directory.
        trees.append(("baseline", Path(baseline).resolve()))
    results = measure(trees, runs, cli_args)
    if baseline is not None:
        results[1]["commit"] = environment(baseline)["commit"]
    for row in results:
        print(
            f"{row['label']:>8}: run {row['run']['median_s']:.3f} s (IQR {row['run']['iqr_s']:.3f}) | "
            f"iterations.jsonl md5 {row['iterations_md5']}"
        )
    report = {
        "benchmark": "cold start: fresh interpreters, spawn to exit",
        "command": ["probeopt", "run", *cli_args],
        "environment": environment(ROOT),
        "runs": runs,
        "results": results,
    }
    if baseline is not None:
        report["speedup"] = results[1]["run"]["median_s"] / results[0]["run"]["median_s"]
        print(f"baseline/checkout median: x{report['speedup']:.2f}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--baseline", type=Path, help="package sources to time alongside the checkout")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cold_start.json")
    args = parser.parse_args(argv)
    write_report(run(args.runs, args.baseline), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
