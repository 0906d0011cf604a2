"""BO step benchmark: ``BayesSearch.suggest`` and ``update`` per call, at a
fixed number of observations.

For each n in ``N_OBS`` the script builds a ``BayesSearch`` on the
tuning box of ``probeopt.evaluator.search_space`` and feeds it n
observations of ``objective``, a fixed function on the integer score
scale of the default instance, at points drawn from ``--seed``. It then
times, on those same inputs every run:

- ``suggest``: ``--calls`` model-based suggestions in a row, each over a
  fresh batch of 512 candidates;
- ``update``: folding the n-th observation into a copy of the search
  that holds the first n - 1, once per copy, ``--calls`` copies.

Each run gives the mean microseconds per call, timed with the garbage
collector off; the report gives every run and their median and
interquartile range, plus the commit (``git describe --always
--dirty``), ``nproc``, Python and numpy. An untimed
pass replays each suggestion's candidate batch: it fails unless the
suggestion is the first EI argmax over the whole batch, and records how
many candidates ``ei_contenders`` kept (``contenders``), where the
package has it.

``--baseline SRC`` runs the same inputs on the package sources under
SRC, for example ``<dir>/src`` after ``git worktree add <dir> <rev>``,
and stores its report under ``baseline``. Each tree then runs in a
worker interpreter of its own, and the repeats alternate between the
two, the first swapping every repeat (``_bench.interleave``), so drift
on the machine falls on both trees alike.

Run from the repository root:

    python3 benchmarks/bench_bo_step.py [--repeats 7] [--calls 20] [--seed 0] \\
        [--out BENCH_bo_step.json] [--baseline ../parent/src]
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from _bench import environment, interleave, serve, summarize, write_report  # noqa: E402

N_OBS = (5, 10, 25, 100, 250)


def objective(x):
    """A smooth bump on the box, rounded to the integer score scale."""
    return float(round(9.0 * np.exp(-(((x[0] - 2.4) / 1.5) ** 2) - ((x[1] - 1.2) / 0.8) ** 2)))


def searches(bo, space, n, seed):
    """(search holding the first n - 1 observations, the n-th observation)."""
    search = bo.BayesSearch(space, seed=seed)
    points = np.random.default_rng(seed).uniform(space.lower, space.upper, size=(n, space.dims))
    observations = [bo.Observation(x=tuple(float(v) for v in x), y=objective(x)) for x in points]
    for obs in observations[:-1]:
        search.update(obs)
    search._suggest_calls = search.n_init  # every suggestion is model-based
    return search, observations[-1]


def time_suggest(search, calls):
    search = copy.deepcopy(search)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            search.suggest()
        return (time.perf_counter() - start) / calls
    finally:
        gc.enable()


def time_update(search, obs, calls):
    copies = [copy.deepcopy(search) for _ in range(calls)]
    total = 0.0
    gc.collect()
    gc.disable()
    try:
        for s in copies:
            start = time.perf_counter()
            s.update(obs)
            total += time.perf_counter() - start
        return total / calls
    finally:
        gc.enable()


def check_suggestions(bo, search, calls):
    """Replay ``calls`` suggestions; raise RuntimeError unless each is the
    first EI argmax of its whole batch. Returns the contender counts, or
    None where the package has no ``ei_contenders``."""
    search = copy.deepcopy(search)
    contenders = getattr(bo.search, "ei_contenders", None)
    counts = []
    for _ in range(calls):
        replay = copy.deepcopy(search.rng)
        x = search.suggest()
        cands = bo.draw_candidates(replay, search.space, search.n_cand)
        mean, var = bo.gp_predict(search.model, cands)
        ei = bo.expected_improvement(mean, var, search.y_best, search.xi)
        if not np.array_equal(x, cands[int(np.argmax(ei))]):
            raise RuntimeError(f"n = {search.model.n}: the suggestion is not the batch's first EI argmax")
        if contenders is not None:
            counts.append(len(contenders(mean, var, search.y_best, search.xi)))
    return counts or None


def prepare(n_obs, calls, seed, src):
    """Import the package under ``src``, build each n's search and check its
    suggestions. Returns (cases, info): cases the (n, search, last
    observation) to time, info what the report needs of the tree."""
    sys.path.insert(0, str(src))
    bo = importlib.import_module("probeopt.bo")
    space = importlib.import_module("probeopt.evaluator").search_space()
    cases, contenders = [], []
    for n in n_obs:
        search, last = searches(bo, space, n, seed)
        contenders.append(check_suggestions(bo, search, calls))
        cases.append((n, search, last))
    info = {"environment": environment(src), "n_cand": search.n_cand, "contenders": contenders}
    return cases, info


def time_round(cases, calls):
    """One repeat: (suggest, update) seconds per call at each n."""
    return [(time_suggest(search, calls), time_update(search, last, calls)) for _, search, last in cases]


def report(n_obs, info, rounds, repeats, calls, seed):
    """The report of one tree from its ``prepare`` info and timed rounds."""
    rows = []
    for i, n in enumerate(n_obs):
        suggest = [sample[i][0] for sample in rounds]
        update = [sample[i][1] for sample in rounds]
        row = {"n": n, "suggest": summarize(suggest, "us"), "update": summarize(update, "us")}
        counts = info["contenders"][i]
        if counts is not None:
            row["contenders"] = {"median": statistics.median(counts), "max": max(counts), "counts": counts}
        line = (
            f"n {n:3d}: suggest {row['suggest']['median_us']:8.1f} us (IQR {row['suggest']['iqr_us']:.1f}) | "
            f"update {row['update']['median_us']:7.1f} us (IQR {row['update']['iqr_us']:.1f})"
        )
        if counts is not None:
            line += f" | contenders median {row['contenders']['median']}, max {row['contenders']['max']}"
        print(line)
        rows.append(row)
    return {
        "benchmark": "BayesSearch suggest and update per call at n observations",
        "environment": info["environment"],
        "n_cand": info["n_cand"],
        "repeats": repeats,
        "calls": calls,
        "seed": seed,
        "results": rows,
    }


def run(n_obs, repeats, calls, seed, src=ROOT / "src"):
    cases, info = prepare(n_obs, calls, seed, src)
    return report(n_obs, info, [time_round(cases, calls) for _ in range(repeats)], repeats, calls, seed)


def run_interleaved(n_obs, repeats, calls, seed, src, baseline):
    """The reports of ``src`` and ``baseline``, each tree in a worker
    interpreter of its own, their rounds alternating (``_bench.interleave``);
    the baseline's report goes under ``baseline``."""
    worker = [sys.executable, str(Path(__file__).resolve()), "--worker", "--calls", str(calls)]
    worker += ["--seed", str(seed), "--n-obs", ",".join(map(str, n_obs))]
    trees = {"checkout": src, "baseline": baseline}
    results = interleave({label: [*worker, "--src", str(tree)] for label, tree in trees.items()}, repeats)
    reports = {}
    for label, (info, rounds) in results.items():
        print(f"{label}:")
        reports[label] = report(n_obs, info, rounds, repeats, calls, seed)
    return {**reports["checkout"], "baseline": reports["baseline"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package sources to time")
    parser.add_argument("--baseline", type=Path, help="sources to time the same inputs on, for comparison")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_bo_step.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--n-obs", default=",".join(map(str, N_OBS)), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        n_obs = tuple(int(n) for n in args.n_obs.split(","))
        serve(lambda: prepare(n_obs, args.calls, args.seed, args.src), lambda cases: time_round(cases, args.calls))
        return 0
    if args.baseline is None:
        report_ = run(N_OBS, args.repeats, args.calls, args.seed, args.src)
    else:
        report_ = run_interleaved(N_OBS, args.repeats, args.calls, args.seed, args.src, args.baseline.resolve())
    write_report(report_, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
