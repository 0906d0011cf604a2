"""probeopt benchmark: closed-loop tuning runs, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: the optimizer keeps one
request in flight and suggests the next point only after folding in the
reply. One run repeats the workload's scenario until ``--seconds`` of run
time are used, then checks every evaluation out of band.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics from the traced ones (see ``spans.py``), plus the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A report with the
environment block and raw samples goes to ``--out`` (default
``.perfbench/`` in the checkout), the spans of a traced run beside it.
The exit code is 1 when any correctness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional
from unittest import mock

from workloads import BO_DEFAULT_SEED7_MD5, ROOT, WORKLOADS, Workload

import numpy as np

import probeopt.harness.scenarios as scenarios
from envinfo import environment
from probeopt.bo.search import BayesSearch
from probeopt.evaluator import evaluate_params, solver_rng
from probeopt.qubo.anneal import AnnealParams
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "turnaround_p50_ms": "ms",
    "turnaround_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eval_ok_ratio": "ratio",
    "best_score": "requests",
}

PER_LAYER_UNITS = {
    "qubo.anneal_ms": "ms",
    "qubo.anneal_ns_per_flip": "ns",
    "qubo.geometry_ms": "ms",
    "qubo.conflict_ms": "ms",
    "qubo.build_ms": "ms",
    "qubo.decode_ms": "ms",
    "qubo.repair_keep_ratio": "ratio",
    "evaluator.evaluate_ms": "ms",
    "evaluator.busy_share": "ratio",
    "bo.suggest_ms": "ms",
    "bo.update_ms": "ms",
    "bo.gp_fit_ms": "ms",
    "bo.gp_predict_ms": "ms",
    "bo.ei_ms": "ms",
    "bo.share": "ratio",
    "optimizer.probes_per_eval": "count/eval",
    "optimizer.probes_per_eval_range": "count/eval",
    "optimizer.sleeps_per_eval": "count/eval",
    "optimizer.sleeps_per_eval_range": "count/eval",
    "optimizer.empty_probe_ratio": "ratio",
    "optimizer.pickup_ms": "ms",
    "runtime.channel_ops": "count/eval",
    "runtime.channel_op_us": "us",
    "runtime.clock_gate_wait_ms": "ms/eval",
    "runtime.steps": "count/eval",
    "runtime.overhead_ms_per_eval": "ms",
    "harness.teardown_ms": "ms",
    "qubo.self_ms_per_eval": "ms",
    "evaluator.self_ms_per_eval": "ms",
    "bo.self_ms_per_eval": "ms",
    "optimizer.self_ms_per_eval": "ms",
    "runtime.self_ms_per_eval": "ms",
    "harness.self_ms_per_eval": "ms",
    "trace.overhead_evals_per_s": "1/s",
}

# Row fields that repeat exactly across runs at one seed even on the wall
# clock; probe and sleep counts depend on thread timing there.
_DETERMINISTIC_FIELDS = ("iter", "x", "y", "y_best", "latency_steps")


@dataclass
class Repeat:
    """One scenario run inside a benchmark run."""

    rows: list[dict[str, Any]]
    wall_s: float
    ok: bool
    summary: dict[str, Any]
    deadlock: bool
    errors: dict[str, str]
    steps: int
    traced: bool
    turnarounds: list[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.rows)


def _turnaround_watch(samples: list[float]) -> ExitStack:
    """Time suggest returning -> update called, without tracing anything else."""
    suggest, update = BayesSearch.suggest, BayesSearch.update
    suggested_at = [0.0]

    def timed_suggest(search):
        x = suggest(search)
        suggested_at[0] = perf_counter()
        return x

    def timed_update(search, obs):
        samples.append(perf_counter() - suggested_at[0])
        return update(search, obs)

    stack = ExitStack()
    stack.enter_context(mock.patch.object(BayesSearch, "suggest", timed_suggest))
    stack.enter_context(mock.patch.object(BayesSearch, "update", timed_update))
    return stack


def run_once(
    workload: Workload,
    seed: int,
    budget: int,
    tracer: Optional[Tracer] = None,
    sweeps: Optional[int] = None,
) -> Repeat:
    cfg = workload.config(seed, budget=budget, sweeps=sweeps)
    turnarounds: list[float] = []
    with tracer.install() if tracer is not None else _turnaround_watch(turnarounds):
        start = perf_counter()
        result = scenarios.run_scenario(cfg)
        wall = perf_counter() - start
    return Repeat(
        rows=result.rows,
        wall_s=wall,
        ok=result.ok,
        summary=result.summary,
        deadlock=result.report.deadlock_detected,
        errors=dict(result.report.errors),
        steps=sum(result.report.steps_executed.values()),
        traced=tracer is not None,
        turnarounds=turnarounds,
    )


def measure_setup(workload: Workload, seed: int, runs: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first suggestion."""
    samples = []
    for _ in range(runs):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "first_suggestion.py"), workload.name, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.wait(60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload.name} failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


def measure(workload: Workload, seed: int, budget: int, seconds: float, trace: bool) -> tuple[list[Repeat], Optional[Tracer]]:
    """Repeat the scenario while the next repeat is expected to fit in ``seconds``.

    With ``trace``, repeats alternate untraced and traced, starting
    untraced, and there are at least two of them.
    """
    tracer = Tracer() if trace else None
    repeats: list[Repeat] = []
    start = perf_counter()
    while True:
        traced = trace and len(repeats) % 2 == 1
        repeats.append(run_once(workload, seed, budget, tracer if traced else None))
        typical = statistics.median(r.wall_s for r in repeats)
        if perf_counter() - start + typical > seconds and len(repeats) >= (2 if trace else 1):
            return repeats, tracer


def rows_bytes(rows: list[dict[str, Any]]) -> bytes:
    """The rows exactly as the harness writes iterations.jsonl."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()


def check(workload: Workload, seed: int, budget: int, repeats: list[Repeat]) -> tuple[int, list[str]]:
    """Count evaluations that were not completed or fail a check.

    Every row's score is recomputed out of band from its point and its
    solver stream. ``y_best`` must be the running maximum. Against the
    first run, later runs must repeat every row byte for byte when paced
    on the virtual clock, and every field but the probe and sleep counts
    on the wall clock.
    """
    solver = AnnealParams(sweeps=workload.sweeps)
    truth: dict[tuple[int, tuple[float, ...]], float] = {}
    problems: list[str] = []
    failed = 0
    reference = repeats[0].rows
    good_reference: set[int] = set()
    for r, rep in enumerate(repeats):
        run_faults = []
        if not rep.ok:
            run_faults.append("scenario reported not ok")
        if rep.deadlock:
            run_faults.append("deadlock detected")
        if rep.errors:
            run_faults.append(f"process errors {rep.errors}")
        if rep.completed != budget:
            run_faults.append(f"completed {rep.completed} of {budget}")
        if run_faults:
            problems.append(f"run {r}: " + "; ".join(run_faults))
            failed += budget
            continue
        y_best = float("-inf")
        bad = 0
        for k, row in enumerate(rep.rows):
            x = tuple(row["x"])
            key = (k, x)
            if key not in truth:
                truth[key] = float(evaluate_params(workload.problem, x, solver, solver_rng(seed, k)))
            y_best = max(y_best, row["y"])
            faults = []
            if row["iter"] != k + 1:
                faults.append(f"iter {row['iter']}")
            if row["y"] != truth[key]:
                faults.append(f"y {row['y']} but recomputed {truth[key]}")
            if row["y_best"] != y_best:
                faults.append(f"y_best {row['y_best']} but running max {y_best}")
            if r > 0 and k in good_reference:
                if workload.paced:
                    same = rows_bytes([row]) == rows_bytes([reference[k]])
                else:
                    same = all(row[f] == reference[k][f] for f in _DETERMINISTIC_FIELDS)
                if not same:
                    faults.append("differs from the first run at this seed")
            if faults:
                bad += 1
                problems.append(f"run {r} row {k}: " + "; ".join(faults))
            elif r == 0:
                good_reference.add(k)
        failed += bad
    if workload.name == "bo-default" and seed == 7 and budget == workload.budget:
        digest = hashlib.md5(rows_bytes(reference)).hexdigest()
        if digest != BO_DEFAULT_SEED7_MD5:
            problems.append(f"iterations.jsonl md5 {digest}, expected {BO_DEFAULT_SEED7_MD5}")
            failed += len(good_reference)  # the rest of the first run
    return failed, problems


def evals_per_s(repeats: list[Repeat]) -> float:
    """Completed evaluations per second of scenario wall time, over all repeats."""
    return sum(rep.completed for rep in repeats) / sum(rep.wall_s for rep in repeats)


def turnaround_ms(repeats: list[Repeat], q: float) -> float:
    """The q-th percentile of each repeat's turnarounds, averaged over repeats.

    Each repeat is one tuning run, so this is the percentile a run sees,
    not a quantile of the pooled samples: on a machine whose speed shifts
    between regimes, a pooled median jumps between them while this moves
    in proportion to the time spent in each.
    """
    return 1e3 * float(np.mean([np.percentile(rep.turnarounds, q) for rep in repeats]))


def end_to_end(repeats: list[Repeat], setup: list[float], attempted: int, failed: int) -> tuple[dict[str, float], dict[str, Any]]:
    metrics = {
        "evals_per_s": evals_per_s(repeats),
        "turnaround_p50_ms": turnaround_ms(repeats, 50),
        "turnaround_p90_ms": turnaround_ms(repeats, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_ok_ratio": (attempted - failed) / attempted,
        "best_score": max((row["y"] for rep in repeats for row in rep.rows), default=0.0),
    }
    samples = {
        "runs": len(repeats),
        "turnarounds": sum(len(rep.turnarounds) for rep in repeats),
        "setup_runs": len(setup),
        "run_wall_s": [rep.wall_s for rep in repeats],
        "run_turnaround_p50_ms": [1e3 * float(np.percentile(rep.turnarounds, 50)) for rep in repeats],
        "setup_s": setup,
    }
    return metrics, samples


def per_layer(repeats: list[Repeat], tracer: Tracer) -> tuple[dict[str, float], dict[str, Any]]:
    traced = [rep for rep in repeats if rep.traced]
    untraced = [rep for rep in repeats if not rep.traced]
    evals = sum(rep.completed for rep in traced)
    metrics = layer_metrics(tracer.spans, evals, sum(rep.wall_s for rep in traced))
    probes = [rep.summary["probe_attempts"] / rep.completed for rep in repeats]
    sleeps = [rep.summary["sleeps"] / rep.completed for rep in repeats]
    probe_total = sum(rep.summary["probe_attempts"] for rep in repeats)
    completed_total = sum(rep.completed for rep in repeats)

    metrics.update(
        {
            "optimizer.probes_per_eval": statistics.median(probes),
            "optimizer.probes_per_eval_range": max(probes) - min(probes),
            "optimizer.sleeps_per_eval": statistics.median(sleeps),
            "optimizer.sleeps_per_eval_range": max(sleeps) - min(sleeps),
            "optimizer.empty_probe_ratio": (probe_total - completed_total) / probe_total,
            "runtime.steps": sum(rep.steps for rep in traced) / evals,
            "trace.overhead_evals_per_s": evals_per_s(traced) - evals_per_s(untraced),
        }
    )
    samples = {
        "runs_traced": len(traced),
        "runs_untraced": len(untraced),
        "spans": len(tracer.spans),
        "evals_traced": evals,
        "untraced_evals_per_s": evals_per_s(untraced),
        "traced_evals_per_s": evals_per_s(traced),
    }
    return {name: metrics[name] for name in PER_LAYER_UNITS}, samples


def run_workload(workload: Workload, args: argparse.Namespace, out: Path) -> dict[str, Any]:
    budget = args.budget or workload.budget
    setup = [] if args.trace else measure_setup(workload, args.seed, args.setup_runs)
    run_once(workload, args.seed, min(budget, 7), sweeps=1)  # warm-up, not measured
    repeats, tracer = measure(workload, args.seed, budget, args.seconds, bool(args.trace))
    attempted = budget * len(repeats)
    failed, problems = check(workload, args.seed, budget, repeats)
    if tracer is None:
        metrics, samples = end_to_end(repeats, setup, attempted, failed)
        units = END_TO_END_UNITS
    else:
        metrics, samples = per_layer(repeats, tracer)
        units = PER_LAYER_UNITS
        tracer.write(out / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "budget": budget,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": samples,
    }


def print_report(report: dict[str, Any]) -> None:
    s = report["samples"]
    mode = "traced" if report["trace"] else "untraced"
    print(
        f"== {report['workload']} (seed {report['seed']}, {mode}; closed loop, 1 client, "
        f"1 request in flight; {s.get('runs', s.get('runs_traced'))} runs of {report['budget']} evaluations)"
    )
    for name, m in report["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if report["trace"]:
        print(
            f"  tracing overhead: {s['traced_evals_per_s']:.6g} traced vs "
            f"{s['untraced_evals_per_s']:.6g} untraced evals/s "
            f"({s['runs_traced']} traced, {s['runs_untraced']} untraced runs, {s['spans']} spans)"
        )
    else:
        print(
            f"  samples: {s['runs']} runs, {s['turnarounds']} turnarounds, {s['setup_runs']} set-up runs; "
            f"eval_fail_ratio {report['failed'] / report['attempted']:.6g} "
            f"({report['failed']} of {report['attempted']})"
        )
    for problem in report["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7, help="scenario seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="run time to fill with repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=int, help="override the workload's evaluation budget")
    parser.add_argument("--setup-runs", type=int, default=5, help="fresh interpreters timed for setup_s")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench", help="report directory")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    env = environment(ROOT)
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(WORKLOADS[name], args, args.out)
        print_report(report)
        (args.out / f"report-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"environment": env, **report}, indent=1) + "\n", encoding="utf-8"
        )
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in reports)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
