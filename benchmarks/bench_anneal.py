"""Annealing sweep kernel benchmark: count kernel against the dense definition,
and the certified stop against the full schedule.

For each conflict-graph instance (12, 54, 226 and 316 nodes) and each
penalty weight in ``W_PENALTIES`` the script builds the QUBO exactly as
``probeopt.qubo.anneal.solve`` receives it, draws one set of accept rolls
from a fixed seed, and times two kernels on those same inputs:

- ``dense``: ``tests/support.dense_sweep_reference`` on the dense form of
  the QUBO, which re-sums the local field over all n columns on every
  flip attempt (O(sweeps * n^2)).
- ``sparse``: ``probeopt.qubo.kernels.sweep`` on the sparse QUBO, which
  looks each attempt's accept threshold up by the variable's bit and its
  count of selected neighbours, and skips the sweeps that cannot flip.

It fails unless both return the same best state, final state, final
energy and best energy, compared with ``==``. It then times ``solve``'s
path, the sparse kernel with the QUBO's ``clique_cover``, which stops at
the first best state certified optimal (``stopped``), and fails unless
that best state decodes to the same score as the full schedule's. Each
kernel runs ``--repeats`` times; the report gives every run and their
median and interquartile range, plus the commit, ``nproc``, Python and
numpy. Each row also gives the clique cover, the sweeps the stopped
kernel ran (``stop_sweeps``), and the sweeps of the full schedule that
flip nothing, an upper bound on the sweeps the sparse kernel skips.

Run from the repository root:

    python3 benchmarks/bench_anneal.py [--repeats 5] [--seed 42] [--out BENCH_anneal.json]
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks")]

from _bench import environment, summarize, write_report  # noqa: E402
from probeopt.harness.scenarios import default_problem  # noqa: E402
from probeopt.qubo.anneal import AnnealParams, temperature_schedule  # noqa: E402
from probeopt.qubo.conflict import build_conflict_graph  # noqa: E402
from probeopt.qubo.kernels import sweep  # noqa: E402
from probeopt.qubo.model import to_qubo  # noqa: E402
from probeopt.qubo.problem import SatelliteProblem, generate_geometry  # noqa: E402
from probeopt.qubo.schedule import decode  # noqa: E402
from support import (  # noqa: E402
    certified_stop_applies,
    dense_sweep_reference,
    first_certified_sweep,
    sweep_operands,
)

# (name, instance, sweeps): the CLI default, the perfbench bo-large
# instance, a many-satellite instance with a narrow view (the candidate
# headline instance), and a wide-band instance where most requests load
# several satellites.
INSTANCES = (
    ("3x12", default_problem(), 200),
    ("4x30", SatelliteProblem(n_satellites=4, n_requests=30, view_height=0.5, turn_speed=1.0, seed=7), 200),
    ("8x120", SatelliteProblem(n_satellites=8, n_requests=120, view_height=0.25, turn_speed=1.0, seed=7), 200),
    ("4x120", SatelliteProblem(n_satellites=4, n_requests=120, view_height=0.8, turn_speed=1.0, seed=42), 300),
)
# Penalty weights, fractional as BO proposes them. At 2.37 the anneal
# settles and its late sweeps flip nothing, which the sparse kernel skips,
# and the certified stop applies. At 0.6 a 0 bit with one selected
# neighbour is downhill and one with two sits a small delta uphill, so on
# the denser instances moves keep churning down to the last sweep and few
# sweeps can be skipped; below w_reward the stop does not apply.
W_PENALTIES = (2.37, 0.6)


def dense(qubo, temps, uniforms, state, best_state):
    """The dense definition, run on the dense form of ``qubo``."""
    qdiag, coupling = sweep_operands(qubo)
    return dense_sweep_reference(qdiag, coupling, temps, uniforms, state, best_state)


def stopped(qubo, temps, uniforms, state, best_state):
    """The sparse kernel as ``solve`` calls it, with the certified stop."""
    return sweep(qubo, temps, uniforms, state, best_state, clique_cover=qubo.clique_cover)


KERNELS = (("dense", dense), ("sparse", sweep))


def kernel_inputs(problem, w_penalty, sweeps, seed):
    """(qubo, temps, uniforms, conflict graph), prepared as ``solve`` prepares them."""
    graph = build_conflict_graph(generate_geometry(problem), problem)
    qubo = to_qubo(graph, replace(problem.qubo_weights, w_penalty=w_penalty))
    temps = temperature_schedule(AnnealParams(sweeps=sweeps))
    uniforms = np.random.default_rng(seed).random((sweeps, graph.n))
    return qubo, temps, uniforms, graph


def time_kernel(kernel, inputs, repeats):
    """Run ``kernel`` ``repeats`` times from the all-zeros state.

    Returns (seconds per run, (final state, best state, final energy, best energy)).
    """
    qubo, temps, uniforms = inputs
    durations = []
    for _ in range(repeats):
        state = np.zeros(qubo.n, dtype=np.int64)
        best_state = np.zeros_like(state)
        start = time.perf_counter()
        final_energy, best_energy = kernel(qubo, temps, uniforms, state, best_state)
        durations.append(time.perf_counter() - start)
    return durations, (state.tolist(), best_state.tolist(), float(final_energy), float(best_energy))


def idle_sweeps(qubo, temps, uniforms):
    """Sweeps that flip nothing, from the all-zeros state.

    Each sweep visits every variable once, so a sweep flipped something
    exactly when it left a different state; the kernel is stepped one
    sweep at a time to compare.
    """
    state = np.zeros(qubo.n, dtype=np.int64)
    best_state = np.zeros_like(state)
    idle = 0
    for s in range(len(temps)):
        before = state.tolist()
        sweep(qubo, temps[s : s + 1], uniforms[s : s + 1], state, best_state)
        idle += state.tolist() == before
    return idle


def stop_sweeps(qubo, temps, uniforms):
    """Sweeps of the schedule the stopped kernel reaches, from the all-zeros
    state (a frozen sweep among them is still skipped): through the first
    sweep that visits a certified optimal state, found by stepping the
    kernel without the bound, where the stop applies; else every sweep."""
    sweeps = len(temps)
    degree = max(map(len, qubo.neighbours))
    if certified_stop_applies(qubo.n, degree, sweeps, qubo.w_reward, qubo.w_penalty):
        s = first_certified_sweep(qubo, temps, uniforms, sweep)
        if s is not None:
            return s + 1
    return sweeps


def measure(name, problem, w_penalty, sweeps, repeats, seed):
    """One report row; raises RuntimeError if the two kernels disagree, or
    if the stop changes the score."""
    *inputs, graph = kernel_inputs(problem, w_penalty, sweeps, seed)
    qubo = inputs[0]
    row = {"instance": name, "nodes": qubo.n, "edges": len(graph.edges), "w_penalty": w_penalty, "sweeps": sweeps}
    row["idle_sweeps"] = idle_sweeps(*inputs)
    outputs = {}
    for label, kernel in KERNELS:
        durations, outputs[label] = time_kernel(kernel, inputs, repeats)
        row[label] = summarize(durations)
    if outputs["dense"] != outputs["sparse"]:
        raise RuntimeError(f"{name} at w_penalty {w_penalty}: sparse kernel diverged from the dense reference")
    row["bit_identical"] = True
    row["best_energy"] = outputs["sparse"][3]
    row["speedup"] = row["dense"]["median_s"] / row["sparse"]["median_s"]
    durations, outputs["stopped"] = time_kernel(stopped, inputs, repeats)
    row["clique_cover"] = qubo.clique_cover
    row["stop_sweeps"] = stop_sweeps(*inputs)
    row["stopped"] = summarize(durations)
    scores = {label: decode(np.array(outputs[label][1]), graph).score for label in ("sparse", "stopped")}
    if scores["stopped"] != scores["sparse"]:
        raise RuntimeError(f"{name} at w_penalty {w_penalty}: the certified stop changed the score {scores}")
    row["score"] = scores["stopped"]
    row["stop_speedup"] = row["sparse"]["median_s"] / row["stopped"]["median_s"]
    return row


def run(instances, repeats, seed):
    rows = []
    for name, problem, sweeps in instances:
        for w_penalty in W_PENALTIES:
            row = measure(name, problem, w_penalty, sweeps, repeats, seed)
            print(
                f"{name:>6} w_penalty {w_penalty:4}: {row['nodes']:4d} nodes {row['edges']:5d} edges "
                f"{sweeps} sweeps, {row['idle_sweeps']:3d} idle | "
                f"dense {row['dense']['median_s'] * 1e3:9.2f} ms (IQR {row['dense']['iqr_s'] * 1e3:.2f}) | "
                f"sparse {row['sparse']['median_s'] * 1e3:8.3f} ms (IQR {row['sparse']['iqr_s'] * 1e3:.3f}) | "
                f"x{row['speedup']:.0f}, bit-identical | "
                f"cover {row['clique_cover']:3d}, stopped after {row['stop_sweeps']:3d} sweeps "
                f"{row['stopped']['median_s'] * 1e3:8.3f} ms, x{row['stop_speedup']:.1f}, score {row['score']}"
            )
            rows.append(row)
    return {
        "benchmark": "anneal sweep kernel, dense definition vs count-indexed kernel, and its certified stop",
        "environment": environment(ROOT),
        "repeats": repeats,
        "seed": seed,
        "w_penalties": list(W_PENALTIES),
        "results": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_anneal.json")
    args = parser.parse_args(argv)
    write_report(run(INSTANCES, args.repeats, args.seed), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
