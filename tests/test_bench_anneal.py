"""Smoke test for benchmarks/bench_anneal.py on a tiny instance."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from probeopt.qubo.problem import SatelliteProblem

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_anneal.py"
_spec = importlib.util.spec_from_file_location("bench_anneal", _SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TINY = [("2x5", SatelliteProblem(n_satellites=2, n_requests=5, view_height=0.6, turn_speed=1.0, seed=3), 4)]


def test_report_on_tiny_instance():
    report = bench.run(TINY, repeats=2, seed=0)
    json.dumps(report)  # serialisable as written to BENCH_anneal.json
    assert set(report["environment"]) >= {"commit", "nproc", "python", "numpy"}
    rows = report["results"]
    assert [row["w_penalty"] for row in rows] == list(bench.W_PENALTIES)
    for row in rows:
        assert row["bit_identical"] is True
        assert 0 <= row["idle_sweeps"] <= row["sweeps"]
        for label in ("dense", "sparse", "stopped"):
            assert len(row[label]["runs_s"]) == 2
            assert row[label]["iqr_s"] >= 0.0
        assert 1 <= row["clique_cover"] <= row["nodes"]
        assert 1 <= row["stop_sweeps"] <= row["sweeps"]
        assert 0 <= row["score"] <= row["clique_cover"]
        assert row["stop_speedup"] > 0.0
    # At 2.37 this instance is certified optimal in its second of four
    # sweeps; at 0.6, below w_reward, the stop does not apply.
    assert [row["stop_sweeps"] for row in rows] == [2, 4]


def test_divergent_kernel_is_rejected(monkeypatch):
    def drifting(qubo, temps, uniforms, state, best_state):
        final_energy, best_energy = bench.sweep(qubo, temps, uniforms, state, best_state)
        return final_energy, best_energy + 1e-13

    monkeypatch.setattr(bench, "KERNELS", (("dense", bench.dense), ("sparse", drifting)))
    with pytest.raises(RuntimeError, match="diverged"):
        bench.run(TINY, repeats=1, seed=0)


def test_stop_that_changes_the_score_is_rejected(monkeypatch):
    def empty_best(qubo, temps, uniforms, state, best_state):
        energies = bench.sweep(qubo, temps, uniforms, state, best_state, clique_cover=qubo.clique_cover)
        best_state[:] = 0
        return energies

    monkeypatch.setattr(bench, "stopped", empty_best)
    with pytest.raises(RuntimeError, match="changed the score"):
        bench.run(TINY, repeats=1, seed=0)
