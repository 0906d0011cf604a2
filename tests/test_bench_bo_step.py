"""Smoke test for benchmarks/bench_bo_step.py at small n."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_bo_step.py"
_spec = importlib.util.spec_from_file_location("bench_bo_step", _SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_report_at_small_n():
    report = bench.run((5, 12), repeats=2, calls=3, seed=1)
    json.dumps(report)  # serialisable as written to BENCH_bo_step.json
    assert set(report["environment"]) >= {"commit", "nproc", "python", "numpy"}
    assert [row["n"] for row in report["results"]] == [5, 12]
    for row in report["results"]:
        for step in ("suggest", "update"):
            assert len(row[step]["runs_us"]) == 2
            assert row[step]["iqr_us"] >= 0.0
        counts = row["contenders"]["counts"]
        assert len(counts) == 3 and 1 <= min(counts) <= max(counts) <= report["n_cand"]


def test_suggestion_off_the_argmax_is_rejected(monkeypatch):
    def first_only(mean, var, y_best, xi):
        return bench.np.arange(1)

    monkeypatch.setattr(bench.importlib.import_module("probeopt.bo.search"), "ei_contenders", first_only)
    with pytest.raises(RuntimeError, match="not the batch's first EI argmax"):
        bench.run((8,), repeats=1, calls=3, seed=1)


def test_baseline_runs_beside_the_checkout_in_alternating_workers():
    src = bench.ROOT / "src"
    report = bench.run_interleaved((5, 8), repeats=2, calls=2, seed=1, src=src, baseline=src)
    json.dumps(report)
    baseline = report["baseline"]
    for side in (report, baseline):
        assert [row["n"] for row in side["results"]] == [5, 8]
        assert all(len(row[step]["runs_us"]) == 2 for row in side["results"] for step in ("suggest", "update"))
    # The same tree on both sides: the same inputs, so the same contenders.
    assert [row["contenders"] for row in report["results"]] == [row["contenders"] for row in baseline["results"]]
    assert baseline["environment"]["commit"] == report["environment"]["commit"]
