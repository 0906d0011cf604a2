"""Smoke test for benchmarks/bench_cold_start.py with a tiny CLI run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_cold_start.py"
_spec = importlib.util.spec_from_file_location("bench_cold_start", _SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TINY = ["--scenario", "bo-qubo", "--seed", "7", "--budget", "3", "--sweeps", "1"]


def test_report_on_tiny_run():
    report = bench.run(runs=2, cli_args=TINY)
    json.dumps(report)  # serialisable as written to BENCH_cold_start.json
    assert set(report["environment"]) >= {"commit", "nproc", "python", "numpy"}
    (row,) = report["results"]
    assert len(row["run"]["runs_s"]) == 2
    assert row["run"]["iqr_s"] >= 0.0
    assert row["run"]["median_s"] > 0.0
    assert len(row["iterations_md5"]) == 32


def test_trees_alternate_and_agree():
    src = bench.ROOT / "src"
    rows = bench.measure([("a", src), ("b", src)], runs=2, cli_args=TINY)
    assert [row["label"] for row in rows] == ["a", "b"]
    assert rows[0]["iterations_md5"] == rows[1]["iterations_md5"]


def test_failing_run_is_rejected():
    with pytest.raises(RuntimeError, match="exited 2"):
        bench.measure([("a", bench.ROOT / "src")], runs=1, cli_args=[*TINY, "--problem-json", "missing.json"])


def test_baseline_is_a_source_tree():
    report = bench.run(runs=2, baseline=bench.ROOT / "src", cli_args=TINY)
    checkout, baseline = report["results"]
    assert [checkout["label"], baseline["label"]] == ["checkout", "baseline"]
    assert checkout["iterations_md5"] == baseline["iterations_md5"]
    assert report["speedup"] > 0.0
    assert baseline["commit"] is not None
    assert baseline["commit"] == report["environment"]["commit"]
