"""Smoke test for benchmarks/bench_runtime.py."""

from __future__ import annotations

import importlib.util
import json
import threading
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_runtime.py"
_spec = importlib.util.spec_from_file_location("bench_runtime", _SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_report_on_the_checkout():
    report = bench.run(repeats=2)
    json.dumps(report)  # serialisable as written to BENCH_runtime.json
    assert set(report["environment"]) >= {"commit", "nproc", "python", "numpy"}
    (row,) = report["results"]
    assert row["label"] == "checkout" and row["commit"] == report["environment"]["commit"]
    assert set(row["turn"]) == {"thread_short", "caller_short", "thread_long", "caller_long"}
    assert set(row["channel_op"]) == set(bench.CHANNEL_OPS)
    assert len(bench.CHANNEL_OPS) == 6
    for summary in (*row["turn"].values(), *row["channel_op"].values(), row["emit"]):
        assert len(summary["runs_us"]) == 2
        assert summary["median_us"] > 0.0 and summary["iqr_us"] >= 0.0
    assert report["turns_per_run"] == {"short": 2 * bench.SHORT + 2, "long": 2 * bench.LONG + 2}


def test_baseline_runs_in_alternating_workers():
    report = bench.run(repeats=2, baseline=bench.ROOT / "src")
    checkout, baseline = report["results"]
    assert [checkout["label"], baseline["label"]] == ["checkout", "baseline"]
    assert baseline["commit"] == checkout["commit"] == report["environment"]["commit"]
    assert set(report["speedup"]) == {f"turn_{key}" for key in bench.TURNS}
    assert all(ratio > 0.0 for ratio in report["speedup"].values())


def test_a_run_with_the_wrong_turn_count_is_rejected(monkeypatch):
    ping_pong = bench.ping_pong
    monkeypatch.setattr(bench, "ping_pong", lambda rt, rounds: ping_pong(rt, rounds + 1))
    with pytest.raises(RuntimeError, match="ping-pong run went wrong"):
        bench.run(repeats=1)


def test_the_caller_mode_drives_on_the_calling_thread(monkeypatch):
    rt, _ = bench.prepare(bench.ROOT / "src")
    drivers = []
    drive = rt.RunHandle._drive

    def recording(run):
        drivers.append(threading.current_thread())
        drive(run)

    monkeypatch.setattr(rt.RunHandle, "_drive", recording)
    assert bench.time_turn(rt, 3, "caller") > 0.0
    assert bench.time_turn(rt, 3, "thread") > 0.0
    assert drivers[0] is threading.current_thread()
    assert drivers[1] is not threading.current_thread()
