"""Self-test of the benchmark: ``python3 -m pytest -q perfbench``.

Runs every workload at a tiny budget in both modes through the real
command line, checks that the result line carries every metric that
``BENCHMARK.json`` names, with its unit, and that a corrupted score row
fails the run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from workloads import NOT_IN_BENCHMARK_JSON, ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--budget", "6", "--seconds", "0.1", "--setup-runs", "1"]


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in WORKLOADS if w not in NOT_IN_BENCHMARK_JSON]
    assert _units("end_to_end") == run.END_TO_END_UNITS
    assert _units("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--out", str(tmp_path), *TINY],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 6
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_corrupted_score_row_fails_the_run(monkeypatch, capsys, tmp_path):
    run_once = run.run_once

    def corrupted(*args, **kwargs):
        rep = run_once(*args, **kwargs)
        rep.rows[2]["y"] += 1.0
        return rep

    monkeypatch.setattr(run, "run_once", corrupted)
    code = run.main(["--workload", "bo-default", "--out", str(tmp_path), *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["eval_ok_ratio"]["value"] < 1.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bo-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert out.returncode != 0
    assert out.stdout == ""
