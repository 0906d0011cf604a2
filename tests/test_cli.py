"""Command line behavior: exit codes, env overrides, file outputs."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

import probeopt.cli as cli
from probeopt.cli import main
from probeopt.harness.scenarios import default_problem


def test_sync_ok_exits_zero(capsys):
    rc = main(["run", "--scenario", "sync-ok", "--budget", "2"])
    assert rc == 0
    assert "completed 2/2" in capsys.readouterr().out


def test_sync_deadlock_expected_outcome_exits_zero(capsys):
    rc = main(
        ["run", "--scenario", "sync-deadlock", "--budget", "2", "--watchdog-ms", "500"]
    )
    assert rc == 0
    assert "deadlock detected" in capsys.readouterr().out


def test_missing_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "warp-drive"])
    assert exc.value.code == 2


def test_env_supplies_flags(monkeypatch, capsys):
    monkeypatch.setenv("PROBEOPT_SCENARIO", "sync-ok")
    monkeypatch.setenv("PROBEOPT_BUDGET", "2")
    rc = main(["run"])
    assert rc == 0
    assert "completed 2/2" in capsys.readouterr().out


def test_cli_flag_beats_env(monkeypatch, tmp_path):
    env_dir = tmp_path / "from-env"
    cli_dir = tmp_path / "from-flag"
    monkeypatch.setenv("PROBEOPT_OUT", str(env_dir))
    rc = main(
        [
            "run",
            "--scenario",
            "async-probe",
            "--budget",
            "3",
            "--sweeps",
            "40",
            "--out",
            str(cli_dir),
        ]
    )
    assert rc == 0
    assert (cli_dir / "summary.json").exists()
    assert not env_dir.exists()


def test_outputs_and_problem_json(tmp_path):
    problem = default_problem().to_dict()
    problem["n_requests"] = 6
    problem_path = tmp_path / "instance.json"
    problem_path.write_text(json.dumps(problem), encoding="utf-8")
    out = tmp_path / "run"
    rc = main(
        [
            "run",
            "--scenario",
            "bo-qubo",
            "--budget",
            "4",
            "--sweeps",
            "40",
            "--problem-json",
            str(problem_path),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["completed"] == 4
    assert summary["best_y"] <= 6  # scores bounded by the smaller instance
    lines = (out / "iterations.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert [json.loads(line)["iter"] for line in lines] == [1, 2, 3, 4]


def test_bad_problem_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(["run", "--scenario", "bo-qubo", "--problem-json", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main(
        ["run", "--scenario", "bo-qubo", "--problem-json", str(tmp_path / "gone.json")]
    )
    assert rc == 2


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "probeopt.cli", "run", "--scenario", "sync-ok", "--budget", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "completed 1/1" in proc.stdout


def test_non_finite_weights_in_problem_file_exit_two(tmp_path, capsys):
    problem = default_problem().to_dict()
    problem["qubo_weights"]["w_penalty"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(problem), encoding="utf-8")  # json writes a bare NaN
    rc = main(["run", "--scenario", "bo-qubo", "--problem-json", str(path)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["async-probe", "bo-qubo"])
def test_negative_sleep_exits_two_naming_the_probe_sleep(scenario, capsys):
    rc = main(["run", "--scenario", scenario, "--sleep-ms", "-1"])
    assert rc == 2
    assert "probe sleep must be nonnegative" in capsys.readouterr().err


def test_run_timeout_exits_three(monkeypatch, capsys):
    def overrun(cfg):
        raise TimeoutError("run did not finish within 150.0s")

    monkeypatch.setattr(cli, "run_scenario", overrun)
    rc = main(["run", "--scenario", "bo-qubo"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "timed out" in err and "150.0s" in err


def test_bo_qubo_seed_7_trajectory_is_pinned(tmp_path):
    """The headline run's iterations.jsonl, byte for byte, at the CLI's defaults."""
    rc = main(["run", "--scenario", "bo-qubo", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    digest = hashlib.md5((tmp_path / "iterations.jsonl").read_bytes()).hexdigest()
    assert digest == "032c72007c3ec2eb23ae5d74a7d183fa"


def test_cli_import_leaves_scipy_out():
    """scipy costs a fresh process ~0.25 s of imports; the package must not load it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, probeopt.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
