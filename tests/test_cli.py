"""Command line behavior: exit codes, env overrides, file outputs."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import probeopt.cli as cli
import probeopt.evaluator as evaluator_mod
import probeopt.harness.scenarios as scenarios
from probeopt.cli import main
from probeopt.harness.scenarios import default_problem
from support import problem_to_dict

_SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env():
    """This environment with the checkout's ``src`` first on PYTHONPATH.

    pytest's ``pythonpath`` setting reaches only its own process, so a
    child interpreter needs the path spelt out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return env


def _clear_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)


def test_sync_ok_exits_zero(capsys):
    rc = main(["run", "--scenario", "sync-ok", "--budget", "2"])
    assert rc == 0
    assert "completed 2/2" in capsys.readouterr().out


def test_sync_deadlock_expected_outcome_exits_zero(capsys):
    rc = main(["run", "--scenario", "sync-deadlock", "--budget", "2"])
    assert rc == 0
    assert "deadlock detected" in capsys.readouterr().out


def test_sync_deadlock_is_reported_at_the_blocked_recv(tmp_path, capsys):
    # Reported at the op that would block, with no stall window to wait out.
    rc = main(["run", "--scenario", "sync-deadlock", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert "optimizer blocked in recv on optimizer.result_in" in summary["deadlock_diagnostic"]
    assert summary["wall_time"] < 0.1
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


def test_parser_holds_no_defaults(monkeypatch):
    # Every default comes from ScenarioConfig: the parser leaves unset options None.
    _clear_env(monkeypatch)
    args = vars(cli.build_parser().parse_args(["run", "--scenario", "bo-qubo"]))
    assert args.pop("command") == "run" and args.pop("scenario") == "bo-qubo"
    assert args and all(value is None for value in args.values()), args


def test_empty_out_env_writes_nothing(monkeypatch, tmp_path):
    _clear_env(monkeypatch)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PROBEOPT_OUT", "")
    assert main(["run", "--scenario", "sync-ok", "--budget", "1"]) == 0
    assert list(tmp_path.iterdir()) == []


def _bo_run(out, flags):
    assert main(["run", "--scenario", "bo-qubo", "--out", str(out), *flags]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    del summary["wall_time"]
    return summary, (out / "iterations.jsonl").read_bytes()


@pytest.mark.parametrize(
    "variable, flags",
    [
        ("PROBEOPT_SEED", ["--budget", "3", "--sweeps", "20"]),
        ("PROBEOPT_BUDGET", ["--sweeps", "1"]),
        ("PROBEOPT_SLEEP_MS", ["--budget", "3", "--sweeps", "20"]),
        ("PROBEOPT_STEP_MS", ["--budget", "3", "--sweeps", "20"]),
        ("PROBEOPT_SWEEPS", ["--budget", "3"]),
        ("PROBEOPT_PROBLEM_JSON", ["--budget", "3", "--sweeps", "20"]),
    ],
)
def test_empty_env_acts_as_unset(variable, flags, monkeypatch, tmp_path):
    _clear_env(monkeypatch)
    unset = _bo_run(tmp_path / "unset", flags)
    monkeypatch.setenv(variable, "")
    assert _bo_run(tmp_path / "empty", flags) == unset


def test_empty_scenario_env_acts_as_unset(monkeypatch, capsys):
    _clear_env(monkeypatch)
    monkeypatch.setenv("PROBEOPT_SCENARIO", "")
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    assert "required: --scenario" in capsys.readouterr().err
    assert main(["run", "--scenario", "sync-ok", "--budget", "1"]) == 0


def test_outputs_and_problem_json(tmp_path):
    problem = problem_to_dict(default_problem())
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


def test_run_never_leaves_an_old_iterations_file(tmp_path):
    # A run that completes no iteration still writes iterations.jsonl, empty,
    # so an earlier run's rows never sit beside this run's summary.
    assert main(["run", "--scenario", "bo-qubo", "--budget", "2", "--out", str(tmp_path)]) == 0
    rows = tmp_path / "iterations.jsonl"
    assert len(rows.read_text(encoding="utf-8").splitlines()) == 2
    assert main(["run", "--scenario", "sync-deadlock", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["scenario"] == "sync-deadlock"
    assert summary["completed"] == 0
    assert rows.read_bytes() == b""


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


_DEFAULT_DOC = problem_to_dict(default_problem())
_NON_NUMERIC = {**_DEFAULT_DOC, "n_requests": "many"}
_MISSING = {k: v for k, v in _DEFAULT_DOC.items() if k != "n_requests"}


@pytest.mark.parametrize(
    "document, message",
    [
        (_NON_NUMERIC, "--problem-json: field n_requests must be an integer, got 'many'"),
        ([1, 2], "--problem-json: expected a JSON object, got list"),
        (_MISSING, "--problem-json: missing field n_requests"),
        (
            {**_DEFAULT_DOC, "n_requests": 6.9},
            "--problem-json: field n_requests must be an integer, got 6.9",
        ),
        ({**_DEFAULT_DOC, "seed": True}, "--problem-json: field seed must be an integer, got True"),
        (
            {**_DEFAULT_DOC, "view_height": True},
            "--problem-json: field view_height must be a number, got True",
        ),
        (
            {**_DEFAULT_DOC, "turn_speed": float("nan")},
            "--problem-json: turn_speed must be positive and finite, got nan",
        ),
        (
            {**_DEFAULT_DOC, "turn_speed": float("inf")},
            "--problem-json: turn_speed must be positive and finite, got inf",
        ),
        # A misspelt key would otherwise load the instance with its default.
        ({**_DEFAULT_DOC, "n_satelites": 9}, "--problem-json: unknown field n_satelites"),
        (
            {**_DEFAULT_DOC, "qubo_weights": {"w_penalti": 5.0}},
            "--problem-json: unknown field qubo_weights.w_penalti",
        ),
    ],
    ids=[
        "non-numeric-field",
        "non-object",
        "missing-field",
        "fractional-integer",
        "boolean-integer",
        "boolean-number",
        "turn-speed-nan",
        "turn-speed-inf",
        "unknown-field",
        "unknown-weight-field",
    ],
)
def test_malformed_problem_json_exits_two_naming_flag_and_field(document, message, tmp_path, capsys):
    # Exit 2 with one line naming the flag and the field: never a traceback,
    # and never a value truncated (6.9 -> 6, true -> 1) into another instance.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    rc = main(["run", "--scenario", "bo-qubo", "--problem-json", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bad_sweeps_exits_two_naming_the_flag(value, capsys):
    rc = main(["run", "--scenario", "bo-qubo", "--sweeps", value])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --sweeps must be at least 1, got {value}\n"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "probeopt.cli", "run", "--scenario", "sync-ok", "--budget", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "completed 1/1" in proc.stdout


def test_non_finite_weights_in_problem_file_exit_two(tmp_path, capsys):
    problem = problem_to_dict(default_problem())
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


@pytest.mark.parametrize(
    "scenario, flags, named",
    [
        ("bo-qubo", ["--step-ms", "0"], "--step-ms"),
        ("bo-qubo", ["--step-ms", "-1"], "--step-ms"),
        ("bo-qubo", ["--step-ms", "inf"], "--step-ms"),
        ("bo-qubo", ["--sleep-ms", "0"], "--sleep-ms"),
        ("bo-qubo", ["--sleep-ms", "nan"], "--sleep-ms"),
        ("bo-qubo", ["--budget", "0"], "--budget"),
        ("bo-qubo", ["--budget", "-3"], "--budget"),
        ("async-probe", ["--step-ms", "nan"], "--step-ms"),
        ("async-probe", ["--sleep-ms", "inf"], "--sleep-ms"),
        ("sync-ok", ["--budget", "0"], "--budget"),
    ],
)
def test_pacing_that_cannot_finish_exits_two_naming_the_flag(scenario, flags, named, capsys):
    # Each of these used to run to max_steps (or do nothing) instead of
    # failing fast: a paced process that sleeps 0 keeps the virtual floor.
    rc = main(["run", "--scenario", scenario, *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_removed_watchdog_flag_exits_two_naming_it(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "async-probe", "--budget", "2", "--watchdog-ms", "500"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --watchdog-ms 500" in capsys.readouterr().err


def test_negative_seed_exits_two_naming_the_flag(capsys):
    rc = main(["run", "--scenario", "bo-qubo", "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"


def test_async_probe_keeps_zero_sleep(capsys):
    # Wall time advances on its own: a zero probe sleep busy-waits until the
    # evaluator is due.
    rc = main(["run", "--scenario", "async-probe", "--budget", "2", "--sleep-ms", "0"])
    assert rc == 0
    assert "completed 2/2" in capsys.readouterr().out


def test_run_timeout_exits_three(monkeypatch, capsys):
    """A solve that never returns: the exit-3 line names whose turn it was."""
    release = threading.Event()
    real = evaluator_mod.evaluate_params

    def stuck(*args):
        release.wait()
        return real(*args)

    monkeypatch.setattr(scenarios, "RUN_TIMEOUT_S", 0.3)
    monkeypatch.setattr(evaluator_mod, "evaluate_params", stuck)
    try:
        rc = main(["run", "--scenario", "bo-qubo", "--budget", "1"])
    finally:
        release.set()
        for thread in threading.enumerate():
            if thread.name == "driver":
                thread.join(10.0)
    assert rc == 3
    err = capsys.readouterr().err
    assert "error: run timed out: run did not finish within 0.3s: stuck in evaluator's turn" in err


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
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
