"""Command line entry point.

Every flag can also be set through the environment with a PROBEOPT_
prefix (dashes become underscores, e.g. --sleep-ms -> PROBEOPT_SLEEP_MS).
Explicit flags win over the environment, and an empty variable counts as
unset. The CLI holds no defaults of its own: it forwards only the options
that were set, and ``ScenarioConfig`` fills in the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import ConfigError, ProbeoptError
from .harness.scenarios import SCENARIOS, ScenarioConfig, run_scenario
from .qubo.problem import SatelliteProblem

ENV_PREFIX = "PROBEOPT_"


def _env(flag: str) -> Optional[str]:
    """The flag's environment value, or None when it is unset or empty."""
    return os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_")) or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probeopt",
        description="Asynchronous probe-based optimization scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one scenario and write its reports")
    run_p.add_argument(
        "--scenario",
        choices=SCENARIOS,
        default=_env("scenario"),
        required=_env("scenario") is None,
        help="which experiment to run",
    )
    run_p.add_argument("--seed", type=int, default=_env("seed"))
    run_p.add_argument(
        "--budget",
        type=int,
        default=_env("budget"),
        help="evaluations to complete (scenario default if omitted)",
    )
    run_p.add_argument("--sleep-ms", type=float, default=_env("sleep-ms"))
    run_p.add_argument("--step-ms", type=float, default=_env("step-ms"))
    run_p.add_argument("--sweeps", type=int, default=_env("sweeps"))
    run_p.add_argument(
        "--out",
        type=Path,
        default=_env("out"),
        help="directory for iterations.jsonl / summary.json",
    )
    run_p.add_argument(
        "--problem-json",
        type=Path,
        default=_env("problem-json"),
        help="JSON file describing the scheduling instance",
    )
    return parser


def _load_problem(path: Path) -> SatelliteProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return SatelliteProblem.from_dict(json.load(fh))
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and ConfigError
        raise ConfigError(f"--problem-json: {exc}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    options = {
        k: v for k, v in vars(args).items() if v is not None and k not in ("command", "problem_json")
    }
    try:
        cfg = ScenarioConfig(**options)
        if args.problem_json is not None:
            cfg.problem = _load_problem(args.problem_json)
        result = run_scenario(cfg)
    except TimeoutError as exc:
        # An OSError subclass, but the input was fine: the run overran.
        print(f"error: run timed out: {exc}", file=sys.stderr)
        return 3
    except (ProbeoptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = result.summary
    if result.report.deadlock_detected:
        print(f"{cfg.scenario}: deadlock detected ({result.report.deadlock_diagnostic})")
    else:
        best = summary["best_y"]
        print(
            f"{cfg.scenario}: completed {summary['completed']}/{summary['budget']} evaluations"
            + ("" if best is None else f", best score {best} at {summary['best_x']}")
        )
    for path in result.written:
        print(f"wrote {path}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
