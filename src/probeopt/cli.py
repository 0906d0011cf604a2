"""Command line entry point.

Every flag can also be set through the environment with a PROBEOPT_
prefix (dashes become underscores, e.g. --sleep-ms -> PROBEOPT_SLEEP_MS).
Explicit flags win over the environment; the environment wins over
defaults.
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
    return os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"))


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
    run_p.add_argument("--seed", type=int, default=_env("seed") or 7)
    run_p.add_argument(
        "--budget",
        type=int,
        default=_env("budget"),
        help="evaluations to complete (scenario default if omitted)",
    )
    run_p.add_argument("--sleep-ms", type=float, default=_env("sleep-ms") or 10.0)
    run_p.add_argument("--step-ms", type=float, default=_env("step-ms") or 5.0)
    run_p.add_argument("--sweeps", type=int, default=_env("sweeps") or 200)
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
    try:
        cfg = ScenarioConfig(
            scenario=args.scenario,
            seed=int(args.seed),
            budget=None if args.budget is None else int(args.budget),
            sleep_ms=float(args.sleep_ms),
            step_ms=float(args.step_ms),
            sweeps=int(args.sweeps),
            out=args.out,
        )
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
        print(
            f"{cfg.scenario}: completed {summary.get('completed', 0)}"
            f"/{summary.get('budget', 0)} evaluations"
            + (
                f", best score {summary['best_y']} at {summary['best_x']}"
                if summary.get("best_y") is not None
                else ""
            )
        )
    for path in result.written:
        print(f"wrote {path}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
