"""The benchmark's workloads and the probeopt scenario each one runs.

Every workload is a closed loop with one client: the optimizer keeps
exactly one request in flight and sends the next only after folding the
reply into its search. The workload seed becomes the scenario seed; the
scheduling instance stays fixed, so a workload's layer split is stable
across seeds.

Importing this module puts the checkout's ``src`` first on ``sys.path``
and fails with a message when the sources are missing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "probeopt" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no probeopt sources under {SRC}")
sys.path.insert(0, str(SRC))

from probeopt.harness.scenarios import ScenarioConfig, default_problem  # noqa: E402
from probeopt.qubo.problem import SatelliteProblem  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # probeopt CLI scenario
    budget: int  # evaluations per scenario run
    sweeps: int  # annealing sweeps per evaluation
    problem: SatelliteProblem

    @property
    def paced(self) -> bool:
        """Runs on the VirtualClock, so its rows repeat byte for byte."""
        return self.scenario == "bo-qubo"

    def config(self, seed: int, budget: Optional[int] = None, sweeps: Optional[int] = None) -> ScenarioConfig:
        return ScenarioConfig(
            scenario=self.scenario,
            seed=seed,
            budget=self.budget if budget is None else budget,
            sweeps=self.sweeps if sweeps is None else sweeps,
            problem=self.problem,
        )


LARGE_PROBLEM = SatelliteProblem(n_satellites=4, n_requests=30, view_height=0.5, turn_speed=1.0, seed=7)

WORKLOADS = {
    w.name: w
    for w in (
        # The CLI's headline run: default 3x12 instance (12 nodes).
        Workload("bo-default", "bo-qubo", budget=25, sweeps=200, problem=default_problem()),
        # 54 nodes, 129 conflict edges: the annealer is nearly all of it.
        Workload("bo-large", "bo-qubo", budget=10, sweeps=200, problem=LARGE_PROBLEM),
        # One sweep, many evaluations: GP suggest and update dominate.
        Workload("bo-long", "bo-qubo", budget=250, sweeps=1, problem=default_problem()),
        # Free-running threads on wall-clock time, 10 ms probe sleep, 5 ms steps.
        Workload("probe-realtime", "async-probe", budget=150, sweeps=1, problem=default_problem()),
    )
}

# Runnable with --workload, but not listed in BENCHMARK.json: OpenBLAS
# threads oversubscribe the cores during its GP updates (a known defect),
# so each repeat's turnaround p90 lands near 1 ms or near 3.5 ms and the
# run's p90 swings by about the largest bound allowed (see README.md).
# List it again once that is fixed.
NOT_IN_BENCHMARK_JSON = ("bo-long",)

# md5 of bo-default's iterations.jsonl at seed 7 with the CLI's default flags.
BO_DEFAULT_SEED7_MD5 = "032c72007c3ec2eb23ae5d74a7d183fa"
