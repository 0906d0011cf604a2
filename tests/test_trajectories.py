"""bo-qubo trajectories, pinned byte for byte.

Each case runs ``bo-qubo`` at one seed with ``--out`` and pins the md5 of
the ``iterations.jsonl`` that ``_write_outputs`` writes. A refactor must
leave every pin as it is (ROADMAP aim 2). A change that moves trajectories
on purpose regenerates the pins and says so in CHANGES.md:

    PYTHONPATH=src python3 tests/test_trajectories.py

prints the table below for the checkout it runs in.

Lockstep outcomes are pinned by ``test_lockstep_scenarios_keep_their_outcome``.
``async-probe`` is left out: it runs on the wall clock.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from probeopt.harness.scenarios import ScenarioConfig, default_problem, run_scenario
from probeopt.qubo.problem import SatelliteProblem

INSTANCES = {
    "default": (default_problem(), 25),
    "4x30": (
        SatelliteProblem(n_satellites=4, n_requests=30, view_height=0.5, turn_speed=1.0, seed=7),
        10,
    ),
}

PINS = {
    ("default", 0): "3912dd18487cb144f9717407e763a3d3",
    ("default", 1): "53880a5ebe9f17b889f3f1281367d994",
    ("default", 2): "cf20bfcd35dbce629ae5a388e0393492",
    ("default", 3): "890e0cc8e891ea4289e4bb11aa720d4b",
    ("default", 4): "41bcd89e95b82e8fb000d5ebac9edbd7",
    ("default", 5): "8b104065548181fa6965053b352cb575",
    ("default", 6): "c3e511ad02dfbe7e016a449455ae1a79",
    ("default", 7): "032c72007c3ec2eb23ae5d74a7d183fa",
    ("default", 8): "51cd536c6abdfdd411dff9c2c2b0501f",
    ("default", 9): "23072ef781255edd63a16007999eb746",
    ("default", 10): "36d2667e4bc243b66797e0263f44cf6b",
    ("default", 11): "99edead44f273cb828f7631843bb783b",
    ("4x30", 0): "4ee40a6e609c28192904004028b86871",
    ("4x30", 1): "5e0aadb4b8d542bbf215f729ea72a6a8",
    ("4x30", 2): "d3b864d6b6e8387c39c5494e4621eebc",
    ("4x30", 3): "7a8ab74a26dae8a2eabd1df5c276da4a",
    ("4x30", 4): "f61530c921ae265ec4d6e60b2a8131a1",
    ("4x30", 5): "95e2826897c4bc12a2ffc163efff2994",
    ("4x30", 6): "982e05aeb72f42e6aecfccb3e01d37f2",
    ("4x30", 7): "9bc33bf5fb179b7ddb4db0f45b280939",
    ("4x30", 8): "ba22109c158ea225673d5ec87510eb47",
    ("4x30", 9): "5cdcb8e8895c8f8bdf2ee2698daa8b29",
    ("4x30", 10): "dbdc44e1856303be3c98c942fbdef32a",
    ("4x30", 11): "07cd4e1eac988b6d9c46a69cfb0e9a84",
}


def trajectory_md5(instance: str, seed: int, out: Path) -> str:
    problem, budget = INSTANCES[instance]
    run_scenario(ScenarioConfig("bo-qubo", seed=seed, budget=budget, problem=problem, out=out))
    return hashlib.md5((out / "iterations.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize("instance, seed", sorted(PINS))
def test_trajectory_is_pinned(instance, seed, tmp_path):
    assert trajectory_md5(instance, seed, tmp_path) == PINS[instance, seed]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for instance in INSTANCES:
            for seed in range(12):
                digest = trajectory_md5(instance, seed, Path(tmp))
                print(f'    ("{instance}", {seed}): "{digest}",')
