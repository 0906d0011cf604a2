"""Annealer: schedule, determinism, kernel bit-identity, solution quality."""

from __future__ import annotations

import numpy as np
import pytest

from probeopt.errors import ConfigError
from probeopt.harness.scenarios import default_problem
from probeopt.qubo.anneal import AnnealParams, solve, sweep_operands, temperature_schedule
from probeopt.qubo.conflict import build_conflict_graph
from probeopt.qubo.kernels import sweep
from probeopt.qubo.model import QuboMatrix, to_qubo
from probeopt.qubo.problem import SatelliteProblem, generate_geometry
from support import all_state_energies, dense_sweep_reference, naive_energy


def _random_qubo(rng, n):
    q = np.triu(rng.normal(scale=1.5, size=(n, n)))
    return QuboMatrix(q=q)


def test_params_validation():
    with pytest.raises(ConfigError):
        AnnealParams(sweeps=0)
    with pytest.raises(ConfigError):
        AnnealParams(t_start=0.1, t_end=0.5)
    with pytest.raises(ConfigError):
        AnnealParams(t_end=0.0)


def test_temperature_schedule_geometric():
    params = AnnealParams(sweeps=5, t_start=4.0, t_end=0.25)
    temps = temperature_schedule(params)
    assert temps.shape == (5,)
    assert np.isclose(temps[0], 4.0) and np.isclose(temps[-1], 0.25)
    ratios = temps[1:] / temps[:-1]
    assert np.allclose(ratios, ratios[0])  # constant ratio
    assert np.all(np.diff(temps) < 0)


def test_single_sweep_schedule():
    assert temperature_schedule(AnnealParams(sweeps=1)).tolist() == [2.0]


def test_deterministic_given_generator_state():
    rng1 = np.random.default_rng(55)
    rng2 = np.random.default_rng(55)
    qm = _random_qubo(np.random.default_rng(0), 10)
    r1 = solve(qm, AnnealParams(sweeps=50), rng1)
    r2 = solve(qm, AnnealParams(sweeps=50), rng2)
    assert np.array_equal(r1.state, r2.state)
    assert r1.energy == r2.energy
    assert r1.steps_taken == r2.steps_taken


def test_steps_taken_accounting():
    qm = _random_qubo(np.random.default_rng(1), 8)
    result = solve(qm, AnnealParams(sweeps=30), np.random.default_rng(2))
    assert result.steps_taken == 30 * 8


def test_reported_energy_matches_state():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 14))
        qm = _random_qubo(rng, n)
        result = solve(qm, AnnealParams(sweeps=40), rng)
        assert np.isclose(result.energy, naive_energy(qm.q, result.state), atol=1e-9)


def test_finds_ground_state_on_small_instances():
    rng = np.random.default_rng(99)
    hits = 0
    for i in range(10):
        n = int(rng.integers(6, 17))
        qm = _random_qubo(rng, n)
        ground = all_state_energies(qm.q)[1].min()
        result = solve(qm, AnnealParams(sweeps=200), np.random.default_rng(1000 + i))
        if np.isclose(result.energy, ground, atol=1e-9):
            hits += 1
    assert hits >= 9


def _assert_matches_dense_reference(qm, params, seed, start):
    """Run the kernel and the dense oracle on identical inputs; compare with ==."""
    n = qm.n
    temps = temperature_schedule(params)
    uniforms = np.random.default_rng(seed).random((params.sweeps, n))
    qdiag, coupling = sweep_operands(qm)
    outputs = []
    for kernel in (sweep, dense_sweep_reference):
        state = np.array(start, dtype=np.int64)
        best_state = np.zeros(n, dtype=np.int64)
        final_energy, best_energy = kernel(qdiag, coupling, temps, uniforms, state, best_state)
        outputs.append((state.tolist(), best_state.tolist(), final_energy, best_energy))
    assert outputs[0] == outputs[1]


def test_kernel_matches_dense_reference_on_random_qubos():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        n = int(rng.integers(2, 25))
        qm = _random_qubo(rng, n)  # signed couplings and diagonal
        qm.q[rng.random((n, n)) < 0.3] = 0.0  # some exact zeros among the couplings
        start = rng.integers(0, 2, size=n)
        params = AnnealParams(sweeps=40, t_start=float(rng.uniform(0.5, 5.0)))
        _assert_matches_dense_reference(qm, params, 100 + trial, start)


LARGE_PROBLEM = SatelliteProblem(n_satellites=4, n_requests=30, view_height=0.5, turn_speed=1.0, seed=7)


@pytest.mark.parametrize("problem", [default_problem(), LARGE_PROBLEM], ids=["3x12", "4x30"])
@pytest.mark.parametrize("w_penalty", [1.0 / 3.0, 1.0 / 6.0, 1.37, 2.718281828])
def test_kernel_matches_dense_reference_on_conflict_qubos(problem, w_penalty):
    # At w_penalty = 1/k, k selected neighbours cancel the reward: on the
    # 4x30 instance delta lands exactly on 0 hundreds of times at 1/3 and
    # within an ulp of it at 1/6, where any change in rounding would show.
    tuned = problem.with_weights(w_penalty=w_penalty)
    graph = build_conflict_graph(generate_geometry(tuned), tuned)
    qm = to_qubo(graph, tuned.qubo_weights)
    params = AnnealParams(sweeps=60, t_start=1.7)
    _assert_matches_dense_reference(qm, params, 7, np.zeros(graph.n, dtype=np.int64))


# Carried flip deltas: each regime stresses one path of the kernel's delta
# bookkeeping. Hot (t >= 20): ~98% of attempts flip, so most deltas go stale
# before reuse. Long cold (300 sweeps at t <= 0.1): ~0.4% flip, so deltas
# are carried for many sweeps. Single sweep: no delta is ever reused.
# Random starts: deltas begin from arbitrary selected neighbourhoods.
CARRIED_DELTA_REGIMES = {
    "hot": ((1.0 / 3.0,), AnnealParams(sweeps=40, t_start=25.0, t_end=20.0), False),
    "long-cold": ((1.37,), AnnealParams(sweeps=300, t_start=0.1, t_end=0.05), False),
    "single-sweep": ((2.718281828,), AnnealParams(sweeps=1, t_start=1.7), False),
    "random-start": ((1.0 / 3.0, 1.0 / 6.0, 2.37), AnnealParams(sweeps=30, t_start=2.2), True),
}


@pytest.mark.parametrize("problem", [default_problem(), LARGE_PROBLEM], ids=["3x12", "4x30"])
@pytest.mark.parametrize("regime", CARRIED_DELTA_REGIMES)
def test_carried_deltas_match_dense_reference(problem, regime):
    penalties, params, random_start = CARRIED_DELTA_REGIMES[regime]
    rng = np.random.default_rng(31)
    for w_penalty in penalties:
        tuned = problem.with_weights(w_penalty=w_penalty)
        graph = build_conflict_graph(generate_geometry(tuned), tuned)
        qm = to_qubo(graph, tuned.qubo_weights)
        start = rng.integers(0, 2, size=qm.n) if random_start else np.zeros(qm.n, dtype=np.int64)
        _assert_matches_dense_reference(qm, params, int(rng.integers(1 << 30)), start)


@pytest.mark.parametrize(
    "entry, value, message",
    [((2, 2), 0.5, "diagonal"), ((1, 3), 0.25, "symmetric")],
    ids=["nonzero-diagonal", "asymmetric"],
)
def test_kernel_rejects_couplings_carried_deltas_cannot_follow(entry, value, message):
    qm = _random_qubo(np.random.default_rng(4), 5)
    qdiag, coupling = sweep_operands(qm)
    coupling[entry] += value
    temps = temperature_schedule(AnnealParams(sweeps=3))
    uniforms = np.random.default_rng(5).random((3, 5))
    state = np.zeros(5, dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        sweep(qdiag, coupling, temps, uniforms, state, np.zeros_like(state))
