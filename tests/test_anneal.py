"""Annealer: schedule, determinism, kernel bit-identity, solution quality."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from probeopt.errors import ConfigError
from probeopt.harness.scenarios import default_problem
from probeopt.qubo.anneal import AnnealParams, solve, temperature_schedule
from probeopt.qubo.conflict import build_conflict_graph
from probeopt.qubo import kernels
from probeopt.qubo.kernels import sweep
from probeopt.qubo.model import to_qubo
from probeopt.qubo.problem import SatelliteProblem, generate_geometry
from support import (
    all_state_energies,
    dense_sweep_reference,
    first_certified_sweep,
    naive_energy,
    qubo_matrix,
    qubo_on,
    random_conflict_qubo,
    sweep_operands,
)


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
    qm = random_conflict_qubo(np.random.default_rng(0), 10)
    s1 = solve(qm, AnnealParams(sweeps=50), rng1)
    s2 = solve(qm, AnnealParams(sweeps=50), rng2)
    assert np.array_equal(s1, s2)


def test_reported_energy_matches_state():
    # sweep's returned energies against the states it leaves, drawing the
    # rolls as solve draws them.
    rng = np.random.default_rng(3)
    params = AnnealParams(sweeps=40)
    for _ in range(10):
        n = int(rng.integers(3, 14))
        qm = random_conflict_qubo(rng, n)
        state, best_state = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        uniforms = rng.random((params.sweeps, n))
        final_energy, best_energy = sweep(qm, temperature_schedule(params), uniforms, state, best_state)
        q = qubo_matrix(qm)
        assert np.isclose(best_energy, naive_energy(q, best_state), atol=1e-9)
        assert np.isclose(final_energy, naive_energy(q, state), atol=1e-9)


def test_finds_ground_state_on_small_instances():
    rng = np.random.default_rng(99)
    hits = 0
    for i in range(10):
        n = int(rng.integers(6, 17))
        qm = random_conflict_qubo(rng, n)
        q = qubo_matrix(qm)
        ground = all_state_energies(q)[1].min()
        state = solve(qm, AnnealParams(sweeps=200), np.random.default_rng(1000 + i))
        if np.isclose(naive_energy(q, state), ground, atol=1e-9):
            hits += 1
    assert hits >= 9


def _kernel_and_reference(qm, temps, uniforms, start):
    """Run the kernel on the sparse QUBO and the dense oracle on its matrix,
    with identical rolls and start; return both (final state, best state,
    final energy, best energy)."""
    qdiag, coupling = sweep_operands(qm)
    outputs = []
    for kernel, operands in ((sweep, (qm,)), (dense_sweep_reference, (qdiag, coupling))):
        state = np.array(start, dtype=np.int64)
        best_state = np.zeros(qm.n, dtype=np.int64)
        final_energy, best_energy = kernel(*operands, temps, uniforms, state, best_state)
        outputs.append((state.tolist(), best_state.tolist(), final_energy, best_energy))
    return outputs


def _assert_matches_dense_reference(qm, params, seed, start):
    """Kernel and dense oracle on rolls drawn from ``seed``; compare with ==."""
    uniforms = np.random.default_rng(seed).random((params.sweeps, qm.n))
    kernel_out, reference_out = _kernel_and_reference(qm, temperature_schedule(params), uniforms, start)
    assert kernel_out == reference_out


def test_kernel_matches_dense_reference_on_random_qubos():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        n = int(rng.integers(2, 25))
        qm = random_conflict_qubo(rng, n)
        start = rng.integers(0, 2, size=n)
        params = AnnealParams(sweeps=40, t_start=float(rng.uniform(0.5, 5.0)))
        _assert_matches_dense_reference(qm, params, 100 + trial, start)


# Degree extremes: no neighbours (a two-entry delta table), every node
# adjacent to every other, and one hub of degree 40 among leaves of degree 1.
SPECIAL_GRAPHS = {
    "empty": (9, ()),
    "complete": (14, tuple((i, j) for i in range(14) for j in range(i + 1, 14))),
    "star-40": (41, tuple((0, j) for j in range(1, 41))),
}


@pytest.mark.parametrize("graph", SPECIAL_GRAPHS)
@pytest.mark.parametrize("t_start", [0.5, 2.0, 25.0])
def test_kernel_matches_dense_reference_on_special_graphs(graph, t_start):
    n, edges = SPECIAL_GRAPHS[graph]
    rng = np.random.default_rng(17)
    for w_penalty in (0.4, 1.37, 3.0):
        qm = qubo_on(n, edges, w_reward=1.1, w_penalty=w_penalty)
        params = AnnealParams(sweeps=30, t_start=t_start)
        for start in (np.zeros(n, dtype=np.int64), rng.integers(0, 2, size=n)):
            _assert_matches_dense_reference(qm, params, int(rng.integers(1 << 30)), start)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("w_reward", [1.0, 1.5, 2.37])
def test_kernel_matches_dense_reference_where_delta_is_zero(k, w_reward):
    # With w_penalty = w_reward / k, a 0 bit with k selected neighbours
    # has delta -w_reward + S[k] == 0.0 exactly: accepted without a roll.
    w_penalty = w_reward / k
    assert -w_reward + sum([w_penalty] * k) == 0.0
    rng = np.random.default_rng(k * 100 + int(w_reward * 10))
    for _ in range(4):
        n = int(rng.integers(8, 24))
        qm = random_conflict_qubo(rng, n, w_penalty=w_penalty, w_reward=w_reward)
        params = AnnealParams(sweeps=40, t_start=float(rng.uniform(0.5, 5.0)))
        _assert_matches_dense_reference(qm, params, int(rng.integers(1 << 30)), rng.integers(0, 2, size=n))


LARGE_PROBLEM = SatelliteProblem(n_satellites=4, n_requests=30, view_height=0.5, turn_speed=1.0, seed=7)


@pytest.mark.parametrize("problem", [default_problem(), LARGE_PROBLEM], ids=["3x12", "4x30"])
@pytest.mark.parametrize("w_penalty", [1.0 / 3.0, 1.0 / 6.0, 1.37, 2.718281828])
def test_kernel_matches_dense_reference_on_conflict_qubos(problem, w_penalty):
    # At w_penalty = 1/k, k selected neighbours cancel the reward: on the
    # 4x30 instance delta lands exactly on 0 hundreds of times at 1/3 and
    # within an ulp of it at 1/6, where any change in rounding would show.
    graph = build_conflict_graph(generate_geometry(problem), problem)
    qm = to_qubo(graph, replace(problem.qubo_weights, w_penalty=w_penalty))
    params = AnnealParams(sweeps=60, t_start=1.7)
    _assert_matches_dense_reference(qm, params, 7, np.zeros(graph.n, dtype=np.int64))


# Annealing regimes, each stressing one path of the kernel's count
# bookkeeping. Hot (t >= 20): ~98% of attempts flip, so counts move on
# almost every attempt. Long cold (300 sweeps at t <= 0.1): ~0.4% flip,
# so thresholds sit far below 1 and counts stay put for many sweeps.
# Single sweep: one threshold table. Random starts: counts begin from
# arbitrary selected neighbourhoods. Frozen tail: the state settles early
# and most later sweeps flip nothing, so the kernel skips them, and a
# late flip must end the skipping.
REGIMES = {
    "hot": ((1.0 / 3.0,), AnnealParams(sweeps=40, t_start=25.0, t_end=20.0), False),
    "long-cold": ((1.37,), AnnealParams(sweeps=300, t_start=0.1, t_end=0.05), False),
    "single-sweep": ((2.718281828,), AnnealParams(sweeps=1, t_start=1.7), False),
    "random-start": ((1.0 / 3.0, 1.0 / 6.0, 2.37), AnnealParams(sweeps=30, t_start=2.2), True),
    "frozen-tail": ((2.37,), AnnealParams(sweeps=300, t_start=2.0, t_end=0.02), True),
}


@pytest.mark.parametrize("problem", [default_problem(), LARGE_PROBLEM], ids=["3x12", "4x30"])
@pytest.mark.parametrize("regime", REGIMES)
def test_carried_deltas_match_dense_reference(problem, regime):
    penalties, params, random_start = REGIMES[regime]
    rng = np.random.default_rng(31)
    for w_penalty in penalties:
        graph = build_conflict_graph(generate_geometry(problem), problem)
        qm = to_qubo(graph, replace(problem.qubo_weights, w_penalty=w_penalty))
        start = rng.integers(0, 2, size=qm.n) if random_start else np.zeros(qm.n, dtype=np.int64)
        _assert_matches_dense_reference(qm, params, int(rng.integers(1 << 30)), start)


# Hand-built rolls: every roll 0.999 at a cold temperature, so no uphill
# move is ever accepted and only downhill variables flip. Each case starts
# with a downhill variable but rolls no sweep could pass on an uphill one,
# so a kernel that skipped the sweep would leave it unflipped.
COLD = AnnealParams(sweeps=6, t_start=0.02, t_end=0.01)


def _cold_rolls(n):
    return np.full((COLD.sweeps, n), 0.999)


def test_first_sweep_runs_when_the_start_holds_a_downhill_variable():
    # Variable 2 is a 0 bit with no selected neighbour: downhill.
    qm = qubo_on(3, ((0, 1),), w_reward=1.0, w_penalty=2.37)
    kernel_out, reference_out = _kernel_and_reference(qm, temperature_schedule(COLD), _cold_rolls(3), [1, 0, 0])
    assert kernel_out == reference_out
    assert kernel_out[0] == [1, 0, 1]


def test_sweep_after_a_last_variable_flip_is_not_skipped():
    # At w_penalty 0.6 a 1 bit with two selected neighbours is downhill
    # (delta -0.2) and a 0 bit with one is downhill (-0.4); every other
    # case is uphill. From [0, 1, 1, 1] only the last variable, 3, is
    # downhill, and clearing it leaves variable 0 (a 0 bit next to 1 and
    # 3) with one selected neighbour: downhill in the second sweep.
    qm = qubo_on(4, ((0, 1), (0, 3), (1, 3), (2, 3)), w_reward=1.0, w_penalty=0.6)
    kernel_out, reference_out = _kernel_and_reference(qm, temperature_schedule(COLD), _cold_rolls(4), [0, 1, 1, 1])
    assert kernel_out == reference_out
    assert kernel_out[0] == [1, 1, 1, 0]


# -- the ladder the kernel builds only past its first sweep ---------------------


def _run_kernel(qm, temps, uniforms, start, clique_cover):
    state = np.array(start, dtype=np.int64)
    best_state = np.zeros(qm.n, dtype=np.int64)
    energies = sweep(qm, temps, uniforms, state, best_state, clique_cover=clique_cover)
    return state.tolist(), best_state.tolist(), *energies


def test_kernel_on_the_parameters_runs_the_temperature_schedule(monkeypatch):
    # Every exp the kernel takes is of a table entry over the sweep's
    # temperature, so equal exp arguments in equal order mean equal
    # per-sweep temperatures.
    rng = np.random.default_rng(43)
    exp = math.exp
    for case in range(80):
        sweeps = int(rng.choice([1, 2, 3, 17, 120]))
        t_start = float(rng.uniform(0.05, 6.0))
        params = AnnealParams(sweeps=sweeps, t_start=t_start, t_end=float(rng.uniform(0.01, 1.0) * t_start))
        temps = temperature_schedule(params)
        assert temps[0] == params.t_start  # ratio ** 0.0 == 1.0
        qm = random_conflict_qubo(rng, int(rng.integers(1, 14)))
        uniforms = rng.random((sweeps, qm.n))
        start = rng.integers(0, 2, size=qm.n) if case % 2 else np.zeros(qm.n, dtype=np.int64)
        for cover in (None, qm.clique_cover):
            outputs = []
            for schedule in (temps, params):
                args = []
                monkeypatch.setattr(math, "exp", lambda x: args.append(x) or exp(x))
                outputs.append((_run_kernel(qm, schedule, uniforms, start, cover), args))
                monkeypatch.setattr(math, "exp", exp)
            assert outputs[0] == outputs[1], case


def test_a_first_sweep_stop_never_builds_the_ladder(monkeypatch):
    built = []
    schedule = kernels.temperature_schedule
    monkeypatch.setattr(kernels, "temperature_schedule", lambda params: built.append(params) or schedule(params))
    problem = default_problem()
    graph = build_conflict_graph(generate_geometry(problem), problem)
    qm = to_qubo(graph, replace(problem.qubo_weights, w_penalty=2.37))
    runs = {True: 0, False: 0}
    for seed in range(20):
        params = AnnealParams(sweeps=200, t_start=1.0)
        uniforms = np.random.default_rng(seed).random((params.sweeps, qm.n))
        stops_first = first_certified_sweep(qm, schedule(params), uniforms) == 0
        built.clear()
        best = solve(qm, params, np.random.default_rng(seed))
        assert built == ([] if stops_first else [params])
        assert best.tolist() == _run_kernel(qm, schedule(params), uniforms, [0] * qm.n, qm.clique_cover)[1]
        runs[stops_first] += 1
    assert runs[True] > 0 and runs[False] > 0
    # One sweep is the whole schedule: nothing to build either.
    built.clear()
    solve(qm, AnnealParams(sweeps=1, t_start=1.3), np.random.default_rng(0))
    assert built == []
