"""The annealer's certified stop: the clique-cover bound, and a stop that
never changes a score.

``to_qubo`` carries ``clique_cover``, the size of a greedy clique cover,
which bounds every conflict-free selection. ``solve`` passes it to the
kernel, which returns at the first best state that selects that many
nodes with no conflict. Every score must equal the full schedule's.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from probeopt.evaluator import conflict_graph
from probeopt.harness.scenarios import ScenarioConfig, default_problem, run_scenario
from probeopt.qubo import anneal
from probeopt.qubo.anneal import AnnealParams, solve, temperature_schedule
from probeopt.qubo.kernels import certified, sweep
from probeopt.qubo.model import to_qubo
from probeopt.qubo.problem import QuboWeights
from probeopt.qubo.schedule import decode
from support import (
    certified_optimal,
    dense_sweep_reference,
    first_certified_sweep,
    graph_on,
    qubo_on,
    random_edges,
    sweep_operands,
)
from test_anneal import LARGE_PROBLEM, SPECIAL_GRAPHS


def _independence_number(n, edges):
    """Size of a maximum independent set, by trying every subset."""
    codes = np.arange(1 << n, dtype=np.int64)
    free = np.ones(codes.shape, dtype=bool)
    for i, j in edges:
        free &= ((codes >> i) & (codes >> j) & 1) == 0
    sizes = np.array([bin(c).count("1") for c in range(1 << n)])
    return int(sizes[free].max())


def _union_of_cliques(sizes):
    """Disjoint cliques of the given sizes, numbered one clique after another."""
    edges, start = [], 0
    for size in sizes:
        edges += [(start + a, start + b) for a in range(size) for b in range(a + 1, size)]
        start += size
    return start, tuple(edges)


# -- the bound -----------------------------------------------------------------


def test_clique_cover_bounds_every_conflict_free_selection():
    rng = np.random.default_rng(240)
    for _ in range(240):
        n = int(rng.integers(1, 15))
        edges = random_edges(rng, n)
        cover = qubo_on(n, edges).clique_cover
        assert _independence_number(n, edges) <= cover <= n


@pytest.mark.parametrize("graph, expected", [("empty", 9), ("complete", 1), ("star-40", 40)])
def test_clique_cover_on_special_graphs(graph, expected):
    n, edges = SPECIAL_GRAPHS[graph]
    assert qubo_on(n, edges).clique_cover == expected


def test_clique_cover_on_the_default_instance():
    problem = default_problem()
    assert to_qubo(conflict_graph(problem), problem.qubo_weights).clique_cover == 9


@pytest.mark.parametrize("n, edges, expected", [(1, (), 1), (5, ((1, 3),), 4), (6, ((0, 5), (2, 5)), 5)])
def test_clique_cover_with_isolated_nodes(n, edges, expected):
    assert qubo_on(n, edges).clique_cover == expected


def test_clique_cover_is_tight_on_a_union_of_cliques():
    n, edges = _union_of_cliques((3, 4, 2, 5, 1))
    assert qubo_on(n, edges).clique_cover == 5 == _independence_number(n, edges)


# -- the certificate -----------------------------------------------------------


def test_certificate_needs_the_cover_size_and_no_conflict():
    # Path 0 - 1 - 2 with cover 2, largest degree 2: idx = bit * 3 + m.
    stride = 3
    assert certified([3, 2, 3], stride, 2)  # {0, 2}: no selected neighbour
    assert not certified([4, 4, 1], stride, 2)  # {0, 1}: two nodes, one conflict
    assert not certified([4, 5, 4], stride, 2)  # {0, 1, 2}: two conflicts
    assert not certified([3, 1, 0], stride, 2)  # {0}: conflict-free, one short
    assert certified([3, 1, 0], stride, 1)


# -- the stop never changes a score --------------------------------------------


def _kernel(qubo, temps, uniforms, clique_cover=None):
    """Kernel from the all-zeros state: (final state, best state, final energy, best energy)."""
    state = np.zeros(qubo.n, dtype=np.int64)
    best_state = np.zeros_like(state)
    energies = sweep(qubo, temps, uniforms, state, best_state, clique_cover=clique_cover)
    return state.tolist(), best_state.tolist(), *energies


def _reference(qubo, temps, uniforms, clique_cover=None):
    """``dense_sweep_reference`` from the all-zeros state, with the same stop."""
    qdiag, coupling = sweep_operands(qubo)
    state = np.zeros(qubo.n, dtype=np.int64)
    best_state = np.zeros_like(state)
    energies = dense_sweep_reference(
        qdiag, coupling, temps, uniforms, state, best_state, clique_cover=clique_cover, w_penalty=qubo.w_penalty
    )
    return state.tolist(), best_state.tolist(), *energies


def _assert_stop_keeps_the_score(graph, qubo, params, seed):
    """solve's score equals the full schedule's on the same rolls; where the
    stop cannot apply, the kernel with the bound is the full schedule."""
    temps = temperature_schedule(params)
    uniforms = np.random.default_rng(seed).random((params.sweeps, qubo.n))
    full = _kernel(qubo, temps, uniforms)
    stopped = decode(solve(qubo, params, np.random.default_rng(seed)), graph)
    assert stopped.score == decode(np.array(full[1]), graph).score
    if not qubo.w_penalty > qubo.w_reward:
        assert _kernel(qubo, temps, uniforms, qubo.clique_cover) == full


W_REWARD = 1.0
# Below, at and an ulp-scale step above w_reward the stop must not apply;
# above it, it may.
NO_STOP_PENALTIES = (0.6, W_REWARD, W_REWARD * (1 + 1e-12))
PENALTIES = NO_STOP_PENALTIES + (1.37, 2.37, 6.0)


def test_stop_keeps_the_score_on_random_conflict_qubos():
    rng = np.random.default_rng(2401)
    for trial in range(60):
        n = int(rng.integers(2, 20))
        graph = graph_on(n, random_edges(rng, n))
        w_penalty = PENALTIES[trial % len(PENALTIES)] if trial < 30 else float(rng.uniform(0.25, 4.0))
        qubo = to_qubo(graph, QuboWeights(w_reward=W_REWARD, w_penalty=w_penalty))
        params = AnnealParams(sweeps=int(rng.integers(1, 120)), t_start=float(rng.uniform(0.5, 5.0)))
        for seed in range(4):
            _assert_stop_keeps_the_score(graph, qubo, params, 1000 * trial + seed)


@pytest.mark.parametrize("problem", [default_problem(), LARGE_PROBLEM], ids=["3x12", "4x30"])
@pytest.mark.parametrize("w_penalty", PENALTIES)
def test_stop_keeps_the_score_on_conflict_qubos(problem, w_penalty):
    graph = conflict_graph(problem)
    qubo = to_qubo(graph, replace(problem.qubo_weights, w_penalty=w_penalty))
    assert qubo.w_reward == W_REWARD
    for t_start in (0.5, 2.0, 4.5):
        for seed in range(8):
            _assert_stop_keeps_the_score(graph, qubo, AnnealParams(t_start=t_start), seed)


def test_kernel_with_the_stop_matches_the_dense_reference_on_random_qubos():
    rng = np.random.default_rng(2402)
    for trial in range(24):
        n = int(rng.integers(2, 16))
        w_penalty = PENALTIES[trial % len(PENALTIES)]
        qubo = qubo_on(n, random_edges(rng, n), w_reward=W_REWARD, w_penalty=w_penalty)
        params = AnnealParams(sweeps=40, t_start=float(rng.uniform(0.5, 5.0)))
        uniforms = rng.random((params.sweeps, n))
        temps = temperature_schedule(params)
        cover = qubo.clique_cover
        assert _kernel(qubo, temps, uniforms, cover) == _reference(qubo, temps, uniforms, cover)


@pytest.mark.parametrize("problem", [default_problem(), LARGE_PROBLEM], ids=["3x12", "4x30"])
@pytest.mark.parametrize("w_penalty", [0.6, 1.37, 2.37])
def test_kernel_with_the_stop_matches_the_dense_reference_on_conflict_qubos(problem, w_penalty):
    qubo = to_qubo(conflict_graph(problem), replace(problem.qubo_weights, w_penalty=w_penalty))
    params = AnnealParams(sweeps=60, t_start=1.7)
    uniforms = np.random.default_rng(24).random((params.sweeps, qubo.n))
    temps = temperature_schedule(params)
    cover = qubo.clique_cover
    assert _kernel(qubo, temps, uniforms, cover) == _reference(qubo, temps, uniforms, cover)


# -- the stop fires where it should --------------------------------------------


def _assert_stops_in_the_first_certified_sweep(qubo, temps, uniforms, clique_cover):
    """The kernel with ``clique_cover`` returns in the sweep where the stepped
    reference first visits a certified state, at its first certified best."""
    s = first_certified_sweep(qubo, temps, uniforms)
    assert s is not None
    outputs = _kernel(qubo, temps, uniforms, clique_cover)
    # Rolls of 0.0 flip every variable that is not at an underflowed
    # threshold, so a later sweep that ran would move the state.
    poisoned = uniforms.copy()
    poisoned[s + 1 :] = 0.0
    assert _kernel(qubo, temps, poisoned, clique_cover) == outputs
    state, best_state = outputs[:2]
    assert state == best_state
    assert certified_optimal(sweep_operands(qubo)[1], best_state, qubo.clique_cover)
    assert outputs == _reference(qubo, temps, uniforms, clique_cover)
    return s


def test_every_default_instance_solve_above_the_reward_stops(monkeypatch, tmp_path):
    # Record every kernel call of the seed-7 headline run.
    calls = []

    def recording(qubo, params, rng, state, best_state, **kwargs):
        # solve hands the kernel its parameters and its generator; record
        # the ladder they stand for and the rolls the generator yields.
        temps = temperature_schedule(params)
        uniforms = copy.deepcopy(rng).random((len(temps), qubo.n))
        energies = sweep(qubo, params, rng, state, best_state, **kwargs)
        calls.append((qubo, temps, uniforms, kwargs, (state.tolist(), best_state.tolist(), *energies)))
        return energies

    monkeypatch.setattr(anneal, "sweep", recording)
    run_scenario(ScenarioConfig("bo-qubo", seed=7, budget=25, problem=default_problem(), out=tmp_path))
    assert len(calls) == 25
    sweeps_run = []
    for qubo, temps, uniforms, kwargs, outputs in calls:
        assert kwargs == {"clique_cover": qubo.clique_cover}
        assert outputs == _kernel(qubo, temps, uniforms, **kwargs)
        if qubo.w_penalty > qubo.w_reward:
            sweeps_run.append(_assert_stops_in_the_first_certified_sweep(qubo, temps, uniforms, **kwargs) + 1)
        else:
            assert _kernel(qubo, temps, uniforms, **kwargs) == _kernel(qubo, temps, uniforms)
    assert sweeps_run and 1 in sweeps_run
    assert max(sweeps_run) < 200


@pytest.mark.parametrize("sizes", [(3, 4, 2, 5, 1), (6, 6, 6), (2,) * 10])
@pytest.mark.parametrize("w_penalty", [1.37, 2.37, 6.0])
def test_stop_comes_at_the_first_certified_best_where_the_cover_is_tight(sizes, w_penalty):
    n, edges = _union_of_cliques(sizes)
    qubo = qubo_on(n, edges, w_reward=W_REWARD, w_penalty=w_penalty)
    rng = np.random.default_rng(len(sizes) * 10 + int(w_penalty))
    for t_start in (0.5, 2.0, 8.0):
        params = AnnealParams(sweeps=80, t_start=t_start)
        uniforms = rng.random((params.sweeps, n))
        _assert_stops_in_the_first_certified_sweep(qubo, temperature_schedule(params), uniforms, qubo.clique_cover)


@pytest.mark.parametrize("graph", SPECIAL_GRAPHS)
def test_stop_comes_at_the_first_certified_best_on_special_graphs(graph):
    # Empty, complete and star graphs: the greedy cover is alpha on each.
    n, edges = SPECIAL_GRAPHS[graph]
    qubo = qubo_on(n, edges, w_reward=1.1, w_penalty=3.0)
    params = AnnealParams(sweeps=30, t_start=2.0)
    uniforms = np.random.default_rng(17).random((params.sweeps, n))
    _assert_stops_in_the_first_certified_sweep(qubo, temperature_schedule(params), uniforms, qubo.clique_cover)


# -- rolls drawn by the kernel -------------------------------------------------


@pytest.mark.parametrize("problem", [default_problem(), LARGE_PROBLEM], ids=["3x12", "4x30"])
@pytest.mark.parametrize("w_penalty", [0.6, 2.37])
@pytest.mark.parametrize("sweeps", [1, 2, 60])
def test_kernel_drawing_its_rolls_matches_the_drawn_rolls_and_the_reference(problem, w_penalty, sweeps):
    qubo = to_qubo(conflict_graph(problem), replace(problem.qubo_weights, w_penalty=w_penalty))
    temps = temperature_schedule(AnnealParams(sweeps=sweeps, t_start=1.3))
    for seed in range(4):
        uniforms = np.random.default_rng(seed).random((sweeps, qubo.n))
        for cover in (None, qubo.clique_cover):
            rng = np.random.default_rng(seed)
            outputs = _kernel(qubo, temps, rng, cover)
            assert outputs == _kernel(qubo, temps, uniforms, cover)
            assert outputs == _reference(qubo, temps, uniforms, cover)
            # The kernel drew the first sweep's rolls, or all of them.
            stream = np.random.default_rng(seed).random((sweeps + 1) * qubo.n)
            assert rng.random() in (stream[qubo.n], stream[sweeps * qubo.n])


def test_a_solve_that_stops_in_its_first_sweep_draws_one_row():
    problem = default_problem()
    qubo = to_qubo(conflict_graph(problem), replace(problem.qubo_weights, w_penalty=2.37))
    params = AnnealParams(sweeps=200, t_start=1.0)
    stopped = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        uniforms = np.random.default_rng(seed).random((params.sweeps, qubo.n))
        best = solve(qubo, params, rng)
        assert best.tolist() == _reference(qubo, temperature_schedule(params), uniforms, qubo.clique_cover)[1]
        if first_certified_sweep(qubo, temperature_schedule(params), uniforms) == 0:
            stopped += 1
            assert rng.random() == uniforms[1, 0]
    assert stopped > 0
