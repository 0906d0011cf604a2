"""QUBO encoding, energy accounting, decoding, penalty behavior."""

from __future__ import annotations

import numpy as np
import pytest

from probeopt.errors import DimensionMismatch, EmptyGraph
from probeopt.qubo.anneal import AnnealParams, solve
from probeopt.qubo.conflict import ConflictGraph
from probeopt.qubo.model import QuboMatrix, energy, to_qubo
from probeopt.qubo.problem import QuboWeights
from probeopt.qubo.schedule import decode, violation_count
from support import all_state_energies, conflict_free, naive_energy


def _chain_graph():
    # 0 - 1 - 2 path; nodes carry (satellite, request) labels.
    return ConflictGraph(nodes=((0, 0), (0, 1), (1, 1)), edges=((0, 1), (1, 2)))


def test_hand_worked_energies():
    q = QuboMatrix(q=np.array([[-1.0, 3.0], [0.0, -1.0]]))
    assert energy(q, [1, 1]) == 1.0
    assert energy(q, [1, 0]) == -1.0
    assert energy(q, [0, 1]) == -1.0
    assert energy(q, [0, 0]) == 0.0


def test_energy_matches_naive_double_loop():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        q = np.triu(rng.normal(size=(n, n)))
        qm = QuboMatrix(q=q)
        x = rng.integers(0, 2, size=n)
        assert np.isclose(energy(qm, x), naive_energy(q, x), atol=1e-9)


def test_energy_dimension_check():
    qm = QuboMatrix(q=np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        energy(qm, [1, 0])


def test_to_qubo_structure():
    graph = _chain_graph()
    qm = to_qubo(graph, QuboWeights(w_reward=1.5, w_penalty=4.0))
    assert qm.n == 3
    assert np.allclose(np.diag(qm.q), -1.5)
    assert qm.q[0, 1] == 4.0 and qm.q[1, 2] == 4.0
    assert qm.q[0, 2] == 0.0
    assert np.allclose(qm.q, np.triu(qm.q))  # strictly upper triangular layout


def test_to_qubo_rejects_empty_graph():
    with pytest.raises(EmptyGraph):
        to_qubo(ConflictGraph(nodes=(), edges=()), QuboWeights())


def test_minimizers_are_max_independent_sets():
    """With penalty above reward, ground states select a maximum
    conflict-free set; checked exhaustively on small random graphs."""
    rng = np.random.default_rng(10)
    for _ in range(8):
        n = int(rng.integers(4, 11))
        edges = tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        )
        graph = ConflictGraph(nodes=tuple((0, k) for k in range(n)), edges=edges)
        qm = to_qubo(graph, QuboWeights(w_reward=1.0, w_penalty=2.0))
        bits, energies = all_state_energies(qm.q)
        ground = energies.min()
        minimizers = bits[energies <= ground + 1e-9]
        sizes = []
        for state in minimizers:
            assert conflict_free(edges, state)
            sizes.append(int(state.sum()))
        # Energy of a conflict-free set is -|set|: every minimizer has the
        # same size, and nothing conflict-free can be larger.
        mis = max(
            int(b.sum()) for b in bits if conflict_free(edges, b)
        )
        assert set(sizes) == {mis}
        assert ground == -mis


def test_decode_repairs_to_conflict_free():
    graph = _chain_graph()
    schedule = decode(np.array([1, 1, 1]), graph)
    selected = set(schedule.assignments)
    # Node 1 has two violated edges: dropped first, leaving 0 and 2.
    assert selected == {(0, 0), (1, 1)}
    assert schedule.score == 2  # requests 0 and 1


def test_decode_tie_breaks_toward_higher_index():
    graph = ConflictGraph(nodes=((0, 0), (0, 1)), edges=((0, 1),))
    schedule = decode(np.array([1, 1]), graph)
    assert schedule.assignments == ((0, 0),)  # node 1 dropped on the tie


def test_decode_score_counts_distinct_requests():
    graph = ConflictGraph(nodes=((0, 7), (1, 7)), edges=())
    # Same request served twice without conflict still scores once.
    schedule = decode(np.array([1, 1]), graph)
    assert schedule.score == 1


def test_violation_count_before_repair():
    graph = _chain_graph()
    assert violation_count(graph, np.array([1, 1, 1])) == 2
    assert violation_count(graph, np.array([1, 0, 1])) == 0


def test_higher_penalty_never_raises_median_violations():
    """Median pre-repair violation count over seeds is non-increasing in
    the penalty weight. Few sweeps keep the annealer sloppy enough to
    actually produce violations at weak penalties."""
    rng = np.random.default_rng(31337)
    n = 12
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    )
    graph = ConflictGraph(nodes=tuple((0, k) for k in range(n)), edges=edges)
    penalties = [0.5, 1.0, 2.0, 4.0]
    medians = []
    for w_pen in penalties:
        qm = to_qubo(graph, QuboWeights(w_reward=1.0, w_penalty=w_pen))
        counts = []
        for seed in range(20):
            result = solve(qm, AnnealParams(sweeps=10), np.random.default_rng(seed))
            counts.append(violation_count(graph, result.state))
        medians.append(float(np.median(counts)))
    assert all(a >= b for a, b in zip(medians, medians[1:]))
    assert medians[0] > medians[-1]  # the trend is real, not all zeros
