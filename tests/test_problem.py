"""Scheduling instances and conflict graph construction."""

from __future__ import annotations

import numpy as np
import pytest

from probeopt.errors import ConfigError
from probeopt.qubo.conflict import build_conflict_graph, visible_pairs
from probeopt.qubo.problem import (
    Geometry,
    QuboWeights,
    SatelliteProblem,
    generate_geometry,
)
from support import brute_force_conflict_edges, problem_to_dict


def _problem(**kw):
    base = dict(n_satellites=3, n_requests=10, view_height=0.4, turn_speed=1.0, seed=7)
    base.update(kw)
    return SatelliteProblem(**base)


def test_validation_errors():
    with pytest.raises(ConfigError):
        _problem(n_satellites=0)
    with pytest.raises(ConfigError):
        _problem(n_requests=-1)
    with pytest.raises(ConfigError):
        _problem(view_height=0.0)
    with pytest.raises(ConfigError):
        _problem(view_height=1.2)
    with pytest.raises(ConfigError):
        _problem(turn_speed=0.0)
    with pytest.raises(ConfigError):
        QuboWeights(w_reward=0.0)


@pytest.mark.parametrize(
    "weights", [dict(w_penalty=float("nan")), dict(w_reward=float("inf")), dict(w_penalty=-float("inf"))]
)
def test_qubo_weights_must_be_finite(weights):
    with pytest.raises(ConfigError):
        QuboWeights(**weights)


def test_geometry_is_seeded_and_in_unit_square():
    p = _problem(seed=123)
    g1 = generate_geometry(p)
    g2 = generate_geometry(p)
    assert np.array_equal(g1.request_xy, g2.request_xy)
    assert g1.request_xy.shape == (10, 2)
    assert np.all((g1.request_xy >= 0.0) & (g1.request_xy < 1.0))
    assert np.allclose(g1.satellite_y, [1 / 6, 3 / 6, 5 / 6])
    g3 = generate_geometry(_problem(seed=124))
    assert not np.array_equal(g1.request_xy, g3.request_xy)


def test_visibility_band_is_inclusive():
    p = _problem(n_satellites=1, n_requests=3, view_height=0.4)
    # Satellite track at y = 0.5; band is [0.3, 0.7] inclusive.
    geometry = Geometry(
        request_xy=np.array([[0.5, 0.3], [0.5, 0.7], [0.5, 0.29]]),
        satellite_y=np.array([0.5]),
    )
    pairs = visible_pairs(geometry, p)
    assert (0, 0) in pairs and (0, 1) in pairs
    assert (0, 2) not in pairs


def test_same_request_two_satellites_conflict():
    p = _problem(n_satellites=2, n_requests=1, view_height=1.0, turn_speed=100.0)
    geometry = Geometry(
        request_xy=np.array([[0.5, 0.5]]),
        satellite_y=np.array([0.25, 0.75]),
    )
    graph = build_conflict_graph(geometry, p)
    assert graph.nodes == ((0, 0), (1, 0))
    assert graph.edges == ((0, 1),)


def test_same_satellite_slew_rule():
    p = _problem(n_satellites=1, n_requests=2, view_height=1.0, turn_speed=1.0)
    # dy = 0.3 > 1.0 * dx = 0.1: conflict.
    tight = Geometry(
        request_xy=np.array([[0.2, 0.35], [0.3, 0.65]]),
        satellite_y=np.array([0.5]),
    )
    assert build_conflict_graph(tight, p).edges == ((0, 1),)
    # dy = 0.3 <= 1.0 * dx = 0.5: fine.
    loose = Geometry(
        request_xy=np.array([[0.2, 0.35], [0.7, 0.65]]),
        satellite_y=np.array([0.5]),
    )
    assert build_conflict_graph(loose, p).edges == ()


def test_conflict_graph_matches_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        p = SatelliteProblem(
            n_satellites=int(rng.integers(1, 5)),
            n_requests=int(rng.integers(1, 15)),
            view_height=float(rng.uniform(0.1, 1.0)),
            turn_speed=float(rng.uniform(0.2, 3.0)),
            seed=int(rng.integers(100_000)),
        )
        geometry = generate_geometry(p)
        graph = build_conflict_graph(geometry, p)
        nodes, edges = brute_force_conflict_edges(geometry, p)
        assert graph.nodes == nodes
        assert graph.edges == edges


def test_serialization_roundtrip():
    p = _problem(seed=99, qubo_weights=QuboWeights(w_penalty=3.5))
    data = problem_to_dict(p)
    assert data["qubo_weights"] == {"w_reward": 1.0, "w_penalty": 3.5}
    assert SatelliteProblem.from_dict(data) == p
