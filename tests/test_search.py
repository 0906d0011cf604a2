"""Model-based search: determinism, candidate scoring, convergence."""

from __future__ import annotations

import numpy as np
import pytest

from probeopt.bo.gp import GPHyper
from probeopt.bo.search import BayesSearch, Observation, SearchSpace, draw_candidates
from probeopt.errors import DimensionMismatch, OutOfBounds
from support import dense_gp_predict, ei_reference


def _space1d():
    return SearchSpace(lower=(0.0,), upper=(1.0,))


def test_space_validation():
    with pytest.raises(OutOfBounds):
        SearchSpace(lower=(1.0,), upper=(0.0,))
    with pytest.raises(DimensionMismatch):
        SearchSpace(lower=(0.0, 1.0), upper=(1.0,))
    with pytest.raises(DimensionMismatch):
        SearchSpace(lower=(), upper=())


def test_defaults_match_contract():
    search = BayesSearch(_space1d(), seed=0)
    assert search.n_init == 5
    assert search.n_cand == 512
    assert search.xi == 0.01
    assert search.hyper.signal_var == 1.0
    assert search.hyper.noise_var == 1e-4
    assert np.isclose(search.hyper.length_scale, 0.2)  # 0.2 * mean width


def test_initial_suggestions_are_in_bounds_uniform_phase():
    space = SearchSpace(lower=(0.0, -2.0), upper=(1.0, 2.0))
    search = BayesSearch(space, seed=42)
    for _ in range(5):
        x = search.suggest()
        assert space.contains(x)
        search.update(Observation(x=tuple(x), y=float(np.sum(x))))


def test_update_out_of_bounds_rejected():
    search = BayesSearch(_space1d(), seed=0)
    with pytest.raises(OutOfBounds):
        search.update(Observation(x=(1.5,), y=0.0))


def test_deterministic_given_seed_and_history():
    def run():
        search = BayesSearch(_space1d(), seed=123)
        xs = []
        for k in range(8):
            x = search.suggest()
            xs.append(tuple(x))
            search.update(Observation(x=tuple(x), y=float(-((x[0] - 0.4) ** 2))))
        return xs

    assert run() == run()


def test_different_seeds_differ():
    a = BayesSearch(_space1d(), seed=1).suggest()
    b = BayesSearch(_space1d(), seed=2).suggest()
    assert not np.allclose(a, b)


def test_suggestion_is_argmax_over_candidate_batch():
    """Re-score the exact candidate batch with oracle GP + EI math."""
    rng_meta = np.random.default_rng(77)
    for trial in range(10):
        d = int(rng_meta.integers(1, 3))
        space = SearchSpace(lower=tuple([0.0] * d), upper=tuple([1.0] * d))
        search = BayesSearch(space, seed=int(rng_meta.integers(10_000)))
        n_obs = int(rng_meta.integers(3, 8))
        for _ in range(n_obs):
            x = rng_meta.uniform(size=d)
            search.update(Observation(x=tuple(x), y=float(rng_meta.normal())))
        search._suggest_calls = search.n_init  # force the model-based branch
        rng_state = search.rng.bit_generator.state
        x_chosen = search.suggest()

        replay = np.random.default_rng()
        replay.bit_generator.state = rng_state
        cands = draw_candidates(replay, space, search.n_cand)
        xs = np.array([o.x for o in search.observations])
        ys = np.array([o.y for o in search.observations])
        h = search.hyper
        mean, var = dense_gp_predict(xs, ys, h.signal_var, h.length_scale, h.noise_var, cands)
        scores = ei_reference(mean, var, search.y_best, search.xi)
        best = int(np.argmax(scores))
        order = np.sort(scores)[::-1]
        gap = order[0] - order[1]
        if gap > 1e-9:
            assert np.array_equal(x_chosen, cands[best])
        else:  # numerically tied: accept any candidate scoring at the max
            chosen_idx = int(np.where((cands == x_chosen).all(axis=1))[0][0])
            assert scores[chosen_idx] >= order[0] - 1e-9


def test_box_draws_equal_rng_uniform_bit_for_bit():
    space = SearchSpace(lower=(0.5, 0.1), upper=(3.0, 2.0))
    for seed in range(50):
        search = BayesSearch(space, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(search.n_init):
            assert np.array_equal(search.suggest(), rng.uniform(space.lower, space.upper, size=space.dims))
        cands = search._draw(search._cand_lower, search._cand_widths)
        assert np.array_equal(cands, draw_candidates(rng, space, search.n_cand))


def test_update_keeps_the_training_arrays_and_best():
    space = SearchSpace(lower=(0.0, -1.0), upper=(1.0, 1.0))
    search = BayesSearch(space, seed=3)
    for k, y in enumerate([0.5, 2.0, -1.0, 2.0, 1.0]):
        search.update(Observation(x=(0.1 * k, -0.2 * k), y=y))
        assert search.y_best == max(o.y for o in search.observations)
    assert np.array_equal(search.model.train_x, [o.x for o in search.observations])
    with pytest.raises(OutOfBounds):
        search.update(Observation(x=(0.5, float("nan")), y=0.0))
    with pytest.raises(OutOfBounds):
        search.update(Observation(x=(0.5,), y=0.0))
    assert search.model.n == len(search.observations) == 5


def test_y_best_tracks_maximum():
    search = BayesSearch(_space1d(), seed=5)
    search.update(Observation(x=(0.2,), y=1.0))
    search.update(Observation(x=(0.4,), y=3.0))
    search.update(Observation(x=(0.6,), y=2.0))
    assert search.y_best == 3.0


def test_converges_on_smooth_1d_objective():
    """f(x) = -(x - 0.3)^2: most seeds must get within 0.01 of the optimum."""
    hits = 0
    seeds = range(20)
    for seed in seeds:
        search = BayesSearch(_space1d(), seed=seed)
        for _ in range(20):  # 5 uniform + 15 model-guided
            x = search.suggest()
            y = -((float(x[0]) - 0.3) ** 2)
            search.update(Observation(x=tuple(x), y=y))
        if search.y_best >= -0.01:
            hits += 1
    assert hits >= 18  # at least 90% of seeds


def test_custom_hyper_accepted():
    hyper = GPHyper(signal_var=2.0, length_scale=0.5, noise_var=1e-3)
    search = BayesSearch(_space1d(), seed=0, hyper=hyper)
    assert search.hyper is hyper
