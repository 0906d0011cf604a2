"""Expected-improvement math."""

from __future__ import annotations

import numpy as np
import pytest

from probeopt.bo.acquisition import ei_contenders, expected_improvement
from probeopt.bo.gp import GPHyper, gp_fit, gp_predict
from support import ei_reference


def test_zero_sigma_reduces_to_hinge():
    assert expected_improvement(1.0, 0.0, 0.5, xi=0.0) == 0.5
    assert expected_improvement(0.2, 0.0, 0.5, xi=0.0) == 0.0
    assert expected_improvement(1.0, 0.0, 0.5, xi=0.2) == 0.3


def test_value_at_z_zero():
    # mean - y_best - xi = 0 and sigma = 1: EI = pdf(0) = 1/sqrt(2*pi).
    ei = expected_improvement(0.5, 1.0, 0.5, xi=0.0)
    assert abs(ei - 0.3989423) < 1e-6


def test_nonnegative_on_random_triples():
    rng = np.random.default_rng(11)
    mean = rng.normal(scale=3.0, size=1000)
    var = rng.uniform(0.0, 4.0, size=1000)
    y_best = rng.normal(scale=3.0, size=1000)
    for m, v, yb in zip(mean, var, y_best):
        assert expected_improvement(float(m), float(v), float(yb), xi=0.01) >= 0.0


def test_matches_scipy_reference():
    rng = np.random.default_rng(12)
    mean = rng.normal(size=200)
    var = rng.uniform(0.0, 2.0, size=200)
    ours = expected_improvement(mean, var, y_best=0.3, xi=0.01)
    ref = ei_reference(mean, var, y_best=0.3, xi=0.01)
    assert np.allclose(ours, ref, atol=1e-10)


def test_matches_scipy_reference_in_the_tails():
    # With y_best far above the GP prior mean, EI is evaluated at z near -9
    # and below, where both terms nearly cancel; relative agreement matters.
    z = np.linspace(-25.0, 6.0, 2001)
    mean, var = 1.5 * z, np.full_like(z, 2.25)
    ours = expected_improvement(mean, var, y_best=0.0, xi=0.0)
    ref = ei_reference(mean, var, y_best=0.0, xi=0.0)
    assert np.all(ref > 0.0)
    assert np.allclose(ours, ref, rtol=1e-9, atol=0.0)


def test_monotone_in_mean():
    means = np.linspace(-2.0, 2.0, 41)
    ei = expected_improvement(means, np.full_like(means, 0.5), y_best=0.0, xi=0.0)
    assert np.all(np.diff(ei) > 0.0)  # strictly increasing in the mean


def test_vector_and_scalar_shapes():
    out = expected_improvement(np.array([0.1, 0.2]), np.array([1.0, 1.0]), 0.0)
    assert out.shape == (2,)
    assert isinstance(expected_improvement(0.1, 1.0, 0.0), float)


# -- ei_contenders: the exact argmax over bound-pruned candidates --------------


def _pruned_argmax(mean, var, y_best, xi):
    kept = ei_contenders(mean, var, y_best, xi)
    assert np.all(np.diff(kept) > 0)
    full = expected_improvement(mean, var, y_best, xi)
    sub = expected_improvement(mean[kept], var[kept], y_best, xi)
    # EI is elementwise, so the kept values are the full array's bits.
    assert np.array_equal(sub.view(np.int64), full[kept].view(np.int64))
    return int(kept[int(np.argmax(sub))]), int(np.argmax(full)), len(kept)


def _random_case(rng, kind):
    """(mean, var, y_best, xi) of one kind of candidate batch."""
    m = int(rng.choice([1, 2, 7, 64, 512]))
    scale = float(rng.choice([1e-6, 1.0, 1e6])) if kind == "scaled" else 1.0
    y_best = float(rng.normal(scale=3.0))
    xi = float(rng.choice([0.0, 0.01]))
    var = rng.uniform(0.0, 1.0, size=m) ** rng.uniform(1.0, 8.0)
    mean = y_best + rng.normal(scale=1.0, size=m)
    if kind == "below":  # every improvement negative
        mean = y_best - xi - np.abs(rng.normal(scale=2.0, size=m)) - 1e-3
    elif kind == "above":  # some candidates improve for sure
        mean[rng.random(m) < 0.2] += 2.0
    elif kind == "flat":  # zero and tiny negative variance, hinge only
        var[rng.random(m) < 0.5] = 0.0
        var[rng.random(m) < 0.2] = -1e-17
    elif kind == "duplicates":  # the lowest index must win among equals
        src = rng.integers(0, max(1, m // 4), size=m)
        mean, var = mean[src], var[src]
    elif kind == "tails":  # |z| beyond 40, where phi and Phi underflow
        var = rng.uniform(1e-6, 1e-3, size=m) ** 2
        mean = y_best + rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.0, 1.0, size=m)
    elif kind == "zero":  # EI underflows to zero everywhere
        var = np.full(m, 1e-6)
        mean = y_best - xi - rng.uniform(0.1, 1.0, size=m)
    if kind == "scaled":
        mean, var, y_best, xi = mean * scale, var * scale**2, y_best * scale, xi * scale
    return mean, var, y_best, xi


KINDS = ("plain", "below", "above", "flat", "duplicates", "tails", "zero", "scaled")


def test_pruned_argmax_equals_the_full_argmax_on_random_batches():
    rng = np.random.default_rng(25)
    for i in range(5600):
        case = _random_case(rng, KINDS[i % len(KINDS)])
        pruned, full, _ = _pruned_argmax(*case)
        assert pruned == full, (KINDS[i % len(KINDS)], i)


def test_pruned_argmax_on_gp_posteriors_keeps_few_candidates():
    rng = np.random.default_rng(26)
    hyper = GPHyper(length_scale=0.3)
    counts = []
    for _ in range(200):
        n = int(rng.integers(2, 30))
        x = rng.uniform(size=(n, 2))
        y = np.round(9.0 * np.exp(-4.0 * np.sum((x - 0.6) ** 2, axis=1)))
        mean, var = gp_predict(gp_fit(x, y, hyper), rng.uniform(size=(512, 2)))
        pruned, full, kept = _pruned_argmax(mean, var, float(y.max()), 0.01)
        assert pruned == full
        counts.append(kept)
    assert np.median(counts) <= 8


def test_only_the_first_candidate_is_kept_where_ei_is_zero_everywhere():
    # z = -5000: EI is exactly 0 everywhere, and np.argmax picks index 0.
    mean, var = np.full(5, -50.0), np.full(5, 1e-4)
    assert expected_improvement(mean, var, 0.0).max() == 0.0
    assert ei_contenders(mean, var, 0.0).tolist() == [0]


def _far_tail_case(rng, kind):
    """(mean, var, y_best, xi) of a batch whose every EI is below 2^-1000."""
    m = int(rng.choice([1, 2, 7, 64, 512]))
    y_best, xi = float(rng.normal(scale=3.0)), float(rng.choice([0.0, 0.01]))
    if kind == "far":  # every |z| >= 40; a positive d is tiny, so EI = d is too
        y_best = xi = 0.0  # so that the tiny improvements are the means exactly
        z = rng.choice([-1.0, 1.0], size=m) * rng.uniform(40.0, 400.0, size=m)
        sigma = np.where(z > 0, 10.0 ** rng.uniform(-320.0, -306.0, size=m), rng.uniform(0.01, 2.0, size=m))
    else:  # "subnormal": z in [-45, -37.6], EI subnormal or exactly 0
        z = -rng.uniform(37.6, 45.0, size=m)
        sigma = rng.uniform(0.1, 2.0, size=m)
    improve = z * sigma
    return y_best + xi + improve, sigma**2, y_best, xi


@pytest.mark.parametrize("kind", ["far", "subnormal"])
def test_pruned_argmax_equals_the_full_argmax_where_ei_underflows(kind):
    rng = np.random.default_rng(29 if kind == "far" else 30)
    dropped = 0
    for i in range(1500):
        mean, var, y_best, xi = _far_tail_case(rng, kind)
        full = expected_improvement(mean, var, y_best, xi)
        assert full.max() < 2.0**-1000
        pruned, argmax, _ = _pruned_argmax(mean, var, y_best, xi)
        assert pruned == argmax, (kind, i)
        # Only exact zeros are dropped, and index 0 stays.
        drop = np.ones(len(mean), dtype=bool)
        drop[ei_contenders(mean, var, y_best, xi)] = False
        assert not drop[0] and np.all(full[drop] == 0.0)
        dropped += int(np.count_nonzero(drop))
    assert dropped > 0


def test_only_exact_zeros_are_dropped_below_the_floor():
    # z = -38 leaves a subnormal EI; z = -40 and beyond give exactly 0.
    sigma = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    z = np.array([-41.0, -38.0, -40.0, -38.5, -60.0])
    full = expected_improvement(z * sigma, sigma**2, 0.0)
    assert full.tolist()[0] == full.tolist()[2] == full.tolist()[4] == 0.0
    assert 0.0 < full[3] < full[1] < 2.0**-1022
    assert ei_contenders(z * sigma, sigma**2, 0.0).tolist() == [0, 1, 3]


def test_equal_candidates_are_all_kept():
    mean, var = np.array([0.3, 1.0, 1.0, 0.2, 1.0]), np.array([0.5, 0.2, 0.2, 0.5, 0.2])
    assert ei_contenders(mean, var, 0.5, 0.01).tolist() == [1, 2, 4]


def test_non_finite_inputs_keep_every_candidate():
    for bad_mean, bad_var in ((np.nan, 0.5), (np.inf, 0.5), (0.2, np.inf), (0.2, np.nan)):
        mean, var = np.array([0.1, 0.4, bad_mean, 0.3]), np.array([0.2, 0.1, bad_var, 0.2])
        assert ei_contenders(mean, var, 0.3, 0.01).tolist() == [0, 1, 2, 3]
        with np.errstate(invalid="ignore"):
            pruned, full, _ = _pruned_argmax(mean, var, 0.3, 0.01)
        assert pruned == full
