"""Expected-improvement math."""

from __future__ import annotations

import numpy as np

from probeopt.bo.acquisition import expected_improvement
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
