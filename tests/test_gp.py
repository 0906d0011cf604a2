"""GP regression against a dense direct-solve oracle."""

from __future__ import annotations

import numpy as np
import pytest

from probeopt.bo.gp import GPHyper, gp_fit, gp_predict, kernel_matrix, matmul_in_column_blocks
from probeopt.errors import DimensionMismatch, NotPositiveDefinite
from support import dense_gp_predict, sq_exp_kernel


def _random_model(rng, n_max=12, d_max=3):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    hyper = GPHyper(
        signal_var=float(rng.uniform(0.5, 2.0)),
        length_scale=float(rng.uniform(0.1, 0.8)),
        noise_var=float(rng.uniform(1e-5, 1e-3)),
    )
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    y = rng.normal(size=n)
    return x, y, hyper


def test_kernel_symmetry_and_diagonal():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(6, 2))
    hyper = GPHyper(signal_var=1.3, length_scale=0.4)
    k = kernel_matrix(x, x, hyper)
    assert np.allclose(k, k.T)
    assert np.allclose(np.diag(k), 1.3)
    assert np.isclose(sq_exp_kernel(x[0], x[1], hyper.signal_var, hyper.length_scale), k[0, 1])


def test_cholesky_factor_reconstructs_gram():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y, hyper = _random_model(rng)
        model = gp_fit(x, y, hyper)
        gram = kernel_matrix(x, x, hyper) + hyper.noise_var * np.eye(len(y))
        chol = np.linalg.inv(model.chol_inv)
        assert np.allclose(chol @ chol.T, gram, atol=1e-8)
        assert np.allclose(model.chol_inv @ gram @ model.chol_inv.T, np.eye(len(y)), atol=1e-8)
        assert np.array_equal(model.chol_inv, np.tril(model.chol_inv))


def test_predict_matches_dense_solve_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        x, y, hyper = _random_model(rng)
        model = gp_fit(x, y, hyper)
        queries = rng.uniform(-1.2, 1.2, size=(6, x.shape[1]))
        mean, var = gp_predict(model, queries)
        oracle_mean, oracle_var = dense_gp_predict(
            x, y, hyper.signal_var, hyper.length_scale, hyper.noise_var, queries
        )
        assert np.allclose(mean, oracle_mean, atol=1e-8)
        assert np.allclose(var, oracle_var, atol=1e-8)


def test_interpolation_at_training_points():
    rng = np.random.default_rng(6)
    x, y, hyper = _random_model(rng, n_max=8)
    model = gp_fit(x, y, hyper)
    sigma_n = np.sqrt(hyper.noise_var)
    mean, var = gp_predict(model, x)
    assert np.all(np.abs(mean - y) <= 3 * sigma_n + 1e-6)
    assert np.all(var >= 0.0)


def test_prior_reversion_far_from_data():
    hyper = GPHyper(signal_var=1.7, length_scale=0.2, noise_var=1e-4)
    x = np.array([[0.0], [0.1], [0.2]])
    y = np.array([1.0, -1.0, 0.5])
    model = gp_fit(x, y, hyper)
    mean, var = gp_predict(model, np.array([[50.0]]))
    assert abs(mean[0]) < 1e-6
    assert abs(var[0] - hyper.signal_var) < 1e-6


def test_variance_clamped_nonnegative():
    hyper = GPHyper(noise_var=0.0)
    x = np.array([[0.3], [0.7]])
    model = gp_fit(x, np.array([0.1, 0.2]), hyper)
    _, var = gp_predict(model, x)
    assert np.all(var >= 0.0)


def test_not_positive_definite_on_duplicates_without_noise():
    hyper = GPHyper(noise_var=0.0)
    x = np.array([[0.5], [0.5]])
    with pytest.raises(NotPositiveDefinite):
        gp_fit(x, np.array([1.0, 1.0]), hyper)


def test_extending_row_by_row_matches_fresh_fit_and_dense_oracle():
    """Clustered points make the Gram matrix ill-conditioned (cond ~6e5 at
    n=250), which is where carrying L^-1 instead of solving would drift."""
    rng = np.random.default_rng(11)
    hyper = GPHyper(signal_var=1.0, length_scale=0.3, noise_var=1e-4)
    centers = rng.uniform(-1.0, 1.0, size=(5, 2))
    x = centers[rng.integers(0, 5, size=250)] + 0.02 * rng.normal(size=(250, 2))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2
    queries = np.vstack([rng.uniform(-1.2, 1.2, size=(20, 2)), x[:5] + 1e-3])
    model = None
    for n in range(1, 251):
        model = gp_fit(x[:n], y[:n], hyper, base=model)
        assert model.n == n
        if n not in (1, 2, 10, 50, 120, 250):
            continue
        fresh = gp_fit(x[:n], y[:n], hyper)
        for field in ("chol_inv", "alpha"):
            grown, refit = getattr(model, field), getattr(fresh, field)
            assert np.abs(grown - refit).max() <= 1e-9 * np.abs(refit).max()
        gram = kernel_matrix(x[:n], x[:n], hyper) + hyper.noise_var * np.eye(n)
        chol = np.linalg.inv(model.chol_inv)
        assert np.allclose(chol @ chol.T, gram, atol=1e-12)
        assert np.allclose(model.chol_inv @ gram @ model.chol_inv.T, np.eye(n), atol=1e-10)
        mean, var = gp_predict(model, queries)
        oracle_mean, oracle_var = dense_gp_predict(
            x[:n], y[:n], hyper.signal_var, hyper.length_scale, hyper.noise_var, queries
        )
        assert np.allclose(mean, oracle_mean, atol=1e-8)
        assert np.allclose(var, oracle_var, atol=1e-8)


@pytest.mark.parametrize("n", [2, 48, 96, 150, 250])
def test_column_blocks_match_the_full_product_bit_for_bit(n):
    # The search predicts at 512 candidates. Any width that is a multiple
    # of 8, dividing 512 or not, must give the full product's bits, or the
    # blocking in gp_predict would move the trajectories it feeds.
    rng = np.random.default_rng(n)
    a = np.tril(rng.normal(size=(n, n)))
    b = rng.uniform(size=(n, 512))
    full = a @ b
    for width in (8, 24, 40, 96, 200, 504, 512, 1024):
        assert np.array_equal(matmul_in_column_blocks(a, b, width), full)


def test_predict_variance_equals_the_unblocked_product_bit_for_bit():
    rng = np.random.default_rng(12)
    hyper = GPHyper(noise_var=1e-4)
    candidates = rng.uniform(size=(512, 2))
    for n in (48, 96, 150, 250):
        model = gp_fit(rng.uniform(size=(n, 2)), rng.normal(size=n), hyper)
        v = model.chol_inv @ kernel_matrix(model.train_x, candidates, hyper)
        _, var = gp_predict(model, candidates)
        assert np.array_equal(var, np.maximum(hyper.signal_var - np.sum(v**2, axis=0), 0.0))


def test_extending_with_a_duplicate_without_noise_raises():
    hyper = GPHyper(noise_var=0.0)
    base = gp_fit(np.array([[0.5]]), np.array([1.0]), hyper)
    with pytest.raises(NotPositiveDefinite):
        gp_fit(np.array([[0.5], [0.5]]), np.array([1.0, 1.0]), hyper, base=base)


def test_base_must_share_hyper_and_leading_points():
    hyper = GPHyper()
    x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    y = np.array([1.0, 2.0, 3.0])
    base = gp_fit(x[:2], y[:2], hyper)
    with pytest.raises(ValueError):
        gp_fit(x[::-1], y, hyper, base=base)
    with pytest.raises(ValueError):
        gp_fit(x, y, GPHyper(length_scale=0.5), base=base)
    with pytest.raises(ValueError):
        gp_fit(x[:1], y[:1], hyper, base=base)


def test_dimension_mismatches_raise():
    hyper = GPHyper()
    model = gp_fit(np.array([[0.0, 0.0]]), np.array([1.0]), hyper)
    with pytest.raises(DimensionMismatch):
        gp_predict(model, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(DimensionMismatch):
        gp_fit(np.zeros((3, 2)), np.zeros(2), hyper)
    with pytest.raises(DimensionMismatch):
        gp_fit(np.zeros((0, 2)), np.zeros(0), hyper)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("signal_var", [1.0, 1.7])
def test_kernel_equals_the_unfused_expression_bit_for_bit(d, signal_var):
    rng = np.random.default_rng(d)
    hyper = GPHyper(signal_var=signal_var, length_scale=0.35)
    for n, m in ((1, 1), (7, 512), (30, 3)):
        xa, xb = rng.uniform(-1.0, 2.0, size=(n, d)), rng.uniform(-1.0, 2.0, size=(m, d))
        xb[0] = xa[0]  # a zero distance, clamped
        sq = np.sum(xa**2, axis=1)[:, None] + np.sum(xb**2, axis=1)[None, :] - 2.0 * xa @ xb.T
        np.maximum(sq, 0.0, out=sq)
        unfused = hyper.signal_var * np.exp(-sq / (2.0 * hyper.length_scale**2))
        assert np.array_equal(kernel_matrix(xa, xb, hyper), unfused)


def test_norms_carried_through_bordering_equal_a_fresh_sum():
    rng = np.random.default_rng(13)
    hyper = GPHyper(length_scale=0.3)
    x, y = rng.uniform(size=(12, 3)), rng.normal(size=12)
    model = gp_fit(x[:1], y[:1], hyper)
    for n in range(2, 13):
        model = gp_fit(x[:n], y[:n], hyper, base=model)
    assert np.array_equal(model.norms, np.sum(x**2, axis=1))
    fresh = gp_fit(x, y, hyper)
    queries = rng.uniform(size=(64, 3))
    for a, b in zip(gp_predict(model, queries), gp_predict(fresh, queries)):
        assert np.allclose(a, b, atol=1e-10)
