"""Gaussian-process regression with a squared-exponential kernel.

A fitted model carries ``L^-1``, the inverse of the lower Cholesky factor
``L`` of the noisy Gram matrix. It is built by bordering: each new
observation appends one row, in O(n^2), so a search that adds one point
at a time never refactors from scratch. Bordering needs only the new
row of ``L``, which is computed and dropped. Carrying ``L^-1`` turns
every triangular solve into a matrix product (``alpha = L^-T (L^-1 y)``,
and prediction's ``v = L^-1 k*``), which keeps the module numpy-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DimensionMismatch, NotPositiveDefinite


@dataclass(frozen=True)
class GPHyper:
    signal_var: float = 1.0
    length_scale: float = 0.2
    noise_var: float = 1e-4

    def __post_init__(self) -> None:
        if self.signal_var <= 0 or self.length_scale <= 0 or self.noise_var < 0:
            raise ValueError("hyperparameters must be positive (noise may be zero)")


def kernel_matrix(xa: np.ndarray, xb: np.ndarray, hyper: GPHyper) -> np.ndarray:
    """Pairwise kernel between rows of two (n, d) point sets."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(f"points have dims {xa.shape[1]} and {xb.shape[1]}")
    sq = (
        np.sum(xa**2, axis=1)[:, None]
        + np.sum(xb**2, axis=1)[None, :]
        - 2.0 * xa @ xb.T
    )
    np.maximum(sq, 0.0, out=sq)
    return hyper.signal_var * np.exp(-sq / (2.0 * hyper.length_scale**2))


@dataclass(frozen=True)
class GPModel:
    hyper: GPHyper
    train_x: np.ndarray  # (n, d)
    chol_inv: np.ndarray  # L^-1, lower-triangular, with L L^T = K + noise_var * I
    alpha: np.ndarray  # (K + noise_var * I)^-1 y = L^-T L^-1 y

    @property
    def n(self) -> int:
        return self.train_x.shape[0]


def gp_fit(
    train_x: np.ndarray,
    train_y: np.ndarray,
    hyper: GPHyper,
    base: Optional[GPModel] = None,
) -> GPModel:
    """Fit a GP to the training set.

    With ``base``, a model whose points are the leading rows of
    ``train_x`` (same hyperparameters), only the rows after those are
    bordered onto its factor: O(n^2) per added row instead of a refit.
    """
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{x.shape[0]} points but {y.shape[0]} targets")
    if x.shape[0] == 0:
        raise DimensionMismatch("cannot fit to zero observations")
    start = 0 if base is None else base.n
    if base is not None and (
        base.hyper != hyper or start > x.shape[0] or not np.array_equal(base.train_x, x[:start])
    ):
        raise ValueError("base model must share the hyperparameters and leading points")
    n = x.shape[0]
    chol_inv = np.zeros((n, n))
    if base is not None:
        chol_inv[:start, :start] = base.chol_inv
    cols = kernel_matrix(x, x[start:], hyper)  # Gram columns of the new rows
    for i in range(start, n):
        l = chol_inv[:i, :i] @ cols[:i, i - start]  # row i of L, left of the diagonal
        d2 = cols[i, i - start] + hyper.noise_var - l @ l
        if not d2 > 0.0:
            raise NotPositiveDefinite(f"Gram matrix is not positive definite at row {i}")
        d = math.sqrt(d2)
        chol_inv[i, :i] = -(l @ chol_inv[:i, :i]) / d
        chol_inv[i, i] = 1.0 / d
    alpha = chol_inv.T @ (chol_inv @ y)
    return GPModel(hyper=hyper, train_x=x, chol_inv=chol_inv, alpha=alpha)


def matmul_in_column_blocks(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """``a @ b``, ``width`` columns of ``b`` at a time; bit for bit ``a @ b``
    when ``width`` and ``b``'s column count are multiples of 8, as every
    block starts where a tile of the full product's kernel starts."""
    if width >= b.shape[1]:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for lo in range(0, b.shape[1], width):
        np.matmul(a, b[:, lo : lo + width], out=out[:, lo : lo + width])
    return out


def gp_predict(model: GPModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of the latent function at (m, d) query points.

    Variance is clamped at zero: the subtraction can go a hair negative
    in floating point.
    """
    kstar = kernel_matrix(model.train_x, x, model.hyper)  # (n, m)
    mean = kstar.T @ model.alpha
    # OpenBLAS runs a product of over ~1M multiply-adds on several threads,
    # which stall for milliseconds on a busy machine; blocks stay below.
    width = max(8, 2**19 // model.n**2 // 8 * 8)
    v = matmul_in_column_blocks(model.chol_inv, kstar, width)
    var = model.hyper.signal_var - np.sum(v**2, axis=0)
    np.maximum(var, 0.0, out=var)
    return mean, var
