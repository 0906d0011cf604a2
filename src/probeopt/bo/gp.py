"""Gaussian-process regression with a squared-exponential kernel.

A fitted model carries ``L^-1``, the inverse of the lower Cholesky factor
``L`` of the noisy Gram matrix. It is built by bordering: each new
observation appends one row, in O(n^2), so a search that adds one point
at a time never refactors from scratch. Bordering needs only the new
row of ``L``, which is computed and dropped. Carrying ``L^-1`` turns
every triangular solve into a matrix product (``alpha = L^-T (L^-1 y)``,
and prediction's ``v = L^-1 k*``), which keeps the module numpy-only.

The model also keeps its points' squared norms, which every kernel
evaluation against them needs. The kernel works in place on one array,
with the operations of ``|a|^2 + |b|^2 - 2 a.b`` and
``signal_var * exp(-d2 / (2 l^2))`` in the same order, so it gives their
bits.
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
    xa = _points(xa)
    xb = _points(xb)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(f"points have dims {xa.shape[1]} and {xb.shape[1]}")
    return _kernel(xa, sq_norms(xa), xb, sq_norms(xb), hyper)


def _points(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of an (n, d) point set, summed over the
    columns left to right: numpy's order for rows of fewer than 8 entries,
    so bit for bit ``np.sum(x**2, axis=1)`` there, at a fifth of its cost."""
    norms = x[:, 0] ** 2
    for j in range(1, x.shape[1]):
        norms += x[:, j] ** 2
    return norms


def _kernel(xa, norms_a, xb, norms_b, hyper: GPHyper) -> np.ndarray:
    """``kernel_matrix`` given each side's ``sq_norms``.

    The squared distance ``|a|^2 + |b|^2 - 2 a.b``, clamped at zero, is
    scaled, exponentiated and scaled again in place, in one array.
    Dividing by ``-(2 l^2)`` is bit for bit ``-sq / (2 l^2)``, as negation
    is exact, and a signal variance of 1.0 multiplies by nothing.
    """
    sq = np.add.outer(norms_a, norms_b)
    sq -= 2.0 * xa @ xb.T
    np.maximum(sq, 0.0, out=sq)
    sq /= -(2.0 * hyper.length_scale**2)
    np.exp(sq, out=sq)
    if hyper.signal_var != 1.0:
        sq *= hyper.signal_var
    return sq


@dataclass(frozen=True)
class GPModel:
    hyper: GPHyper
    train_x: np.ndarray  # (n, d)
    chol_inv: np.ndarray  # L^-1, lower-triangular, with L L^T = K + noise_var * I
    alpha: np.ndarray  # (K + noise_var * I)^-1 y = L^-T L^-1 y
    norms: np.ndarray  # sq_norms(train_x), kept for the kernel's train side

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
    x = _points(train_x)
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
    if base is None:
        norms = sq_norms(x)
    else:
        chol_inv[:start, :start] = base.chol_inv
        norms = np.concatenate((base.norms, sq_norms(x[start:])))
    cols = _kernel(x, norms, x[start:], norms[start:], hyper)  # Gram columns of the new rows
    for i in range(start, n):
        l = chol_inv[:i, :i] @ cols[:i, i - start]  # row i of L, left of the diagonal
        d2 = cols[i, i - start] + hyper.noise_var - l @ l
        if not d2 > 0.0:
            raise NotPositiveDefinite(f"Gram matrix is not positive definite at row {i}")
        d = math.sqrt(d2)
        chol_inv[i, :i] = -(l @ chol_inv[:i, :i]) / d
        chol_inv[i, i] = 1.0 / d
    alpha = chol_inv.T @ (chol_inv @ y)
    return GPModel(hyper=hyper, train_x=x, chol_inv=chol_inv, alpha=alpha, norms=norms)


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
    x = _points(x)
    if x.shape[1] != model.train_x.shape[1]:
        raise DimensionMismatch(f"points have dims {model.train_x.shape[1]} and {x.shape[1]}")
    kstar = _kernel(model.train_x, model.norms, x, sq_norms(x), model.hyper)  # (n, m)
    mean = kstar.T @ model.alpha
    # OpenBLAS runs a product of over ~1M multiply-adds on several threads,
    # which stall for milliseconds on a busy machine; blocks stay below.
    width = max(8, 2**19 // model.n**2 // 8 * 8)
    v = matmul_in_column_blocks(model.chol_inv, kstar, width)
    v *= v
    var = np.sum(v, axis=0)
    np.subtract(model.hyper.signal_var, var, out=var)
    np.maximum(var, 0.0, out=var)
    return mean, var
