"""Expected improvement for maximization, and the candidates that can
maximize it."""

from __future__ import annotations

import math

import numpy as np

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_SQRT_HALF = math.sqrt(0.5)
# ei_contenders: the bound numerators times c = 1 / sqrt(2 pi), the
# bounds' widening, and the threshold below which nothing is pruned.
_R_HI = 4.0 / math.sqrt(2.0 * math.pi)
_R_LO = 8.0 / math.sqrt(2.0 * math.pi)
_SLACK = 2.0**-40
_FLOOR = 2.0**-1000
# At z <= -40 both phi(z) and Phi(z) are exactly 0 as computed, so EI is 0.
_ZERO_Z = 40.0


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) = erfc(-z / sqrt 2) / 2, accurate deep into the lower tail.

    Computed with ``math.erfc`` rather than ``scipy.special.ndtr`` so the
    package does not import scipy.special (~3.7 MB resident) for one
    function. The two agree to 3e-15 relative for |z| <= 8 and to 6e-14
    down to z = -37, below which both are subnormal or zero.
    """
    return np.array([0.5 * math.erfc(-v * _SQRT_HALF) for v in z.ravel().tolist()]).reshape(z.shape)


def expected_improvement(
    mean: np.ndarray,
    var: np.ndarray,
    y_best: float,
    xi: float = 0.0,
) -> np.ndarray:
    """EI(x) = (mu - y_best - xi) * Phi(z) + sigma * phi(z), z = (mu - y_best - xi) / sigma.

    At sigma = 0 this degenerates to the hinge max(mu - y_best - xi, 0).
    The result is clamped at zero so rounding can never produce a negative
    acquisition value.
    """
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    improve = mean - y_best - xi
    ei = np.maximum(improve, 0.0)  # sigma == 0 hinge
    positive = sigma > 0.0
    if np.any(positive):
        z = np.divide(improve, sigma, out=np.zeros_like(sigma), where=positive)
        phi = _INV_SQRT_2PI * np.exp(-0.5 * z**2)
        ei = np.where(positive, improve * _normal_cdf(z) + sigma * phi, ei)
    return np.maximum(ei, 0.0)


def ei_contenders(mean: np.ndarray, var: np.ndarray, y_best: float, xi: float = 0.0) -> np.ndarray:
    """Ascending indices of the candidates whose ``expected_improvement`` can
    be the largest. Every other candidate's EI, as computed, is strictly
    below a kept one's, so the first maximizer of the full array is kept,
    and is the first maximizer among the kept.

    Write ``d = mu - y_best - xi``, ``a = |d| / sigma`` and ``h = max(d, 0)``,
    with ``sigma`` and ``d`` the floats ``expected_improvement`` computes.
    The exact EI of those floats is ``E = h + sigma * phi(a) * r(a)``, where
    ``r(a) = 1 - a * Phi(-a) / phi(a)`` (Mills ratio), as
    ``z Phi(z) + phi(z) = max(z, 0) + phi(|z|) r(|z|)``. ``r`` lies between
    Sampford's (1953) and Birnbaum's (1942) bounds on the Mills ratio:

        (sqrt(a^2 + 8) - a) / (3a + sqrt(a^2 + 8)) <= r(a)
            <= (sqrt(a^2 + 4) - a) / (a + sqrt(a^2 + 4)),

    computed without cancellation as ``8 / ((s8 + a)(3a + s8))`` and
    ``4 / (a + s4)^2``. At ``sigma = 0`` both bounds are the hinge ``h``,
    which is what ``expected_improvement`` returns there.

    The slack. With ``u = 2^-53``, the EI as computed is off ``E`` by at
    most ``u (28 |d| + 45 sigma phi(a)) + 2^-1073``:

    - ``Phi`` is ``erfc(-z sqrt(1/2)) / 2``. Its argument carries three
      roundings (``z``, the constant, the product), and ``erfc`` amplifies
      a relative input error by at most ``a^2 + a`` (from
      ``erfc(x) >= 2 exp(-x^2) / (sqrt(pi) (x + sqrt(x^2 + 2)))``); with
      8 ulp for ``erfc`` itself, ``Phi`` is off by a relative
      ``u (3.1 a^2 + 3.1 a + 17)`` for ``z < 0`` and ``22 u`` for ``z >= 0``.
    - ``phi`` is ``c exp(-z^2 / 2)``: ``z^2`` carries ``3 u``, which ``exp``
      turns into ``1.51 a^2 u``; with 8 ulp for ``exp`` and ``c`` itself,
      ``u (1.51 a^2 + 20)``.
    - The product terms are at most ``|d|`` and ``sigma phi(a)`` in size
      (``a Phi(-a) < phi(a)`` at ``z < 0``): this bounds the cancellation
      of ``d Phi + sigma phi`` at negative ``z``. Three more roundings
      give ``3 u`` each, and ``sigma phi(a) a^2 = |d| a phi(a) <= |d| / 4``
      moves the ``a^2`` terms onto ``|d|``.
    - Underflow: results below ``2^-1022`` carry absolute errors of a few
      ``2^-1075``; a subnormal ``phi`` or ``Phi`` needs ``a > 37``, where
      ``sigma < |d| / 37``, so its error stays below ``2^-1070 |d|``.

    Both bounds are widened by ``2^-40 (|d| + sigma exp(-a^2 / 2))``,
    over ``2^8`` times that error and ample for their own rounding (a few
    dozen ``u`` relative, ``exp``'s ``1.51 a^2 u`` again moved onto
    ``|d|``). The upper bound is taken as ``max(d, -2^-40 d) + sigma
    exp(-a^2 / 2) (c r_hi + 2^-40)``, which is the widened bound up to a
    factor ``1 + 2^-40``, and compared with the widened lower bound times
    ``1 - 2^-40``. The lower bound is that of the candidate with the
    largest upper bound. A candidate is pruned only when its upper bound
    is below that threshold and the threshold is at least ``2^-1000``:
    two such distinct floats differ by at least ``2^-1053``, far more than
    the underflow errors.

    Below ``2^-1000`` (EI zero or underflowing everywhere) the bounds
    decide nothing, and only the candidates whose EI is exactly 0 are
    dropped: those with ``d < 0`` and ``a >= 40``, where ``z <= -40``
    gives ``exp(-z^2 / 2) = 0`` and ``erfc(-z sqrt(1/2)) = 0`` in floats,
    so ``expected_improvement`` returns ``d * 0 + sigma * 0 = 0``. Every
    EI is at least 0, so the first maximizer is a kept candidate unless
    every EI is 0; index 0, that case's first maximizer, is always kept.
    A non-finite input (a non-finite threshold) keeps every candidate.
    """
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    improve = mean - y_best - xi
    a = np.divide(improve, sigma, out=np.zeros(sigma.shape), where=sigma > 0.0)
    np.abs(a, out=a)
    a2 = a * a
    spread = np.multiply(a2, -0.5)  # becomes sigma exp(-a^2 / 2)
    np.exp(spread, out=spread)
    spread *= sigma
    hi = np.add(a2, 4.0, out=a2)  # becomes the widened c r_hi(a), times spread
    np.sqrt(hi, out=hi)
    hi += a
    hi *= hi
    np.divide(_R_HI, hi, out=hi)
    hi += _SLACK
    hi *= spread
    upper = np.multiply(improve, -_SLACK, out=a)
    np.maximum(improve, upper, out=upper)
    upper += hi
    j = int(upper.argmax())
    d, s = float(improve[j]), float(sigma[j])
    aj = abs(d) / s if s > 0.0 else 0.0
    s8 = math.sqrt(aj * aj + 8.0)
    r_lo = _R_LO / ((s8 + aj) * (3.0 * aj + s8))
    lower = max(d, 0.0) - _SLACK * abs(d) + s * math.exp(-0.5 * aj * aj) * (r_lo - _SLACK)
    threshold = lower * (1.0 - _SLACK)
    if _FLOOR <= threshold < math.inf:
        return (upper >= threshold).nonzero()[0]
    if not math.isfinite(threshold):
        return np.arange(upper.size)
    z = np.divide(improve, sigma, out=np.zeros(sigma.shape), where=sigma > 0.0)
    keep = z > -_ZERO_Z
    keep[0] = True
    return keep.nonzero()[0]
