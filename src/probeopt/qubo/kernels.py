"""Annealer sweep kernel: sequential Metropolis over sparse couplings.

The kernel is defined by the dense loop it replaces: on every flip
attempt the local field is ``sum_j coupling[k, j] * state[j]`` over all
``n`` columns, accumulated left to right. Each term that loop adds for an
unselected or uncoupled column is a signed zero, and adding a signed zero
to an accumulator that starts at +0.0 leaves it unchanged. Summing only
the nonzero couplings of the *selected* neighbours, in index order,
therefore reproduces every field, delta, accept decision and energy
bit for bit at O(degree) per attempt instead of O(n). This needs finite
couplings (``inf * 0`` is NaN), which ``QuboWeights`` enforces.

Each variable's flip delta is carried between attempts and recomputed
only when it may have changed. With a zero coupling diagonal, variable
k's field does not depend on ``state[k]``, so it changes only when a
neighbour flips: a rejected attempt keeps its delta, an accepted flip of
k leaves k's delta exactly negated (IEEE negation is exact) and marks
the deltas of k's neighbours stale; the coupling is symmetric, so those
are exactly the variables whose field reads ``state[k]``. A stale delta
is re-summed from the definition as above, so every delta the kernel
uses is bit-equal to the dense one. Carried values are never added to:
an incremental ``field += c`` update rounds differently and can change
the accept decision when ``delta`` lands near zero.
"""

from __future__ import annotations

import math

import numpy as np


def sweep(qdiag, coupling, temps, uniforms, state, best_state):
    """Sequential single-flip Metropolis sweeps over a QUBO.

    qdiag: (n,) diagonal of Q. coupling: (n, n) symmetric off-diagonal
    couplings (Q + Q^T with a zeroed diagonal), all finite. temps:
    (sweeps,) temperature per sweep. uniforms: (sweeps, n) pre-drawn
    accept rolls, one per flip attempt, so the trajectory is a pure
    function of the inputs. state is mutated in place; best_state
    receives the lowest energy configuration visited. Returns
    (final_energy, best_energy).
    """
    if np.any(np.diagonal(coupling)):
        raise ValueError("coupling diagonal must be zero: carried flip deltas rely on it")
    if not np.array_equal(coupling, coupling.T):
        raise ValueError("coupling must be symmetric: carried flip deltas rely on it")
    n = qdiag.shape[0]
    qd = qdiag.tolist()
    x = state.tolist()
    rows, cols = np.nonzero(coupling)
    neighbours = [[] for _ in range(n)]
    for k, j, c in zip(rows.tolist(), cols.tolist(), coupling[rows, cols].tolist()):
        neighbours[k].append((j, c))

    e = 0.0
    for i in range(n):
        if x[i]:
            e += qd[i]
            for j, c in neighbours[i]:
                if j > i and x[j]:
                    e += c
    best = e
    best_x = x[:]
    exp = math.exp
    deltas = [None] * n  # carried flip delta per variable; None when stale
    for t, rolls in zip(temps.tolist(), uniforms.tolist()):
        for k in range(n):
            delta = deltas[k]
            if delta is None:
                acc = 0.0
                for j, c in neighbours[k]:
                    if x[j]:
                        acc += c
                delta = -(qd[k] + acc) if x[k] else qd[k] + acc
            if delta <= 0.0 or rolls[k] < exp(-delta / t):
                x[k] = 1 - x[k]
                e += delta
                for j, _ in neighbours[k]:
                    deltas[j] = None
                deltas[k] = -delta
                if e < best:
                    best = e
                    best_x = x[:]
            else:
                deltas[k] = delta
    state[:] = x
    best_state[:] = best_x
    return e, best
