"""Annealer sweep kernel: sequential Metropolis indexed by neighbour counts.

The kernel is defined by the dense loop over the upper-triangular Q it
stands for (``tests/support.dense_sweep_reference``): on every flip
attempt the local field is ``sum_j coupling[k, j] * state[j]`` over all
``n`` columns of ``coupling = Q + Q^T`` (zeroed diagonal), accumulated
left to right from +0.0, and the flip delta is
``(1 - 2 * state[k]) * (Q[k, k] + field)``.

For the weighted independent-set QUBO that ``to_qubo`` builds, that
delta depends only on two integers: the variable's bit and ``m``, the
number of its neighbours that are selected. The edges form a simple
graph, so every nonzero coupling is ``w_penalty + 0.0 == w_penalty`` (the
other triangle holds 0.0), and every other term of the dense sum is
+0.0, which leaves a nonnegative accumulator unchanged. The dense field
is therefore exactly ``S[m]`` with ``S[0] = 0.0`` and
``S[m] = S[m-1] + w_penalty``, the same left-to-right sum, and the delta
is ``-w_reward + S[m]`` for a 0 bit and its exact negation for a 1 bit.

Each variable ``k`` carries ``idx[k] = x[k] * (D + 1) + m_k``, where ``D``
is the largest degree; ``idx`` indexes one delta table of ``2 * (D + 1)``
entries built per solve. Each sweep turns the table into accept
thresholds: ``exp(-delta / t)`` for a positive delta, the same operands
the dense loop passes, and +inf for ``delta <= 0``, which every roll is
below. An attempt is then ``roll < thr[idx[k]]``. An accepted flip adds
the table entry to the energy, moves ``idx[k]`` by ``D + 1`` and each
neighbour's ``idx`` by 1; integer counts are exact, so every delta,
accept decision and energy equals the dense loop's bit for bit, while
``exp`` runs at most ``2 * (D + 1)`` times per sweep instead of once per
attempt.

After a sweep with no flip no variable is downhill (those always flip)
and the state is unchanged, so the next sweep is skipped unless one of
its rolls is below its largest finite threshold, ``exp(max_neg / t)``
(``exp`` is monotone). Rolls become Python floats only for sweeps that run.
Given a generator in place of the rolls, the kernel draws the first
sweep's row alone and the other rows only once that sweep has not
stopped: ``Generator.random`` fills row by row, so the rolls are those of
``rng.random((sweeps, n))``, and a solve that stops in its first sweep
pays for one row. Given the ``AnnealParams`` in place of the
temperatures, it likewise runs the first sweep at ``t_start``, the
ladder's first rung exactly, and builds ``temperature_schedule(params)``
only once that sweep has not stopped.

Certified stop (opt-in: ``clique_cover=M``, the size of a clique cover of
the graph; without it every sweep of the schedule runs). A conflict-free
selection takes at most one node of each clique, so ``M >= alpha``, the
size of a maximum independent set. With ``w_penalty > w_reward`` and
``gap = min(w_reward, w_penalty - w_reward)``:

1. Every state has energy at least ``-w_reward * alpha``: dropping a
   selected node that has c >= 1 selected neighbours changes the energy
   by ``w_reward - c * w_penalty <= -(w_penalty - w_reward)``, and a
   conflict-free selection of s nodes has energy ``-w_reward * s``. So a
   state below ``-w_reward * alpha + gap`` has no conflicts and selects
   ``alpha`` nodes.
2. A state that selects exactly ``M`` nodes, none with a selected
   neighbour, is therefore a maximum independent set, and ``alpha = M``.
   Two nodes that share a request conflict, so it serves ``M`` distinct
   requests and ``decode`` scores it ``M`` without repair.
3. On the full schedule every later best state has a computed energy
   below the certified one's. The computed energy differs from the exact
   one by at most ``B`` (below), so when ``gap > 2 * B`` each later best is
   within ``2 * B < gap`` of ``-w_reward * alpha`` and is, by 1, also a
   maximum independent set that scores ``M``.

The sweep therefore returns at the first new best state that
``certified`` accepts: exactly ``M`` selected variables, each at index
``stride`` (a 1 bit with no selected neighbour). That integer check runs
only inside the new-best branch, behind the float pre-test
``best < -w_reward * M + gap / 2``, which every certified state passes
(its computed energy is within ``B < gap / 2`` of ``-w_reward * M``), so
no flip attempt costs more.

The bound ``B``. Let ``u = 2**-53``, ``D`` the largest degree and
``W = w_reward + D * w_penalty``; every exact energy lies in
``[-n * w_reward, n * D * w_penalty / 2]``, so its magnitude is at most
``n * W``. A table entry, ``-w_reward + S[m]`` or its negation, takes
the m - 1 roundings of the positive sum ``S[m]`` and one more, so it is
off its exact value by at most ``gamma(D + 1) * W``, where
``gamma(k) = k * u / (1 - k * u)``.
``e`` takes at most ``N = n * (sweeps + D + 1)`` additions: the start
energy adds at most ``n + n * D / 2`` exact weights and each of the
``sweeps * n`` attempts at most one table entry. Each addition adds its
operand's error and one rounding of a partial sum, whose exact value is
at most ``n * W`` in magnitude, so the error stays below
``N * u * (n + D + 1) * W * (1 + u) ** (N + 1) * (1 + gamma(D + 1))``.
The stop applies only where ``gap > 2 * B`` with
``B = 4 * N * u * (n + D + 1) * W`` (``stop_energy``); as ``gap <= W``,
that gives ``N * u < 1 / 16``, so the last two factors are below 1.1 and
``B`` bounds the error with room to spare.
"""

from __future__ import annotations

import math
from array import array

import numpy as np


_U = 2.0**-53  # unit roundoff of a float64


def stop_energy(n, degree, sweeps, w_reward, w_penalty, clique_cover):
    """The pre-test energy of the certified stop, ``-w_reward * M + gap / 2``,
    or -inf where the stop does not apply: ``w_penalty <= w_reward``, or a
    gap no wider than twice the rounding bound ``B`` (module docstring)."""
    if not w_penalty > w_reward:
        return -math.inf
    gap = min(w_reward, w_penalty - w_reward)
    bound = 4 * _U * n * (sweeps + degree + 1) * (n + degree + 1) * (w_reward + degree * w_penalty)
    if not gap > 2 * bound:
        return -math.inf
    return -w_reward * clique_cover + gap / 2


def certified(idx, stride, clique_cover):
    """Whether the state with count indices ``idx`` selects exactly
    ``clique_cover`` variables, none with a selected neighbour."""
    # Unselected counts lie below stride: with every selected one at
    # stride, exactly the count(stride) variables are selected.
    return idx.count(stride) == clique_cover and max(idx) <= stride


def temperature_schedule(params) -> np.ndarray:
    """Geometric ladder from t_start down to t_end, one rung per sweep.

    Its first rung is ``t_start`` exactly: ``ratio ** 0.0 == 1.0``.
    """
    if params.sweeps == 1:
        return np.array([params.t_start])
    ratio = params.t_end / params.t_start
    exponents = np.arange(params.sweeps) / (params.sweeps - 1)
    return params.t_start * ratio**exponents


def sweep(qubo, temps, uniforms, state, best_state, clique_cover=None):
    """Sequential single-flip Metropolis sweeps over a ``ConflictQubo``.

    temps: (sweeps,) temperature per sweep, or the ``AnnealParams`` whose
    ``temperature_schedule`` those are; the kernel then builds that ladder
    only once the first sweep, which runs at ``t_start``, has not stopped.
    uniforms: (sweeps, n) accept rolls, one per flip attempt, so the
    trajectory is a pure function of the inputs; or a
    ``np.random.Generator`` that draws them as
    ``uniforms.random((sweeps, n))`` would, the first sweep's row before
    the rest (module docstring). state (0/1 per variable) is mutated in
    place; best_state receives the lowest energy configuration visited.
    With ``clique_cover`` (the size of a clique cover of the graph) the
    sweeps stop at the first best state certified optimal, as the module
    docstring sets out; without it every sweep of the schedule runs.
    Returns (final_energy, best_energy).
    """
    neighbours = qubo.neighbours
    w_reward, w_penalty = qubo.w_reward, qubo.w_penalty
    stride = qubo.degree + 1
    table, field = [], 0.0  # field runs through S[0], S[1], ...
    for _ in range(stride):
        table.append(-w_reward + field)
        field += w_penalty
    table += [-d for d in table]
    uphill = [(i, -d) for i, d in enumerate(table) if d > 0.0]

    x = state.tolist()
    n = len(x)
    e = 0.0
    if 1 in x:
        idx = [bit * stride for bit in x]
        for i, row in enumerate(neighbours):
            if x[i]:
                e += -w_reward
                for j in row:
                    idx[j] += 1
                    if j > i and x[j]:
                        e += w_penalty
    else:  # the all-zeros start: no count to take
        idx = [0] * n
    best = e
    best_idx = idx[:]
    exp = math.exp
    thr = [math.inf] * len(table)
    if isinstance(temps, np.ndarray):
        sweeps, ladder = len(temps), temps.tolist()
    else:  # the schedule's parameters: its ladder waits for a second sweep
        sweeps, ladder = temps.sweeps, [temps.t_start]
    certain = -math.inf
    if clique_cover is not None:
        certain = stop_energy(n, stride - 1, sweeps, w_reward, w_penalty, clique_cover)
    rng = None
    if isinstance(uniforms, np.random.Generator):
        rng, uniforms = uniforms, uniforms.random((1, n))
    rolls = array("d", uniforms.tobytes())
    lows = uniforms.min(axis=1).tolist() if rng is None else None
    frozen = False
    for s in range(sweeps):
        if s == 1:  # the first sweep did not stop; the first never skips
            ceiling = max((neg for _, neg in uphill), default=-math.inf)
            if len(ladder) < sweeps:
                ladder = temperature_schedule(temps).tolist()
            if rng is not None:
                rest = rng.random((sweeps - 1, n))
                rolls.frombytes(rest.tobytes())
                lows = [0.0, *rest.min(axis=1).tolist()]  # lows[0] is never read
        t = ladder[s]
        if frozen and lows[s] >= exp(ceiling / t):
            continue
        for i, neg in uphill:
            thr[i] = exp(neg / t)
        frozen = True
        for k, roll in enumerate(rolls[s * n : s * n + n]):
            i = idx[k]
            if roll < thr[i]:
                frozen = False
                e += table[i]
                if i < stride:
                    idx[k] = i + stride
                    for j in neighbours[k]:
                        idx[j] += 1
                else:
                    idx[k] = i - stride
                    for j in neighbours[k]:
                        idx[j] -= 1
                if e < best:
                    best = e
                    best_idx = idx[:]
                    if e < certain and certified(best_idx, stride, clique_cover):
                        break
        else:
            continue
        break  # certified optimal: no later sweep can change the score
    bits = [i // stride for i in idx]  # every count is below stride
    state[:] = bits
    best_state[:] = bits if best_idx == idx else [i // stride for i in best_idx]
    return e, best
