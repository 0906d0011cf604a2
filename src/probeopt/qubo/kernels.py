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
"""

from __future__ import annotations

import math
from array import array


def sweep(qubo, temps, uniforms, state, best_state):
    """Sequential single-flip Metropolis sweeps over a ``ConflictQubo``.

    temps: (sweeps,) temperature per sweep. uniforms: (sweeps, n)
    pre-drawn accept rolls, one per flip attempt, so the trajectory is a
    pure function of the inputs. state (0/1 per variable) is mutated in
    place; best_state receives the lowest energy configuration visited.
    Returns (final_energy, best_energy).
    """
    neighbours = qubo.neighbours
    w_reward, w_penalty = qubo.w_reward, qubo.w_penalty
    stride = max(map(len, neighbours), default=0) + 1
    field = [0.0]
    for _ in range(1, stride):
        field.append(field[-1] + w_penalty)
    table = [-w_reward + s for s in field]
    table += [-d for d in table]
    uphill = [(i, -d) for i, d in enumerate(table) if d > 0.0]

    x = state.tolist()
    idx = [bit * stride for bit in x]
    e = 0.0
    for i, row in enumerate(neighbours):
        if x[i]:
            e += -w_reward
            for j in row:
                idx[j] += 1
                if j > i and x[j]:
                    e += w_penalty
    best = e
    best_idx = idx[:]
    exp = math.exp
    thr = [math.inf] * len(table)
    ceiling = max((neg for _, neg in uphill), default=-math.inf)
    n = len(idx)
    rolls = array("d", uniforms.tobytes())
    lows = uniforms.min(axis=1).tolist()
    frozen = False
    for s, t in enumerate(temps.tolist()):
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
    state[:] = [int(i >= stride) for i in idx]
    best_state[:] = [int(i >= stride) for i in best_idx]
    return e, best
