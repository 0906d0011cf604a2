"""Shared test helpers: independent oracles and a standalone loop driver.

Everything here is deliberately written from the definitions, not by
calling package internals, so tests compare two implementations rather
than one implementation with itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from probeopt.runtime.channel import Channel
from probeopt.runtime.process import Process, ProcessContext
from probeopt.runtime.timesource import TimeSource
from probeopt.runtime.trace import ListRecorder


# -- GP oracle: explicit dense inverse, no Cholesky --------------------------


def sq_exp_kernel(x, x2, signal_var, length_scale):
    """k(x, x') = signal_var * exp(-|x - x'|^2 / (2 * length_scale^2))."""
    diff = np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)
    return float(signal_var * np.exp(-diff.dot(diff) / (2.0 * length_scale**2)))


def dense_gp_predict(train_x, train_y, signal_var, length_scale, noise_var, query):
    """Posterior mean/variance via an explicit matrix inverse."""
    train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
    query = np.atleast_2d(np.asarray(query, dtype=float))
    y = np.asarray(train_y, dtype=float).ravel()

    def k(a, b):
        d = a[:, None, :] - b[None, :, :]
        return signal_var * np.exp(-np.sum(d**2, axis=2) / (2.0 * length_scale**2))

    gram = k(train_x, train_x) + noise_var * np.eye(len(y))
    inv = np.linalg.inv(gram)
    kstar = k(train_x, query)
    mean = kstar.T @ inv @ y
    var = signal_var - np.einsum("ij,ik,kj->j", kstar, inv, kstar)
    return mean, np.maximum(var, 0.0)


def ei_reference(mean, var, y_best, xi):
    """Expected improvement via scipy.stats.norm, scalar math."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    out = np.empty_like(mean)
    for i in range(mean.shape[0]):
        sigma = np.sqrt(max(var[i], 0.0))
        improve = mean[i] - y_best - xi
        if sigma == 0.0:
            out[i] = max(improve, 0.0)
        else:
            z = improve / sigma
            out[i] = improve * norm.cdf(z) + sigma * norm.pdf(z)
    return np.maximum(out, 0.0)


# -- QUBO oracles ---------------------------------------------------------------


def naive_energy(q, x):
    """x^T Q x by explicit double loop over the upper triangle."""
    n = len(x)
    total = 0.0
    for i in range(n):
        if x[i]:
            total += q[i][i]
            for j in range(i + 1, n):
                if x[j]:
                    total += q[i][j]
    return total


def all_state_energies(q):
    """Energy of every bitstring of an upper-triangular QUBO.

    Returns (bits, energies): bits is (2^n, n) with bit i of code s in
    column i. Vectorized: a matmul with the strict upper triangle gives
    the pair terms, the diagonal the linear ones.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    codes = np.arange(1 << n, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(n)) & 1).astype(np.float64)
    upper = np.triu(q, k=1)
    pair = np.sum((bits @ upper) * bits, axis=1)
    diag = bits @ np.diag(q)
    return bits, diag + pair


def dense_sweep_reference(qdiag, coupling, temps, uniforms, state, best_state):
    """The annealer sweep from its definition: the field re-summed densely.

    Same contract as ``probeopt.qubo.kernels.sweep``: every flip attempt
    adds ``coupling[k, j] * state[j]`` over all n columns, so it costs
    O(sweeps * n^2). state is mutated in place; best_state receives the
    lowest-energy configuration visited. Returns (final_energy, best_energy).
    """
    n = qdiag.shape[0]
    sweeps = temps.shape[0]
    e = 0.0
    for i in range(n):
        if state[i] == 1:
            e += qdiag[i]
            for j in range(i + 1, n):
                if state[j] == 1:
                    e += coupling[i, j]
    best = e
    for i in range(n):
        best_state[i] = state[i]
    for s in range(sweeps):
        t = temps[s]
        for k in range(n):
            acc = 0.0
            for j in range(n):
                acc += coupling[k, j] * state[j]
            delta = (1.0 - 2.0 * state[k]) * (qdiag[k] + acc)
            if delta <= 0.0 or uniforms[s, k] < math.exp(-delta / t):
                state[k] = 1 - state[k]
                e += delta
                if e < best:
                    best = e
                    for i in range(n):
                        best_state[i] = state[i]
    return e, best


def brute_force_conflict_edges(geometry, problem):
    """Flat pairwise re-check of the conflict rules over all visible nodes."""
    half = problem.view_height / 2.0
    nodes = []
    for sat in range(problem.n_satellites):
        ys = geometry.satellite_y[sat]
        for req in range(problem.n_requests):
            if abs(geometry.request_xy[req, 1] - ys) <= half:
                nodes.append((sat, req))
    nodes.sort()
    edges = set()
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            sat_a, req_a = nodes[i]
            sat_b, req_b = nodes[j]
            if req_a == req_b and sat_a != sat_b:
                edges.add((i, j))
            elif sat_a == sat_b:
                dx = abs(geometry.request_xy[req_a, 0] - geometry.request_xy[req_b, 0])
                dy = abs(geometry.request_xy[req_a, 1] - geometry.request_xy[req_b, 1])
                if dy > problem.turn_speed * dx:
                    edges.add((i, j))
    return tuple(nodes), tuple(sorted(edges))


def conflict_free(edges, bits):
    return all(not (bits[i] and bits[j]) for i, j in edges)


# -- standalone process driving -----------------------------------------------


def wire_standalone(proc: Process, capacity: int = 16):
    """Attach bare channels to a process's ports and build it a context.

    Returns (ctx, channels, recorder): channels maps port name -> Channel.
    The far end of each channel is the test itself.
    """
    channels = {}
    for name, spec in proc.ports.items():
        ch = Channel(f"test:{name}", capacity=capacity)
        spec.channel = ch
        channels[name] = ch
    recorder = ListRecorder()
    mgmt = Channel("test:mgmt", capacity=16)
    ctx = ProcessContext(proc, TimeSource(), recorder, mgmt, lambda: None)
    return ctx, channels, recorder, mgmt
