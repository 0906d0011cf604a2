"""Shared test helpers: independent oracles and a standalone loop driver.

Everything here is deliberately written from the definitions, not by
calling package internals, so tests compare two implementations rather
than one implementation with itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from probeopt.errors import DimensionMismatch
from probeopt.qubo.conflict import ConflictGraph
from probeopt.qubo.model import to_qubo
from probeopt.qubo.problem import QuboWeights
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
    """Expected improvement via scipy.stats.norm, over whole arrays.

    Where sigma is 0 the closed form divides by zero; ``np.where`` takes
    the hinge on the improvement there instead.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    sigma = np.sqrt(np.maximum(var, 0.0))
    improve = mean - y_best - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = improve / sigma
        ei = improve * norm.cdf(z) + sigma * norm.pdf(z)
    return np.maximum(np.where(sigma == 0.0, np.maximum(improve, 0.0), ei), 0.0)


# -- QUBO oracles ---------------------------------------------------------------


def qubo_matrix(qubo):
    """The dense (n, n) upper-triangular Q a ``ConflictQubo`` stands for."""
    q = np.zeros((qubo.n, qubo.n), dtype=np.float64)
    np.fill_diagonal(q, -qubo.w_reward)
    for i, row in enumerate(qubo.neighbours):
        for j in row:
            if j > i:
                q[i, j] = qubo.w_penalty
    return q


def energy(qubo, state):
    """x^T Q x with Q upper triangular: each pair counted exactly once."""
    x = np.asarray(state, dtype=np.float64).ravel()
    if x.shape[0] != qubo.n:
        raise DimensionMismatch(f"state has {x.shape[0]} bits, QUBO has {qubo.n}")
    return float(x @ qubo_matrix(qubo) @ x)


def graph_on(n, edges):
    """The conflict graph on n nodes with the given edges, node k being
    (satellite 0, request k)."""
    return ConflictGraph(nodes=tuple((0, k) for k in range(n)), edges=tuple(edges))


def qubo_on(n, edges, w_reward=1.0, w_penalty=2.0):
    """to_qubo of the graph on n nodes with the given edges."""
    return to_qubo(graph_on(n, edges), QuboWeights(w_reward=w_reward, w_penalty=w_penalty))


def random_edges(rng, n):
    """G(n, p) edges, p drawn from [0.1, 0.7]."""
    p = rng.uniform(0.1, 0.7)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def random_conflict_qubo(rng, n, w_penalty=None, w_reward=None):
    """qubo_on ``random_edges``; weights drawn unless given."""
    edges = random_edges(rng, n)
    if w_reward is None:
        w_reward = float(rng.uniform(0.5, 2.0))
    if w_penalty is None:
        w_penalty = float(rng.uniform(0.25, 4.0))
    return qubo_on(n, edges, w_reward, w_penalty)


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


def sweep_operands(qubo):
    """(diagonal, symmetric couplings with a zeroed diagonal) of the dense Q,
    as ``dense_sweep_reference`` takes them."""
    q = qubo_matrix(qubo)
    coupling = q + q.T
    np.fill_diagonal(coupling, 0.0)
    return np.ascontiguousarray(np.diag(q)), coupling


def certified_stop_applies(n, degree, sweeps, w_reward, w_penalty):
    """Whether the annealer's certified stop applies: ``w_penalty > w_reward``
    and a gap ``min(w_reward, w_penalty - w_reward)`` wider than twice the
    bound ``B`` on the rounding in the running energy
    (``probeopt.qubo.kernels``), with ``u = 2**-53``."""
    if not w_penalty > w_reward:
        return False
    gap = min(w_reward, w_penalty - w_reward)
    u = 2.0**-53
    return gap > 2 * (4 * u * n * (sweeps + degree + 1) * (n + degree + 1) * (w_reward + degree * w_penalty))


def certified_optimal(coupling, state, clique_cover):
    """Whether ``state`` selects exactly ``clique_cover`` nodes and no two
    selected nodes share a nonzero coupling."""
    selected = [i for i in range(len(state)) if state[i] == 1]
    return len(selected) == clique_cover and not any(coupling[i, j] for i in selected for j in selected)


def dense_sweep_reference(
    qdiag, coupling, temps, uniforms, state, best_state, clique_cover=None, w_penalty=None
):
    """The annealer sweep from its definition: the field re-summed densely.

    The definition ``probeopt.qubo.kernels.sweep`` must reproduce, on
    the operands ``sweep_operands`` builds: every flip attempt adds
    ``coupling[k, j] * state[j]`` over all n columns, so it costs
    O(sweeps * n^2). state is mutated in place; best_state receives the
    lowest-energy configuration visited. With ``clique_cover`` (and the
    ``w_penalty`` the couplings stand for, which an edgeless graph does not
    show) it returns at the first new best state that is
    ``certified_optimal``, where ``certified_stop_applies``.
    Returns (final_energy, best_energy).
    """
    n = qdiag.shape[0]
    sweeps = temps.shape[0]
    stop = clique_cover is not None and certified_stop_applies(
        n, int(np.count_nonzero(coupling, axis=1).max()), sweeps, float(-qdiag[0]), w_penalty
    )
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
                    if stop and certified_optimal(coupling, best_state, clique_cover):
                        return e, best
    return e, best


def first_certified_sweep(qubo, temps, uniforms, kernel=None):
    """The first sweep, from the all-zeros state, that visits a state
    ``certified_optimal`` for ``qubo.clique_cover``, or None.

    ``kernel(qubo, temps, uniforms, state, best_state)`` is stepped one
    sweep at a time; by default it is ``dense_sweep_reference`` on the
    QUBO's dense operands. Each step's best state is the lowest of that
    sweep, and where the stop applies a certified state lies below every
    other (``probeopt.qubo.kernels``), so the first step whose best is
    certified is the first sweep that visits one.
    """
    qdiag, coupling = sweep_operands(qubo)
    if kernel is None:

        def kernel(_qubo, *args):
            return dense_sweep_reference(qdiag, coupling, *args)

    state = np.zeros(qubo.n, dtype=np.int64)
    best_state = np.zeros_like(state)
    for s in range(temps.shape[0]):
        kernel(qubo, temps[s : s + 1], uniforms[s : s + 1], state, best_state)
        if certified_optimal(coupling, best_state, qubo.clique_cover):
            return s
    return None


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


def problem_to_dict(problem):
    """The JSON document ``SatelliteProblem.from_dict`` reads back as ``problem``."""
    return {
        "n_satellites": problem.n_satellites,
        "n_requests": problem.n_requests,
        "view_height": problem.view_height,
        "turn_speed": problem.turn_speed,
        "seed": problem.seed,
        "qubo_weights": {
            "w_reward": problem.qubo_weights.w_reward,
            "w_penalty": problem.qubo_weights.w_penalty,
        },
    }


def conflict_free(edges, bits):
    return all(not (bits[i] and bits[j]) for i, j in edges)


def violation_count(graph, state):
    """Conflict edges with both endpoints selected, before any repair."""
    bits = np.asarray(state).ravel()
    return sum(1 for i, j in graph.edges if bits[i] and bits[j])


# -- standalone process driving -----------------------------------------------


@dataclass(frozen=True)
class Scalar:
    """A token no process in the package handles: plain test payload."""

    value: float


def lockstep(*procs):
    """Rest each process one tick per turn. On a ``VirtualClock`` every
    tick then steps each live process once, in name order."""
    for proc in procs:
        proc.step_interval = 1.0


def wire_standalone(proc: Process, capacity: int = 16, on_probe=lambda: None):
    """Attach bare channels to a process's ports and build it a context.

    Returns (ctx, channels, recorder): channels maps port name -> Channel.
    The far end of each channel is the test itself. ``on_probe`` is called on every
    ``ctx.probe``.
    """
    channels = {}
    for name, spec in proc.ports.items():
        ch = Channel(f"test:{name}", capacity=capacity)
        spec.channel = ch
        channels[name] = ch
    recorder = ListRecorder()
    ctx = ProcessContext(proc, TimeSource(), recorder)
    probe = ctx.probe

    def counted_probe(port_name):
        on_probe()
        return probe(port_name)

    ctx.probe = counted_probe
    return ctx, channels, recorder


def await_done(ref_port, poll_interval: float = 0.005, timeout: float = 30.0) -> str:
    """Poll a done flag without touching any channel.

    Returns "finished" or "timed_out". The first read happens before any
    sleep, so a flag that is already set is seen immediately, and a flag
    that flips mid-wait is seen within one poll interval.
    """
    deadline = time.monotonic() + timeout
    while True:
        if ref_port.read():
            return "finished"
        if time.monotonic() >= deadline:
            return "timed_out"
        time.sleep(poll_interval)
