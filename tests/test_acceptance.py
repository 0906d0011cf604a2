"""Acceptance gate: eight behavioral checks, one printed line each.

Together these pin the project contract end to end: a barrier run
deadlocks exactly when evaluation latency exceeds one step while the
probe loop never does, completion handshakes are prompt, channels stay
sound under load, the surrogate math matches dense oracles, the QUBO
pipeline reaches true optima, and the full tuning run reproduces byte
for byte.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from probeopt.bo.acquisition import expected_improvement
from probeopt.bo.gp import GPHyper, gp_fit, gp_predict
from probeopt.bo.search import BayesSearch, Observation, SearchSpace
from probeopt.evaluator import (
    EvalConfig,
    LatencyModel,
    SchedulingEvaluator,
    evaluate_params,
    search_space,
    solver_rng,
)
from probeopt.harness.scenarios import ScenarioConfig, default_problem, run_scenario
from probeopt.optimizer.loop import CANDIDATE_PORT, RESULT_PORT, AsyncOptimizer
from probeopt.qubo.anneal import AnnealParams, solve
from probeopt.qubo.conflict import build_conflict_graph
from probeopt.qubo.model import to_qubo
from probeopt.qubo.problem import QuboWeights, SatelliteProblem, generate_geometry
from probeopt.runtime.channel import Channel
from probeopt.runtime.graph import ProcessGraph, RunLimits
from probeopt.runtime.tokens import CommandKind
from probeopt.errors import Disconnected
from support import (
    Scalar,
    all_state_energies,
    await_done,
    dense_gp_predict,
    ei_reference,
    energy,
    qubo_matrix,
)


@contextmanager
def _check(capsys, number, label):
    """Run one acceptance check, printing exactly one PASS/FAIL line."""
    with capsys.disabled():
        try:
            yield
        except BaseException:
            print(f"ACCEPTANCE {number} FAIL: {label}")
            raise
        print(f"ACCEPTANCE {number} PASS: {label}")


def _async_pair(seed, budget, latency, step_s, sleep_s, sweeps=40):
    """Optimizer/evaluator graph wired the same way the harness does it."""
    search = BayesSearch(search_space(), seed=seed)
    optimizer = AsyncOptimizer("optimizer", search, budget, probe_sleep=sleep_s)
    config = EvalConfig(
        problem=default_problem(),
        latency=LatencyModel(min_steps=latency[0], max_steps=latency[1]),
        solver=AnnealParams(sweeps=sweeps),
        seed=seed,
    )
    evaluator = SchedulingEvaluator("evaluator", config, step_duration=step_s)
    graph = ProcessGraph()
    graph.add_process(optimizer)
    graph.add_process(evaluator)
    graph.connect(optimizer.out_port(CANDIDATE_PORT), evaluator.in_port("request_in"), capacity=8)
    graph.connect(evaluator.out_port("result_out"), optimizer.in_port(RESULT_PORT), capacity=8)
    return graph, optimizer


def test_1_latency_trichotomy(capsys):
    label = "unit latency completes, slow barrier deadlocks, probe loop always completes"
    with _check(capsys, 1, label):
        started = time.monotonic()
        for seed in range(10):
            ok = run_scenario(ScenarioConfig("sync-ok", seed=seed, budget=3))
            assert not ok.report.deadlock_detected
            assert ok.summary["completed"] == 3
            assert ok.ok

            dead = run_scenario(ScenarioConfig("sync-deadlock", seed=seed, budget=3))
            assert dead.report.deadlock_detected
            assert dead.summary["completed"] < 3
            assert dead.report.deadlock_diagnostic
            # reported at the blocking recv, after the productive prefix
            assert dead.report.wall_time < 3.0
            assert dead.ok

            live = run_scenario(
                ScenarioConfig("async-probe", seed=seed, budget=5, latency=(2, 5))
            )
            assert not live.report.deadlock_detected
            assert live.summary["completed"] == 5
            assert live.ok
        assert time.monotonic() - started < 60.0


def test_2_done_handshake(capsys):
    label = "done flag seen within one poll; Stop lands within sleep plus step"
    with _check(capsys, 2, label):
        # Completion side: a poller sees the flag within one poll interval
        # of it flipping (50 ms of scheduler slack on top).
        for seed in (0, 1, 2):
            graph, _ = _async_pair(seed, budget=4, latency=(1, 2), step_s=0.002, sleep_s=0.002)
            ref = graph.ref_port("optimizer", "done")
            seen = {}

            def watch():
                deadline = time.monotonic() + 30.0
                while not ref.read() and time.monotonic() < deadline:
                    time.sleep(0.0002)
                seen["flag"] = time.monotonic()

            def observe():
                seen["status"] = await_done(ref, poll_interval=0.005, timeout=30.0)
                seen["observed"] = time.monotonic()

            watcher = threading.Thread(target=watch)
            observer = threading.Thread(target=observe)
            watcher.start()
            observer.start()
            report = graph.start(RunLimits()).wait(30.0)
            watcher.join(5.0)
            observer.join(5.0)
            assert not report.deadlock_detected and not report.errors
            assert seen.get("status") == "finished"
            assert seen["observed"] - seen["flag"] <= 0.005 + 0.050

        # Stop side: issued mid-run, the flag flips within one sleep delay
        # plus one step (10 ms + 5 ms), with slack for thread scheduling.
        flip_bound = 0.010 + 0.005 + 0.135
        for seed in range(10):
            graph, optimizer = _async_pair(
                seed, budget=50, latency=(3, 6), step_s=0.005, sleep_s=0.010
            )
            ref = graph.ref_port("optimizer", "done")
            handle = graph.start(RunLimits())
            deadline = time.monotonic() + 10.0
            while optimizer.completed < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert optimizer.completed >= 2, "run never warmed up"
            issued = time.monotonic()
            graph.issue_command("optimizer", CommandKind.STOP)
            while not ref.read() and time.monotonic() - issued < 2.0:
                time.sleep(0.0002)
            flipped = time.monotonic()
            report = handle.wait(30.0)
            assert ref.read()
            assert flipped - issued <= flip_bound
            assert optimizer.completed < 50
            assert not report.deadlock_detected and not report.errors


def test_3_sleep_economy(capsys):
    label = "10 ms sleep policy probes under a quarter of busy-wait"
    with _check(capsys, 3, label):
        slept = run_scenario(
            ScenarioConfig(
                "async-probe", seed=3, budget=20, latency=(5, 20), step_ms=5.0, sleep_ms=10.0
            )
        )
        # a zero-sleep spin legitimately burns tens of thousands of probe
        # steps per slow evaluation, so it needs a far larger step budget
        busy = run_scenario(
            ScenarioConfig(
                "async-probe",
                seed=3,
                budget=20,
                latency=(5, 20),
                step_ms=5.0,
                sleep_ms=0.0,
                max_steps=5_000_000,
            )
        )
        assert slept.ok and busy.ok
        assert slept.summary["sleeps"] > 0
        assert slept.summary["probe_attempts"] < 0.25 * busy.summary["probe_attempts"]


def test_4_channel_property_suite(capsys):
    label = "SPSC channel: FIFO, exactly-once, sound non-blocking probe at 1e5 ops"
    with _check(capsys, 4, label):
        ch = Channel("acceptance:spsc", capacity=8)

        # Full channel: probes stay non-blocking and report the exact depth.
        for i in range(8):
            assert ch.send_nowait(Scalar(float(-1 - i)))
        t0 = time.monotonic()
        for _ in range(10_000):
            state = ch.probe()
            assert state.count == 8 and state.available and not state.empty
        assert time.monotonic() - t0 < 1.0
        for i in range(8):
            assert ch.recv().value == float(-1 - i)

        n_tokens = 50_000
        failures = []
        received = []
        probes = {"n": 0}

        def producer():
            try:
                for i in range(n_tokens):
                    ch.send(Scalar(float(i)))
                ch.close_producer()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(("producer", repr(exc)))

        def consumer():
            rng = np.random.default_rng(7)
            try:
                while True:
                    if rng.random() < 0.5:
                        state = ch.probe()
                        probes["n"] += 1
                        # every token a probe reports is already buffered,
                        # so this many recvs cannot block
                        for _ in range(state.count):
                            received.append(ch.recv().value)
                    else:
                        received.append(ch.recv().value)
            except Disconnected:
                pass
            except Exception as exc:  # noqa: BLE001
                failures.append(("consumer", repr(exc)))

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert received == [float(i) for i in range(n_tokens)]  # FIFO, exactly once

        # Drained and closed: probe still answers, reporting emptiness.
        tail = ch.probe()
        assert tail.count == 0 and tail.empty and not tail.available
        total_ops = 8 + 10_000 + 8 + 2 * n_tokens + probes["n"] + 1
        assert total_ops >= 100_000


def test_5_gp_matches_dense_oracle(capsys):
    label = "posterior matches dense-inverse oracle at 1e-8; limit cases hold"
    with _check(capsys, 5, label):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            d = int(rng.integers(1, 4))
            hyper = GPHyper(
                signal_var=float(rng.uniform(0.5, 2.0)),
                length_scale=float(rng.uniform(0.15, 0.8)),
                noise_var=float(10 ** rng.uniform(-4, -2)),
            )
            x = rng.uniform(-1.0, 1.0, size=(n, d))
            y = rng.normal(0.0, 1.0, size=n)
            model = gp_fit(x, y, hyper)
            queries = rng.uniform(-1.2, 1.2, size=(16, d))
            mean, var = gp_predict(model, queries)
            mean_ref, var_ref = dense_gp_predict(
                x, y, hyper.signal_var, hyper.length_scale, hyper.noise_var, queries
            )
            assert np.max(np.abs(mean - mean_ref)) < 1e-8
            assert np.max(np.abs(var - var_ref)) < 1e-8

        # Noiseless limit: the posterior interpolates its training data.
        hyper = GPHyper(signal_var=1.0, length_scale=0.3, noise_var=1e-8)
        x = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
        y = np.sin(3.0 * x[:, 0])
        model = gp_fit(x, y, hyper)
        mean, var = gp_predict(model, x)
        assert np.max(np.abs(mean - y)) < 1e-4
        assert np.max(var) < 1e-4

        # Far from data the posterior reverts to the prior.
        far = x + 60.0 * hyper.length_scale
        mean_far, var_far = gp_predict(model, far)
        assert np.max(np.abs(mean_far)) < 1e-10
        assert np.max(np.abs(var_far - hyper.signal_var)) < 1e-10


def test_6_expected_improvement(capsys):
    label = "EI closed-form values, nonnegativity, suggest equals re-scoring"
    with _check(capsys, 6, label):
        # Degenerate sigma: EI collapses to the hinge on the improvement.
        assert expected_improvement(1.3, 0.0, 1.0, xi=0.0) == pytest.approx(0.3)
        assert expected_improvement(0.7, 0.0, 1.0, xi=0.0) == 0.0
        assert expected_improvement(0.99, 0.0, 1.0, xi=0.01) == 0.0
        # z = 0: EI equals sigma times the standard normal density at zero.
        assert expected_improvement(1.0, 1.0, 1.0, xi=0.0) == pytest.approx(
            0.3989423, abs=1e-6
        )
        assert expected_improvement(2.0, 4.0, 2.0, xi=0.0) == pytest.approx(
            2.0 * 0.3989423, abs=2e-6
        )

        rng = np.random.default_rng(21)
        mean = rng.normal(0.0, 2.0, size=1000)
        var = np.abs(rng.normal(0.0, 1.0, size=1000))
        var[::7] = 0.0
        best = rng.normal(0.0, 2.0)
        ei = expected_improvement(mean, var, best, xi=0.01)
        assert np.all(ei >= 0.0)
        assert np.max(np.abs(ei - ei_reference(mean, var, best, 0.01))) < 1e-10

        # Suggestion equals exhaustive re-scoring of the same candidates.
        space = SearchSpace(lower=(0.0, 0.0), upper=(1.0, 2.0))
        for run in range(50):
            search = BayesSearch(space, seed=100 + run)
            data_rng = np.random.default_rng(500 + run)
            for _ in range(search.n_init):
                search.suggest()  # burn the warmup draws
            n_obs = int(data_rng.integers(3, 9))
            for _ in range(n_obs):
                xo = data_rng.uniform(space.lower, space.upper)
                search.update(Observation(x=tuple(xo), y=float(data_rng.normal())))
            state = search.rng.bit_generator.state
            picked = np.asarray(search.suggest())

            replay = np.random.default_rng()
            replay.bit_generator.state = state
            cands = replay.uniform(space.lower, space.upper, size=(search.n_cand, space.dims))
            xs = np.array([o.x for o in search.observations])
            ys = np.array([o.y for o in search.observations])
            hyper = search.hyper
            mean_o, var_o = dense_gp_predict(
                xs, ys, hyper.signal_var, hyper.length_scale, hyper.noise_var, cands
            )
            scores = ei_reference(mean_o, var_o, float(ys.max()), search.xi)

            where = np.flatnonzero((cands == picked).all(axis=1))
            assert where.size == 1  # the pick is one of the scored candidates
            order = np.argsort(scores)[::-1]
            if scores[order[0]] - scores[order[1]] > 1e-9:
                assert where[0] == order[0]
            else:  # numerical tie between top candidates: value equality
                assert scores[where[0]] >= scores.max() - 1e-9


def test_7_qubo_soundness(capsys):
    label = "exhaustive minimizers are conflict-free max selections; annealer 18/20"
    with _check(capsys, 7, label):
        started = time.monotonic()
        rng = np.random.default_rng(2024)
        instances = []
        attempts = 0
        while len(instances) < 20:
            attempts += 1
            assert attempts < 500
            problem = SatelliteProblem(
                n_satellites=int(rng.integers(2, 4)),
                n_requests=int(rng.integers(4, 8)),
                view_height=float(rng.uniform(0.25, 0.5)),
                turn_speed=float(rng.uniform(0.6, 1.6)),
                seed=int(rng.integers(0, 10_000)),
            )
            graph = build_conflict_graph(generate_geometry(problem), problem)
            if 2 <= graph.n <= 16:
                instances.append(graph)

        hits = 0
        for index, graph in enumerate(instances):
            qubo = to_qubo(graph, QuboWeights(w_reward=1.0, w_penalty=2.0))
            bits, energies = all_state_energies(qubo_matrix(qubo))
            edges = np.array(graph.edges, dtype=int).reshape(-1, 2)
            violations = (
                (bits[:, edges[:, 0]] * bits[:, edges[:, 1]]).sum(axis=1)
                if len(edges)
                else np.zeros(len(bits))
            )
            sizes = bits.sum(axis=1)
            best_energy = energies.min()
            best_size = sizes[violations == 0].max()
            minimizers = np.flatnonzero(energies <= best_energy + 1e-9)
            assert np.all(violations[minimizers] == 0)
            assert np.all(sizes[minimizers] == best_size)
            assert best_energy == pytest.approx(-best_size)

            state = solve(
                qubo,
                AnnealParams(sweeps=200),
                np.random.default_rng(np.random.SeedSequence([777, index])),
            )
            if energy(qubo, state) <= best_energy + 1e-9:
                hits += 1
        assert hits >= 18
        assert time.monotonic() - started < 120.0


def test_8_end_to_end_tuning_run(capsys, tmp_path):
    label = "tuning run: 25 contiguous iterations, monotone best, byte-identical"
    with _check(capsys, 8, label):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run_scenario(ScenarioConfig("bo-qubo", seed=7, budget=25, out=out))
            assert result.ok
            assert not result.report.deadlock_detected
            assert result.summary["completed"] == 25
            outs.append(out)

        lines = (outs[0] / "iterations.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        assert [row["iter"] for row in rows] == list(range(1, 26))
        bests = [row["y_best"] for row in rows]
        assert all(b >= a for a, b in zip(bests, bests[1:]))
        assert bests[-1] == max(row["y"] for row in rows)

        first = (outs[0] / "iterations.jsonl").read_bytes()
        second = (outs[1] / "iterations.jsonl").read_bytes()
        assert first == second

        untuned = evaluate_params(
            default_problem(), (2.0, 2.0), AnnealParams(sweeps=200), solver_rng(7, 0)
        )
        assert bests[-1] >= untuned
