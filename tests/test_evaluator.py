"""Evaluator process: latency phases, reproducible scoring, malformed input."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import probeopt.evaluator as evaluator_mod
from probeopt.errors import ConfigError
from probeopt.evaluator import (
    EvalConfig,
    LatencyModel,
    SchedulingEvaluator,
    evaluate_params,
    latency_rng,
    search_space,
    solver_rng,
)
from probeopt.qubo.anneal import AnnealParams, solve
from probeopt.qubo.conflict import build_conflict_graph
from probeopt.qubo.model import to_qubo
from probeopt.qubo.problem import SatelliteProblem, generate_geometry
from probeopt.qubo.schedule import decode
from probeopt.runtime.tokens import ParamVector, ResultTuple
from support import Scalar, wire_standalone


def _problem():
    return SatelliteProblem(
        n_satellites=3, n_requests=12, view_height=0.4, turn_speed=1.0, seed=7
    )


def _config(seed=7, lat=(2, 4), sweeps=60):
    return EvalConfig(
        problem=_problem(),
        latency=LatencyModel(min_steps=lat[0], max_steps=lat[1]),
        solver=AnnealParams(sweeps=sweeps),
        seed=seed,
    )


def test_latency_model_validation():
    with pytest.raises(ConfigError):
        LatencyModel(min_steps=0, max_steps=3)
    with pytest.raises(ConfigError):
        LatencyModel(min_steps=4, max_steps=3)


def test_search_space_bounds():
    space = search_space()
    assert space.lower == (0.5, 0.5)
    assert space.upper == (8.0, 5.0)


def test_evaluate_params_deterministic_and_in_range():
    problem = _problem()
    score1 = evaluate_params(problem, (2.0, 2.0), AnnealParams(), solver_rng(7, 0))
    score2 = evaluate_params(problem, (2.0, 2.0), AnnealParams(), solver_rng(7, 0))
    assert score1 == score2
    assert 0 <= score1 <= problem.n_requests


def test_busy_phase_counts_and_no_probing_while_busy():
    cfg = _config(seed=3, lat=(3, 3))  # fixed latency of three steps
    ev = SchedulingEvaluator("ev", cfg)
    probes = []
    ctx, ch, recorder = wire_standalone(ev, on_probe=lambda: probes.append(1))
    ch["request_in"].send(ParamVector(0, (2.0, 2.0)))
    assert ev.step(ctx) is False  # receipt step: probes once, recvs
    assert len(probes) == 1
    assert ev.step(ctx) is False  # busy
    assert len(probes) == 1  # busy steps never probe
    assert ch["result_out"].probe().empty
    assert ev.step(ctx) is False  # third service step: responds
    assert len(probes) == 1
    result = ch["result_out"].recv()
    assert isinstance(result, ResultTuple)
    assert result.request == 0
    served = recorder.events("evaluation")
    assert len(served) == 1 and served[0]["latency"] == 3 and served[0]["request"] == 0


def test_single_step_latency_responds_on_receipt_step():
    cfg = _config(seed=3, lat=(1, 1))
    ev = SchedulingEvaluator("ev", cfg)
    ctx, ch, _ = wire_standalone(ev)
    ch["request_in"].send(ParamVector(0, (2.0, 2.0)))
    ev.step(ctx)
    assert ch["result_out"].probe().count == 1


def test_reply_matches_out_of_band_pipeline():
    """What the process sends equals a direct pipeline call with the same
    derived generator: the process is a thin wrapper, not a variant."""
    cfg = _config(seed=11, lat=(1, 1), sweeps=40)
    ev = SchedulingEvaluator("ev", cfg)
    ctx, ch, _ = wire_standalone(ev)
    xs = [(2.0, 2.0), (0.7, 4.5), (7.5, 0.6)]
    for k, x in enumerate(xs):
        ch["request_in"].send(ParamVector(k, x))
        ev.step(ctx)
        reply = ch["result_out"].recv()
        expected = evaluate_params(cfg.problem, x, cfg.solver, solver_rng(11, k))
        assert reply.score == float(expected)
        assert reply.request == k


def test_each_solve_is_seeded_by_its_request_id():
    """Ids sent out of order: each reply echoes its id and draws that id's
    solver stream, not the count of requests served before it."""
    large = SatelliteProblem(n_satellites=4, n_requests=30, view_height=0.5, turn_speed=1.0, seed=7)
    cfg = replace(_config(seed=11, lat=(1, 1), sweeps=40), problem=large)
    sent = [(3, (2.0, 2.0)), (1, (7.5, 0.6))]
    # Served first, request 3 would draw stream 0 if seeded by serve order.
    first = [evaluate_params(large, sent[0][1], cfg.solver, solver_rng(11, k)) for k in (3, 0)]
    assert first[0] != first[1]
    ev = SchedulingEvaluator("ev", cfg)
    ctx, ch, recorder = wire_standalone(ev)
    for request, x in sent:
        ch["request_in"].send(ParamVector(request, x))
        ev.step(ctx)
        reply = ch["result_out"].recv()
        assert reply.request == request
        assert reply.score == float(
            evaluate_params(cfg.problem, x, cfg.solver, solver_rng(11, request))
        )
    assert [e["request"] for e in recorder.events("evaluation")] == [3, 1]
    assert ev.served == 2


def test_latency_sequence_reproducible_per_seed():
    draws1 = [int(latency_rng(5).integers(2, 6)) for _ in range(1)]
    cfg = _config(seed=5, lat=(2, 5))
    seqs = []
    for _ in range(2):
        ev = SchedulingEvaluator("ev", cfg)
        ctx, ch, recorder = wire_standalone(ev)
        for k in range(4):
            ch["request_in"].send(ParamVector(k, (2.0, 2.0)))
            while ch["result_out"].probe().empty:
                ev.step(ctx)
            ch["result_out"].recv()
        seqs.append([e["latency"] for e in recorder.events("evaluation")])
    assert seqs[0] == seqs[1]
    assert seqs[0][0] == draws1[0]  # comes from the dedicated latency stream


def test_malformed_request_gets_failure_reply():
    ev = SchedulingEvaluator("ev", _config())
    ctx, ch, recorder = wire_standalone(ev)
    ch["request_in"].send(ParamVector(4, (1.0, 2.0, 3.0)))  # wrong width
    assert ev.step(ctx) is False
    reply = ch["result_out"].recv()
    assert reply.request == 4
    assert reply.score == -1.0
    assert recorder.events("request_malformed")
    # The evaluator is immediately ready for well-formed work again.
    ch["request_in"].send(ParamVector(5, (2.0, 2.0)))
    while ch["result_out"].probe().empty:
        ev.step(ctx)
    assert ch["result_out"].recv().score >= 0.0


def test_non_param_token_dropped_without_reply():
    ev = SchedulingEvaluator("ev", _config())
    ctx, ch, recorder = wire_standalone(ev)
    ch["request_in"].send(Scalar(3.0))
    assert ev.step(ctx) is False
    assert ch["result_out"].probe().empty
    assert recorder.events("request_dropped")


def test_stops_once_request_port_closes():
    ev = SchedulingEvaluator("ev", _config())
    ctx, ch, _ = wire_standalone(ev)
    assert ev.step(ctx) is False  # open and empty: more may come
    ch["request_in"].send(ParamVector(0, (2.0, 2.0)))
    ch["request_in"].close_producer()
    # A request queued before the close is still served in full ...
    while ch["result_out"].probe().empty:
        assert ev.step(ctx) is False
    assert ch["result_out"].recv().request == 0
    # ... and the next step, on the empty closed port, stops.
    assert ev.step(ctx) is True


def test_idle_exit_when_producer_gone():
    ev = SchedulingEvaluator("ev", _config())
    ctx, ch, _ = wire_standalone(ev)
    assert ev.step(ctx) is False  # idle but the producer may still appear
    ch["request_in"].close_producer()
    assert ev.step(ctx) is True


# -- conflict-graph cache ---------------------------------------------------------

LARGE_PROBLEM = SatelliteProblem(
    n_satellites=4, n_requests=30, view_height=0.5, turn_speed=1.0, seed=7
)


def _uncached_score(problem, x, solver, rng):
    """The whole scoring pipeline, rebuilt on every call with nothing cached."""
    graph = build_conflict_graph(generate_geometry(problem), problem)
    qubo = to_qubo(graph, replace(problem.qubo_weights, w_penalty=float(x[0])))
    state = solve(qubo, AnnealParams(sweeps=solver.sweeps, t_start=float(x[1])), rng)
    return decode(state, graph).score


@pytest.mark.parametrize("problem", [_problem(), LARGE_PROBLEM], ids=["3x12", "4x30"])
def test_cached_graph_scores_equal_uncached_pipeline(problem):
    solver = AnnealParams(sweeps=40)
    for k, w_penalty in enumerate((0.5, 1.0 / 3.0, 1.37, 2.0, 7.9)):
        x = (w_penalty, 1.5)
        cached = evaluate_params(problem, x, solver, solver_rng(3, k))
        assert cached == _uncached_score(problem, x, solver, solver_rng(3, k))


def _count_builds(monkeypatch):
    built = []
    real = evaluator_mod.build_conflict_graph

    def counting(geometry, problem):
        built.append(problem)
        return real(geometry, problem)

    evaluator_mod.conflict_graph.cache_clear()
    monkeypatch.setattr(evaluator_mod, "build_conflict_graph", counting)
    return built


def test_graph_built_once_per_problem_across_requests(monkeypatch):
    built = _count_builds(monkeypatch)
    cfg = _config(seed=5, lat=(1, 1), sweeps=10)
    ev = SchedulingEvaluator("ev", cfg)
    ctx, ch, _ = wire_standalone(ev)
    for k, x in enumerate([(2.0, 2.0), (0.7, 4.5), (7.5, 0.6), (3.3, 1.1)]):
        ch["request_in"].send(ParamVector(k, x))
        ev.step(ctx)
        ch["result_out"].recv()
    assert ev.served == 4
    assert built == [cfg.problem]


def test_distinct_problems_get_distinct_graphs(monkeypatch):
    built = _count_builds(monkeypatch)
    other = SatelliteProblem(n_satellites=3, n_requests=12, view_height=0.4, turn_speed=1.0, seed=8)
    solver = AnnealParams(sweeps=10)
    graphs = []
    for problem in (_problem(), _problem(), other, other):
        evaluate_params(problem, (2.0, 2.0), solver, solver_rng(1, 0))
        graphs.append(evaluator_mod.conflict_graph(problem))
    assert built == [_problem(), other]
    assert graphs[0] is graphs[1] and graphs[2] is graphs[3]
    assert graphs[0] != graphs[2]
    for problem, graph in ((_problem(), graphs[0]), (other, graphs[2])):
        assert graph == build_conflict_graph(generate_geometry(problem), problem)
