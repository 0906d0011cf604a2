"""Span tracing of probeopt's layers, from outside the package.

``Tracer.install`` patches the public functions each layer exposes on the
request path (nothing under ``src/`` changes) so that every call records a
span: id, name, start, end, parent span, evaluation id and, for a few
targets, a value observed from the call's arguments or result. A span's
layer is the first part of its name. Spans stay in memory until the
benchmark writes them out at the end.

Parents follow the calling thread; the first span a worker thread opens
takes the enclosing ``harness.run_scenario`` span as its parent. The
evaluation id is the number of ``suggest`` calls started so far: with one
request in flight, every span between suggestion k and its update belongs
to evaluation k.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional
from unittest import mock

import numpy as np

import probeopt.bo.search as bo_search
import probeopt.evaluator as evaluator_mod
import probeopt.harness.scenarios as scenarios
from probeopt.bo.search import BayesSearch
from probeopt.evaluator import SchedulingEvaluator
from probeopt.optimizer.loop import RESULT_PORT, AsyncOptimizer
from probeopt.runtime.channel import Channel
from probeopt.runtime.graph import ProcessGraph, RunHandle
from probeopt.runtime.process import ProcessContext
from probeopt.runtime.timesource import TimeSource, VirtualClock

LAYERS = ("qubo", "evaluator", "bo", "optimizer", "runtime", "harness")
CHANNEL_OPS = ("runtime.send", "runtime.send_nowait", "runtime.recv", "runtime.probe")


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for none
    eval_id: int
    observed: Any  # what the target's ``observe`` returned for this call, else None


def _flips(args, result):
    """Flip attempts of one anneal: sweeps times variables."""
    qubo, params = args[0], args[1]
    return params.sweeps * qubo.n


def _repair(args, result):
    """(bits set in the annealer's best state, assignments kept)."""
    return int(np.count_nonzero(args[0])), len(result.assignments)


def _result_send(args, result):
    """Marks a send on the channel into the optimizer's result port."""
    return True if args[0].consumer_port.rsplit(".", 1)[-1] == RESULT_PORT else None


def _done_set(args, result):
    """Marks the write that raises the optimizer's done flag."""
    return True if args[1] == "done" and args[2] is True else None


# (owner, attribute, span name, observe). Module functions are patched where
# their caller looks them up.
TARGETS: tuple[tuple[Any, str, str, Optional[Callable]], ...] = (
    (evaluator_mod, "generate_geometry", "qubo.geometry", None),
    (evaluator_mod, "build_conflict_graph", "qubo.conflict", None),
    (evaluator_mod, "to_qubo", "qubo.build", None),
    (evaluator_mod, "solve", "qubo.anneal", _flips),
    (evaluator_mod, "decode", "qubo.decode", _repair),
    (evaluator_mod, "evaluate_params", "evaluator.evaluate", None),
    (SchedulingEvaluator, "step", "evaluator.step", None),
    (BayesSearch, "suggest", "bo.suggest", None),
    (BayesSearch, "update", "bo.update", None),
    (bo_search, "gp_fit", "bo.gp_fit", None),
    (bo_search, "gp_predict", "bo.gp_predict", None),
    (bo_search, "expected_improvement", "bo.ei", None),
    (AsyncOptimizer, "loop_step", "optimizer.loop_step", None),
    (Channel, "send", "runtime.send", _result_send),
    (Channel, "send_nowait", "runtime.send_nowait", None),
    (Channel, "recv", "runtime.recv", None),
    (Channel, "probe", "runtime.probe", None),
    (TimeSource, "gate", "runtime.gate", None),
    (VirtualClock, "gate", "runtime.gate", None),
    (TimeSource, "sleep", "runtime.sleep", None),
    (VirtualClock, "sleep", "runtime.sleep", None),
    (ProcessContext, "set_ref", "runtime.set_ref", _done_set),
    (ProcessGraph, "start", "runtime.start", None),
    (RunHandle, "wait", "runtime.wait", None),
    (scenarios, "run_scenario", "harness.run_scenario", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.eval_id = 0
        self._root = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        tracer = self
        is_root = name == "harness.run_scenario"
        is_suggest = name == "bo.suggest"

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if is_suggest:
                tracer.eval_id += 1
            eval_id = tracer.eval_id
            if is_root:
                tracer._root = sid
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = -1
            observed = observe(args, result) if observe is not None else None
            tracer.spans.append(Span(sid, name, start, end, parent, eval_id, observed))
            return result

        return traced

    def install(self) -> ExitStack:
        """Patch every target; closing the returned stack restores them."""
        stack = ExitStack()
        for owner, attr, name, observe in TARGETS:
            original = owner.__dict__[attr]
            stack.enter_context(mock.patch.object(owner, attr, self._wrap(name, original, observe)))
        return stack

    def write(self, path: Path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "start_us": round((s.start - t0) * 1e6, 1),
                            "end_us": round((s.end - t0) * 1e6, 1),
                            "parent": s.parent,
                            "eval": s.eval_id,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus the part
    of its interval that its child spans (from any thread) cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        totals[s.name.split(".", 1)[0]] += (s.end - s.start) - covered
    return totals


def _mean(values: list[float]) -> float:
    """Mean per call; 0 when there were no calls (e.g. no GP suggestion
    within a tiny budget), so the result line stays valid JSON."""
    return float(np.mean(values)) if values else 0.0


def layer_metrics(spans: list[Span], evals: int, wall_s: float) -> dict[str, float]:
    """Per-layer numbers from the spans of ``evals`` evaluations that took
    ``wall_s`` seconds of run time in all. ``*_ms`` without ``per_eval``
    are means per call."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(name: str) -> list[float]:
        return [s.end - s.start for s in by_name[name]]

    def per_eval(name: str) -> dict[int, Span]:
        return {s.eval_id: s for s in by_name[name]}

    anneal = by_name["qubo.anneal"]
    bits = sum(s.observed[0] for s in by_name["qubo.decode"])
    kept = sum(s.observed[1] for s in by_name["qubo.decode"])
    suggests, updates = per_eval("bo.suggest"), per_eval("bo.update")
    sends = {s.eval_id: s for s in by_name["runtime.send"] if s.observed}
    evaluate = per_eval("evaluator.evaluate")
    turnaround = {k: updates[k].start - suggests[k].end for k in updates if k in suggests}
    channel = [d for op in CHANNEL_OPS for d in dur(op)]
    done_at = [s.end for s in by_name["runtime.set_ref"] if s.observed]
    runs = sorted(by_name["harness.run_scenario"], key=lambda s: s.start)
    teardown = []
    for run in runs:
        flags = [t for t in done_at if run.start <= t <= run.end]
        if flags:
            teardown.append(run.end - min(flags))
    self_s = self_times(spans)

    metrics = {
        "qubo.anneal_ms": 1e3 * _mean(dur("qubo.anneal")),
        "qubo.anneal_ns_per_flip": 1e9 * sum(s.end - s.start for s in anneal) / max(sum(s.observed for s in anneal), 1),
        "qubo.geometry_ms": 1e3 * _mean(dur("qubo.geometry")),
        "qubo.conflict_ms": 1e3 * _mean(dur("qubo.conflict")),
        "qubo.build_ms": 1e3 * _mean(dur("qubo.build")),
        "qubo.decode_ms": 1e3 * _mean(dur("qubo.decode")),
        "qubo.repair_keep_ratio": kept / bits if bits else 1.0,
        "evaluator.evaluate_ms": 1e3 * _mean(dur("evaluator.evaluate")),
        "evaluator.busy_share": sum(dur("evaluator.evaluate")) / wall_s,
        "bo.suggest_ms": 1e3 * _mean(dur("bo.suggest")),
        "bo.update_ms": 1e3 * _mean(dur("bo.update")),
        "bo.gp_fit_ms": 1e3 * _mean(dur("bo.gp_fit")),
        "bo.gp_predict_ms": 1e3 * _mean(dur("bo.gp_predict")),
        "bo.ei_ms": 1e3 * _mean(dur("bo.ei")),
        "bo.share": (sum(dur("bo.suggest")) + sum(dur("bo.update"))) / wall_s,
        "optimizer.pickup_ms": 1e3 * _mean([updates[k].start - sends[k].end for k in updates if k in sends]),
        "runtime.channel_ops": len(channel) / evals,
        "runtime.channel_op_us": 1e6 * _mean(channel),
        "runtime.clock_gate_wait_ms": 1e3 * sum(dur("runtime.gate")) / evals,
        "runtime.overhead_ms_per_eval": 1e3 * _mean(
            [t - (evaluate[k].end - evaluate[k].start) for k, t in turnaround.items() if k in evaluate]
        ),
        "harness.teardown_ms": 1e3 * _mean(teardown),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_eval"] = 1e3 * self_s[layer] / evals
    return metrics
