"""perfbench's out-of-band row check passes on short runs of its workloads.

``perfbench/run.py``'s ``check`` recomputes row k of every run with
``solver_rng(seed, k)`` and compares runs at one seed. A change to the
package that breaks either, or an API the benchmark reads, fails here
too, not only in the perfbench suite that runs apart from this one.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    # run.py imports its siblings (workloads, spans, envinfo) by bare name.
    sys.path.insert(0, str(_PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", _PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up here
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_PERFBENCH))
    return module


run = _load_run()


@pytest.mark.parametrize("name", ["bo-default", "bo-large", "probe-realtime"])
def test_two_short_runs_pass_the_row_check(name):
    workload = run.WORKLOADS[name]
    repeats = [run.run_once(workload, 3, 4) for _ in range(2)]
    assert run.check(workload, 3, 4, repeats) == (0, [])
