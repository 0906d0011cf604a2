"""``benchmarks/`` defines its shared report code in one place: ``_bench.py``.

Every ``bench_*.py`` script imports ``environment``, ``summarize`` and
``write_report`` from it. A second top-level definition of one of them
would be a second environment block, timing summary or report format.
Scripts that compare two trees alternate their rounds through
``interleave``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from _bench import interleave  # noqa: E402
SHARED = frozenset({"environment", "summarize", "write_report"})


def shared_definitions(source: str) -> list[str]:
    """The names in ``SHARED`` that ``source`` defines at top level, in order."""
    return [
        node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name in SHARED
    ]


def test_only_the_shared_module_defines_the_shared_code():
    scripts = sorted(BENCHMARKS.glob("*.py"))
    assert {"bench_anneal.py", "bench_bo_step.py", "bench_cold_start.py"} <= {path.name for path in scripts}
    found = {
        path.name: names for path in scripts if (names := shared_definitions(path.read_text(encoding="utf-8")))
    }
    assert found == {"_bench.py": ["environment", "summarize", "write_report"]}


def test_interleave_alternates_which_worker_goes_first():
    # Each worker answers a round with the instant it was asked.
    script = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); from _bench import serve; "
        "serve(lambda: (None, {'label': sys.argv[2]}), lambda state: time.monotonic_ns())"
    )
    commands = {label: [sys.executable, "-c", script, str(BENCHMARKS), label] for label in ("a", "b")}
    results = interleave(commands, rounds=4)
    assert {label: info for label, (info, _) in results.items()} == {"a": {"label": "a"}, "b": {"label": "b"}}
    a, b = results["a"][1], results["b"][1]
    assert [x < y for x, y in zip(a, b)] == [True, False, True, False]


def test_interleave_reports_a_worker_that_exits():
    commands = {"quits": [sys.executable, "-c", "print('{}', flush=True)"]}
    with pytest.raises(RuntimeError, match="quits: worker exited with 0"):
        interleave(commands, rounds=1)
