"""``benchmarks/`` defines its shared report code in one place: ``_bench.py``.

Every ``bench_*.py`` script imports ``environment``, ``summarize`` and
``write_report`` from it. A second top-level definition of one of them
would be a second environment block, timing summary or report format.
"""

from __future__ import annotations

import ast
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
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
