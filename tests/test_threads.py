"""``src/probeopt`` constructs a thread in one place: the run's driver.

One driver thread steps every process of a run, whatever its time
source. A second thread construction in the package would be a second
driver, or a helper beside the one driver.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "probeopt"
THREAD_MAKERS = frozenset({"Thread", "Timer", "ThreadPoolExecutor"})


def thread_constructions(source: str) -> list[str]:
    """The qualified scope of each thread construction in ``source``, in order."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in THREAD_MAKERS:
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_finds_every_thread_construction():
    source = (
        "import threading\n"
        "from threading import Thread\n"
        "worker = threading.Thread(target=print)\n"
        "class Run:\n"
        "    def start(self):\n"
        "        self.t = [Thread(target=f) for f in self.fs]\n"
        "        threading.Timer(1.0, print).start()\n"
        "        threading.Event().set()\n"
    )
    assert thread_constructions(source) == ["<module>", "Run.start", "Run.start"]


def test_package_constructs_only_the_driver_thread():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    found = {
        str(path.relative_to(PACKAGE)): scopes
        for path in modules
        if (scopes := thread_constructions(path.read_text(encoding="utf-8")))
    }
    assert found == {"runtime/graph.py": ["RunHandle.start"]}
