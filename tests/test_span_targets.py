"""perfbench's span targets still name attributes the package defines.

``perfbench/run.py --trace 1`` patches every ``(owner, attr)`` in
``perfbench/spans.py``'s ``TARGETS`` through ``owner.__dict__[attr]``. A
target that is renamed, removed or only inherited would break the traced
benchmark, and the perfbench suite runs apart from this one.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_every_span_target_is_defined_on_its_owner():
    assert spans.TARGETS
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.TARGETS if attr not in owner.__dict__
    ]
    assert missing == []

