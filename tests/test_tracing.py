"""The benchmark's traced functions stay reachable where it looks for them.

``perfbench/tracing.py`` wraps each target by replacing a module
attribute, and a traced run is incorrect when one is missing.  A
refactor that renames a traced function, or stops calling one through
the module it is looked up in, fails here as well as in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a in tracing.TARGETS],
                         ids=[f"{m}.{a}" for _, m, a in tracing.TARGETS])
def test_trace_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
