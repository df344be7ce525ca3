"""Every span the benchmark's tracer installs still names a library attribute.

``bench/tracing.py`` wraps module globals by name and reports a missing one
as absent instead of failing, so a renamed or deleted function would
silently drop its span from the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module_name, attr_path", _targets(), ids=str)
def test_trace_target_resolves(name, module_name, attr_path):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module_name}.{attr_path} is not callable"
