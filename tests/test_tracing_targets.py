"""The benchmark's tracer wraps program functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _tracing()
    modules = {name: importlib.import_module(f"influence_lab.{name}") for name in tracing.MODULES}
    for span_name, module, path, _ in tracing.TARGETS:
        owner = modules[module]
        for part in path.split("."):
            assert hasattr(owner, part), f"{span_name}: influence_lab.{module}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), span_name
