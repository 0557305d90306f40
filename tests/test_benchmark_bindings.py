"""The benchmark tracer binds package functions by name; every name it
lists must still resolve, or a traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def bindings():
    if not TRACER.exists():
        return []
    tracer = load_tracer()
    timed = [(name, module, path) for name, (module, path, _) in tracer.TIMED.items()]
    counted = [(name, module, path) for name, (module, path) in tracer.COUNTED.items()]
    return timed + counted


@pytest.mark.skipif(not TRACER.exists(), reason="benchmarks/ is not present")
@pytest.mark.parametrize("name,module,path", bindings())
def test_traced_name_resolves(name, module, path):
    assert callable(resolve(module, path)), name

