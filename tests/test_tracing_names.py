"""The benchmark's tracer looks up package functions and methods by name;
every name it lists must exist, or a traced bench run fails at install."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# compiled from its source, so nothing is written under bench/
tracing = types.ModuleType("bench_tracing")
exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(tracing))


@pytest.mark.parametrize("module, name", tracing.FUNCTIONS)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, cls, name", tracing.METHODS)
def test_traced_method_resolves(module, cls, name):
    # the tracer wraps the method from the class's own namespace
    assert callable(vars(getattr(importlib.import_module(module), cls))[name])
