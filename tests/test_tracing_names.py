"""The benchmark's tracer looks up package functions and methods by name;
every name it lists must exist, or a traced bench run fails at install."""

import importlib
import os
import subprocess
import sys
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


def test_cli_import_loads_every_traced_module():
    # `Tracer.install` looks each module up in sys.modules after the bench
    # has imported repcount.cli alone, so importing on demand, as the tests
    # above do, would hide a module that only a later import brings in
    modules = sorted({entry[0] for entry in tracing.FUNCTIONS + tracing.METHODS})
    script = ("import sys, repcount.cli; "
              "print(' '.join(m for m in %r if m not in sys.modules))" % (modules,))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.split() == []
