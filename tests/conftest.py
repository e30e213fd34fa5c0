import time
from pathlib import Path

import pytest

from repcount import ResourceLimits, parse_presentation, run_pipeline

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def load(name):
    path = ALGEBRAS / (name + ".alg")
    return parse_presentation(path.read_text(), name=name)


@pytest.fixture(scope="session")
def pipelines():
    """Session cache of pipeline runs keyed by (algebra, n).

    Several suites look at the same handful of runs; computing each once
    keeps the whole test session fast.  Wall times of the fresh computation
    are recorded so acceptance checks can still assert time budgets.
    """
    cache = {}
    durations = {}

    def run_for(name, n, max_seconds=300.0):
        key = (name, n)
        if key not in cache:
            limits = ResourceLimits(max_seconds=max_seconds, max_degree=60, max_basis=20000)
            t0 = time.perf_counter()
            cache[key] = run_pipeline(load(name), n, limits=limits)
            durations[key] = time.perf_counter() - t0
        return cache[key]

    run_for.durations = durations
    return run_for
