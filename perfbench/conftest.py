"""Shared set-up of the benchmark's own tests.

    python3 -m pytest perfbench

The tests run the checkout's starlog with numpy single-threaded, like the
benchmark.  A traced pass runs every op of a workload once with all layers
wrapped; passes are shared between tests because each takes seconds.
"""

import bootstrap

bootstrap.prepare()

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (101, 202, 303)


def traced_pass(name: str, seed: int):
    """(tracer, rows of (label, seconds, failure), set-up) of one traced pass."""
    setup = workloads.WORKLOADS[name].build(seed)
    tracer = tracing.Tracer()
    rows = []
    for i, op in enumerate(setup.ops):
        tracer.op = i
        seconds, _, failure = run.run_op(op, tracer)
        rows.append((op.label, seconds, failure))
    return tracer, rows, setup


@pytest.fixture(scope="session")
def passes():
    cache = {}

    def get(name: str, seed: int):
        if (name, seed) not in cache:
            cache[name, seed] = traced_pass(name, seed)
        return cache[name, seed]

    return get
