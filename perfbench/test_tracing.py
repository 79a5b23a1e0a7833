"""The traced run: counts repeat exactly for one seed, the wrappers reach
every import site and come off again, and the bypass workload shows no
continuation or zero-finder work."""

import pytest

import starlog
import starlog.expr
import starlog.lifts
import starlog.logarithm
import starlog.vectorial
from bootstrap import benchmark
from conftest import SEEDS, traced_pass
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

# counts the tracer makes (domain.nodes comes from the set-up, not from spans)
COUNTS = [
    m["name"]
    for m in benchmark()["per_layer"]
    if m["unit"] == "count" and m["name"] != "domain.nodes"
]


def _counts(tracer, n_ops):
    figures = layer_metrics(tracer, 1, n_ops, n_ops)
    return {k: figures[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name, passes):
    first, _, setup = passes(name, SEEDS[0])
    second, _, _ = traced_pass(name, SEEDS[0])
    n_ops = len(setup.ops)
    assert _counts(first, n_ops) == _counts(second, n_ops)


def test_exp_identity_bypasses_lifts_and_zero_finder(passes):
    tracer, _, _ = passes("exp-identity-128", SEEDS[0])
    names = {s.name for s in tracer.spans}
    assert {"expr", "branches"} <= names
    assert not [n for n in names if n.startswith(("lifts.", "vectorial."))]


def test_install_reaches_every_binding_and_uninstall_restores():
    original = starlog.expr.eval_stem_many
    original_lift = starlog.lifts.lift_log
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = starlog.expr.eval_stem_many
        assert wrapped is not original
        assert starlog.logarithm.eval_stem_many is wrapped
        assert starlog.vectorial.eval_stem_many is wrapped
        # lift_angle's own call to lift_log stays inside the angle span
        assert starlog.lifts.lift_log is original_lift
        assert starlog.logarithm.lift_log is not original_lift
    finally:
        tracer.uninstall()
    assert starlog.expr.eval_stem_many is original
    assert starlog.logarithm.eval_stem_many is original
    assert starlog.logarithm.lift_log is original_lift
    assert starlog.log_star is starlog.logarithm.log_star
