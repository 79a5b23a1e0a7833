"""Seeded inputs: every draw takes its expected route and passes its check,
and one input position costs about the same whatever the seed, so that the
benchmark's figures do not depend on which seed a run gets."""

from collections import defaultdict

import pytest

from conftest import SEEDS
from workloads import WORKLOADS, angle_source, exp_source, fold_source

# stated bands, max over min across seeds for one input position: the work
# the tracer counts (stem points, branch calls, lifted nodes), and the wall
# time of the traced call, which also carries the speed swings of a shared
# host (up to 1.7x on a 2-vCPU one), so its band only catches a draw that is
# grossly costlier
WORK_BAND = 1.25
TIME_BAND = 2.5


def _work_per_op(tracer) -> dict:
    work = defaultdict(int)
    for s in tracer.spans:
        if s.name == "expr" or s.name.startswith("lifts."):
            work[s.op] += s.points
        elif s.name == "branches":
            work[s.op] += 1
    return work


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_draws_take_their_route_and_stay_in_band(name, passes):
    workload = WORKLOADS[name]
    by_position = defaultdict(list)
    for seed in SEEDS:
        tracer, rows, _ = passes(name, seed)
        work = _work_per_op(tracer)
        for i, (label, seconds, failure) in enumerate(rows):
            assert label in workload.labels
            assert failure is None, f"seed {seed} op {i} ({label}): {failure}"
            by_position[i].append((work[i], seconds))
    for i, costs in by_position.items():
        works = [w for w, _ in costs]
        times = [t for _, t in costs]
        assert min(works) > 0
        assert max(works) <= WORK_BAND * min(works), (i, works)
        assert max(times) <= TIME_BAND * min(times), (i, times)


def test_same_seed_same_inputs():
    import random

    for draw in (angle_source, fold_source, lambda rng: exp_source(rng, 3)):
        assert draw(random.Random(7)) == draw(random.Random(7))
        assert draw(random.Random(7)) != draw(random.Random(8))
