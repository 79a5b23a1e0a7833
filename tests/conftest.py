"""Fixtures shared by several test modules."""

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from starlog.expr import SliceExpr, eval_stem_many


def _nodes(tree: SliceExpr):
    yield tree
    for field in fields(tree):
        child = getattr(tree, field.name)
        if isinstance(child, SliceExpr):
            yield from _nodes(child)


@pytest.fixture
def sp_vectors_vanish():
    """Check that every slice-preserving node of a tree has exact-zero vector
    columns at the given points: the evaluator's one-column product relies on
    it.  Returns the number of slice-preserving nodes checked."""

    def check(tree: SliceExpr, zs) -> int:
        count = 0
        for node in _nodes(tree):
            if node.slice_preserving:
                C = eval_stem_many(node, zs)
                assert np.isfinite(C).all() and not C[:, 1:].any(), node
                count += 1
        return count

    return check


@pytest.fixture
def computed_by():
    """The ids of the nodes that a compiled program's steps compute, in step order."""
    return lambda program: [out for _, out, _, _ in program.steps]


@pytest.fixture(scope="module")
def wl():
    """The benchmark's input families, from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
