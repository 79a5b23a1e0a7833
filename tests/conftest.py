"""Fixtures shared by several test modules."""

from dataclasses import fields

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
