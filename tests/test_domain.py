import json
import math
import tracemalloc

import numpy as np
import pytest

from starlog import domain as domain_module
from starlog.domain import BFS_TREES_KEPT, MAX_NODES, BasicDomainSpec, validate_domain
from starlog.errors import DomainError, LiftStep, NotBasic
from starlog.logarithm import check_conditions, log_star
from starlog.parse import parse_expr


def test_slice_rect_grid_aligned_to_axis():
    d = BasicDomainSpec(rects=[(-1.2, 1.2, 0.0, 1.0)], kind="slice")
    report = validate_domain(d)
    assert report.ok and report.meets_axis
    assert report.n_nodes >= 1000
    assert d.node_y.min() == 0.0
    assert len(d.real_nodes) == len(d.xs)


def test_product_rect():
    d = BasicDomainSpec(rects=[(0.3, 1.5, 0.35, 1.2)], kind="product")
    report = validate_domain(d)
    assert report.ok and not report.meets_axis
    assert d.node_y.min() >= 0.35


def test_half_disc_slice():
    d = BasicDomainSpec(discs=[(0.0, 0.0, 1.1)], kind="slice")
    report = validate_domain(d)
    assert report.ok and report.meets_axis
    # no nodes escape the half disc
    assert np.all(np.abs(d.node_z) <= 1.1 + 1e-9)
    assert np.all(d.node_y >= 0.0)


def test_product_disc_center_on_grid():
    d = BasicDomainSpec(discs=[(0.0, 1.0, 0.3)], kind="product")
    validate_domain(d)
    center = d.nearest_node(1j)
    assert abs(d.node_z[center] - 1j) < 1e-12


def test_union_of_rects_connected():
    d = BasicDomainSpec(
        rects=[(-1.0, 0.1, 0.0, 0.5), (-0.1, 1.0, 0.0, 1.0)], kind="slice", h=0.05
    )
    report = validate_domain(d)
    assert report.ok and report.n_components == 1


def test_disconnected_rejected():
    d = BasicDomainSpec(
        rects=[(-1.0, -0.5, 0.0, 0.5), (0.5, 1.0, 0.0, 0.5)], kind="slice", h=0.05
    )
    with pytest.raises(NotBasic, match="components"):
        validate_domain(d)
    report = d.validate(strict=False)
    assert not report.ok and report.n_components == 2


def test_hole_rejected():
    # frame made of four rects around an empty square
    d = BasicDomainSpec(
        rects=[
            (-1.0, 1.0, 0.2, 0.4),
            (-1.0, 1.0, 1.0, 1.2),
            (-1.0, -0.8, 0.2, 1.2),
            (0.8, 1.0, 0.2, 1.2),
        ],
        kind="product",
        h=0.05,
    )
    with pytest.raises(NotBasic, match="hole"):
        validate_domain(d)
    report = d.validate(strict=False)
    assert not report.ok and report.n_holes == 1


def test_product_touching_axis_rejected():
    d = BasicDomainSpec(rects=[(0.0, 1.0, 0.0, 1.0)], kind="product")
    with pytest.raises(NotBasic, match="axis"):
        validate_domain(d)


def test_slice_missing_axis_rejected():
    d = BasicDomainSpec(rects=[(0.0, 1.0, 0.5, 1.0)], kind="slice")
    with pytest.raises(NotBasic, match="axis"):
        validate_domain(d)


def test_bad_kind_and_empty():
    with pytest.raises(DomainError):
        BasicDomainSpec(rects=[(0, 1, 0, 1)], kind="weird")
    with pytest.raises(DomainError):
        BasicDomainSpec(kind="slice")
    for h in (0, -0.1, math.inf, math.nan):
        with pytest.raises(DomainError, match="grid step"):
            BasicDomainSpec(rects=[(-1, 1, 0, 1)], h=h)


@pytest.mark.parametrize("kind, h", [("slice", 1e-9), ("product", 1e-9), ("slice", 5e-324)])
def test_grid_node_cap(kind, h):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="points, over"):
            BasicDomainSpec(rects=[(-1.0, 1.0, 0.5, 1.0)], kind=kind, h=h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # refused before the lattice is allocated
    spec = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1.0 / 256)
    assert spec.n_nodes <= MAX_NODES


def test_json_roundtrip(tmp_path):
    d = BasicDomainSpec(
        rects=[(-1.0, 1.0, 0.0, 0.8)], discs=[(0.0, 0.0, 0.5)], kind="slice", h=0.04
    )
    path = tmp_path / "dom.json"
    d.dump(path)
    loaded = BasicDomainSpec.load(path)
    assert loaded.kind == d.kind and loaded.h == d.h
    assert loaded.to_json() == d.to_json()
    # rect-only files with no disc key parse unchanged
    plain = {"rects": [[0.0, 1.0, 0.0, 1.0]], "kind": "slice"}
    (tmp_path / "plain.json").write_text(json.dumps(plain))
    BasicDomainSpec.load(tmp_path / "plain.json").validate()


def test_boundary_dist():
    d = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice")
    # interior point near the axis: the axis is not a boundary for slice domains
    assert d.boundary_dist(0.0 + 0.01j) > 0.5
    assert d.boundary_dist(0.95 + 0.5j) == pytest.approx(0.05)
    assert d.boundary_dist(2.0 + 0.5j) < 0


def test_nearest_and_interior_node():
    d = BasicDomainSpec(rects=[(0.3, 1.5, 0.35, 1.2)], kind="product")
    z = d.node_z[d.nearest_node(0.9 + 0.7j)]
    assert abs(z - (0.9 + 0.7j)) <= d.h
    zi = d.node_z[d.interior_node()]
    assert d.boundary_dist(zi) > 0.3


def test_split_real_trace_rejected():
    # two feet joined by a bridge above the axis: leaf simply connected but
    # the symmetric double would have a hole between the feet
    d = BasicDomainSpec(
        rects=[
            (-1.0, -0.4, 0.0, 0.8),
            (0.4, 1.0, 0.0, 0.8),
            (-1.0, 1.0, 0.6, 0.8),
        ],
        kind="slice",
        h=0.05,
    )
    with pytest.raises(NotBasic, match="real trace"):
        validate_domain(d)


def test_validation_floods_once_per_domain(monkeypatch):
    # a domain is immutable, so its report is worked out once and kept
    d = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1.0 / 16.0)
    report = d.validate()
    floods = []
    flood = domain_module._flood

    def counting(mask, seeds):
        floods.append(mask.shape)
        return flood(mask, seeds)

    monkeypatch.setattr(domain_module, "_flood", counting)
    g = parse_expr("exp(0.5*q^2 + 1.0)")
    log_star(g, d)
    log_star(g, d)
    check_conditions(g, d)
    assert d.validate() is report
    assert floods == []


def test_neighbour_table_columns():
    # left, right, down, up; -1 off the grid
    d = BasicDomainSpec(rects=[(0.0, 2.0, 0.0, 1.0)], kind="slice", h=1.0)
    assert d.node_index.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert d.neighbours.tolist() == [
        [-1, 1, -1, 3],
        [0, 2, -1, 4],
        [1, -1, -1, 5],
        [-1, 4, 0, -1],
        [3, 5, 1, -1],
        [4, -1, 2, -1],
    ]


def test_bfs_tree_is_kept_for_the_last_base_nodes(monkeypatch):
    builds = []
    build = domain_module._fifo_tree

    def counting(nbr, base_node):
        builds.append(base_node)
        return build(nbr, base_node)

    monkeypatch.setattr(domain_module, "_fifo_tree", counting)
    d = BasicDomainSpec(rects=[(0.0, 2.0, 0.0, 1.0)], kind="slice", h=0.25)
    assert BFS_TREES_KEPT == 4
    first = d.bfs_tree(0)
    assert d.bfs_tree(0) is first
    for base in range(1, 6):
        d.bfs_tree(base)
        d.bfs_tree(1)  # the most recently used tree stays
    assert builds == [0, 1, 2, 3, 4, 5]
    assert list(d._bfs_trees) == [3, 4, 5, 1]
    parents, children, starts = d.bfs_tree(5)
    assert builds == [0, 1, 2, 3, 4, 5]
    assert sorted(children.tolist()) == [n for n in range(d.n_nodes) if n != 5]
    assert starts[0] == 0 and starts[-1] == parents.size == d.n_nodes - 1
    assert not (parents.flags.writeable or children.flags.writeable or starts.flags.writeable)


def test_bfs_tree_of_a_disconnected_grid_raises_and_keeps_nothing():
    d = BasicDomainSpec(rects=[(0.0, 1.0, 0.0, 1.0), (2.0, 3.0, 0.0, 1.0)], kind="slice", h=0.25)
    assert not d.report.ok
    with pytest.raises(LiftStep, match="not connected"):
        d.bfs_tree(0)
    assert not d._bfs_trees
