import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from starlog import domain as domain_module
from starlog.domain import BFS_TREES_KEPT, MAX_NODES, BasicDomainSpec, regions, validate_domain
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


def test_diagonal_gaps_split_the_leaf_and_close_holes():
    # the leaf and its complement are both 4-connected: two squares that meet
    # at a corner are two components, and a ring whose corner cell is missing
    # still closes its hole, since the hole reaches that cell only diagonally
    corner = BasicDomainSpec(rects=[(0.0, 1.0, 1.0, 2.0), (2.0, 3.0, 3.0, 4.0)], kind="product", h=1.0)
    report = corner.validate(strict=False)
    assert (report.n_components, report.n_holes) == (2, 0)
    assert report.message == "leaf splits into 2 grid components"
    ring = BasicDomainSpec(
        rects=[(0.0, 4.0, 1.0, 1.0), (0.0, 0.0, 1.0, 5.0), (0.0, 3.0, 5.0, 5.0), (4.0, 4.0, 1.0, 4.0)],
        kind="product",
        h=1.0,
    )
    assert not ring.mask[-1, -1] and ring.mask.sum() == 15
    report = ring.validate(strict=False)
    assert (report.n_components, report.n_holes) == (1, 1)
    assert report.message == "leaf has 1 hole(s); slice components not simply connected"


def _bfs_regions(mask, diagonal):
    """The regions of mask as lists of flat indices, by breadth-first search."""
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if diagonal:
        steps += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    ny, nx = mask.shape
    seen = ~mask
    found = []
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        seen[start] = True
        queue, cells = [start], []
        while queue:
            j, i = queue.pop()
            cells.append(j * nx + i)
            for dj, di in steps:
                nj, ni = j + dj, i + di
                if 0 <= nj < ny and 0 <= ni < nx and not seen[nj, ni]:
                    seen[nj, ni] = True
                    queue.append((nj, ni))
        found.append(cells)
    return found


@settings(derandomize=True, max_examples=300, deadline=None)
@given(arrays(bool, array_shapes(min_dims=2, max_dims=2, max_side=16)), st.booleans())
@example(np.array([[True, False], [False, True]]), False)
@example(np.array([[True, False], [False, True]]), True)
@example(np.array([[False, True, False], [True, False, True], [False, True, False]]), False)
def test_regions_partition_the_mask_as_a_plain_search_does(mask, diagonal):
    # each region's cells carry one label, the region's largest flat index,
    # and the cells off the mask carry -1
    lab = regions(mask, diagonal)
    assert lab.shape == mask.shape and lab.dtype == np.int64
    assert (lab[~mask] == -1).all()
    flat = lab.ravel()
    found = _bfs_regions(mask, diagonal)
    assert sum(map(len, found)) == mask.sum()
    for cells in found:
        assert (flat[cells] == max(cells)).all()


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


def test_boundary_dist_mirrors_the_shapes_off_the_axis():
    # a slice domain's leaf is doubled by reflection: a shape that stays off
    # the axis counts twice, as itself and as its mirror image, and the
    # distance is the largest over all the shapes
    d = BasicDomainSpec(
        rects=[(-1.0, 1.0, 0.0, 1.0), (2.0, 3.0, 0.5, 1.0)],
        discs=[(0.0, 1.5, 0.4)],
        kind="slice",
    )
    z = np.array([0.0 + 1.6j, 0.0 - 1.6j, 2.5 + 0.75j, 2.5 - 0.75j, 0.0 + 0.9j, 0.0 + 1.2j])
    assert d.boundary_dist(z) == pytest.approx([0.3, 0.3, 0.25, 0.25, 0.1, 0.1])
    # between the rect and the disc, and between the rect and its mirror
    assert d.boundary_dist(0.0 + 1.05j) < 0 and d.boundary_dist(2.5 + 0.25j) < 0


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
    regions = domain_module.regions

    def counting(mask, diagonal):
        floods.append(mask.shape)
        return regions(mask, diagonal)

    monkeypatch.setattr(domain_module, "regions", counting)
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
