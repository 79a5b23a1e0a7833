"""Axially symmetric basic domains described by their upper-half-plane leaf.

A domain is a union of axis-aligned rectangles and discs intersected with
{y >= 0}.  Slice domains meet the real axis; product domains stay away from
it.  Each domain carries a uniform grid on its leaf; all lifted fields and
verification passes live on the grid nodes.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, LiftStep, NotBasic

DEFAULT_GRID_DIVISIONS = 64
MAX_NODES = 1_000_000  # lattice points of a grid; 78x the 128-division ball leaf disc
# breadth-first trees a domain keeps, one per base node, least recently used
# dropped first: the fold route's mu base node depends on g
BFS_TREES_KEPT = 4
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def contains(self, x, y):
        return (
            (x >= self.x0 - _EDGE_TOL)
            & (x <= self.x1 + _EDGE_TOL)
            & (y >= self.y0 - _EDGE_TOL)
            & (y <= self.y1 + _EDGE_TOL)
        )

    def signed_dist(self, x, y):
        # positive inside; outside values are conservative, not Euclidean
        return np.minimum(
            np.minimum(x - self.x0, self.x1 - x),
            np.minimum(y - self.y0, self.y1 - y),
        )

    def mirrored(self) -> "Rect":
        return Rect(self.x0, self.x1, -self.y1, -self.y0)

    @property
    def bounds(self):
        return self.x0, self.x1, self.y0, self.y1


@dataclass(frozen=True)
class Disc:
    cx: float
    cy: float
    r: float

    def contains(self, x, y):
        return np.hypot(x - self.cx, y - self.cy) <= self.r + _EDGE_TOL

    def signed_dist(self, x, y):
        return self.r - np.hypot(x - self.cx, y - self.cy)

    def mirrored(self) -> "Disc":
        return Disc(self.cx, -self.cy, self.r)

    @property
    def bounds(self):
        return self.cx - self.r, self.cx + self.r, self.cy - self.r, self.cy + self.r


@dataclass(frozen=True)
class DomainReport:
    ok: bool
    kind: str
    n_nodes: int
    n_components: int
    n_holes: int
    meets_axis: bool
    message: str = ""

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "kind": self.kind,
            "nodes": self.n_nodes,
            "components": self.n_components,
            "holes": self.n_holes,
            "meets_axis": self.meets_axis,
            "message": self.message,
        }


def regions(mask: np.ndarray, diagonal: bool) -> np.ndarray:
    """Labels of the regions of ``mask`` (-1 outside it): each cell takes the
    largest flat index in its region.  Cells join by the 4 side steps, and
    by the 4 diagonal ones too when ``diagonal`` is set."""
    ny, nx = mask.shape
    steps = [(0, 1), (1, 0), (1, 2), (2, 1)]
    if diagonal:
        steps += [(0, 0), (0, 2), (2, 0), (2, 2)]
    lab = np.where(mask, np.arange(mask.size).reshape(mask.shape), -1)
    while True:
        p = np.pad(lab, 1, constant_values=-1)
        new = lab.copy()
        for dj, di in steps:
            np.maximum(new, p[dj : dj + ny, di : di + nx], out=new)
        new[~mask] = -1
        new[mask] = new.flat[new[mask]]  # a label is a cell of the region: take its label
        if np.array_equal(new, lab):
            return lab
        lab = new


def _count_roots(lab: np.ndarray) -> int:
    """Number of regions of ``lab``: the cells that carry their own index."""
    return int(np.count_nonzero(lab.ravel() == np.arange(lab.size)))


def _fifo_tree(nbr: np.ndarray, base_node: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The FIFO breadth-first tree of the graph with neighbour table nbr, level by level."""
    seen = np.zeros(nbr.shape[0], dtype=bool)
    seen[base_node] = True
    frontier = np.array([base_node])
    parents, children, sizes = [], [], [0]
    while True:
        cand = nbr[frontier].ravel()
        par = np.repeat(frontier, nbr.shape[1])
        keep = cand >= 0
        keep[keep] = ~seen[cand[keep]]
        cand, par = cand[keep], par[keep]
        _, first = np.unique(cand, return_index=True)
        first.sort()
        frontier = cand[first]
        if not frontier.size:
            break
        seen[frontier] = True
        parents.append(par[first])
        children.append(frontier)
        sizes.append(frontier.size)
    if not seen.all():
        raise LiftStep("grid graph is not connected; domain validation should have caught this")
    # the empty last frontier keeps the concatenation typed on a one-node grid
    tree = (
        np.concatenate(parents + [frontier]),
        np.concatenate(children + [frontier]),
        np.cumsum(sizes),
    )
    for a in tree:
        a.flags.writeable = False
    return tree


class BasicDomainSpec:
    """Leaf region, kind flag and grid of an axially symmetric basic domain.

    A domain is immutable after construction, so its validation report is
    worked out once, on first use, and kept, and so are the breadth-first
    trees of its last few base nodes.
    """

    def __init__(self, rects=(), discs=(), kind: str = "slice", h: float | None = None):
        if kind not in ("slice", "product"):
            raise DomainError(f"kind must be 'slice' or 'product', got {kind!r}")
        if h is not None and not 0.0 < float(h) < math.inf:
            raise DomainError(f"grid step h must be finite and > 0, got {h!r}")
        self.rects = tuple(Rect(*r) if not isinstance(r, Rect) else r for r in rects)
        self.discs = tuple(Disc(*d) if not isinstance(d, Disc) else d for d in discs)
        self.shapes = self.rects + self.discs
        if not self.shapes:
            raise DomainError("domain needs at least one rectangle or disc")
        self.kind = kind

        xs0, xs1, ys0, ys1 = zip(*(s.bounds for s in self.shapes))
        self.xmin, self.xmax = min(xs0), max(xs1)
        ymin_raw, self.ymax = min(ys0), max(ys1)
        self.ymin = max(ymin_raw, 0.0)
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise DomainError("domain leaf is empty")
        diam = max(self.xmax - self.xmin, self.ymax - self.ymin)
        self.h = diam / DEFAULT_GRID_DIVISIONS if h is None else float(h)
        self._build_grid()
        self._bfs_trees: OrderedDict[int, tuple] = OrderedDict()

    # -- construction -------------------------------------------------

    def _build_grid(self) -> None:
        h = self.h
        # a bound on the lattice size, checked before anything is allocated
        points = ((self.xmax - self.xmin) / h + 1) * ((self.ymax - self.ymin) / h + 2)
        if not points <= MAX_NODES:
            raise DomainError(f"grid step {h:.3g} spans {points:.3g} points, over {MAX_NODES}")
        nx = int(math.floor((self.xmax - self.xmin) / h + 1e-9)) + 1
        self.xs = self.xmin + h * np.arange(nx)
        if self.kind == "slice":
            # anchor rows at y = 0 so the real axis is on-grid
            j0 = int(math.ceil(self.ymin / h - 1e-9))
            j1 = int(math.floor(self.ymax / h + 1e-9))
            self.ys = h * np.arange(j0, j1 + 1)
        else:
            ny = int(math.floor((self.ymax - self.ymin) / h + 1e-9)) + 1
            self.ys = self.ymin + h * np.arange(ny)
        X, Y = np.meshgrid(self.xs, self.ys)
        mask = self.contains(X, Y)
        if self.kind == "product":
            mask &= Y > 0
        self.mask = mask
        self.node_index = np.full(mask.shape, -1, dtype=int)
        self.node_index[mask] = np.arange(int(mask.sum()))
        self.node_x = X[mask]
        self.node_y = Y[mask]
        self.node_z = self.node_x + 1j * self.node_y

    # -- membership ---------------------------------------------------

    def contains(self, x, y):
        """Union membership on the leaf (y >= 0 enforced)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for s in self.shapes:
            inside |= s.contains(x, y)
        return inside & (y >= -_EDGE_TOL)

    def contains_z(self, z):
        z = np.asarray(z, dtype=complex)
        return self.contains(z.real, z.imag)

    def boundary_dist(self, z):
        """Lower bound for the distance to the leaf boundary (axis excluded on slice domains)."""
        z = np.asarray(z, dtype=complex)
        shapes: list = []
        for s in self.shapes:
            if self.kind == "slice":
                # the reflected lower half belongs to the domain, so shapes
                # touching the axis symmetrize into one piece with no seam
                if isinstance(s, Rect) and s.y0 <= _EDGE_TOL:
                    shapes.append(Rect(s.x0, s.x1, -s.y1, s.y1))
                    continue
                if isinstance(s, Disc) and abs(s.cy) <= _EDGE_TOL:
                    shapes.append(s)
                    continue
                shapes += [s, s.mirrored()]
            else:
                shapes.append(s)
        d = shapes[0].signed_dist(z.real, z.imag)
        for s in shapes[1:]:
            d = np.maximum(d, s.signed_dist(z.real, z.imag))
        return d

    # -- grid access --------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.node_z.size

    @property
    def real_nodes(self) -> np.ndarray:
        """Flat indices of grid nodes on the real axis."""
        return np.nonzero(self.node_y == 0.0)[0]

    def at_nodes(self, zs) -> bool:
        """Whether the points ``zs``, flat, are the grid nodes in node order."""
        return np.shape(zs) == self.node_z.shape and np.array_equal(zs, self.node_z)

    def nearest_node(self, z: complex) -> int:
        return int(np.argmin(np.abs(self.node_z - z)))

    def interior_node(self) -> int:
        """A node well inside the region (used as continuation base on product domains)."""
        d = self.boundary_dist(self.node_z)
        return int(np.argmax(d))

    @property
    def neighbours(self) -> np.ndarray:
        """Neighbour table of the grid graph: one row per node, -1 where absent.

        Columns hold the left, right, down and up neighbours, in that order.
        It is built on each access rather than kept: that takes about 0.1 ms
        at 128 divisions, and a kept int64 table would hold its memory for
        the life of the domain.
        """
        idx = np.pad(self.node_index, 1, constant_values=-1)
        inner = idx[1:-1, 1:-1] >= 0
        return np.stack(
            [
                idx[1:-1, :-2][inner],
                idx[1:-1, 2:][inner],
                idx[:-2, 1:-1][inner],
                idx[2:, 1:-1][inner],
            ],
            axis=1,
        )

    def bfs_tree(self, base_node: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The breadth-first tree of the grid graph from base_node, built once and kept.

        Returns (parents, children, level_starts): edge e runs from
        parents[e] to children[e], and level L + 1 holds the edges
        level_starts[L]:level_starts[L + 1].  The tree is the one a FIFO
        queue builds when each parent scans its neighbours left, right,
        down, up: children come in the order the queue discovers them, and
        each belongs to the first parent that reaches it.  The arrays are
        read-only; the trees of the last BFS_TREES_KEPT base nodes are kept.
        """
        base_node = int(base_node)
        tree = self._bfs_trees.get(base_node)
        if tree is None:
            tree = _fifo_tree(self.neighbours, base_node)
            self._bfs_trees[base_node] = tree
            if len(self._bfs_trees) > BFS_TREES_KEPT:
                self._bfs_trees.popitem(last=False)
        else:
            self._bfs_trees.move_to_end(base_node)
        return tree

    # -- validation ---------------------------------------------------

    @cached_property
    def report(self) -> DomainReport:
        """Connectivity, simple connectivity and kind checks of the grid, made once."""
        mask = self.mask
        n_nodes = int(mask.sum())
        problems = []
        meets_axis = bool(n_nodes and (self.node_y == 0.0).any())

        n_components = _count_roots(regions(mask, False))
        if n_nodes == 0:
            problems.append("grid has no nodes")
        elif n_components != 1:
            problems.append(f"leaf splits into {n_components} grid components")
        # the padding rings the complement with one region, the outside;
        # every other region of the complement is a hole
        n_holes = _count_roots(regions(np.pad(~mask, 1, constant_values=True), False)) - 1
        if n_holes:
            problems.append(f"leaf has {n_holes} hole(s); slice components not simply connected")

        if self.kind == "slice":
            if not meets_axis:
                problems.append("slice domain does not meet the real axis on the grid")
            elif self.ys.size and self.ys[0] == 0.0:
                # the symmetric double is simply connected only if the real
                # trace is one interval: two intervals double into a ring
                row = mask[0, :]
                runs = int(np.count_nonzero(row[1:] & ~row[:-1])) + int(row[0])
                if runs > 1:
                    problems.append(
                        f"real trace splits into {runs} intervals; the symmetric double is not simply connected"
                    )
        if self.kind == "product":
            ymin_shape = min(s.bounds[2] for s in self.shapes)
            if ymin_shape <= 1e-12:
                problems.append("product domain touches the real axis")

        return DomainReport(
            ok=not problems,
            kind=self.kind,
            n_nodes=n_nodes,
            n_components=n_components,
            n_holes=n_holes,
            meets_axis=meets_axis,
            message="; ".join(problems),
        )

    def validate(self, strict: bool = True) -> DomainReport:
        """The domain's report; raises NotBasic when ``strict`` and it is not ok."""
        if strict and not self.report.ok:
            raise NotBasic(self.report.message)
        return self.report

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "h": self.h}
        if self.rects:
            out["rects"] = [[r.x0, r.x1, r.y0, r.y1] for r in self.rects]
        if self.discs:
            out["discs"] = [[d.cx, d.cy, d.r] for d in self.discs]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BasicDomainSpec":
        if not isinstance(data, dict):
            raise DomainError(f"a domain is a JSON object, got {type(data).__name__}")
        return cls(
            rects=data.get("rects", ()),
            discs=data.get("discs", ()),
            kind=data.get("kind", "slice"),
            h=data.get("h"),
        )

    @classmethod
    def load(cls, path) -> "BasicDomainSpec":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    def __repr__(self) -> str:
        return (
            f"BasicDomainSpec(kind={self.kind!r}, shapes={len(self.shapes)}, "
            f"h={self.h:.5g}, nodes={self.n_nodes})"
        )


def validate_domain(spec: BasicDomainSpec) -> DomainReport:
    """Check connectivity, simple connectivity and the kind flag; raise NotBasic on failure."""
    return spec.validate(strict=True)
