"""Continuation of multivalued scalar data over domain grids.

Lifted fields store one complex value per grid node, exact there by
construction: log lifts store Log(u) + 2 pi i k for an integer sheet label k,
and mu lifts store the root (s arccos t + 2 pi n)**2 for an integer label
(s, n).  Between nodes a field continues one more edge, from the nearest
node's stored value, with the same step as the grid lift.

All lifts follow the breadth-first tree of the grid graph from a base node,
which the domain keeps.  One batched step along every tree edge, from the
principal value at its parent, gives the edge an element x -> s x + 2 pi n of
the infinite dihedral group: a log step (an angle lift is a log lift) changes
the sheet, s = 1, and a mu step takes the root nearest arccos t at the parent.
Only the steps that turn by more than the safety angle pi/4, or find another
root of mu nearly as close, are bisected, with one batched target call per
round, up to a depth limit.  One level loop composes the elements from the
base in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .domain import MAX_NODES, BasicDomainSpec
from .errors import BranchPointHit, LiftStep, OutsideDomain, Vanishing

SAFETY = math.pi / 4
MAX_DEPTH = 10
TWO_PI = 2.0 * math.pi
_NODE_SNAP = 1e-7  # fraction of h
_BP_TOL = 1e-9
# (row, column) lattice offsets searched for the nearest node of an off-node point
_WINDOW = np.mgrid[-2:3, -2:3].reshape(2, -1)


@dataclass(frozen=True)
class Walk:
    """How a lifted coordinate follows its target along a batch of straight edges:
    ``step(v, ta, tb) -> (vb, ok)`` moves values from targets ta to tb, by a
    principal log step or to the root psi of mu nearest psi (G = psi**2)."""

    target: Callable
    step: Callable
    stalled: Callable
    vanished: Callable | None = None


@dataclass
class LiftedScalarField:
    """A scalar field over a domain grid, exact at nodes and between them."""

    domain: BasicDomainSpec
    values: np.ndarray
    kind: str  # "log" | "angle" | "mu"
    base_node: int
    refinement_level: int
    max_step: float
    bisected_edges: int  # tree edges whose direct step failed
    name: str
    walk: Walk

    def sample(self, zs) -> np.ndarray:
        """Values at arbitrary leaf points; node queries read the stored values.

        A query equal to ``domain.node_z`` (or a copy, such as the points a
        program run hands to a ``GridFieldExpr``) returns a copy of the stored
        values.  Elsewhere a point within a snap tolerance of a node reads its
        value, and any other continues one edge from its nearest node.  A
        point not finite or farther from the lattice than any grid spans
        raises :class:`OutsideDomain`.
        """
        flat = np.asarray(zs, dtype=complex).ravel()
        d = self.domain
        if d.at_nodes(flat):
            return self.values.copy().reshape(np.shape(zs))
        lower = flat.imag < 0
        pts = np.where(lower, np.conj(flat), flat)
        fx = (pts.real - d.xs[0]) / d.h
        fy = (pts.imag - d.ys[0]) / d.h
        near = (np.abs(fx) <= MAX_NODES) & (np.abs(fy) <= MAX_NODES)  # False at NaN
        if not near.all():  # before the cast to lattice ids, which they overflow
            raise OutsideDomain(f"point {pts[~near][0]} lies outside the domain of {self.name}")
        ix = np.rint(fx).astype(int)
        iy = np.rint(fy).astype(int)
        on_node = (np.abs(fx - ix) < _NODE_SNAP) & (np.abs(fy - iy) < _NODE_SNAP)
        node_ids = np.where(on_node, _lattice_node(d, ix, iy), -1)
        hit = node_ids >= 0
        out = np.empty(pts.shape, dtype=complex)
        out[hit] = self.values[node_ids[hit]]
        if not hit.all():
            out[~hit] = self._off_node(pts[~hit], ix[~hit], iy[~hit])
        out = np.where(lower, np.conj(out), out)
        return out.reshape(np.shape(zs))

    def _off_node(self, z, ix, iy) -> np.ndarray:
        """Continue one edge from the nearest node of each point to the point."""
        d = self.domain
        inside = d.contains_z(z)
        if not inside.all():
            raise OutsideDomain(f"point {z[~inside][0]} lies outside the domain of {self.name}")
        dy, dx = _WINDOW
        cand = _lattice_node(d, ix[:, None] + dx, iy[:, None] + dy)
        dist = np.where(cand >= 0, np.abs(d.node_z[cand] - z[:, None]), np.inf)
        node = cand[np.arange(z.size), dist.argmin(axis=1)]
        if (node < 0).any():
            raise OutsideDomain(f"point {z[node < 0][0]} has no grid node of {self.name} nearby")
        zn, walk = d.node_z[node], self.walk
        tn, t = np.split(np.asarray(walk.target(np.concatenate([zn, z])), dtype=complex), 2)
        bad = (t == 0) | ~np.isfinite(t)
        if walk.vanished is not None and bad.any():
            raise walk.vanished(zn[bad][0], z[bad][0])
        if self.kind == "mu":  # either root of the stored G: the step is odd in psi
            psi, _ = _bisect((zn, tn, np.sqrt(self.values[node])), (z, t), walk)
            return psi * psi
        turn = -1j if self.kind == "angle" else 1.0  # an angle is -i times its log lift
        v, _ = _bisect((zn, tn, self.values[node] / turn), (z, t), walk)
        return turn * _snap_log(v, t)

    def as_json(self) -> dict:
        d, b = self.domain, self.base_node
        return {
            "kind": self.kind,
            "name": self.name,
            "nodes": int(self.values.size),
            "base": [float(d.node_x[b]), float(d.node_y[b])],
            "refinement_level": int(self.refinement_level),
            "max_step": float(self.max_step),
            "bisected_edges": int(self.bisected_edges),
        }


def _lattice_node(domain: BasicDomainSpec, ix, iy) -> np.ndarray:
    """Node ids at lattice positions (ix, iy), -1 where there is no node."""
    ny, nx = domain.node_index.shape
    inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    return np.where(inside, domain.node_index[np.clip(iy, 0, ny - 1), np.clip(ix, 0, nx - 1)], -1)


def _compose(tree, n, n_step, s=None, s_step=None):
    """Compose the elements of the tree edges into node labels, in place.

    A label (s, n) is the map x -> s x + 2 pi n; a child's is its parent's
    composed with its edge's element, (s_a, n_a) o (s_e, n_e) = (s_a s_e, n_a
    + s_a n_e), in int64, level by level.  A sheet label is the s = 1 case,
    ``s=None``, where elements add.  The levels above the first edge that is
    not the identity must hold the base label on entry.
    """
    parents, children, starts = tree
    moved = n_step != 0 if s is None else (n_step != 0) | (s_step != 1)
    first = np.flatnonzero(moved)
    if not first.size:
        return
    starts = starts[np.searchsorted(starts, first[0], side="right") - 1 :].tolist()
    for a, b in zip(starts[:-1], starts[1:]):
        par, ch = parents[a:b], children[a:b]
        if s is None:
            n[ch] = n[par] + n_step[a:b]
        else:
            s_par = s[par]
            n[ch] = n[par] + s_par * n_step[a:b]
            s[ch] = s_par * s_step[a:b]


def _bisect(start, end, walk: Walk):
    """Step along each edge, and walk the edges whose step fails through midpoints.

    ``start`` holds the (z, t, value) arrays at the edge starts and ``end``
    the (z, t) arrays at their ends.  A failing edge halves its segment until
    the step from its current point succeeds, then heads for the next pending
    endpoint, as the recursion walk(a, b) = walk(a, m), walk(m, b) would.  At
    MAX_DEPTH it raises ``walk.stalled(za, zb, tb, depth)``, and at a midpoint
    where the target is zero or not finite ``walk.vanished(za, zm)``, if given.
    The edges advance in lock step, one target call per round; when several
    fail, the first in order raises.  Returns the values and the depths, 0
    where the first step succeeded.
    """
    z, t, v = (a.copy() for a in start)
    n = z.size
    stack_z = np.empty((n, MAX_DEPTH + 1), dtype=complex)  # pending endpoints
    stack_t = np.empty_like(stack_z)
    stack_z[:, 0], stack_t[:, 0] = end
    top = np.zeros(n, dtype=int)
    depth = np.zeros(n, dtype=int)
    errors: dict[int, Exception] = {}
    pending = np.arange(n)  # edges that have endpoints left
    failing = pending[:0]  # edges whose last step failed
    while failing.size or pending.size:
        deep = depth[failing] >= MAX_DEPTH
        for e in failing[deep]:
            errors[e] = walk.stalled(z[e], stack_z[e, top[e]], stack_t[e, top[e]], depth[e])
        split = failing[~deep]
        if split.size:
            zm = 0.5 * (z[split] + stack_z[split, top[split]])
            tm = np.asarray(walk.target(zm), dtype=complex)
            top[split] += 1
            depth[split] += 1
            stack_z[split, top[split]] = zm
            stack_t[split, top[split]] = tm
            if walk.vanished is not None:
                bad = (tm == 0) | ~np.isfinite(tm)
                for e, zm_e in zip(split[bad], zm[bad]):
                    errors[e] = walk.vanished(z[e], zm_e)
                split = split[~bad]
        active = np.concatenate([split, pending])
        t_next = stack_t[active, top[active]]
        vb, ok = walk.step(v[active], t[active], t_next)
        moved = active[ok]
        z[moved] = stack_z[moved, top[moved]]
        t[moved] = t_next[ok]
        v[moved] = vb[ok]
        top[moved] -= 1
        failing = active[~ok]
        pending = moved[top[moved] >= 0]
    if errors:
        raise errors[min(errors)]
    return v, depth


# ---------------------------------------------------------------------------
# logarithm lift


def lift_log(u, domain: BasicDomainSpec, name: str = "log") -> LiftedScalarField:
    """Continuous logarithm of a nonvanishing scalar function over the grid.

    ``u`` maps complex arrays to complex arrays.  The base value is the
    principal logarithm at a real-axis node (slice domains) or an interior
    node (product domains).

    Node values are Log u + 2 pi i k.  Each edge of the domain's breadth-first
    tree changes the sheet label k by an integer: the principal step from its
    parent where that turns by less than the safety angle, else the walk of
    :func:`_bisect` from Log u at the parent, one batch in breadth-first
    order.  :func:`_compose` then sums the labels from the base.
    """
    t_nodes = np.asarray(u(domain.node_z), dtype=complex)
    if not np.all(np.isfinite(t_nodes)) or np.min(np.abs(t_nodes)) < 1e-300:
        raise Vanishing(f"{name}: target vanishes or is not finite on the grid")

    reals = domain.real_nodes
    base_node = int(reals[reals.size // 2]) if reals.size else domain.interior_node()

    def stalled(za, zb, tb, depth):
        return LiftStep(f"{name}: step too large between {za} and {zb} at depth {depth}")

    def vanished(za, zb):
        return Vanishing(f"{name}: target vanishes near {za}..{zb}")

    walk = Walk(u, _log_step, stalled, vanished)
    log_t = np.log(t_nodes)
    arg = log_t.imag
    tree = parents, children, _ = domain.bfs_tree(base_node)
    turn = _turn(t_nodes[parents], t_nodes[children])
    reached = arg[parents] + turn
    max_depth = 0
    bad = np.flatnonzero(np.abs(turn) >= SAFETY)  # the steps _log_step refuses
    if bad.size:
        par, ch = parents[bad], children[bad]
        zs = domain.node_z
        v, depths = _bisect((zs[par], t_nodes[par], log_t[par]), (zs[ch], t_nodes[ch]), walk)
        reached[bad] = v.imag
        turn[bad] = v.imag - arg[par]
        max_depth = int(depths.max())
    k = np.zeros(domain.n_nodes, dtype=np.int64)
    _compose(tree, k, _sheet_step(reached, arg[children]))
    values = _on_sheet(log_t, k)
    values[base_node] = log_t[base_node]  # principal, down to the sign of a zero part
    max_step = float(np.abs(turn).max()) if turn.size else 0.0
    return LiftedScalarField(
        domain, values, "log", base_node, max_depth, max_step, bad.size, name, walk
    )


def _turn(ta, tb):
    """The principal angle Arg(tb / ta) turned by a log step from ta to tb:
    ``np.angle`` is many times faster than ``np.log(tb / ta).imag``, to an ulp,
    and a step needs no real part, as its snap onto Log t reads only the angle."""
    return np.angle(tb / ta)


def _log_step(v, ta, tb):
    """Principal steps i Arg(tb / ta) of the angle, accepted below the safety angle."""
    turn = _turn(ta, tb)
    return v + 1j * turn, np.abs(turn) < SAFETY


def _snap_log(v, t):
    """Snap continued values v onto Log(t) + 2 pi i k."""
    principal = np.log(t)
    return _on_sheet(principal, _sheet_step(v.imag, principal.imag))


def _sheet_step(reached, arg):
    """Sheets between an angle reached by continuation and the principal angle
    Arg t at its end: the integer rint((reached - Arg t) / 2 pi)."""
    return np.rint((reached - arg) / TWO_PI).astype(np.int64)


def _on_sheet(principal, k):
    """Log t + 2 pi i k from the principal log and an integer sheet label."""
    return principal + 1j * (TWO_PI * k)


# ---------------------------------------------------------------------------
# angle lift through the circle u^2 + v^2 = 1


def lift_angle(uv, domain: BasicDomainSpec, name: str = "angle") -> LiftedScalarField:
    """Continuous angle phi with (cos, sin)(phi) = (u, v) over the grid.

    The circle embeds in the punctured plane through w = u + iv, so the angle
    is -i times a continuous logarithm of w.
    """

    def w(zs):
        u_vals, v_vals = uv(zs)
        return np.asarray(u_vals, dtype=complex) + 1j * np.asarray(v_vals, dtype=complex)

    fld = lift_log(w, domain, name=name)
    return replace(fld, values=-1j * fld.values, kind="angle")


# ---------------------------------------------------------------------------
# mu lift (branch-free inverse of mu along the grid)


def lift_mu(t_fn, domain: BasicDomainSpec, seed: complex, name: str = "mu") -> LiftedScalarField:
    """Continuous G with mu(G) = t over the grid and G(seed) in the principal patch.

    The seed must be a point where t is close to 1 (G close to 0); its value
    is (arccos t)**2.  Node values are G = psi**2 for the root psi = s alpha +
    2 pi n of cos psi = t, alpha = arccos t principal; a tree edge's element
    labels the root at its child nearest alpha at its parent.  Branch points
    of the inverse are the fold values t = -1 (always) and t = +1 away from
    the seed sphere; hitting either aborts with BranchPointHit.

    A mirrored step, whose other root is the negative of the nearer one, is
    safe only near G = 0, so seen from alpha only under a parent with n = 0.
    Under any other parent, the edges not safe from alpha are stepped again
    from the parent's root, and bisected where that fails, level by level.
    """
    t_nodes = np.asarray(t_fn(domain.node_z), dtype=complex)
    if (near_minus := np.abs(t_nodes + 1.0) <= _BP_TOL).any():
        raise BranchPointHit(f"{name}: t attains -1 near {domain.node_z[near_minus][0]}")

    base_node = domain.nearest_node(seed)

    def stalled(za, zb, tb, depth):
        if min(abs(tb - 1.0), abs(tb + 1.0)) < 1e-6:
            return BranchPointHit(f"{name}: fold value t = {tb} reached near {zb}")
        return LiftStep(f"{name}: continuation stalled between {za} and {zb}")

    walk = Walk(t_fn, _mu_step, stalled)
    zs, alpha = domain.node_z, np.arccos(t_nodes)
    tree = parents, children, starts = domain.bfs_tree(base_node)
    _, s_step, n_step, safe, mirrored = _mu_root(alpha[parents], alpha[children])
    depth = np.zeros(parents.size, dtype=int)
    s, n = np.ones(domain.n_nodes, dtype=np.int64), np.zeros(domain.n_nodes, dtype=np.int64)
    frame = ~safe  # the edges whose step depends on the parent's label
    edges = np.flatnonzero(~(safe | mirrored))  # stepped from alpha: the base label
    while True:
        par, ch = parents[edges], children[edges]
        psi = _mu_value(s[par], n[par], alpha[par])
        psi, depth[edges] = _bisect((zs[par], t_nodes[par], psi), (zs[ch], t_nodes[ch]), walk)
        _, s_end, n_end, _, _ = _mu_root(psi, alpha[ch])
        s_step[edges] = s[par] * s_end  # the parent's inverse, then the root reached
        n_step[edges] = s[par] * (n_end - n[par])
        _compose(tree, n, n_step, s, s_step)
        # an edge that moves a label lies above any under a parent with n != 0,
        # so _compose remakes the shallowest level of those and all below it
        edges = np.flatnonzero(frame & (n[parents] != 0))
        if not edges.size:
            break
        edges = edges[edges < starts[np.searchsorted(starts, edges[0], side="right")]]
        frame[edges] = False
    psi = _mu_value(s, n, alpha)
    values = psi * psi
    values[base_node] = complex(alpha[base_node] ** 2)
    root = np.sqrt(values)
    max_step = float(np.abs(root[children] - root[parents]).max()) if parents.size else 0.0
    work = int(depth.max(initial=0)), max_step, int(np.count_nonzero(depth))
    return LiftedScalarField(domain, values, "mu", base_node, *work, name, walk)


def _mu_value(s, n, alpha):
    """The root s alpha + 2 pi n, formed as the step forms it."""
    return np.where(s > 0, alpha, -alpha) + TWO_PI * n


def _mu_root(psi, alpha):
    """The root of cos = cos alpha nearest psi, its label (s, n) and its safety.

    For each sign s the root s alpha + 2 pi n nearest psi is a candidate; the
    nearer one is taken.  The step to it is close when it moves psi by less
    than the safety angle, safe when it is close and the other candidate lies
    more than twice as far, and mirrored when it is close and the other
    candidate is its negative.
    """
    cand = np.stack([alpha, -alpha])
    turns = np.rint((psi - cand).real / TWO_PI)
    cand += TWO_PI * turns
    dist = np.abs(cand - psi)
    swap = dist[1] < dist[0]  # a tie takes +alpha, as a stable sort would
    near, other = np.where(swap, cand[::-1], cand)
    d_near, d_other = np.where(swap, dist[::-1], dist)
    close = d_near < SAFETY
    s = np.where(swap, -1, 1).astype(np.int64)
    n = np.where(swap, turns[1], turns[0]).astype(np.int64)
    return near, s, n, close & (d_other > 2.0 * d_near), close & (other == -near)


def _mu_step(psi, ta, tb):
    """Steps from psi to the nearest root of cos psi_b = tb, and where they are
    safe; mu(G) = cos psi for G = psi**2, and a mirrored step keeps G."""
    near, _, _, safe, mirrored = _mu_root(psi, np.arccos(tb))
    return near, safe | mirrored
