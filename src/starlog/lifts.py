"""Continuation of multivalued scalar data over domain grids.

Lifted fields store one complex value per grid node, exact there by
construction: log lifts store Log(u) + 2 pi i k for an integer sheet label k,
and mu lifts store the nearest closed-form root (+-arccos t + 2 pi n)**2, so
verification at nodes sees no continuation drift.  Between nodes a field
continues one more edge, from the nearest node to the point, with the same
step as the grid lift, so off-node values are exact too.

All lifts follow the breadth-first tree of the grid graph from a base node,
which the domain builds once and keeps.  A log lift (an angle lift is one)
takes a principal log step along every tree edge at once and turns each into
an integer change of sheet label; the labels are summed from the base, level
by level.  The mu lift walks the tree one level at a time: all (parent,
child) edges of a level step to the nearest root of mu in one batch.  In both,
only the edges whose step fails, because it turns by more than the safety
angle pi/4 or another root of mu lies nearly as close, are bisected, with the
target evaluated at their midpoints in one batched call per round, up to a
depth limit.
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
# (row, column) lattice offsets searched for the nearest node of an off-node point
_WINDOW = np.mgrid[-2:3, -2:3].reshape(2, -1)


@dataclass(frozen=True)
class Walk:
    """How a lifted coordinate follows its target along a batch of straight edges.

    ``step(v, ta, tb) -> (vb, ok)`` advances values from targets ta to tb in
    closed form, a principal log step or the nearest root of mu, and
    ``settle(v_start, v_end, t_end)`` gives the stored end values and the step
    sizes.  Failed steps are bisected by :func:`_bisect`.
    """

    target: Callable
    step: Callable
    settle: Callable
    stalled: Callable
    vanished: Callable | None = None

    def advance(self, za, ta, va, zb, tb):
        """End values of edges from za to zb, the deepest bisection, the step
        sizes and the number of edges bisected."""
        v, ok = self.step(va, ta, tb)
        depth = 0
        bad = np.flatnonzero(~ok)
        if bad.size:
            v[bad], depths = _bisect((za[bad], ta[bad], va[bad]), (zb[bad], tb[bad]), self)
            depth = int(depths.max())
        vb, sizes = self.settle(va, v, tb)
        return vb, depth, sizes, bad.size


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

        A query equal to ``domain.node_z`` (that array, or a copy such as the
        points a program run hands to a ``GridFieldExpr``) returns a copy of
        the stored values without locating the points.  Elsewhere a point
        within a snap tolerance of a node reads that node's value, and any
        other continues one edge from its nearest node.  A point that is not
        finite or lies farther from the lattice than any grid spans raises
        :class:`OutsideDomain`.
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
        turn = -1j if self.kind == "angle" else 1.0  # an angle is -i times its log lift
        return turn * walk.advance(zn, tn, self.values[node] / turn, z, t)[0]

    def as_json(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "nodes": int(self.values.size),
            "base": [
                float(self.domain.node_x[self.base_node]),
                float(self.domain.node_y[self.base_node]),
            ],
            "refinement_level": int(self.refinement_level),
            "max_step": float(self.max_step),
            "bisected_edges": int(self.bisected_edges),
        }


def _lattice_node(domain: BasicDomainSpec, ix, iy) -> np.ndarray:
    """Node ids at lattice positions (ix, iy), -1 where there is no node."""
    ny, nx = domain.node_index.shape
    inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    return np.where(inside, domain.node_index[np.clip(iy, 0, ny - 1), np.clip(ix, 0, nx - 1)], -1)


def _continue(domain, base_node, base_value, t_nodes, walk: Walk):
    """Continue a lifted coordinate over the grid, one breadth-first level at a time.

    Returns the node values, the deepest bisection, the largest step and the
    number of edges bisected.
    """
    parents, children, starts = domain.bfs_tree(base_node)
    values = np.full(domain.n_nodes, np.nan, dtype=complex)
    values[base_node] = base_value
    zs = domain.node_z
    max_depth = bisected = 0
    max_step = 0.0
    starts = starts.tolist()
    for a, b in zip(starts[:-1], starts[1:]):
        par, ch = parents[a:b], children[a:b]
        values[ch], depth, sizes, n_bad = walk.advance(
            zs[par], t_nodes[par], values[par], zs[ch], t_nodes[ch]
        )
        max_depth = max(max_depth, depth)
        max_step = max(max_step, float(sizes.max()))
        bisected += n_bad
    return values, max_depth, max_step, bisected


def _bisect(start, end, walk: Walk):
    """Walk the edges whose direct step failed through adaptive midpoints.

    ``start`` holds the (z, t, value) arrays at the edge starts and ``end``
    the (z, t) arrays at their ends.  An edge halves its current segment until
    the step from its current point succeeds, then heads for the next
    pending endpoint, as the recursion walk(a, b) = walk(a, m), walk(m, b)
    would; its depth only grows along the walk.  An edge still failing at
    MAX_DEPTH raises ``walk.stalled(za, zb, tb, depth)``; when ``walk.vanished``
    is given, a midpoint where the target is zero or not finite raises
    ``walk.vanished(za, zm)``.  The edges advance in lock step with one target
    call per round, and when several fail, the first in order raises, as a
    walk over one edge after another would.  Returns the values and depths.
    """
    z, t, v = (a.copy() for a in start)
    n = z.size
    stack_z = np.empty((n, MAX_DEPTH + 1), dtype=complex)  # pending endpoints
    stack_t = np.empty_like(stack_z)
    stack_z[:, 0], stack_t[:, 0] = end
    top = np.zeros(n, dtype=int)
    depth = np.zeros(n, dtype=int)
    errors: dict[int, Exception] = {}
    failing = np.arange(n)  # edges whose last step failed
    pending = failing[:0]  # edges that stepped and have endpoints left
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


def lift_log(
    u,
    domain: BasicDomainSpec,
    base_node: int | None = None,
    base_value: complex | None = None,
    name: str = "log",
) -> LiftedScalarField:
    """Continuous logarithm of a nonvanishing scalar function over the grid.

    ``u`` maps complex arrays to complex arrays.  The base value defaults to
    the principal logarithm at a real-axis node (slice domains) or an interior
    node (product domains).

    Node values are Log u + 2 pi i k.  Each edge of the domain's breadth-first
    tree changes the sheet label k by an integer: the principal step from its
    parent where that turns by less than the safety angle, else the walk of
    :func:`_bisect` from Log u at the parent.  The failing edges are bisected
    as one batch in breadth-first order, so the first to fail raises, as in a
    level-by-level walk.  The labels are then summed from the base, level by
    level, in exact integer arithmetic.
    """
    t_nodes = np.asarray(u(domain.node_z), dtype=complex)
    if not np.all(np.isfinite(t_nodes)) or np.min(np.abs(t_nodes)) < 1e-300:
        raise Vanishing(f"{name}: target vanishes or is not finite on the grid")

    if base_node is None:
        reals = domain.real_nodes
        base_node = int(reals[reals.size // 2]) if reals.size else domain.interior_node()
    if base_value is None:
        base_value = complex(np.log(t_nodes[base_node]))
    else:
        base_value = complex(_snap_log(complex(base_value), t_nodes[base_node]))

    walk = _log_walk(u, name)
    log_t = np.log(t_nodes)
    arg = log_t.imag
    parents, children, starts = domain.bfs_tree(base_node)
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
    steps = _sheet_step(reached, arg[children])
    k = np.full(domain.n_nodes, _sheet_step(base_value.imag, arg[base_node]))
    changed = np.flatnonzero(steps)
    if changed.size:  # down to the first level with a change of sheet, k is the base's
        starts = starts[np.searchsorted(starts, changed[0], side="right") - 1 :].tolist()
        for a, b in zip(starts[:-1], starts[1:]):
            k[children[a:b]] = k[parents[a:b]] + steps[a:b]
    values = _on_sheet(log_t, k)
    values[base_node] = base_value  # as given, down to the sign of a zero part
    max_step = float(np.abs(turn).max()) if turn.size else 0.0
    return LiftedScalarField(
        domain, values, "log", base_node, max_depth, max_step, bad.size, name, walk
    )


def _log_walk(u, name: str) -> Walk:
    """The log walk of target u, which off-node samples and bisection follow."""

    def stalled(za, zb, tb, depth):
        return LiftStep(f"{name}: step too large between {za} and {zb} at depth {depth}")

    def vanished(za, zb):
        return Vanishing(f"{name}: target vanishes near {za}..{zb}")

    return Walk(u, _log_step, _log_settle, stalled, vanished)


def _turn(ta, tb):
    """The principal angle Arg(tb / ta) turned by a log step from ta to tb.

    ``np.angle`` skips the log of the modulus that ``np.log`` works out, so it
    is many times faster, and it agrees with ``np.log(tb / ta).imag`` to an
    ulp.  A log step needs no real part: each continued value is snapped onto
    Log t, which only reads its imaginary part.
    """
    return np.angle(tb / ta)


def _log_step(v, ta, tb):
    """Principal steps i Arg(tb / ta) of the angle, accepted below the safety angle."""
    turn = _turn(ta, tb)
    return v + 1j * turn, np.abs(turn) < SAFETY


def _log_settle(v_parent, v, t):
    """Snap continued values onto Log(t) + 2 pi i k; a step is its change in angle."""
    return _snap_log(v, t), np.abs(v.imag - v_parent.imag)


def _snap_log(v, t):
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


def lift_angle(
    uv,
    domain: BasicDomainSpec,
    base_node: int | None = None,
    base_value: complex | None = None,
    name: str = "angle",
) -> LiftedScalarField:
    """Continuous angle phi with (cos, sin)(phi) = (u, v) over the grid.

    The circle embeds in the punctured plane through w = u + iv, so the angle
    is -i times a continuous logarithm of w.
    """

    def w(zs):
        u_vals, v_vals = uv(zs)
        return np.asarray(u_vals, dtype=complex) + 1j * np.asarray(v_vals, dtype=complex)

    log_base = None if base_value is None else 1j * complex(base_value)
    fld = lift_log(w, domain, base_node=base_node, base_value=log_base, name=name)
    return replace(fld, values=-1j * fld.values, kind="angle")


# ---------------------------------------------------------------------------
# mu lift (branch-free inverse of mu along the grid)


_BP_TOL = 1e-9


def lift_mu(
    t_fn,
    domain: BasicDomainSpec,
    seed: complex,
    name: str = "mu",
) -> LiftedScalarField:
    """Continuous G with mu(G) = t over the grid and G(seed) in the principal patch.

    The seed must be a point where t is close to 1 (G close to 0); its value
    is (arccos t)**2.  Each step moves to the nearest closed-form root
    (+-arccos t + 2 pi n)**2.  Branch points of the inverse are the fold
    values t = -1 (always) and t = +1 away from the seed sphere; hitting
    either aborts with BranchPointHit.
    """
    t_nodes = np.asarray(t_fn(domain.node_z), dtype=complex)
    near_minus = np.abs(t_nodes + 1.0) <= _BP_TOL
    if near_minus.any():
        z_bad = domain.node_z[near_minus][0]
        raise BranchPointHit(f"{name}: t attains -1 near {z_bad}")

    base_node = domain.nearest_node(seed)
    g0 = complex(np.arccos(t_nodes[base_node]) ** 2)

    def stalled(za, zb, tb, depth):
        if min(abs(tb - 1.0), abs(tb + 1.0)) < 1e-6:
            return BranchPointHit(f"{name}: fold value t = {tb} reached near {zb}")
        return LiftStep(f"{name}: continuation stalled between {za} and {zb}")

    walk = Walk(t_fn, _mu_step, _mu_settle, stalled)
    values, *work = _continue(domain, base_node, g0, t_nodes, walk)
    return LiftedScalarField(domain, values, "mu", base_node, *work, name, walk)


def _mu_step(g, ta, tb):
    """Steps from g to the nearest root of mu(G) = tb, and where they are safe.

    The roots are G = psi**2 for psi in +-arccos tb + 2 pi Z, and mu(G) =
    cos(psi).  For each sign the root psi nearest sqrt(g) is a candidate; the
    step takes the nearer one.  It is safe when it moves psi by less than the
    safety angle and the other candidate lies more than twice as far, unless
    that one is its negative, which gives the same G.
    """
    psi = np.sqrt(g)
    alpha = np.arccos(tb)
    cand = np.stack([alpha, -alpha])
    cand += TWO_PI * np.rint((psi - cand).real / TWO_PI)
    dist = np.abs(cand - psi)
    order = np.argsort(dist, axis=0, kind="stable")
    near, other = np.take_along_axis(cand, order, axis=0)
    d_near, d_other = np.take_along_axis(dist, order, axis=0)
    ok = (d_near < SAFETY) & ((d_other > 2.0 * d_near) | (other == -near))
    return near * near, ok


def _mu_settle(g_parent, g, t):
    return g, np.abs(np.sqrt(g) - np.sqrt(g_parent))
