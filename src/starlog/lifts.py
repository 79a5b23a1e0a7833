"""Continuation of multivalued scalar data over domain grids.

Lifted fields store one complex value per grid node, exact there by
construction: log lifts snap to Log(u) + 2 pi i k and mu lifts end on a
Newton-polished root, so verification at nodes sees no continuation drift.
Between nodes the fields interpolate bicubically and refuse to extrapolate.

One continuation engine serves the log, angle and mu lifts.  It walks the
breadth-first tree of the grid graph level by level: all (parent, child)
edges of a level advance the lifted coordinate in one batched step (a
principal log step, or a Newton step towards a root of mu).  Only the edges
whose step fails, because it turns by more than the safety angle pi/4 or
Newton does not settle, are bisected, with the target evaluated at their
midpoints in one batched call per round, up to a depth limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BasicDomainSpec
from .errors import BranchPointHit, LiftStep, OutsideDomain, Vanishing
from .branches import mu, nu

SAFETY = math.pi / 4
MAX_DEPTH = 10
TWO_PI = 2.0 * math.pi
_NODE_SNAP = 1e-7  # fraction of h


@dataclass
class LiftedScalarField:
    """A scalar field over a domain grid, exact at nodes."""

    domain: BasicDomainSpec
    values: np.ndarray
    kind: str  # "log" | "angle" | "mu" | "derived"
    base_node: int
    refinement_level: int
    max_step: float
    name: str = "field"

    def sample(self, zs) -> np.ndarray:
        """Values at arbitrary leaf points; node queries are exact."""
        flat = np.asarray(zs, dtype=complex).ravel()
        lower = flat.imag < 0
        pts = np.where(lower, np.conj(flat), flat)
        d = self.domain
        fx = (pts.real - d.xs[0]) / d.h
        fy = (pts.imag - d.ys[0]) / d.h
        ix = np.rint(fx).astype(int)
        iy = np.rint(fy).astype(int)
        on_node = (np.abs(fx - ix) < _NODE_SNAP) & (np.abs(fy - iy) < _NODE_SNAP)
        on_node &= (ix >= 0) & (ix < d.xs.size) & (iy >= 0) & (iy < d.ys.size)
        ixc = np.clip(ix, 0, d.xs.size - 1)
        iyc = np.clip(iy, 0, d.ys.size - 1)
        node_ids = np.where(on_node, d.node_index[iyc, ixc], -1)
        hit = node_ids >= 0
        out = np.empty(pts.shape, dtype=complex)
        out[hit] = self.values[node_ids[hit]]
        for i in np.nonzero(~hit)[0]:
            out[i] = self._interp(pts[i].real, pts[i].imag)
        out = np.where(lower, np.conj(out), out)
        return out.reshape(np.shape(zs))

    def _interp(self, x: float, y: float) -> complex:
        d = self.domain
        gx = (x - d.xs[0]) / d.h
        gy = (y - d.ys[0]) / d.h
        i0 = int(math.floor(gx))
        j0 = int(math.floor(gy))
        tx = gx - i0
        ty = gy - j0
        val = self._window(i0 - 1, j0 - 1, 4, _cubic_weights(tx), _cubic_weights(ty))
        if val is not None:
            return val
        val = self._window(i0, j0, 2, np.array([1 - tx, tx]), np.array([1 - ty, ty]))
        if val is not None:
            return val
        raise OutsideDomain(
            f"point {x + 1j * y} has no complete interpolation stencil in {self.name}"
        )

    def _window(self, i0: int, j0: int, size: int, wx, wy):
        d = self.domain
        if i0 < 0 or j0 < 0 or i0 + size > d.xs.size or j0 + size > d.ys.size:
            return None
        idx = d.node_index[j0 : j0 + size, i0 : i0 + size]
        if (idx < 0).any():
            return None
        return complex(wy @ self.values[idx] @ wx)

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
        }


def _cubic_weights(t: float) -> np.ndarray:
    """Lagrange weights for uniform nodes at -1, 0, 1, 2."""
    return np.array(
        [
            -t * (t - 1.0) * (t - 2.0) / 6.0,
            (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
            -t * (t + 1.0) * (t - 2.0) / 2.0,
            t * (t + 1.0) * (t - 1.0) / 6.0,
        ]
    )


def grid_neighbours(domain: BasicDomainSpec) -> np.ndarray:
    """Neighbour table of the grid graph: one row per node, -1 where absent.

    Columns hold the left, right, down and up neighbours, in that order.
    """
    idx = np.pad(domain.node_index, 1, constant_values=-1)
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


def bfs_levels(domain: BasicDomainSpec, base_node: int):
    """Yield (parents, children) for each level of the breadth-first tree from base_node.

    The tree is the one a FIFO queue builds when each parent scans its
    neighbours left, right, down, up: children come in the order the queue
    discovers them, and each belongs to the first parent that reaches it.
    """
    nbr = grid_neighbours(domain)
    seen = np.zeros(domain.n_nodes, dtype=bool)
    seen[base_node] = True
    frontier = np.array([base_node])
    while frontier.size:
        cand = nbr[frontier].ravel()
        parents = np.repeat(frontier, 4)
        keep = cand >= 0
        keep[keep] = ~seen[cand[keep]]
        cand, parents = cand[keep], parents[keep]
        _, first = np.unique(cand, return_index=True)
        first.sort()
        frontier = cand[first]
        seen[frontier] = True
        if frontier.size:
            yield parents[first], frontier
    if not seen.all():
        raise LiftStep("grid graph is not connected; domain validation should have caught this")


def _continue(domain, base_node, base_value, t_nodes, target, step, settle, stalled, vanished=None):
    """Continue a lifted coordinate over the grid, one breadth-first level at a time.

    ``step(v, ta, tb) -> (vb, ok)`` advances values from targets ta to tb on a
    batch of edges, and ``settle(v_parent, v_child, t_child)`` gives the
    stored child values and the step sizes.  Edges whose step fails are
    bisected by :func:`_bisect`, with ``target`` evaluated at their midpoints.
    Returns the node values, the deepest bisection and the largest step.
    """
    values = np.full(domain.n_nodes, np.nan, dtype=complex)
    values[base_node] = base_value
    zs = domain.node_z
    max_depth = 0
    max_step = 0.0
    for par, ch in bfs_levels(domain, base_node):
        v_par = values[par]
        v, ok = step(v_par, t_nodes[par], t_nodes[ch])
        if not ok.all():
            bad = np.nonzero(~ok)[0]
            p, c = par[bad], ch[bad]
            v[bad], depth = _bisect(
                (zs[p], t_nodes[p], v_par[bad]),
                (zs[c], t_nodes[c]),
                target,
                step,
                stalled,
                vanished,
            )
            max_depth = max(max_depth, int(depth.max()))
        values[ch], sizes = settle(v_par, v, t_nodes[ch])
        max_step = max(max_step, float(sizes.max()))
    return values, max_depth, max_step


def _bisect(start, end, target, step, stalled, vanished):
    """Walk the edges whose direct step failed through adaptive midpoints.

    ``start`` holds the (z, t, value) arrays at the parents and ``end`` the
    (z, t) arrays at the children.  An edge halves its current segment until
    the step from its current point succeeds, then heads for the next
    pending endpoint, as the recursion walk(a, b) = walk(a, m), walk(m, b)
    would; its depth only grows along the walk.  An edge still failing at
    MAX_DEPTH raises ``stalled(za, zb, tb, depth)``; when ``vanished`` is
    given, a midpoint where the target is zero or not finite raises
    ``vanished(za, zm)``.  The edges advance in lock step with one target
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
            errors[e] = stalled(z[e], stack_z[e, top[e]], stack_t[e, top[e]], depth[e])
        split = failing[~deep]
        if split.size:
            zm = 0.5 * (z[split] + stack_z[split, top[split]])
            tm = np.asarray(target(zm), dtype=complex)
            top[split] += 1
            depth[split] += 1
            stack_z[split, top[split]] = zm
            stack_t[split, top[split]] = tm
            if vanished is not None:
                bad = (tm == 0) | ~np.isfinite(tm)
                for e, zm_e in zip(split[bad], zm[bad]):
                    errors[e] = vanished(z[e], zm_e)
                split = split[~bad]
        active = np.concatenate([split, pending])
        t_next = stack_t[active, top[active]]
        vb, ok = step(v[active], t[active], t_next)
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

    def stalled(za, zb, tb, depth):
        return LiftStep(f"{name}: step too large between {za} and {zb} at depth {depth}")

    def vanished(za, zb):
        return Vanishing(f"{name}: target vanishes near {za}..{zb}")

    values, max_depth, max_step = _continue(
        domain, base_node, base_value, t_nodes, u, _log_step, _log_settle, stalled, vanished
    )
    return LiftedScalarField(domain, values, "log", base_node, max_depth, max_step, name)


def _log_step(v, ta, tb):
    """Principal steps Log(tb / ta), accepted below the safety angle."""
    delta = np.log(tb / ta)
    return v + delta, np.abs(delta.imag) < SAFETY


def _log_settle(v_parent, v, t):
    """Snap continued values onto Log(t) + 2 pi i k; a step is its change in angle."""
    return _snap_log(v, t), np.abs(v.imag - v_parent.imag)


def _snap_log(v, t):
    principal = np.log(t)
    k = np.rint((v.imag - principal.imag) / TWO_PI) + 0.0  # + 0.0 turns -0.0 into 0.0
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
    return LiftedScalarField(
        domain,
        -1j * fld.values,
        "angle",
        fld.base_node,
        fld.refinement_level,
        fld.max_step,
        name,
    )


# ---------------------------------------------------------------------------
# mu lift (branch-free inverse of mu along the grid)


PSI_CHART = 0.8
_BP_TOL = 1e-9


def lift_mu(
    t_fn,
    domain: BasicDomainSpec,
    seed: complex,
    name: str = "mu",
) -> LiftedScalarField:
    """Continuous G with mu(G) = t over the grid and G(seed) in the principal patch.

    The seed must be a point where t is close to 1 (G close to 0).  Branch
    points of the inverse are the fold values t = -1 (always) and t = +1 away
    from the seed sphere; hitting either aborts with BranchPointHit.
    """
    t_nodes = np.asarray(t_fn(domain.node_z), dtype=complex)
    near_minus = np.abs(t_nodes + 1.0) <= _BP_TOL
    if near_minus.any():
        z_bad = domain.node_z[near_minus][0]
        raise BranchPointHit(f"{name}: t attains -1 near {z_bad}")

    base_node = domain.nearest_node(seed)
    t0 = t_nodes[base_node : base_node + 1]
    g0, ok = _polish_G(np.arccos(t0) ** 2, t0)
    if not ok[0]:
        raise BranchPointHit(f"{name}: cannot seed the principal patch at {seed}")

    def stalled(za, zb, tb, depth):
        if min(abs(tb - 1.0), abs(tb + 1.0)) < 1e-6:
            return BranchPointHit(f"{name}: fold value t = {tb} reached near {zb}")
        return LiftStep(f"{name}: continuation stalled between {za} and {zb}")

    values, max_depth, max_step = _continue(
        domain, base_node, g0[0], t_nodes, t_fn, _mu_step, _mu_settle, stalled
    )
    return LiftedScalarField(domain, values, "mu", base_node, max_depth, max_step, name)


def _mu_step(g1, t1, t2):
    """Steps from g1 to the nearby roots of mu(G) = t2, and where they succeed.

    Near G = 0 Newton runs in the G chart and may move G by at most 1.
    Elsewhere it runs for psi = sqrt(G), where mu(G) = cos(psi), and may turn
    psi by less than the safety angle.
    """
    psi1 = np.sqrt(g1)
    near = np.abs(psi1) < PSI_CHART
    far = ~near
    g2 = np.empty_like(g1)
    ok = np.empty(g1.shape, dtype=bool)
    g, conv = _polish_G(g1[near], t2[near])
    g2[near] = g
    ok[near] = conv & (np.abs(g - g1[near]) <= 1.0)
    psi, conv = _newton(psi1[far], t2[far], np.sin, np.cos, 1.0)
    g2[far] = psi * psi
    ok[far] = conv & (np.abs(psi - psi1[far]) < SAFETY)
    return g2, ok


def _mu_settle(g_parent, g, t):
    return g, np.abs(np.sqrt(g) - np.sqrt(g_parent))


def _polish_G(g, t):
    """Newton iterations for mu(G) = t in the G chart, and where they converged."""
    return _newton(g, t, nu, mu, 2.0)


def _newton(x, t, d_fn, f_fn, scale):
    """Newton for f(x) = t with f' = -d / scale, each element on its own.

    An element converges once its step is at most 1e-14 (1 + |x|); it fails
    when |d(x)| < 1e-12 or after 40 iterations.  Returns x and the
    converged mask.
    """
    x = x.copy()
    ok = np.zeros(x.shape, dtype=bool)
    live = np.arange(x.size)
    for _ in range(40):
        if not live.size:
            break
        d = d_fn(x[live])
        regular = ~(np.abs(d) < 1e-12)
        live, d = live[regular], d[regular]
        if not live.size:
            break
        xl = x[live]
        step = scale * (f_fn(xl) - t[live]) / d
        xl = xl + step
        x[live] = xl
        done = np.abs(step) <= 1e-14 * (1.0 + np.abs(xl))
        ok[live[done]] = True
        live = live[~done]
    return x, ok


# ---------------------------------------------------------------------------
# derived fields


def derived_field(base: LiftedScalarField, values: np.ndarray, name: str) -> LiftedScalarField:
    """A field sharing the grid of ``base`` with transformed node values."""
    return LiftedScalarField(
        base.domain,
        np.asarray(values, dtype=complex),
        "derived",
        base.base_node,
        base.refinement_level,
        base.max_step,
        name,
    )
