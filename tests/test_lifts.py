"""Continuation lifts: log, angle and inverse-mu fields over domain grids."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from starlog import domain as domain_module
from starlog import lifts as lifts_module
from starlog import logarithm as logarithm_module
from starlog.algebra import symmetrization
from starlog.domain import BasicDomainSpec
from starlog.errors import BranchPointHit, LiftStep, OutsideDomain, Vanishing
from starlog.branches import mu
from starlog.expr import (
    GridFieldExpr,
    Q,
    ScalarApply,
    const,
    eval_stem_many,
    evaluate,
    stem_complex,
)
from starlog.lifts import (
    MAX_DEPTH,
    SAFETY,
    TWO_PI,
    _log_step,
    _snap_log,
    lift_angle,
    lift_log,
    lift_mu,
)
from starlog.logarithm import log_star
from starlog.parse import parse_expr
from starlog.quaternion import Quaternion


@pytest.fixture(scope="module")
def slice_rect() -> BasicDomainSpec:
    return BasicDomainSpec(rects=[(-1.2, 1.2, 0.0, 1.0)], kind="slice")


@pytest.fixture(scope="module")
def product_rect() -> BasicDomainSpec:
    return BasicDomainSpec(rects=[(-2.0, 2.0, 0.3, 1.1)], kind="product")


@pytest.fixture(scope="module")
def product_disc() -> BasicDomainSpec:
    # radius / h integral so the centre lands on a grid node
    return BasicDomainSpec(discs=[(0.0, 1.0, 0.45)], kind="product", h=0.45 / 32)


# ---------------------------------------------------------------------------
# continuation engine


def fifo_levels(domain: BasicDomainSpec, base: int) -> list[list[tuple[int, int]]]:
    """(parent, child) edges of a FIFO breadth-first search, grouped by level.

    Each node scans its neighbours left, right, down, up.
    """
    idx = domain.node_index
    rows, cols = idx.shape
    level = {base: 0}
    out: list[list[tuple[int, int]]] = []
    queue = deque([base])
    while queue:
        n = queue.popleft()
        j, i = map(int, np.argwhere(idx == n)[0])
        for dj, di in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            jj, ii = j + dj, i + di
            if not (0 <= jj < rows and 0 <= ii < cols) or idx[jj, ii] < 0:
                continue
            m = int(idx[jj, ii])
            if m in level:
                continue
            level[m] = level[n] + 1
            if len(out) < level[m]:
                out.append([])
            out[level[m] - 1].append((n, m))
            queue.append(m)
    return out


# ---------------------------------------------------------------------------
# level-walk reference: the continuation engine the lifts ran before their
# integer labels, kept verbatim as the oracle of the label pass.  It steps
# every tree edge of a level from its parent's stored value, one level at a
# time; a mu step works on the stored G.


@dataclass(frozen=True)
class LevelWalk:
    """How a lifted coordinate follows its target along a batch of straight edges.

    ``step(v, ta, tb) -> (vb, ok)`` advances values from targets ta to tb in
    closed form, a principal log step or the nearest root of mu, and
    ``settle(v_start, v_end, t_end)`` gives the stored end values and the step
    sizes.  Failed steps are bisected by :func:`_level_bisect`.
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
            v[bad], depths = _level_bisect((za[bad], ta[bad], va[bad]), (zb[bad], tb[bad]), self)
            depth = int(depths.max())
        vb, sizes = self.settle(va, v, tb)
        return vb, depth, sizes, bad.size


def _continue(domain, base_node, base_value, t_nodes, walk: LevelWalk):
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


def _level_bisect(start, end, walk: LevelWalk):
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


def _log_settle(v_parent, v, t):
    """Snap continued values onto Log(t) + 2 pi i k; a step is its change in angle."""
    return _snap_log(v, t), np.abs(v.imag - v_parent.imag)


def _log_level_walk(u, name: str) -> LevelWalk:
    def stalled(za, zb, tb, depth):
        return LiftStep(f"{name}: step too large between {za} and {zb} at depth {depth}")

    def vanished(za, zb):
        return Vanishing(f"{name}: target vanishes near {za}..{zb}")

    return LevelWalk(u, _log_step, _log_settle, stalled, vanished)


def _mu_step_on_g(g, ta, tb):
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


def _mu_level_walk(t_fn, name: str) -> LevelWalk:
    def stalled(za, zb, tb, depth):
        if min(abs(tb - 1.0), abs(tb + 1.0)) < 1e-6:
            return BranchPointHit(f"{name}: fold value t = {tb} reached near {zb}")
        return LiftStep(f"{name}: continuation stalled between {za} and {zb}")

    return LevelWalk(t_fn, _mu_step_on_g, _mu_settle, stalled)


def mu_level_walk(t_fn, domain, seed, name="mu"):
    """The mu lift by the level walk: node values, depth, largest step, bisected edges."""
    t_nodes = np.asarray(t_fn(domain.node_z), dtype=complex)
    base = domain.nearest_node(seed)
    g0 = complex(np.arccos(t_nodes[base]) ** 2)
    return _continue(domain, base, g0, t_nodes, _mu_level_walk(t_fn, name))


@pytest.mark.parametrize(
    "domain",
    [
        BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice"),
        BasicDomainSpec(rects=[(0.5, 1.5, 0.3, 1.0)], kind="product"),
        BasicDomainSpec(discs=[(0.0, 1.0, 0.5)], kind="product"),
    ],
    ids=["slice-rect", "product-rect", "ball-disc"],
)
def test_levels_reproduce_the_fifo_tree(domain):
    for base in (domain.interior_node(), 0, domain.n_nodes - 1):
        want = fifo_levels(domain, base)
        parents, children, starts = domain.bfs_tree(base)
        got = [
            list(zip(parents[a:b].tolist(), children[a:b].tolist()))
            for a, b in zip(starts[:-1], starts[1:])
        ]
        assert got == want
        assert sum(map(len, got)) == domain.n_nodes - 1


def test_log_lift_bisects_only_where_needed(product_rect):
    K = 16.0
    assert K * product_rect.h > SAFETY  # each horizontal edge turns too far for one step
    fld = lift_log(lambda z: np.exp(1j * K * z), product_rect)
    assert fld.refinement_level >= 1
    diff = fld.values - 1j * K * product_rect.node_z
    assert np.abs(diff - diff[0]).max() <= 1e-12


# the fold-64 benchmark input of seed 1 on the radius-0.5 ball leaf disc
FOLD_SEED_1 = (
    "0.7015463661686019*(-1 + q^2*(0.3567937285917149*i + 0.5609154498714471*j"
    " - 0.7470422299529886*k) + 1.4142135623730951*q*(- 0.5122239906461238*i"
    " - 0.5512810475513543*j - 0.6585710212401098*k) + (- 0.7812328837447777*i"
    " + 0.6176269624184113*j + 0.09062072969042423*k))"
)


def _targets():
    product = BasicDomainSpec(rects=[(-2.0, 2.0, 0.3, 1.1)], kind="product")
    ball = BasicDomainSpec(discs=[(0.0, 1.0, 0.5)], kind="product", h=1.0 / 64)
    sym = symmetrization(parse_expr(FOLD_SEED_1))
    return {
        "square-across-the-cut": (lambda z: z * z, product),
        "fast-turn": (lambda z: np.exp(16j * z), product),
        # 4 radians per horizontal edge: past half a turn, the principal step
        # would land one sheet off
        "past-half-a-turn": (lambda z: np.exp(64j * z), product),
        "fold-64-sym-log": (lambda z: stem_complex(sym, z), ball),
    }


@pytest.mark.parametrize(
    "target", ["square-across-the-cut", "fast-turn", "past-half-a-turn", "fold-64-sym-log"]
)
def test_log_labels_reproduce_the_level_walk(target):
    u, domain = _targets()[target]
    fld = lift_log(u, domain)
    t_nodes = u(domain.node_z)
    base = fld.base_node
    values, depth, max_step, bisected = _continue(
        domain, base, fld.values[base], t_nodes, _log_level_walk(u, "log")
    )
    assert np.array_equal(fld.values, values)
    assert fld.refinement_level == depth
    assert fld.bisected_edges == bisected
    assert fld.max_step == pytest.approx(max_step, rel=1e-12)
    if target in ("fast-turn", "past-half-a-turn"):
        assert depth >= 1


def _level_walk_error(u, domain, name):
    t_nodes = u(domain.node_z)
    base = domain.interior_node()
    with pytest.raises(Exception) as err:
        _continue(domain, base, complex(np.log(t_nodes[base])), t_nodes, _log_level_walk(u, name))
    return err


def test_log_labels_fail_like_the_level_walk(product_rect):
    parents, children, _ = product_rect.bfs_tree(product_rect.interior_node())
    zs = product_rect.node_z
    e = parents.size // 2
    z0 = 0.5 * (zs[parents[e]] + zs[children[e]])  # the midpoint of a tree edge
    # a full third of a turn per segment at every depth down to the limit
    K = (2.0 * np.pi / 3.0) * 2**10 / product_rect.h
    cases = [
        (lambda z: z - z0, Vanishing),
        (lambda z: np.exp(1j * K * np.real(z)), LiftStep),
    ]
    for u, cls in cases:
        want = _level_walk_error(u, product_rect, "L")
        assert want.type is cls
        with pytest.raises(cls) as got:
            lift_log(u, product_rect, name="L")
        assert str(got.value) == str(want.value)


def test_bisected_edges_count_the_failed_tree_steps(product_rect, product_disc):
    fld = lift_log(lambda z: np.exp(16j * z), product_rect)
    parents, children, _ = product_rect.bfs_tree(fld.base_node)
    across = product_rect.node_y[parents] == product_rect.node_y[children]
    # every horizontal edge turns by 16 h = 1 > pi/4; vertical ones do not turn
    assert fld.as_json()["bisected_edges"] == fld.bisected_edges == int(across.sum())
    assert lift_log(lambda z: z * z + 2.0, product_rect).bisected_edges == 0
    # the mu lift counts the edges whose step from the parent's stored value
    # fails, as the level walk's stored-value step judges them
    t = lambda z: np.cos(8.0 * (z - 1j))
    fld = lift_mu(t, product_disc, seed=1j)
    parents, children, _ = product_disc.bfs_tree(fld.base_node)
    tz = t(product_disc.node_z)
    _, ok = _mu_step_on_g(fld.values[parents], tz[parents], tz[children])
    assert fld.bisected_edges == int((~ok).sum()) > 0


def test_lifts_share_one_tree_per_base_node(monkeypatch):
    builds = []
    build = domain_module._fifo_tree

    def counting(nbr, base_node):
        builds.append(base_node)
        return build(nbr, base_node)

    monkeypatch.setattr(domain_module, "_fifo_tree", counting)
    domain = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1.0 / 32)
    g = (Q * Q + const(2.0)) * const(Quaternion(0.0, 0.0, 1.0, 0.0))
    first = log_star(g, domain)
    assert first.case == "angle"
    bases = {tuple(first.diagnostics[key]["base"]) for key in ("sym_lift", "phase")}
    assert len(builds) == len(set(builds)) == len(bases)
    log_star(g, domain)
    assert len(builds) == len(bases)


# ---------------------------------------------------------------------------
# log lift


def test_log_lift_without_winding_is_principal(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect, name="L")
    expected = np.log(slice_rect.node_z ** 2 + 2.0)
    # Re z**2 + 2 >= 1 on this rectangle, so the principal branch is global
    # and node snapping reproduces it bit for bit.
    assert np.array_equal(fld.values, expected)
    assert fld.kind == "log"


def test_log_lift_is_real_on_the_real_trace(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    reals = slice_rect.real_nodes
    assert reals.size > 10
    assert np.all(fld.values[reals].imag == 0.0)


def test_log_lift_exponentiates_back(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    target = slice_rect.node_z ** 2 + 2.0
    err = np.abs(np.exp(fld.values) - target) / np.abs(target)
    assert err.max() <= 1e-13


def test_square_root_field_squares_back(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    root = ScalarApply("exp", const(0.5) * GridFieldExpr(fld))
    assert root.slice_preserving
    values = stem_complex(root, slice_rect.node_z)
    target = slice_rect.node_z ** 2 + 2.0
    err = np.abs(values ** 2 - target) / np.abs(target)
    assert err.max() <= 1e-13


def test_log_lift_crosses_the_principal_cut(product_rect):
    # z**2 sweeps across the negative real axis on this rectangle, so the
    # continuous lift cannot be the principal log of z**2 everywhere ...
    fld = lift_log(lambda z: z * z, product_rect, name="L2")
    zs = product_rect.node_z
    assert np.abs(fld.values - np.log(zs * zs)).max() > 1.0
    # ... but it must differ from twice the (upper-half continuous)
    # principal log of z by one global period.
    diff = fld.values - 2.0 * np.log(zs)
    assert np.abs(diff - diff[0]).max() <= 1e-12
    assert (diff[0] / (2j * np.pi)).real == pytest.approx(
        round((diff[0] / (2j * np.pi)).real), abs=1e-12
    )
    err = np.abs(np.exp(fld.values) - zs * zs) / np.abs(zs * zs)
    assert err.max() <= 1e-13


def test_log_lift_base_value_is_the_principal_log(slice_rect):
    # conj(z^2 + 2) is real with imaginary part -0.0 on the axis, where the base lies
    fld = lift_log(lambda z: np.conj(z * z + 2.0), slice_rect)
    base = fld.base_node
    principal = np.log(np.conj(slice_rect.node_z[base] ** 2 + 2.0))
    assert fld.values[base] == principal
    assert np.signbit(fld.values[base].imag) and np.signbit(principal.imag)


def test_log_lift_rejects_a_grid_zero(slice_rect):
    z0 = slice_rect.node_z[17]
    with pytest.raises(Vanishing):
        lift_log(lambda z: z - z0, slice_rect)


def test_log_lift_depth_limit_raises(product_rect):
    cut = 0.8 + 1e-3 * np.pi  # never a bisection midpoint

    def u(zs):
        return np.where(np.asarray(zs).real < cut, 1.0 + 0j, -1.0 + 0j)

    with pytest.raises(LiftStep):
        lift_log(u, product_rect)


# ---------------------------------------------------------------------------
# angle lift


def test_angle_lift_recovers_the_phase(product_rect):
    fld = lift_angle(lambda z: (np.cos(z), np.sin(z)), product_rect, name="phi")
    zs = product_rect.node_z
    assert np.abs(np.cos(fld.values) - np.cos(zs)).max() <= 1e-12
    assert np.abs(np.sin(fld.values) - np.sin(zs)).max() <= 1e-12
    turns = (fld.values - zs) / (2.0 * np.pi)
    k = round(turns[0].real)
    assert np.abs(turns - k).max() <= 1e-12
    assert fld.kind == "angle"


# ---------------------------------------------------------------------------
# inverse-mu lift


def test_mu_lift_tracks_the_square(product_disc):
    # G(z) = (4(z - i))**2 solves mu(G) = cos(4(z - i)) and vanishes at the seed
    fld = lift_mu(lambda z: np.cos(4.0 * (z - 1j)), product_disc, seed=1j, name="G")
    g_true = (4.0 * (product_disc.node_z - 1j)) ** 2
    assert np.abs(fld.values - g_true).max() <= 1e-11
    base = fld.base_node
    assert abs(fld.values[base]) <= 1e-12
    assert np.abs(g_true).max() > 0.8 ** 2  # G leaves |psi| < 0.8


def test_mu_lift_solves_mu_of_g(product_disc):
    fld = lift_mu(lambda z: np.cos(4.0 * (z - 1j)), product_disc, seed=1j)
    res = np.abs(mu(fld.values) - np.cos(4.0 * (product_disc.node_z - 1j)))
    assert res.max() <= 1e-13


def test_mu_lift_prescan_rejects_the_fold(product_disc):
    with pytest.raises(BranchPointHit):
        lift_mu(lambda z: np.full(np.shape(z), -1.0 + 0j), product_disc, seed=1j)


def test_mu_lift_reports_fold_values_reached_while_walking(product_rect):
    cut = 0.8 + 1e-3 * np.pi

    def t(zs):
        zs = np.asarray(zs)
        return np.where(zs.real < cut, np.cos(0.3) + 0j, -1.0 + 1e-7 + 0j)

    with pytest.raises(BranchPointHit):
        lift_mu(t, product_rect, seed=0.4 + 0.4j)


def test_mu_lift_depth_limit_raises(product_rect):
    cut = 0.8 + 1e-3 * np.pi

    def t(zs):
        zs = np.asarray(zs)
        return np.where(zs.real < cut, np.cos(0.3) + 0j, np.cos(2.5) + 0j)

    with pytest.raises(LiftStep):
        lift_mu(t, product_rect, seed=0.4 + 0.4j)


def sheet_walk(z):
    # psi = 1.7 (z + 2) runs from Re psi = 0 to 6.8 over x in [-2, 2], so
    # t = cos(psi) crosses the slit (-inf, -1] of arccos at Re psi = pi and
    # [1, inf) at Re psi = 2 pi, from strip 0 to strip 2
    return 1.7 * (np.asarray(z) + 2.0)


def test_mu_lift_crosses_both_slits_of_arccos(product_rect):
    fld = lift_mu(lambda z: np.cos(sheet_walk(z)), product_rect, seed=-2.0 + 0.3j)
    # G = psi**2 for both psi = +-1.7 (z + 2)
    g_true = sheet_walk(product_rect.node_z) ** 2
    assert np.abs(fld.values - g_true).max() <= 1e-14 * np.abs(g_true).max()


@pytest.mark.parametrize(
    "y0, seed",
    [
        (0.02, -2.0 + 0.5j),
        (0.01, -2.0 + 0.5j),
        (0.02, -2.0 + 0.02j),
        pytest.param(
            0.01,
            -2.0 + 0.01j,
            marks=pytest.mark.xfail(
                strict=True,
                reason="a bottom-row edge passes psi = pi at a sixth of its length and "
                "lands on the wrong root, with the rival more than twice as far; "
                "the mu-lift closure check of ROADMAP item 1(b) should catch it",
            ),
        ),
    ],
    ids=["y0=0.02", "y0=0.01", "y0=0.02-corner-seed", "y0=0.01-corner-seed"],
)
def test_mu_lift_keeps_its_root_where_two_roots_nearly_meet(y0, seed):
    # at Re psi = 2 pi, y = y0 the target comes within 6e-4 (y0 = 0.02) and
    # 1.5e-4 (y0 = 0.01) of the fold value +1, where the roots 2 pi +- arccos t
    # nearly meet; steps there must not jump between them.  Seeded at the
    # lower left corner, the bottom row is reached along its horizontal
    # edges, which pass 0.034 from psi = pi and 2 pi at a step of 0.106 in
    # psi; on the edge across Re psi = pi the wrong root 2 pi - psi_b is
    # nearer than psi_b, but not twice as near, so the edge is bisected
    dom = BasicDomainSpec(rects=[(-2.0, 2.0, y0, 1.1)], kind="product")
    assert np.abs(np.cos(sheet_walk(dom.node_z)) - 1.0).min() < 1.5 * y0 ** 2
    fld = lift_mu(lambda z: np.cos(sheet_walk(z)), dom, seed=seed)
    g_true = sheet_walk(dom.node_z) ** 2
    assert np.abs(fld.values - g_true).max() <= 1e-14 * np.abs(g_true).max()


def _fold_seed_1_target(monkeypatch):
    """The fold lift's target and seed in log_star of the fold-64 seed-1 input."""
    caught = []

    def spy(t_fn, domain, seed, name="mu"):
        caught.append((t_fn, domain, seed))
        return lift_mu(t_fn, domain, seed, name=name)

    monkeypatch.setattr(logarithm_module, "lift_mu", spy)
    ball = BasicDomainSpec(discs=[(0.0, 1.0, 0.5)], kind="product", h=1.0 / 64)
    assert log_star(parse_expr(FOLD_SEED_1), ball).case == "fold"
    return caught[0]


def _mu_targets(monkeypatch):
    disc = BasicDomainSpec(discs=[(0.0, 1.0, 0.45)], kind="product", h=0.45 / 32)
    rect = BasicDomainSpec(rects=[(-2.0, 2.0, 0.3, 1.1)], kind="product")

    def near_fold(y0, seed):
        dom = BasicDomainSpec(rects=[(-2.0, 2.0, y0, 1.1)], kind="product")
        return lambda z: np.cos(sheet_walk(z)), dom, seed

    return {
        "cos-4": lambda: (lambda z: np.cos(4.0 * (z - 1j)), disc, 1j),
        "cos-8": lambda: (lambda z: np.cos(8.0 * (z - 1j)), disc, 1j),
        "both-slits": lambda: (lambda z: np.cos(sheet_walk(z)), rect, -2.0 + 0.3j),
        "y0=0.02": lambda: near_fold(0.02, -2.0 + 0.5j),
        "y0=0.01": lambda: near_fold(0.01, -2.0 + 0.5j),
        "y0=0.02-corner-seed": lambda: near_fold(0.02, -2.0 + 0.02j),
        "fold-64-seed-1": lambda: _fold_seed_1_target(monkeypatch),
    }


@pytest.mark.parametrize(
    "target",
    ["cos-4", "cos-8", "both-slits", "y0=0.02", "y0=0.01", "y0=0.02-corner-seed", "fold-64-seed-1"],
)
def test_mu_labels_reproduce_the_level_walk(target, monkeypatch):
    t_fn, domain, seed = _mu_targets(monkeypatch)[target]()
    fld = lift_mu(t_fn, domain, seed)
    values, depth, max_step, bisected = mu_level_walk(t_fn, domain, seed)
    # the labels make the walk's root choices, and a root formed from its
    # label is the walk's root bit for bit
    assert fld.values.tobytes() == values.tobytes()
    assert fld.refinement_level == depth
    assert fld.bisected_edges == bisected
    assert fld.max_step == max_step


def test_mu_labels_fail_like_the_level_walk(product_rect):
    # the targets of the depth-limit and fold-value tests above
    cut = 0.8 + 1e-3 * np.pi  # never a bisection midpoint

    def jump(far):
        return lambda z: np.where(np.asarray(z).real < cut, np.cos(0.3) + 0j, far + 0j)

    seed = 0.4 + 0.4j
    for t_fn, cls in [(jump(np.cos(2.5)), LiftStep), (jump(-1.0 + 1e-7), BranchPointHit)]:
        with pytest.raises(Exception) as want:
            mu_level_walk(t_fn, product_rect, seed, name="G")
        assert want.type is cls
        with pytest.raises(cls) as got:
            lift_mu(t_fn, product_rect, seed, name="G")
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# sampling


def test_sample_is_exact_at_nodes(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    got = fld.sample(slice_rect.node_z)
    assert np.array_equal(got, fld.values)


def test_node_queries_read_the_stored_values(slice_rect, monkeypatch):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    want = fld.values.copy()

    def refuse(*args):
        raise AssertionError("a node query located its points")

    monkeypatch.setattr(lifts_module, "_lattice_node", refuse)
    # the node array, an equal copy, and the reflected copy a program run hands in
    for got in (
        fld.sample(slice_rect.node_z),
        fld.sample(slice_rect.node_z.copy()),
        eval_stem_many(GridFieldExpr(fld), slice_rect.node_z)[:, 0],
    ):
        assert got.tobytes() == want.tobytes()
        got[:] = 0.0
        assert fld.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e20, 1e300])
def test_sample_refuses_points_it_cannot_locate(slice_rect, bad):
    # refused before their lattice ids are cast, with no RuntimeWarning
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    for z in (complex(bad, 0.5), complex(0.1, bad), complex(bad, bad)):
        with pytest.raises(OutsideDomain):
            fld.sample([0.1 + 0.5j, z])
        with pytest.raises(OutsideDomain):
            eval_stem_many(GridFieldExpr(fld), [0.1 + 0.5j, z])


def off_lattice(domain: BasicDomainSpec, probes) -> np.ndarray:
    # shift each probe off the lattice by an irrational cell fraction
    return np.asarray(probes) + (0.31 + 0.43j) * domain.h


def rel_err(got, want) -> float:
    return float((np.abs(got - want) / np.abs(want)).max())


def test_sample_is_exact_off_nodes(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    probes = [0.1 + 0.41j, -0.62 + 0.5j, 0.31 + 0.23j, 0.77 + 0.66j, -1.0 + 0.37j]
    probes = off_lattice(slice_rect, probes)
    assert rel_err(fld.sample(probes), np.log(probes ** 2 + 2.0)) <= 1e-12


def test_sample_is_exact_at_the_rim(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    h = slice_rect.h
    z = (1.2 - 0.3 * h) + 1j * (0.5 + 0.3 * h)
    assert rel_err(fld.sample([z]), np.log(z ** 2 + 2.0)) <= 1e-12


def test_sample_keeps_the_sheet_of_the_lift(product_rect):
    # the lift of z**2 leaves the principal sheet on this rectangle; off-node
    # values stay on the sheet of their nearest node
    fld = lift_log(lambda z: z * z, product_rect)
    offset = fld.values[0] - 2.0 * np.log(product_rect.node_z[0])
    probes = off_lattice(product_rect, [-1.7 + 0.35j, -0.2 + 0.9j, 0.6 + 0.5j, 1.9 + 1.05j])
    assert rel_err(fld.sample(probes), 2.0 * np.log(probes) + offset) <= 1e-12


def test_angle_sample_is_exact_off_nodes(product_rect):
    fld = lift_angle(lambda z: (np.cos(z), np.sin(z)), product_rect)
    turn = fld.values[0] - product_rect.node_z[0]
    probes = off_lattice(product_rect, [-1.9 + 0.31j, -0.3 + 0.7j, 1.2 + 1.05j, 1.97 + 0.5j])
    assert rel_err(fld.sample(probes), probes + turn) <= 1e-12


def test_mu_sample_solves_mu_off_nodes(product_disc):
    def t(z):
        return np.cos(4.0 * (z - 1j))

    fld = lift_mu(t, product_disc, seed=1j)
    h = product_disc.h
    rim = 1j + (0.45 - 0.2 * h) * np.exp(0.7j)  # 0.2 h inside the rim of the disc
    probes = np.append(off_lattice(product_disc, [0.1 + 0.9j, -0.25 + 1.3j, 0.3 + 0.7j]), rim)
    assert np.all(product_disc.contains_z(probes))
    got = fld.sample(probes)
    assert rel_err(mu(got), t(probes)) <= 1e-12
    # and on the branch of the lift: G = (4 (z - i))**2
    assert rel_err(got, (4.0 * (probes - 1j)) ** 2) <= 1e-12


@pytest.mark.parametrize(
    "radius",
    [
        0.38,
        pytest.param(
            0.45,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the fold points z = i +- pi/8 of t = -1 lie in the disc, between "
                "nodes; near them the nearest root leaves G = (8(z - i))**2 on 194 of "
                "3,209 coarse and 726 of 12,853 fine nodes, each grid its own way, and no "
                "error is raised (the mu-lift defect of ROADMAP item 1(b))",
            ),
        ),
    ],
    ids=["fold-free", "folds-inside"],
)
def test_mu_sample_matches_the_lift_on_a_halved_grid(radius):
    # the fine nodes off the coarse lattice continue one edge from their
    # nearest coarse node; the fine lift reaches them along its own tree
    def t(z):
        return np.cos(8.0 * (z - 1j))

    coarse, fine = (
        BasicDomainSpec(discs=[(0.0, 1.0, radius)], kind="product", h=radius / cells)
        for cells in (32, 64)
    )
    coarse_fld = lift_mu(t, coarse, seed=1j)
    fine_fld = lift_mu(t, fine, seed=1j)
    got = coarse_fld.sample(fine.node_z)
    assert np.abs(got - fine_fld.values).max() <= 1e-12 * np.abs(fine_fld.values).max()


def test_sample_reflects_to_the_lower_half(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    z = 0.4 + 0.6j
    assert fld.sample([np.conj(z)])[0] == np.conj(fld.sample([z])[0])


def test_sample_refuses_points_outside(slice_rect, product_disc):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    with pytest.raises(OutsideDomain):
        fld.sample([2.0 + 0.5j])
    disc_fld = lift_mu(lambda z: np.cos(4.0 * (z - 1j)), product_disc, seed=1j)
    with pytest.raises(OutsideDomain):
        disc_fld.sample([-0.42 + 0.57j])  # inside the bounding box, outside the disc


def test_sample_refuses_points_no_node_resolves():
    # the disc holds no grid node and lies far from every node of the rectangle
    dom = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], discs=[(3.02, 0.52, 1e-3)], h=0.05)
    dom.validate()
    fld = lift_log(lambda z: z * z + 2.0, dom)
    with pytest.raises(OutsideDomain, match="no grid node"):
        fld.sample([3.02 + 0.52j])


def test_sample_refuses_a_zero_of_the_target(product_rect):
    z0 = 0.0123 + 0.7071j  # between nodes
    fld = lift_log(lambda z: z - z0, product_rect)
    with pytest.raises(Vanishing):
        fld.sample([z0])


def test_field_report_is_json_friendly(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    report = fld.as_json()
    assert report["kind"] == "log"
    assert report["nodes"] == slice_rect.n_nodes
    assert len(report["base"]) == 2


def test_grid_field_plugs_into_expressions(slice_rect):
    fld = lift_log(lambda z: z * z + 2.0, slice_rect)
    expr = GridFieldExpr(fld)
    node = slice_rect.node_z[slice_rect.n_nodes // 2]
    val = evaluate(expr, Quaternion(node.real, 0.0, node.imag, 0.0))
    want = np.log(node ** 2 + 2.0)
    assert val.w == pytest.approx(want.real, abs=1e-13)
    assert val.y == pytest.approx(want.imag, abs=1e-13)
    assert val.x == val.z == 0.0
