"""Star logarithms of slice functions on basic domains.

The entry point is :func:`log_star`.  It classifies the vectorial part of the
input, picks one of four cases and returns a :class:`LogResult` whose
expression ``f`` satisfies ``exp_star(f) = g`` up to a verified residual:

* ``scalar``       -- g is slice preserving; f is a lifted scalar logarithm.
* ``null-vector``  -- g_v != 0 with vanishing symmetrization; f picks up the
  nilpotent quotient g_v / g_0.
* ``angle``        -- g_v^s has no zeros that obstruct a square root; f is
  built from a phase lift along the circle u^2 + v^2 = 1.
* ``fold``         -- g_v^s has isolated or odd-order zeros; f needs the
  two-sheeted inverse of mu continued around its fold.

The scalar and null-vector cases share one route, since g_v^s = 0 in both.

Each call pins g to the grid nodes by :func:`expr.node_stem`, which
evaluates its stem G there once: the node checks read G, and so does every
tree built from the pinned g when it is evaluated at the nodes.  A g not
finite at a node is a DomainError.  The trees that a call reads at the
nodes more than once (g_v^s, the factor quotient, the unit w and the class
ratio rho of g_v = rho w) are pinned where they are built, and so is the
result f, so that the residual and the class check read one stem of f.
Pinned stems are read in place (:func:`expr._stem_at`), and the residual
takes the least |g| over the slices that the node check computed.

Branches are indexed by a pair of integers (m, n): m counts scalar half-turns
exp(i pi m) and n counts vectorial half-turns around a spherical unit.
:func:`log_star` checks (m, n) and a supplied representative against
``_BRANCH_RULES`` before any route runs, and adds the m pi I term itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import scalar_part, symmetrization, vect_part
from .branches import mu, nu
from .domain import BasicDomainSpec
from .errors import (
    BranchPointHit,
    ClassificationError,
    ConditionFailed,
    DomainError,
    LiftStep,
    NoConvergence,
    NoGlobalLogWitness,
    ResidualRejected,
    Vanishing,
)
from .expr import (
    UNIT,
    GridFieldExpr,
    NodeStem,
    ScalarApply,
    SliceExpr,
    _leaf_at,
    _stem_at,
    const,
    eval_stem_many,
    node_stem,
    slice_range,
    sup_parts,
)
from .lifts import lift_angle, lift_log, lift_mu
from .quaternion import qsym
from .starexp import exp_star
from .vectorial import (
    VectorialClassReport,
    classify_vectorial,
    factor_minimal,
    linearly_dependent,
    normalize,
)

# residual acceptance threshold for exp_star(f) against g, relative scale
RESIDUAL_ACCEPT = 1e-8
# relative floor below which g counts as vanishing on the grid
VANISH_REL = 1e-10
# node agreement required of the angle lift against its circle data
LIFT_VALIDITY_TOL = 1e-10
# proximity to the slit (-inf, -1] or to a fold value that counts as a hit
_SLIT_TOL = 1e-9
# class representative checks: scalar part and symmetrization defect
_UNIT_TOL = 1e-9
# a fold value this far from every known zero sphere means a missed zero
_STRAY_FOLD_CELLS = 3.0

# the case of each class kind, "fold" for discrete zeros; a supplied rep makes "scalar" "angle"
_CASES = {"zero": "scalar", "no-zeros": "angle", "null-symmetrization": "null-vector"}
# per case: why a supplied representative is refused, and the condition and
# message that refuse n != 0; None where the case admits it
_BRANCH_RULES = {
    "scalar": (None, ("representative", "a vectorial branch index needs a class representative")),
    "null-vector": (
        "this class has no spherical period to turn",
        ("periods", "this class carries no vectorial periods"),
    ),
    "angle": (None, None),
    "fold": (
        "no continuous representative crosses an isolated zero",
        ("periods", "isolated zeros leave no vectorial period freedom"),
    ),
}
# why the angle case refuses an odd m + n, by domain kind (m = 0 on slices)
_PARITY = {
    "slice": "slice domains only admit even vectorial indices",
    "product": "m + n must be even when a spherical period is present",
}


@dataclass(frozen=True)
class BranchSpec:
    """Branch indices (m, n): scalar and vectorial half-turn counts."""

    m: int = 0
    n: int = 0

    def __post_init__(self):
        try:
            m, n = int(self.m), int(self.n)
        except (TypeError, ValueError, OverflowError):  # None, text, nan, inf
            m = n = None
        if m is None or m != self.m or n != self.n:
            raise ConditionFailed(
                "periods", f"branch indices must be integers, got ({self.m!r}, {self.n!r})"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n}


@dataclass
class ConditionSummary:
    """Outcome of the pointwise existence checks on a domain grid.

    Flags are ``None`` when the check does not apply to the domain kind
    (the trace conditions are vacuous on product domains).
    """

    min_abs: float
    scale: float
    cond_positive_trace: bool | None
    cond_root_trace: bool | None
    cond_slit_avoided: bool
    slit_margin: float
    details: dict

    def to_json(self) -> dict:
        return {
            "min_abs": self.min_abs,
            "scale": self.scale,
            "positive_trace": self.cond_positive_trace,
            "root_trace": self.cond_root_trace,
            "slit_avoided": self.cond_slit_avoided,
            "slit_margin": self.slit_margin,
            "details": self.details,
        }


@dataclass
class LogResult:
    """A verified star logarithm f of g on a basic domain."""

    f: SliceExpr
    case: str  # "scalar" | "null-vector" | "angle" | "fold"
    branch: BranchSpec
    residual: float
    classification: VectorialClassReport
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "branch": self.branch.to_json(),
            "residual": self.residual,
            "classification": self.classification.to_json(),
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# grid sampling helpers


def _node_stem(g: SliceExpr, domain: BasicDomainSpec):
    """Pin g to the grid nodes and check it there.

    Returns (g pinned, G, least, min |g|, max |g|): the stem at the nodes,
    the least |g| over every slice at each node (:func:`expr.slice_range`),
    which the residual reads, and the range of |g| over the nodes and every
    slice.  Raises DomainError where g, g^s or |g| is not finite at a node,
    and Vanishing where |g| on some slice comes near zero.
    """
    g = node_stem(g, domain)
    G = g.stem
    least, most = slice_range(G)
    # per row |g^s| <= |A|^2 + |B|^2 <= max |g|^2, so a finite max |g| bounds g^s
    bad = ~(np.isfinite(G).all(axis=1) & np.isfinite(most))
    if bad.any():
        raise DomainError(
            f"g, |g| or g^s is not finite at {int(bad.sum())} of {bad.size} grid nodes"
        )
    lo, hi = float(least.min()), float(most.max())
    # |g^s| = lo * hi row by row, so this also refuses a g^s near zero
    if lo < VANISH_REL * (1.0 + hi):
        raise Vanishing(
            f"|g| reaches {lo:.3e} on some slice at the grid nodes (scale {hi:.3e})"
        )
    return g, G, least, lo, hi


def _check_unit(w: NodeStem) -> None:
    """A class representative, pinned to the nodes, must square to -1: scalar
    part 0, w^s = 1, all finite."""
    W = w.stem
    with np.errstate(over="ignore", invalid="ignore"):  # a value not finite fails below
        defect = float(np.abs(qsym(W) - 1.0).max())  # the arithmetic of Symm
    scal = sup_parts(W[:, 0])
    if not (scal <= _UNIT_TOL and defect <= _UNIT_TOL):
        raise ConditionFailed(
            "representative",
            f"not a unit vectorial representative (scalar {scal:.2e}, "
            f"symmetrization defect {defect:.2e})",
        )


def _slit_ok(t_nodes: np.ndarray, domain: BasicDomainSpec) -> tuple[bool, float]:
    """Whether the image of t avoids the slit (-inf, -1], and its margin.

    Nodes are tested directly; grid edges are tested for sign changes of the
    imaginary part whose interpolated crossing lands on the slit.
    """
    re, im = t_nodes.real, t_nodes.imag
    dist = np.where(re <= -1.0, np.abs(im), np.hypot(re + 1.0, im))
    margin = float(dist.min())
    if margin <= _SLIT_TOL:
        return False, margin
    nbr = domain.neighbours
    n1 = np.repeat(np.arange(domain.n_nodes), 2)
    n2 = nbr[:, [1, 3]].ravel()  # right and up: each edge once
    n1, n2 = n1[n2 >= 0], n2[n2 >= 0]
    cross = im[n1] * im[n2] < 0.0
    n1, n2 = n1[cross], n2[cross]
    frac = -im[n1] / (im[n2] - im[n1])
    x_cross = re[n1] + frac * (re[n2] - re[n1])
    if (x_cross <= -1.0 + _SLIT_TOL).any():
        return False, 0.0
    return True, margin


def _positive_trace(G: np.ndarray, domain: BasicDomainSpec) -> tuple[bool | None, dict]:
    """Values of g (stem G at the nodes) on the real trace are real and positive."""
    if domain.kind != "slice":
        return None, {}
    reals = domain.real_nodes
    if reals.size == 0:
        return None, {}
    C = G[reals]
    off_axis = max(float(np.abs(C.real[:, 1:]).max()), float(np.abs(C.imag).max()))
    scale = 1.0 + float(np.abs(C.real).max())
    real_ok = off_axis <= 1e-9 * scale
    vals = C.real[:, 0]
    ok = bool(real_ok and vals.min() > 0.0)
    return ok, {"trace_min": float(vals.min()), "trace_off_axis": off_axis}


def check_conditions(g: SliceExpr, domain: BasicDomainSpec) -> ConditionSummary:
    """Evaluate the pointwise existence conditions for a star logarithm.

    Checks that g is finite at the grid nodes and vanishes there on no slice,
    by the least |g| over every slice (raising DomainError or Vanishing
    otherwise); ``min_abs`` and ``scale`` are the least and the greatest |g|
    over the nodes and every slice.  It also checks that the real-trace
    values of g are positive, that the symmetrization admits a
    trace-positive square root, and that the phase data g_0 / sqrt(g^s)
    stays off the slit (-inf, -1].
    The phase is slice preserving, so every slice sees the same distance to
    the slit; the grid test covers all of them.
    """
    g, G, _, lo, hi = _node_stem(g, domain)
    cond1, details = _positive_trace(G, domain)
    realimage: bool | None = None
    if domain.kind == "slice":
        reals = domain.real_nodes
        if reals.size:
            tr = qsym(G[reals])  # the arithmetic of Symm
            realimage = bool(
                np.abs(tr.imag).max() <= 1e-9 * (1.0 + np.abs(tr).max())
                and tr.real.min() > 0.0
            )
            details["sym_trace_min"] = float(tr.real.min())

    _, h = _sym_log(g, domain)
    t_nodes = G[:, 0] / h(domain.node_z)
    counterex, margin = _slit_ok(t_nodes, domain)
    details["phase_nodes"] = int(t_nodes.size)
    details["units_checked"] = 0  # no unit is sampled: the |g| range covers every slice
    return ConditionSummary(lo, hi, cond1, realimage, counterex, margin, details)


# ---------------------------------------------------------------------------
# construction routes


def _sym_log(g: SliceExpr, domain: BasicDomainSpec):
    """The continuous logarithm L of g^s over the grid, and zs -> exp(L / 2)."""
    sym_lift = lift_log(partial(_leaf_at, symmetrization(g)), domain, name="sym-log")
    return sym_lift, lambda zs: np.exp(0.5 * sym_lift.sample(zs))


def _check_branch(case: str, domain: BasicDomainSpec, branch: BranchSpec, rep) -> None:
    """Refuse a branch (m, n) or a representative that the case or the domain
    does not admit."""
    rep_refusal, n_refusal = _BRANCH_RULES[case]
    if rep is not None and rep_refusal:
        raise ConditionFailed("representative", rep_refusal)
    if branch.n and n_refusal:
        raise ConditionFailed(*n_refusal)
    if domain.kind == "slice" and branch.m:
        raise ConditionFailed("periods", "slice domains only admit m = 0")
    if case == "angle" and (branch.m + branch.n) % 2:
        raise ConditionFailed("parity", _PARITY[domain.kind])


def _scalar_route(g, G, domain, branch, nilpotent: bool):
    """g_v^s = 0: f lifts Log((-1)^m g_0).  A nilpotent g_v != 0
    exponentiates linearly through 1 + V, so f adds g_v / g_0."""
    ok, diag = _positive_trace(G, domain)
    if ok is False:
        raise ConditionFailed("cond1", "g must be positive on the real trace of a slice domain")
    if nilpotent:
        lo = float(np.abs(G[:, 0]).min())
        if lo < VANISH_REL * (1.0 + float(np.abs(G[:, 0]).max())):
            raise Vanishing(f"the scalar part reaches {lo:.3e}; its square is g^s")
    g0 = scalar_part(g)
    sign = -1.0 if branch.m % 2 else 1.0
    fld = lift_log(lambda zs: sign * _leaf_at(g0, zs), domain, name="log")
    diag["lift"] = fld.as_json()
    f: SliceExpr = GridFieldExpr(fld)
    if nilpotent:
        diag["min_scalar"] = lo
        f = f + vect_part(g) * ScalarApply("recip", g0)
    return f, diag


def _angle_route(g, domain, branch, report, rep):
    """No obstructing zeros: f_v = (phi + n pi) w with phi a circle lift.

    The unit w is pinned to the nodes, and so is the class ratio rho of
    g_v = rho w, read off the star product: w * w = -w^s = -1, so -(g_v *
    w)_0 = rho w^s = rho.  A scalar g (g_v = 0) keeps rho = +0: -(0 * w)_0
    is -0.0, and Log(-1 - 0i) = -i pi would move the phase base by 2 pi.
    """
    gv = vect_part(g)
    diag: dict = {}
    w = None if rep is None else node_stem(rep, domain)
    rho = const(0.0)
    if report.kind != "zero":
        coeffs, w_tilde = factor_minimal(gv, report, domain)
        diag["factor_degree"] = len(coeffs) - 1
        # with no factor, w_tilde = g_v, whose symmetrization the report pinned
        ws = report.sym if w_tilde is gv else None
        w_norm, _sigma = normalize(w_tilde, domain, ws)  # certifies w^s = 1
        if w is None:
            w = w_norm
        elif not linearly_dependent(w, w_norm, domain):
            raise ConditionFailed(
                "representative",
                "the given representative is not in the class of g",
            )
        rho = node_stem(-scalar_part(gv * w), domain)
    if rep is not None:
        _check_unit(w)

    sym_lift, h = _sym_log(g, domain)
    F0 = partial(_leaf_at, scalar_part(g))

    def uv(zs):
        hz = h(zs)
        return F0(zs) / hz, _leaf_at(rho, zs) / hz

    phase = lift_angle(uv, domain, name="phase")
    u_nodes, v_nodes = uv(domain.node_z)
    # relative to the circle data, which grow as g^s = g_0^2 + g_v^s cancels
    cos_err = np.abs(np.cos(phase.values) - u_nodes)
    sin_err = np.abs(np.sin(phase.values) - v_nodes)
    size = 1.0 + np.abs(u_nodes) + np.abs(v_nodes)
    validity = float((np.maximum(cos_err, sin_err) / size).max())
    diag["lift_validity"] = validity
    diag["phase"] = phase.as_json()
    diag["sym_lift"] = sym_lift.as_json()
    if validity > LIFT_VALIDITY_TOL:
        raise ResidualRejected(validity, LIFT_VALIDITY_TOL)

    f: SliceExpr = const(0.5) * GridFieldExpr(sym_lift) + (
        GridFieldExpr(phase) + const(branch.n * math.pi)
    ) * w
    return f, diag


def _fold_route(g, domain, report):
    """Zeros of g_v^s force the inverse of mu through its fold at t = 1.

    The sign s_h of the square root of g^s is pinned by the first zero sphere
    on product domains and by trace positivity on slice domains; a zero that
    then demands the opposite fold is a genuine branch point and aborts.  s_h
    is reported as ``sqrt_sign``; :func:`log_star` adds the pi I it implies.
    """
    sym_lift, h = _sym_log(g, domain)
    F0 = partial(_leaf_at, scalar_part(g))

    zero_pts = np.array([zc.z for zc in report.zeros], dtype=complex)
    t_sphere = F0(zero_pts) / h(zero_pts)
    signs = np.where(t_sphere.real >= 0.0, 1.0, -1.0)
    # sign selection only; the +-1 gap dwarfs the zero-position error
    off_fold = float(np.abs(t_sphere - signs).max())
    if off_fold > 1e-2:
        raise ClassificationError(
            f"the phase misses the folds at the zero spheres by {off_fold:.2e}"
        )

    s_h = 1.0 if domain.kind == "slice" else float(signs[0])
    if np.any(signs != s_h):
        z_bad = zero_pts[signs != s_h][0]
        if domain.kind == "slice":
            raise BranchPointHit(
                f"the trace-positive square root of g^s meets the fold t = -1 "
                f"at the zero sphere through {z_bad}; no logarithm exists on "
                f"this domain"
            )
        raise BranchPointHit(
            f"the zero spheres demand opposite square-root signs "
            f"(conflict at {z_bad}); no logarithm exists on this domain"
        )

    t_nodes = F0(domain.node_z) / (s_h * h(domain.node_z))

    def t_fn(zs):  # the fold lift reads t at the nodes computed once, above
        return t_nodes if domain.at_nodes(zs) else F0(zs) / (s_h * h(zs))

    stray = np.abs(t_nodes - 1.0) <= _SLIT_TOL
    if stray.any():
        dist = np.abs(domain.node_z[stray, None] - zero_pts[None, :]).min(axis=1)
        far = dist > _STRAY_FOLD_CELLS * domain.h
        if far.any():
            z_bad = domain.node_z[stray][far][0]
            raise BranchPointHit(
                f"fold value t = 1 at {z_bad}, away from every known zero sphere"
            )
    slit_ok, slit_margin = _slit_ok(t_nodes, domain)

    residual = report.residual_zeros()
    seed = residual[0].z if residual else report.zeros[0].z
    try:
        fold = lift_mu(t_fn, domain, seed, name="fold")
    except (LiftStep, NoConvergence) as exc:
        if not slit_ok:
            raise NoGlobalLogWitness(
                "counterex",
                "the phase crosses the slit (-inf, -1] and its fold "
                "continuation stalled; no witness for a global logarithm",
            ) from exc
        raise

    nu_vals = nu(fold.values)
    fold_margin = float(np.abs(nu_vals).min())
    if fold_margin < 1e-12:
        raise BranchPointHit(
            "the lifted phase reaches a full turn; the quotient degenerates"
        )
    seed_node = domain.nearest_node(seed)
    mu_defect = float(np.abs(mu(fold.values) - t_nodes).max())
    diag = {
        "sqrt_sign": s_h,
        "seed_fold": [float(fold.values[seed_node].real), float(fold.values[seed_node].imag)],
        "mu_defect": mu_defect,
        "fold_margin": fold_margin,
        "slit_margin": slit_margin,
        "fold_lift": fold.as_json(),
        "sym_lift": sym_lift.as_json(),
    }

    half_log = const(0.5) * GridFieldExpr(sym_lift)
    fold_recip = ScalarApply(
        "recip",
        ScalarApply("nu", GridFieldExpr(fold)) * const(s_h) * ScalarApply("exp", half_log),
    )
    return half_log + vect_part(g) * fold_recip, diag


# ---------------------------------------------------------------------------
# entry point


def stem_distance(E: np.ndarray, G: np.ndarray, least: np.ndarray | None = None) -> float:
    """Distance of two stems over every slice: the sup over rows of the
    greatest |E - G| over all slices, divided by 1 + the least |G| over all
    slices (:func:`expr.slice_range`); inf where either stem is not finite.
    It bounds |E - G| / (1 + |G|) on every slice from above.  ``least`` is
    that least |G| per row where the caller holds it, as ``slice_range(G)[0]``.
    """
    if not (np.isfinite(E).all() and np.isfinite(G).all()):
        return math.inf
    if least is None:
        least = slice_range(G)[0]
    with np.errstate(over="ignore"):  # a difference that overflows reads inf
        most = slice_range(E - G)[1]
    worst = float((most / (1.0 + least)).max())
    return math.inf if math.isnan(worst) else worst  # nan: a difference that overflows


def residual_sup(
    f: SliceExpr, g: SliceExpr, domain: BasicDomainSpec, least: np.ndarray | None = None
) -> float:
    """sup |exp_star(f) - g| / (1 + |g|) over the grid nodes and every slice,
    as :func:`stem_distance` reads it.  A g pinned to ``domain`` is read in
    place, and ``least`` is the least |g| over every slice at each node where
    the caller holds it, as :func:`log_star` does."""
    E = eval_stem_many(exp_star(f), domain.node_z)
    return stem_distance(E, _stem_at(g, domain.node_z), least)


def log_star(
    g: SliceExpr,
    domain: BasicDomainSpec,
    branch: BranchSpec | tuple = BranchSpec(),
    rep: SliceExpr | None = None,
) -> LogResult:
    """A star logarithm of g on a basic domain, on the requested branch.

    ``rep`` supplies a unit class representative and unlocks the vectorial
    branch index n when the class of g admits one.  The result is verified:
    exp_star(f) must reproduce g at every grid node on every slice, within
    ``RESIDUAL_ACCEPT`` in the distance of :func:`stem_distance`, or the
    construction is rejected.
    """
    if not isinstance(branch, BranchSpec):
        try:
            branch = BranchSpec(*branch)
        except TypeError:  # not a sequence, or more than two indices
            raise ConditionFailed(
                "periods", f"a branch is a pair of integer indices (m, n), got {branch!r}"
            ) from None
    domain.validate(strict=True)

    g, G, least, lo, hi = _node_stem(g, domain)
    report = classify_vectorial(g, domain)
    case = _CASES.get(report.kind, "fold")
    if case == "scalar" and rep is not None:
        case = "angle"
    _check_branch(case, domain, branch, rep)

    turns = branch.m
    if case == "angle":
        f, diag = _angle_route(g, domain, branch, report, rep)
    elif case == "fold":
        f, diag = _fold_route(g, domain, report)
        # i pi d on the scalar stem is pi d I, with d the parity of m + [s_h < 0]
        turns += (branch.m + (diag["sqrt_sign"] < 0.0)) % 2
    else:
        f, diag = _scalar_route(g, G, domain, branch, case == "null-vector")
    if turns:
        f = f + const(turns * math.pi) * UNIT

    f_nodes = node_stem(f, domain)  # one stem of f for both checks below
    residual = residual_sup(f_nodes, g, domain, least)
    if residual > RESIDUAL_ACCEPT:
        raise ResidualRejected(residual, RESIDUAL_ACCEPT)
    if not linearly_dependent(f_nodes, g, domain):
        raise ClassificationError("the result left the congruence class of g")
    diag.update(min_abs_g=lo, scale=hi, class_preserved=True)
    return LogResult(f, case, branch, residual, report, diag)
