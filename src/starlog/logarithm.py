"""Star logarithms of slice functions on basic domains.

The entry point is :func:`log_star`.  It classifies the vectorial part of the
input, picks one of four construction routes and returns a :class:`LogResult`
whose expression ``f`` satisfies ``exp_star(f) = g`` up to a verified residual:

* ``scalar``       -- g is slice preserving; f is a lifted scalar logarithm.
* ``null-vector``  -- g_v != 0 with vanishing symmetrization; f picks up the
  nilpotent quotient g_v / g_0.
* ``angle``        -- g_v^s has no zeros that obstruct a square root; f is
  built from a phase lift along the circle u^2 + v^2 = 1.
* ``fold``         -- g_v^s has isolated or odd-order zeros; f needs the
  two-sheeted inverse of mu continued around its fold.

Each call evaluates the stem G of g at the grid nodes once: the node checks
read it, and every other node evaluation of a tree holding g reuses it
through :func:`expr.shared_stem`.  A g not finite at a node is a DomainError.

Branches are indexed by a pair of integers (m, n): m counts scalar half-turns
exp(i pi m) and n counts vectorial half-turns around a spherical unit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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
    ScalarApply,
    SliceExpr,
    const,
    eval_stem_many,
    shared_stem,
    slice_values,
    stem_complex,
    sup_parts,
)
from .lifts import grid_neighbours, lift_angle, lift_log, lift_mu
from .quaternion import VERIFY_UNITS
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


@dataclass(frozen=True)
class BranchSpec:
    """Branch indices (m, n): scalar and vectorial half-turn counts."""

    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.m != int(self.m) or self.n != int(self.n):
            raise ConditionFailed("periods", "branch indices must be integers")

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
    cond_slit_avoided: bool | None
    slit_margin: float | None
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


@contextmanager
def _node_stem(g: SliceExpr, domain: BasicDomainSpec):
    """Evaluate g at the grid nodes once, check it, and share it for the block.

    Yields (G, g^s, min |g|, max |g|): the stem at the nodes, the
    symmetrization there and the range of |g| on the check slices.  Every
    evaluation at ``domain.node_z`` inside the block of a tree holding g
    reuses G.  Raises DomainError where g, g^s or |g| is not finite at a
    node, and Vanishing where |g| on a check slice or g^s comes near zero.
    """
    with shared_stem(g, domain.node_z) as G:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
            sym = np.sum(G * G, axis=-1)  # the arithmetic of Symm
            mags = np.stack([np.linalg.norm(slice_values(G, u), axis=1) for u in VERIFY_UNITS])
        bad = ~(np.isfinite(G).all(axis=1) & np.isfinite(sym) & np.isfinite(mags).all(axis=0))
        if bad.any():
            raise DomainError(
                f"g, |g| or g^s is not finite at {int(bad.sum())} of {bad.size} grid nodes"
            )
        lo, hi = float(mags.min()), float(mags.max())
        if lo < VANISH_REL * (1.0 + hi):
            raise Vanishing(f"|g| reaches {lo:.3e} on the grid (scale {hi:.3e})")
        sym_lo = float(np.abs(sym).min())
        if sym_lo < (VANISH_REL * (1.0 + hi)) ** 2:
            raise Vanishing(
                f"g^s reaches {sym_lo:.3e} on the grid; g vanishes on some slice"
            )
        yield G, sym, lo, hi


def _sp_ratio(num: SliceExpr, den: SliceExpr, zs) -> np.ndarray:
    """Slice-preserving ratio rho with num = rho * den, via least squares.

    Exact when the two expressions are linearly dependent over the
    slice-preserving functions, which the callers have already established.
    """
    cn = eval_stem_many(num, zs)[:, 1:]
    cd = eval_stem_many(den, zs)[:, 1:]
    weight = (np.abs(cd) ** 2).sum(axis=1)
    return (cn * np.conj(cd)).sum(axis=1) / weight


def _check_unit(w: SliceExpr, domain: BasicDomainSpec) -> None:
    """A class representative must square to -1: scalar part 0, w^s = 1."""
    W = eval_stem_many(w, domain.node_z)
    scal = sup_parts(W[:, 0])
    defect = float(np.abs(np.sum(W * W, axis=-1) - 1.0).max())  # the arithmetic of Symm
    if scal > _UNIT_TOL or defect > _UNIT_TOL:
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
    nbr = grid_neighbours(domain)
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


def check_conditions(
    g: SliceExpr, domain: BasicDomainSpec, with_slit: bool = True
) -> ConditionSummary:
    """Evaluate the pointwise existence conditions for a star logarithm.

    Checks that g is finite and does not vanish on the grid (raising
    DomainError or Vanishing otherwise), that its real-trace values are
    positive, that the symmetrization admits a trace-positive square root,
    and that the phase data g_0 / sqrt(g^s) stays off the slit (-inf, -1].
    The phase is slice preserving, so every slice sees the same distance to
    the slit; the grid test covers all of them.
    """
    with _node_stem(g, domain) as (G, sym, lo, hi):
        cond1, details = _positive_trace(G, domain)
        realimage: bool | None = None
        if domain.kind == "slice":
            reals = domain.real_nodes
            if reals.size:
                tr = sym[reals]
                realimage = bool(
                    np.abs(tr.imag).max() <= 1e-9 * (1.0 + np.abs(tr).max())
                    and tr.real.min() > 0.0
                )
                details["sym_trace_min"] = float(tr.real.min())

        counterex = margin = None
        if with_slit:
            t_nodes = G[:, 0] / np.exp(0.5 * _sym_log(g, domain).values)
            counterex, margin = _slit_ok(t_nodes, domain)
            details["phase_nodes"] = int(t_nodes.size)
            details["units_checked"] = len(VERIFY_UNITS)
    return ConditionSummary(lo, hi, cond1, realimage, counterex, margin, details)


# ---------------------------------------------------------------------------
# construction routes


def _sym_log(g: SliceExpr, domain: BasicDomainSpec):
    """The continuous logarithm of g^s over the grid."""
    return lift_log(partial(stem_complex, symmetrization(g)), domain, name="sym-log")


def _scalar_route(g, G, domain, branch):
    """g is slice preserving: f is a lifted logarithm of the scalar stem."""
    if branch.n:
        raise ConditionFailed(
            "representative",
            "a vectorial branch index needs a class representative",
        )
    F = partial(stem_complex, scalar_part(g))
    diag: dict = {}
    if domain.kind == "slice":
        if branch.m:
            raise ConditionFailed("periods", "slice domains only admit m = 0")
        ok, d1 = _positive_trace(G, domain)
        diag.update(d1)
        if ok is False:
            raise ConditionFailed(
                "cond1", "g must be positive on the real trace of a slice domain"
            )
        fld = lift_log(F, domain, name="log")
        diag["lift"] = fld.as_json()
        return GridFieldExpr(fld, "log"), diag
    sign = -1.0 if branch.m % 2 else 1.0
    fld = lift_log(lambda zs: sign * F(zs), domain, name="log")
    diag["lift"] = fld.as_json()
    f: SliceExpr = GridFieldExpr(fld, "log")
    if branch.m:
        f = f + const(branch.m * math.pi) * UNIT
    return f, diag


def _null_vector_route(g, G, domain, branch):
    """g_v^s = 0: the vectorial part exponentiates linearly through 1 + V."""
    if branch.n:
        raise ConditionFailed("periods", "this class carries no vectorial periods")
    g0 = scalar_part(g)
    F = partial(stem_complex, g0)
    g0_nodes = G[:, 0]
    lo = float(np.abs(g0_nodes).min())
    if lo < VANISH_REL * (1.0 + float(np.abs(g0_nodes).max())):
        raise Vanishing(f"the scalar part reaches {lo:.3e}; its square is g^s")
    sign = -1.0 if branch.m % 2 else 1.0
    fld = lift_log(lambda zs: sign * F(zs), domain, name="log")
    f: SliceExpr = GridFieldExpr(fld, "log") + vect_part(g) * ScalarApply("recip", g0)
    if branch.m:
        f = f + const(branch.m * math.pi) * UNIT
    return f, {"lift": fld.as_json(), "min_scalar": lo}


def _angle_route(g, domain, branch, report, rep):
    """No obstructing zeros: f_v = (phi + n pi) w with phi a circle lift."""
    m, n = branch.m, branch.n
    if domain.kind == "slice":
        if m:
            raise ConditionFailed("periods", "slice domains only admit m = 0")
        if n % 2:
            raise ConditionFailed(
                "parity", "slice domains only admit even vectorial indices"
            )
    elif (m + n) % 2:
        raise ConditionFailed(
            "parity", "m + n must be even when a spherical period is present"
        )

    gv = vect_part(g)
    diag: dict = {}
    if report.kind == "zero":
        w = rep
    else:
        coeffs, w_tilde = factor_minimal(gv, report, domain)
        diag["factor_degree"] = len(coeffs) - 1
        w_norm, _sigma = normalize(w_tilde, domain)
        if rep is None:
            w = w_norm
        else:
            if not linearly_dependent(rep, w_norm, domain):
                raise ConditionFailed(
                    "representative",
                    "the given representative is not in the class of g",
                )
            w = rep
    _check_unit(w, domain)

    sym_lift = _sym_log(g, domain)
    F0 = partial(stem_complex, scalar_part(g))

    def uv(zs):
        h = np.exp(0.5 * sym_lift.sample(zs))
        rho = _sp_ratio(gv, w, zs) if report.kind != "zero" else np.zeros_like(h)
        return F0(zs) / h, rho / h

    phase = lift_angle(uv, domain, name="phase")
    u_nodes, v_nodes = uv(domain.node_z)
    validity = float(
        max(
            np.abs(np.cos(phase.values) - u_nodes).max(),
            np.abs(np.sin(phase.values) - v_nodes).max(),
        )
    )
    diag["lift_validity"] = validity
    diag["phase"] = phase.as_json()
    diag["sym_lift"] = sym_lift.as_json()
    if validity > LIFT_VALIDITY_TOL:
        raise ResidualRejected(validity, LIFT_VALIDITY_TOL)

    f: SliceExpr = const(0.5) * GridFieldExpr(sym_lift, "sym-log") + (
        GridFieldExpr(phase, "phase") + const(n * math.pi)
    ) * w
    if m:
        f = f + const(m * math.pi) * UNIT
    return f, diag


def _fold_route(g, domain, branch, report):
    """Zeros of g_v^s force the inverse of mu through its fold at t = 1.

    The sign of the square root of g^s is pinned by the first zero sphere on
    product domains and by trace positivity on slice domains; a zero that then
    demands the opposite fold is a genuine branch point and aborts.
    """
    m = branch.m
    if branch.n:
        raise ConditionFailed(
            "periods", "isolated zeros leave no vectorial period freedom"
        )
    if domain.kind == "slice" and m:
        raise ConditionFailed("periods", "slice domains only admit m = 0")

    sym_lift = _sym_log(g, domain)
    F0 = partial(stem_complex, scalar_part(g))

    def h_at(zs):
        return np.exp(0.5 * sym_lift.sample(zs))

    zero_pts = np.array([zc.z for zc in report.zeros], dtype=complex)
    t_sphere = F0(zero_pts) / h_at(zero_pts)
    signs = np.where(t_sphere.real >= 0.0, 1.0, -1.0)
    # sign selection only; the +-1 gap dwarfs the zero-position error
    off_fold = float(np.abs(t_sphere - signs).max())
    if off_fold > 1e-2:
        raise ClassificationError(
            f"the phase misses the folds at the zero spheres by {off_fold:.2e}"
        )

    if domain.kind == "slice":
        s_h = 1.0
        if np.any(signs < 0.0):
            z_bad = zero_pts[signs < 0.0][0]
            raise BranchPointHit(
                f"the trace-positive square root of g^s meets the fold t = -1 "
                f"at the zero sphere through {z_bad}; no logarithm exists on "
                f"this domain"
            )
    else:
        s_h = float(signs[0])
        if np.any(signs != s_h):
            z_bad = zero_pts[signs != s_h][0]
            raise BranchPointHit(
                f"the zero spheres demand opposite square-root signs "
                f"(conflict at {z_bad}); no logarithm exists on this domain"
            )

    def t_fn(zs):
        return F0(zs) / (s_h * h_at(zs))

    t_nodes = t_fn(domain.node_z)
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

    half_log = const(0.5) * GridFieldExpr(sym_lift, "sym-log")
    fold_recip = ScalarApply(
        "recip",
        ScalarApply("nu", GridFieldExpr(fold, "fold")) * const(s_h) * ScalarApply("exp", half_log),
    )
    f: SliceExpr = half_log + vect_part(g) * fold_recip
    d = (m + (1 if s_h < 0.0 else 0)) % 2  # i pi d on the scalar stem is pi d I
    if m + d:
        f = f + const((m + d) * math.pi) * UNIT
    return f, diag


# ---------------------------------------------------------------------------
# entry point


def residual_sup(f: SliceExpr, g: SliceExpr, domain: BasicDomainSpec) -> float:
    """sup |exp_star(f) - g| / (1 + |g|) over grid nodes and check units."""
    E = eval_stem_many(exp_star(f), domain.node_z)
    G = eval_stem_many(g, domain.node_z)
    worst = 0.0
    for unit in VERIFY_UNITS:
        ev = slice_values(E, unit)
        gv = slice_values(G, unit)
        num = np.linalg.norm(ev - gv, axis=1)
        den = 1.0 + np.linalg.norm(gv, axis=1)
        worst = max(worst, float((num / den).max()))
    return worst


def log_star(
    g: SliceExpr,
    domain: BasicDomainSpec,
    branch: BranchSpec | tuple = BranchSpec(),
    rep: SliceExpr | None = None,
) -> LogResult:
    """A star logarithm of g on a basic domain, on the requested branch.

    ``rep`` supplies a unit class representative and unlocks the vectorial
    branch index n when the class of g admits one.  The result is verified:
    exp_star(f) must reproduce g at every grid node on several slices, or the
    construction is rejected.
    """
    if not isinstance(branch, BranchSpec):
        branch = BranchSpec(*branch)
    domain.validate(strict=True)

    with _node_stem(g, domain) as (G, _, lo, hi):
        report = classify_vectorial(g, domain)
        if report.kind == "zero" and rep is None:
            f, diag = _scalar_route(g, G, domain, branch)
            case = "scalar"
        elif report.kind in ("zero", "no-zeros"):
            f, diag = _angle_route(g, domain, branch, report, rep)
            case = "angle"
        elif report.kind == "null-symmetrization":
            if rep is not None:
                raise ConditionFailed(
                    "representative", "this class has no spherical period to turn"
                )
            f, diag = _null_vector_route(g, G, domain, branch)
            case = "null-vector"
        else:
            if rep is not None:
                raise ConditionFailed(
                    "representative",
                    "no continuous representative crosses an isolated zero",
                )
            f, diag = _fold_route(g, domain, branch, report)
            case = "fold"

        residual = residual_sup(f, g, domain)
        if residual > RESIDUAL_ACCEPT:
            raise ResidualRejected(residual, RESIDUAL_ACCEPT)
        if not linearly_dependent(vect_part(f), vect_part(g), domain):
            raise ClassificationError("the result left the congruence class of g")
    diag["min_abs_g"] = lo
    diag["scale"] = hi
    diag["class_preserved"] = True
    return LogResult(f, case, branch, residual, report, diag)
