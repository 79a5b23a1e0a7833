"""Zero sets and structure of the vectorial part of a slice function.

Scalar coefficients of slice functions have holomorphic stem components, so
zeros are located by the argument principle.  The search lattice is the
domain's grid framed by one more line a cell past it (closer where F is not
defined that far); a winding count around it gives the zeros less poles
inside, and one pass over the values at the lattice points places them,
unless the count is 0 and F has no pole or cut.  A cell whose corner
values turn by less than pi/4 along every edge holds no zero.  The other
cells form clusters, each counted on its own rectangle and read off moment
circles inside it, about the lattice minima and maxima of |F|: the Fourier
coefficients of log F on a circle give the power sums of the zeros and
poles inside (Delves and Lyness, Math. Comp. 21, 1967), certified by the
cluster's count and first power sum.  A cluster whose circles fail is
searched the same way on a lattice four times finer.  Zeros come back in
ascending real part, then ascending imaginary part.

Zeros of the symmetrized vectorial part split into three kinds.  At a real
point or along a whole sphere every component vanishes and a real-coefficient
polynomial factors out; at an isolated point the components stay nonzero and
the zero direction is carried by a single quaternion on the sphere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import symmetrization, vect_part
from .domain import BasicDomainSpec, regions
from .errors import (
    BoundaryZero,
    BranchDomainViolation,
    ClassificationError,
    DomainError,
    FactorResidual,
    NoConvergence,
    SlicePreservingRequired,
    Vanishing,
)
from .expr import (
    GridFieldExpr,
    NodeStem,
    QuotientBySP,
    ScalarApply,
    SliceExpr,
    StarMul,
    _children,
    _leaf_at,
    _stem_at,
    const,
    eval_stem_many,
    node_stem,
    stem_complex,
    sup_parts,
)
from .lifts import lift_log
from .quaternion import Quaternion, qsym

logger = logging.getLogger(__name__)

ZERO_REL = 1e-10  # identically-zero threshold, relative to the function scale
BOUNDARY_MARGIN = 1e-8  # zeros this close to the domain boundary are ambiguous
PATCH_CELLS = 4  # removable-singularity patch radius, in grid cells
DEPENDENT_REL = 1e-9  # largest minor of proportional vector parts, relative to their scales

_WIND_START = 32  # least boundary samples per rectangle edge, doubled on demand
_WIND_CAP = 1 << 14
_PADS = (1.0, 0.25, 1 / 16, 1 / 64)  # search box pads past the domain's grid, in cells
_REFINE_POINTS = 1 << 16  # most points of a refined lattice
_MERGE_TOL = 3e-6  # zeros this close together come back as one
_MOMENT_N = 64  # samples per moment circle
_MOMENT_TOL = 1e-10  # error bound of a moment read, relative to 1 + |z|
_MOMENT_CAP = 6  # most distinct zeros read off one circle: power sums past it are ill-conditioned
_CENTRAL_TOL = 1e-10  # central power sums under this, in units of rho^k, make one m-fold zero
_ROOT_GAP = 1e-3  # distinct roots closer than this, in units of rho, are a split multiple zero


@dataclass(frozen=True)
class SphereZero:
    """A zero of a slice-preserving function, as an upper-leaf stem point."""

    z: complex
    multiplicity: int


@dataclass(frozen=True)
class ClassifiedZero:
    z: complex
    multiplicity: int  # winding of the symmetrized vectorial part
    kind: str  # "real" | "spherical" | "isolated"
    common_order: int  # common vanishing order of the components (0 when isolated)
    location: Quaternion | None  # the zero point for real / isolated kinds

    def to_json(self) -> dict:
        loc = None if self.location is None else list(self.location.to_array())
        return {
            "z": [self.z.real, self.z.imag],
            "multiplicity": self.multiplicity,
            "kind": self.kind,
            "common_order": self.common_order,
            "location": loc,
        }


@dataclass
class VectorialClassReport:
    """Structure of the vectorial part over a domain.

    ``sym`` is g_v^s pinned to the nodes, as the zero search read it, and
    None for the classes that run no zero search; it is not serialized.
    """

    kind: str  # "zero" | "null-symmetrization" | "no-zeros" | "discrete-zeros"
    zeros: list
    vect_scale: float
    sym_scale: float
    sym: NodeStem | None = field(default=None, repr=False, compare=False)

    def factor_zeros(self) -> list:
        return [zc for zc in self.zeros if zc.kind != "isolated"]

    def residual_zeros(self) -> list:
        """Zeros surviving after the polynomial factor is divided out."""
        return [
            z for z in self.zeros if z.kind == "isolated" or z.multiplicity > 2 * z.common_order
        ]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "zeros": [zc.to_json() for zc in self.zeros],
            "vect_scale": self.vect_scale,
            "sym_scale": self.sym_scale,
        }


# ---------------------------------------------------------------------------
# argument-principle zero finder


def _windings(F, rects, ftol: float, cols=None, step: float = math.inf) -> tuple:
    """Winding numbers of F around rectangles (x0, x1, y0, y1), one F call
    per round for every count still open, and the sum of the zeros less the
    poles inside each, with a bound on its error.

    Each edge starts with _WIND_START samples, or with more, up to
    _WIND_CAP, where they would lie farther apart than ``step``.  F maps
    points to one value each, or to a row of which rectangle i reads column
    ``cols[i]``.  A count is None where a sample is not finite or sits on a
    zero (the contour must move), or where it does not settle by _WIND_CAP
    samples per edge.  The sum is (1/2 pi i) times the integral of z dlog F,
    taken with z at the middle of each step of log F from sample to sample,
    and of each step over two samples: their difference, about three times
    the first one's error, bounds it.
    """
    counts: list = [None] * len(rects)
    firsts, open_ = counts.copy(), list(range(len(rects)))
    ns = [
        min(_WIND_CAP, max(_WIND_START, math.ceil(max(x1 - x0, y1 - y0) / step)))
        for x0, x1, y0, y1 in rects
    ]
    while open_:
        contours = []
        for i in open_:
            x0, x1, y0, y1 = rects[i]
            loop = [x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1, x0 + 1j * y0]
            ts = np.arange(ns[i]) / ns[i]
            contours.append(np.concatenate([a + (b - a) * ts for a, b in zip(loop, loop[1:])]))
        pts = np.concatenate(contours)
        table = np.asarray(F(pts), dtype=complex).reshape(len(pts), -1)
        still, start = [], 0
        for i, contour in zip(open_, contours):
            vals = table[start : start + len(contour), 0 if cols is None else cols[i]]
            start += len(contour)
            if _near_zero(np.abs(vals), ftol).any():
                continue
            steps = np.log(np.roll(vals, -1) / vals)  # of log F from sample to sample
            if np.max(np.abs(steps.imag)) < 1.5:
                total = steps.imag.sum() / (2.0 * np.pi)
                k = round(total)
                if abs(total - k) < 1e-6:
                    counts[i] = k
                    nxt = np.concatenate((contour[1:], contour[:1]))
                    fine = ((contour + nxt) * steps).sum() / (4j * np.pi)
                    pairs = steps[::2] + steps[1::2]
                    coarse = ((contour[::2] + nxt[1::2]) * pairs).sum() / (4j * np.pi)
                    firsts[i] = (fine, abs(fine - coarse) + _MOMENT_TOL * (1.0 + abs(fine)))
                    continue
            if ns[i] < _WIND_CAP:
                ns[i] *= 2
                still.append(i)
        open_ = still
    return counts, firsts


def _near_zero(mags, ftol: float) -> np.ndarray:
    """Moduli that are not finite or count as zeros: under ftol and 1e-9 of the
    largest finite one among them.  Against their own range, not only the
    global scale, so that a contour or lattice near a high-order zero, small
    everywhere, does not take all its points for zeros."""
    finite = np.isfinite(mags)
    return ~finite | (mags < min(ftol, 1e-9 * mags.max(where=finite, initial=0.0)))


def _moments(F, circles, ftol: float) -> list:
    """Zeros inside circles (c, rho), read off log F at _MOMENT_N points of
    each circle, one F call for all: the phase counts the zeros less poles
    inside, m, and the coefficient of exp(-ik theta) in L = log|F| +
    i(arg F - m theta) is -p_k / (k rho^k), p_k the sum of the k-th powers of
    the zeros' offsets from c less those of the poles.  Returns per circle a
    list of (z, multiplicity), where a pole of order -m comes back with
    multiplicity m, or the guard that failed: "count" (the phase does not
    settle), "tail" (the coefficients near order _MOMENT_N / 2, which bound
    the noise and aliasing of the power sums, allow an error above
    _MOMENT_TOL), "pole" (poles with other poles or zeros), "cap" (more than
    _MOMENT_CAP distinct zeros) or "close" (two roots within _ROOT_GAP rho: a
    multiple zero split by rounding)."""
    if not circles:
        return []
    n = _MOMENT_N
    theta = 2.0 * np.pi * np.arange(n) / n
    # the discrete Fourier transform as a matrix: np.fft would load its module
    dft = np.exp(-1j * theta)[np.outer(np.arange(n), np.arange(n)) % n] / n
    table = np.asarray(F(np.concatenate([c + rho * np.exp(1j * theta) for c, rho in circles])))
    out: list = []
    for (c, rho), vals in zip(circles, table.reshape(len(circles), n)):
        mags = np.abs(vals)
        if _near_zero(mags, ftol).any():
            out.append("count")
            continue
        steps = np.angle(np.roll(vals, -1) / vals)
        m = round(steps.sum() / (2.0 * np.pi))
        if np.abs(steps).max() >= 1.5 or abs(steps.sum() / (2.0 * np.pi) - m) >= 1e-6:
            out.append("count")
            continue
        if m == 0:
            out.append([])
            continue
        coef = (dft * (np.log(mags) + 1j * (np.unwrap(np.angle(vals)) - m * theta))).sum(axis=1)
        tail = float(np.abs(coef[3 * n // 8 : 5 * n // 8 + 1]).max())
        if rho * tail > _MOMENT_TOL * (1.0 + abs(c)):
            out.append("tail")
            continue
        # power sums in units of rho^k, then central sums: 0 at one m-fold zero
        # or one (-m)-fold pole
        r = range(abs(m) + 1)
        s = [m] + [-k * coef[n - k] for k in r[1:]]
        b = -s[1] / m  # minus the centroid
        q = [sum(math.comb(k, i) * s[i] * b ** (k - i) for i in range(k + 1)) for k in r]
        if all(abs(q[k]) <= _CENTRAL_TOL + k * 2**k * tail for k in r[2:]):
            out.append([(complex(c - rho * b), m)])
        elif m < 0:
            out.append("pole")
        elif m > _MOMENT_CAP:
            out.append("cap")
        else:  # elementary symmetric sums of the offsets from the centroid
            e = [1.0]
            for k in r[1:]:
                e.append(sum((-1) ** (i - 1) * e[k - i] * q[i] for i in range(1, k + 1)) / k)
            roots = np.roots([(-1) ** k * ek for k, ek in enumerate(e)])
            close = np.abs(roots[:, None] - roots)[np.triu_indices(m, 1)].min() < _ROOT_GAP
            out.append("close" if close else [(complex(c + rho * (v - b)), 1) for v in roots])
    return out


# ---------------------------------------------------------------------------
# the lattice pass: zeros seeded from the grid


def _search_lines(domain: BasicDomainSpec, pad: float) -> tuple:
    """Lines (bx, by) of the domain's grid over its leaf, mirrored below the
    axis on a slice domain, framed by one more line ``pad`` past it on every
    side; on a product domain the frame stays above the real axis."""
    h = domain.h
    x0, y0 = domain.xs[0], 0.0 if domain.kind == "slice" else domain.ys[0]
    bx = x0 + h * np.arange(math.ceil((domain.xmax - x0) / h - 1e-9) + 1)
    by = y0 + h * np.arange(math.ceil((domain.ymax - y0) / h - 1e-9) + 1)
    if domain.kind == "slice":
        by, low = np.concatenate([-by[:0:-1], by]), pad
    else:
        low = min(pad, 0.5 * y0)
    return np.r_[bx[0] - pad, bx, bx[-1] + pad], np.r_[by[0] - low, by, by[-1] + pad]


def _lattice(F, bx, by, domain: BasicDomainSpec | None = None, node_vals=None) -> np.ndarray:
    """The values W[j, i] of F at bx[i] + 1j * by[j], from one F call.

    Given the domain, the lines are its search lines (see _search_lines): the
    nodes keep ``node_vals`` and, on a slice domain, the rows below the axis
    are the conjugates of those above.
    """
    X, Y = np.meshgrid(bx, by)
    W = np.empty(X.shape, dtype=complex)
    todo = np.ones(X.shape, dtype=bool)
    if domain is not None:
        j0 = int(np.abs(by - domain.ys[0]).argmin())
        todo[j0 : j0 + domain.ys.size, 1 : 1 + domain.xs.size] = ~domain.mask
        W[~todo] = node_vals
        todo &= (Y >= 0.0) | (domain.kind != "slice")
    W[todo] = F(X[todo] + 1j * Y[todo])
    if domain is not None and domain.kind == "slice":
        W[: by.size // 2] = W[: by.size // 2 : -1].conj()
    return W


def _unsafe_cells(W, ftol: float) -> np.ndarray:
    """Cells of the lattice whose corner values do not certify them.

    A cell is safe when every edge step ``np.angle(w_b / w_a)`` is under pi/4
    and no corner is near zero or not finite.  Its four steps then turn by
    less than pi in all, so its winding rounds to 0: a safe cell holds no zero.
    """
    good = ~_near_zero(np.abs(W), ftol)
    with np.errstate(all="ignore"):
        okx = good[:, 1:] & good[:, :-1] & (np.abs(np.angle(W[:, 1:] / W[:, :-1])) < np.pi / 4)
        oky = good[1:] & good[:-1] & (np.abs(np.angle(W[1:] / W[:-1])) < np.pi / 4)
    return ~(okx[:-1] & okx[1:] & oky[:, :-1] & oky[:, 1:])


def _clusters(bad: np.ndarray) -> list:
    """Inclusive cell ranges (j0, j1, i0, i1) covering the cells of ``bad``:
    bounding boxes of its 8-connected groups, merged until no two touch.

    Boxes that do not touch, padded by half a cell, do not overlap.
    """
    while bad.any():
        lab = regions(bad, True)
        jj, ii = np.nonzero(bad)
        ids, inv = np.unique(lab[bad], return_inverse=True)
        j0, i0 = np.full(ids.size, bad.shape[0]), np.full(ids.size, bad.shape[1])
        j1, i1 = np.full(ids.size, -1), np.full(ids.size, -1)
        np.minimum.at(j0, inv, jj)
        np.maximum.at(j1, inv, jj)
        np.minimum.at(i0, inv, ii)
        np.maximum.at(i1, inv, ii)
        boxes = list(zip(j0.tolist(), j1.tolist(), i0.tolist(), i1.tolist()))
        filled = np.zeros_like(bad)
        for a, b, c, d in boxes:
            filled[a : b + 1, c : d + 1] = True
        if np.array_equal(filled, bad):
            return boxes
        bad = filled
    return []


def _minima(mags: np.ndarray) -> np.ndarray:
    """Where ``mags`` lies under its eight neighbours, the first of a tie in
    row order; a value that is not finite is no minimum."""
    mags = np.where(np.isfinite(mags), mags, np.inf)
    ny, nx = mags.shape
    p = np.pad(mags, 1, constant_values=np.inf)
    low = np.isfinite(mags)
    for dj in range(3):
        for di in range(3):
            if (dj, di) != (1, 1):
                near = p[dj : dj + ny, di : di + nx]
                low &= mags < near if (dj, di) < (1, 1) else mags <= near
    return low


def _lattice_zeros(F, bx, by, W, total: int, ftol: float):
    """The (z, multiplicity) pairs of the zeros inside the lattice (bx, by),
    but below the real axis, where F takes the values W and the zeros less
    poles number ``total``; or None when the counts of its clusters, or of
    those on a finer lattice below, do not add up.

    The cells that W does not certify form clusters, each counted on its
    rectangle: its cells padded by half a cell, or up to the lattice edge.
    Every cluster is read off moment circles inside its rectangle; one whose
    circles fail is searched again on a lattice four times finer over its
    rectangle, and NoConvergence is raised where that lattice would have
    cells under _MERGE_TOL or more than _REFINE_POINTS points.
    """
    dx = max(np.diff(bx).max(), np.diff(by).max())
    blocks = _clusters(_unsafe_cells(W, ftol))
    rects = [
        (
            bx[0] if i0 == 0 else 0.5 * (bx[i0 - 1] + bx[i0]),
            bx[-1] if i1 == bx.size - 2 else 0.5 * (bx[i1 + 1] + bx[i1 + 2]),
            by[0] if j0 == 0 else 0.5 * (by[j0 - 1] + by[j0]),
            by[-1] if j1 == by.size - 2 else 0.5 * (by[j1 + 1] + by[j1 + 2]),
        )
        for j0, j1, i0, i1 in blocks
    ]
    # a cluster's cells lie half a cell inside its rectangle (but at the
    # lattice edge): samples that far apart do not alias (see find_zeros_sp)
    step = 0.5 * min(np.diff(bx).min(), np.diff(by).min())
    counts, firsts = _windings(F, rects, ftol, step=step)
    if None in counts or sum(counts) != total:
        return None

    circles = []
    for (j0, j1, i0, i1), (x0, x1, y0, y1), count, (s1, err) in zip(blocks, rects, counts, firsts):
        # a cluster below the real axis holds no zero of the domain; one that
        # counts no zeros less poles and has no first power sum holds none
        if y1 < 0.0 or not count and abs(s1) <= err:
            circles.append([])
            continue
        # |F| has local minima at the zeros of F alone, and local maxima off the
        # edge at its poles alone: one circle about each, inside the rectangle
        # and apart from the others, holds all that the cluster holds if the
        # circles match its count and its first power sum
        mags = np.abs(W[j0 : j1 + 2, i0 : i1 + 2])
        with np.errstate(divide="ignore", over="ignore"):
            high = _minima(1.0 / mags)
        high[[0, -1]] = high[:, [0, -1]] = False
        cs = [complex(bx[i0 + i], by[j0 + j]) for j, i in zip(*np.nonzero(_minima(mags) | high))]
        circles.append([
            (c, min([2.0 * dx, c.real - x0, x1 - c.real, c.imag - y0, y1 - c.imag]
                    + [0.5 * abs(c - o) for o in cs if o != c]))
            for c in cs
        ])
    reads = iter(_moments(F, [circle for cs in circles for circle in cs], ftol))
    zeros: list = []
    for count, (s1, err), cs, (x0, x1, y0, y1) in zip(counts, firsts, circles, rects):
        if y1 < 0.0:
            continue
        got = [next(reads) for _ in cs]
        guard = next((g for g in got if isinstance(g, str)), None)
        if guard is None:
            read = [zm for zms in got for zm in zms]
            # a zero and a pole outside the circles cancel in the count, not in s1
            if sum(m for _, m in read) != count:
                guard = "count"
            elif abs(sum(m * z for z, m in read) - s1) > err:
                guard = "first moment"
            else:
                zeros += [(z, m) for z, m in read if m > 0]
                continue
        msg = "cluster [%g,%g]x[%g,%g] counting %d fails its %s guard, refining"
        logger.debug(msg, x0, x1, y0, y1, count, guard)
        fx = np.linspace(x0, x1, round(4.0 * (x1 - x0) / dx) + 1)
        fy = np.linspace(y0, y1, round(4.0 * (y1 - y0) / dx) + 1)
        too_fine = fx[1] - fx[0] < _MERGE_TOL * (1.0 + abs(complex(x0, y0)))
        if too_fine or fx.size * fy.size > _REFINE_POINTS:
            raise NoConvergence(f"zeros in [{x0:g},{x1:g}]x[{y0:g},{y1:g}] fail the {guard} guard")
        inner = _lattice_zeros(F, fx, fy, _lattice(F, fx, fy), count, ftol)
        if inner is None:
            return None
        zeros += inner
    return zeros


def _has_pole_or_cut(expr: SliceExpr) -> bool:
    """Whether a node of ``expr``, or of a node stem's g in it, is a quotient
    or a reciprocal, log or sqrt: a pole could cancel a zero in a winding
    count, and a cut that the contour crosses could break it with no error."""
    seen, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, QuotientBySP) or getattr(node, "fn", None) in ("recip", "log", "sqrt"):
            return True
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend([node.g] if isinstance(node, NodeStem) else _children(node))
    return False


def find_zeros_sp(expr: SliceExpr, domain: BasicDomainSpec) -> list[SphereZero]:
    """Zeros of a slice-preserving function over the domain, as upper stem points.

    The winding number around the search lattice (_search_lines) counts the
    zeros less poles, and _lattice_zeros places them from the values on it.
    Its frame starts a whole cell past the grid and moves closer (_PADS)
    while the count fails, the counts of the clusters do not add up to it, a
    cluster cannot be read or F is not defined all over the box.  A count
    of 0 ends the search when F has no pole or cut (_has_pole_or_cut).  Zeros
    come back in ascending real part, rounded to a multiple of _MERGE_TOL,
    then ascending imaginary part, and those within _MERGE_TOL of each other
    come back as one.

    Raises Vanishing when the function is identically zero, BoundaryZero when
    a zero falls inside the ambiguity band around the domain boundary, and
    NoConvergence when a cluster of zeros cannot be read or no search box
    can be counted.
    """
    if not expr.slice_preserving:
        raise SlicePreservingRequired("zero search expects a slice-preserving function")

    def F(zs):
        with np.errstate(all="ignore"):  # a value that is not finite fails its count
            return stem_complex(expr, np.asarray(zs, dtype=complex))

    node_vals = _leaf_at(expr, domain.node_z)  # in place where expr is pinned
    scale = float(np.abs(node_vals).max())
    if scale <= 1e-300:
        raise Vanishing("cannot locate zeros of the zero function")
    ftol = 1e-12 * scale

    failure = f"no search box up to {_PADS[0]:g} cell past the grid counts its zeros"
    for pad in _PADS:
        bx, by = _search_lines(domain, pad * domain.h)
        step = min(bx[1] - bx[0], by[1] - by[0])
        try:
            # every zero of the domain lies at least step inside the box contour,
            # which the first round samples step apart: between two samples a
            # zero that far turns the phase by at most 2 atan(1/2) = 0.93 per unit
            # of multiplicity, so zeros of multiplicity up to 5 turn it by less
            # than 2 pi - 1.5, and a step that aliases shows as one of 1.5 or more
            (total,), _ = _windings(F, [(bx[0], bx[-1], by[0], by[-1])], ftol, step=step)
            if total == 0 and not _has_pole_or_cut(expr):
                return []
            if total is not None:
                W = _lattice(F, bx, by, domain, node_vals)
                found = _lattice_zeros(F, bx, by, W, total, ftol)
                if found is not None:
                    break
        except BranchDomainViolation as exc:  # the box reaches past where F is defined
            failure = f"{exc} in the search box {pad:g} cell past the grid"
        except NoConvergence as exc:  # or past where it is regular
            failure = str(exc)
    else:
        raise NoConvergence(failure)

    merged: list[tuple[complex, int]] = []
    # rounded, the real parts of a real zero and a zero above it, read a
    # rounding error apart, tie, and the imaginary parts order them
    for z, m in sorted(found, key=lambda zm: (round(zm[0].real / _MERGE_TOL), zm[0].imag)):
        for idx, (zp, mp) in enumerate(merged):
            if abs(z - zp) <= _MERGE_TOL * (1.0 + abs(z)):
                merged[idx] = ((zp * mp + z * m) / (mp + m), mp + m)
                break
        else:
            merged.append((z, m))

    zeros: list[SphereZero] = []
    for z, m in merged:
        if abs(z.imag) <= 1e-9 * (1.0 + abs(z)):
            z = complex(z.real, 0.0)
        if z.imag < 0.0:
            continue  # the conjugate stem point carries the same sphere
        dist = float(domain.boundary_dist(z))
        if dist <= -BOUNDARY_MARGIN:
            continue
        if dist < BOUNDARY_MARGIN:
            raise BoundaryZero(f"zero at {z} lies within {dist:.2e} of the domain boundary")
        zeros.append(SphereZero(z, m))
    return zeros


# ---------------------------------------------------------------------------
# classification of the vectorial part


def _component_order(expr: SliceExpr, cols: list, z: complex, ftol: float) -> int:
    """Least vanishing order at z over the given stem columns of ``expr``.

    Each column is counted on the first square of the shrink sequence where
    its winding settles; all columns share one stem evaluation per round.
    """

    def F(zs):
        return eval_stem_many(expr, zs)

    half = 1e-4 * (1.0 + abs(z))
    orders: list[int] = []
    for shrink in (1.0, 0.37, 0.11, 2.9):
        r = half * shrink
        square = (z.real - r, z.real + r, z.imag - r, z.imag + r)
        counts, _ = _windings(F, [square] * len(cols), ftol, cols)
        orders += [c for c in counts if c is not None]
        cols = [col for col, c in zip(cols, counts) if c is None]
        if not cols:
            return min(orders)
    raise NoConvergence(f"vanishing order at {z} could not be counted")


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(values.reshape(len(values), -1)).all(axis=1)
    if bad.any():
        raise DomainError(f"{what} is not finite at {int(bad.sum())} of {bad.size} grid nodes")


def classify_vectorial(g: SliceExpr, domain: BasicDomainSpec) -> VectorialClassReport:
    """Describe the vectorial part of ``g``: identically zero, null
    symmetrization, or a zero set split into real, spherical and isolated kinds.
    g and g_v^s are pinned to the nodes, so the zero search reads the node
    values of g_v^s that the classification computed.

    Raises DomainError where g or g_v^s is not finite at a grid node, and
    ClassificationError where a zero of g_v^s is no zero of g_v.
    """
    g = node_stem(g, domain)
    gv, C = vect_part(g), g.stem
    _require_finite(C, "g")
    full_scale = sup_parts(C)
    comps = C[:, 1:]  # the vector part of g has the same components
    comp_sup = np.abs(comps).max(axis=0)
    vect_scale = float(comp_sup.max())

    if vect_scale <= ZERO_REL * (1.0 + full_scale):
        return VectorialClassReport("zero", [], vect_scale, 0.0)

    sym = node_stem(symmetrization(gv), domain)  # the zero search reads it at the nodes
    sym_vals = sym.stem[:, 0]
    _require_finite(sym_vals, "g_v^s")
    sym_scale = float(np.abs(sym_vals).max())
    if sym_scale <= 1e-12 * (1.0 + vect_scale * vect_scale):  # inf, not OverflowError
        if domain.kind == "slice":
            raise ClassificationError(
                "the symmetrized vectorial part cannot vanish identically on a "
                "slice-type domain unless the vectorial part does"
            )
        return VectorialClassReport("null-symmetrization", [], vect_scale, sym_scale)
    spheres = find_zeros_sp(sym, domain)

    # stem columns of the vector components that do not vanish identically
    live = [1 + i for i in range(3) if comp_sup[i] > ZERO_REL * (1.0 + vect_scale)]
    ftol = 1e-12 * vect_scale
    classified: list[ClassifiedZero] = []
    for sz in spheres:
        c = eval_stem_many(gv, [sz.z])[0]
        av, bv = c.real[1:], c.imag[1:]
        point_tol = 1e-9 * (1.0 + vect_scale)
        if sz.z.imag == 0.0:
            order = _component_order(gv, live, sz.z, ftol)
            classified.append(
                ClassifiedZero(sz.z, sz.multiplicity, "real", order, Quaternion.coerce(sz.z.real))
            )
        elif sup_parts(c[1:]) <= point_tol:
            # a spherical zero has every component vanishing; order 0 is a
            # merged pair of isolated zeros, whose directions are lost
            order = _component_order(gv, live, sz.z, ftol)
            if not order:
                raise ClassificationError(f"g_v has no zero on the sphere of {sz.z}")
            classified.append(ClassifiedZero(sz.z, sz.multiplicity, "spherical", order, None))
        else:
            qa = Quaternion(0.0, float(av[0]), float(av[1]), float(av[2]))
            qb = Quaternion(0.0, float(bv[0]), float(bv[1]), float(bv[2]))
            if not abs(qb):  # the value A + I B = A is not 0 for any unit I
                raise ClassificationError(f"g_v has no zero on the sphere of {sz.z}")
            axis = -(qa * qb.inverse())
            if abs(axis.w) > 1e-6 or abs(abs(axis) - 1.0) > 1e-6:
                raise ClassificationError(
                    f"zero direction at {sz.z} is not an imaginary unit: {axis}"
                )
            loc = Quaternion.coerce(sz.z.real) + axis * sz.z.imag
            val = Quaternion.from_array(c.real) + axis * Quaternion.from_array(c.imag)
            if abs(val) > 1e-8 * (1.0 + vect_scale):
                raise ClassificationError(
                    f"predicted zero point {loc} does not annihilate the vectorial part"
                )
            classified.append(ClassifiedZero(sz.z, sz.multiplicity, "isolated", 0, loc))

    report = VectorialClassReport("no-zeros", classified, vect_scale, sym_scale, sym)
    if report.residual_zeros():
        report.kind = "discrete-zeros"
    return report


# ---------------------------------------------------------------------------
# polynomial factor and normalization


def factor_minimal(gv: SliceExpr, report: VectorialClassReport, domain: BasicDomainSpec):
    """Divide the maximal real-coefficient polynomial out of the vectorial part.

    Returns (coefficients highest degree first, quotient expression).  The
    quotient is exact at grid nodes away from the factored zeros and patched
    by circle means near them; the product is verified against the input.
    A quotient comes back pinned to the nodes (:func:`expr.node_stem`), so
    that its patch rings run there once.
    """
    roots: list[complex] = []
    patch: list[complex] = []
    for zc in report.factor_zeros():
        patch.append(zc.z)
        if zc.kind == "real":
            roots += [zc.z] * zc.common_order
        else:
            roots += [zc.z, np.conj(zc.z)] * zc.common_order
    if not roots:
        return np.array([1.0]), gv

    coeffs = np.poly(np.array(roots))
    if np.abs(coeffs.imag).max() > 1e-12 * np.abs(coeffs).max():
        raise FactorResidual("polynomial factor coefficients are not real")
    coeffs = coeffs.real
    quotient = QuotientBySP(gv, tuple(coeffs), tuple(patch), PATCH_CELLS * domain.h)
    quotient = node_stem(quotient, domain)

    lam = np.polyval(coeffs, domain.node_z)
    want = eval_stem_many(gv, domain.node_z)[:, 1:]
    got = quotient.stem[:, 1:] * lam[:, None]
    err = np.abs(got - want).max()
    if err > 1e-9 * (1.0 + report.vect_scale):
        raise FactorResidual(f"factored product deviates by {err:.3e}")
    return coeffs, quotient


def normalize(w_tilde: SliceExpr, domain: BasicDomainSpec, ws: SliceExpr | None = None):
    """Scale a vectorial function to unit symmetrization.

    Requires the symmetrization of ``w_tilde`` to be zero-free on the domain.
    ``ws`` is that symmetrization where the caller holds it, such as the
    g_v^s that :func:`classify_vectorial` pinned, so that the lift reads it.
    Returns (normalized expression, log field of the symmetrization); the
    normalized expression is pinned to the nodes (:func:`expr.node_stem`).
    """
    if ws is None:
        ws = symmetrization(w_tilde)

    def F(zs):
        return _leaf_at(ws, np.asarray(zs, dtype=complex))

    log_field = lift_log(F, domain, name="vector normalizer")
    inv_length = ScalarApply("exp", const(-0.5) * GridFieldExpr(log_field, "vector normalizer"))
    w = node_stem(StarMul(w_tilde, inv_length), domain)

    err = np.abs(qsym(w.stem) - 1.0).max()  # the arithmetic of Symm
    if err > 1e-10:
        raise FactorResidual(f"normalized vector has symmetrization 1 + O({err:.3e})")
    return w, log_field


def linearly_dependent(e1: SliceExpr, e2: SliceExpr, domain: BasicDomainSpec) -> bool:
    """Whether the vectorial parts of two functions are pointwise
    proportional on the domain.

    Proportionality of the holomorphic component triples is tested through
    their two-by-two minors on the grid, so a varying slice-preserving ratio
    still counts as dependent.  Only the vector columns of the stems are
    read, so a scalar part makes no difference; a function pinned to the
    domain is read in place.
    """
    c1 = _stem_at(e1, domain.node_z)[:, 1:]
    c2 = _stem_at(e2, domain.node_z)[:, 1:]
    s1 = float(np.abs(c1).max())
    s2 = float(np.abs(c2).max())
    if s1 <= 1e-300 or s2 <= 1e-300:
        return True
    worst = 0.0
    for a, b in ((0, 1), (0, 2), (1, 2)):
        minor = c1[:, a] * c2[:, b] - c1[:, b] * c2[:, a]
        worst = max(worst, float(np.abs(minor).max()))
    return worst <= DEPENDENT_REL * s1 * s2
