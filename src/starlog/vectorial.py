"""Zero sets and structure of the vectorial part of a slice function.

Scalar coefficients of slice functions have holomorphic stem components, so
zeros are located by the argument principle.  A winding count with adaptive
boundary sampling around the padded bounding box gives their number; when it
is not 0, one pass over the values at the grid nodes places them.  A cell
whose corner values turn by less than pi/4 along every edge holds no zero.
The other cells form clusters, each counted on its own rectangle.  A cluster
inside the box is read off a circle inside its rectangle: the Fourier
coefficients of log F on it give the power sums of the zeros inside (Delves
and Lyness, Math. Comp. 21, 1967), and its count certifies it.  A cluster
whose circle fails, or that reaches the box contour, is subdivided into
negligibly small cells, read off circles of their own.  Each batched round
(the open winding counts, a subdivision level, the circles of a stage) makes
one stem evaluation.  Zeros come back in the depth-first order of a quadrant
subdivision of the box (lower left, lower right, upper left, upper right).

Zeros of the symmetrized vectorial part split into three kinds.  At a real
point or along a whole sphere every component vanishes and a real-coefficient
polynomial factors out; at an isolated point the components stay nonzero and
the zero direction is carried by a single quaternion on the sphere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import symmetrization, vect_part
from .domain import BasicDomainSpec
from .errors import (
    BoundaryZero,
    ClassificationError,
    DomainError,
    FactorResidual,
    NoConvergence,
    SlicePreservingRequired,
    Vanishing,
)
from .expr import (
    GridFieldExpr,
    QuotientBySP,
    ScalarApply,
    SliceExpr,
    StarMul,
    const,
    eval_stem_many,
    shared_stem,
    stem_complex,
    sup_parts,
)
from .lifts import lift_log
from .quaternion import Quaternion

logger = logging.getLogger(__name__)

ZERO_REL = 1e-10  # identically-zero threshold, relative to the function scale
BOUNDARY_MARGIN = 1e-8  # zeros this close to the domain boundary are ambiguous
PATCH_CELLS = 4  # removable-singularity patch radius, in grid cells

_CELL_STOP = 1e-6  # subdivision stops at this fraction of the search box
_WIND_START = 32  # boundary samples per cell edge, doubled on demand
_WIND_CAP = 1 << 14
_CUT_RATIOS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39)
_MERGE_TOL = 3e-6  # zeros this close together come back as one
_MOMENT_N = 64  # samples per moment circle
_MOMENT_TOL = 1e-10  # error bound of a moment read, relative to 1 + |z|
_MOMENT_CAP = 6  # most distinct zeros read off one circle: power sums past it are ill-conditioned
_CENTRAL_TOL = 1e-10  # central power sums under this, in units of rho^k, make one m-fold zero


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
    """Structure of the vectorial part over a domain."""

    kind: str  # "zero" | "null-symmetrization" | "no-zeros" | "discrete-zeros"
    zeros: list
    vect_scale: float
    sym_scale: float

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


def _windings(F, rects, ftol: float, cols=None) -> list:
    """Winding numbers of F around rectangles (x0, x1, y0, y1), one F call
    per round for every count still open.

    F maps points to one value each, or to a row of which rectangle i reads
    column ``cols[i]``.  A count is None where a boundary sample sits on a
    zero (the cut must move) or where it does not settle by ``_WIND_CAP``
    samples per edge.
    """
    counts: list = [None] * len(rects)
    ns = [_WIND_START] * len(rects)
    open_ = list(range(len(rects)))
    while open_:
        contours = []
        for i in open_:
            x0, x1, y0, y1 = rects[i]
            corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
            ts = np.arange(ns[i]) / ns[i]
            contours.append(
                np.concatenate(
                    [a + (b - a) * ts for a, b in zip(corners, corners[1:] + corners[:1])]
                )
            )
        pts = np.concatenate(contours)
        table = np.asarray(F(pts), dtype=complex).reshape(len(pts), -1)
        still = []
        start = 0
        for i, contour in zip(open_, contours):
            vals = table[start : start + len(contour), 0 if cols is None else cols[i]]
            start += len(contour)
            mags = np.abs(vals)
            # a zero sits on the contour only if some sample is small against the
            # contour's own range; near a high-order zero the whole contour is
            # small against the global scale, which must not count
            if mags.min() < min(ftol, 1e-9 * mags.max()):
                continue
            dargs = np.angle(np.roll(vals, -1) / vals)
            if np.max(np.abs(dargs)) < 1.5:
                total = dargs.sum() / (2.0 * np.pi)
                k = round(total)
                if abs(total - k) < 1e-6:
                    counts[i] = k
                    continue
            if ns[i] < _WIND_CAP:
                ns[i] *= 2
                still.append(i)
        open_ = still
    return counts


def _quads(x0, x1, y0, y1, rx):
    xm = x0 + rx * (x1 - x0)
    ym = y0 + rx * (y1 - y0)
    return [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]


def _split(F, rect, count: int, ftol: float, stop: float) -> list:
    """Cells of at most ``stop`` holding the zeros inside ``rect``, as
    (cell, count) in depth-first quadrant order.

    All cells of a level are cut in one batched count of their quadrants; a
    cell whose quadrant counts fail or do not add up to its own retries the
    next ratio of ``_CUT_RATIOS`` in the next round.
    """
    found = []  # (quadrant path, rect, count)
    pending = []  # (rect, count, path, index into _CUT_RATIOS)

    def visit(rect, count, path):
        x0, x1, y0, y1 = rect
        if count == 0:
            return
        if max(x1 - x0, y1 - y0) <= stop:
            found.append((path, rect, count))
        else:
            pending.append((rect, count, path, 0))

    visit(rect, count, ())
    while pending:
        work, pending = pending, []
        quads = [_quads(*rect, _CUT_RATIOS[r]) for rect, _, _, r in work]
        counts = _windings(F, [qd for qs in quads for qd in qs], ftol)
        for k, ((rect, count, path, r), qs) in enumerate(zip(work, quads)):
            cs = counts[4 * k : 4 * k + 4]
            if None not in cs and sum(cs) == count:
                for j, (qd, c) in enumerate(zip(qs, cs)):
                    visit(qd, c, path + (j,))
                continue
            x0, x1, y0, y1 = rect
            if r + 1 < len(_CUT_RATIOS):
                logger.debug(
                    "cell [%g,%g]x[%g,%g] retries cut ratio %g",
                    x0, x1, y0, y1, _CUT_RATIOS[r + 1],
                )
                pending.append((rect, count, path, r + 1))
            elif max(x1 - x0, y1 - y0) <= 1e4 * stop:
                # a multiple zero flattens the function below the edge tolerance on
                # every candidate cut; the cell is one cluster, its circle reads it
                found.append((path, rect, count))
            else:
                raise NoConvergence("zeros could not be separated from the subdivision cuts")
    found.sort(key=lambda item: item[0])
    return [(rect, c) for _, rect, c in found]


def _moments(F, circles, counts, ftol: float) -> list:
    """Zeros inside circles (c, rho) holding ``counts`` zeros, read off log F
    at _MOMENT_N points of each circle, one F call for all: with m zeros
    inside, the coefficient of exp(-ik theta) in L = log|F| + i(arg F - m theta)
    is -p_k / (k rho^k), p_k the sum of the k-th powers of the zeros' offsets
    from c.  Returns per circle a list of (z, multiplicity) or the guard that
    failed: "count", "tail" (the coefficients near order _MOMENT_N / 2, which
    bound the noise and aliasing of the power sums, allow an error above
    _MOMENT_TOL) or "cap" (more than _MOMENT_CAP distinct zeros)."""
    if not circles:
        return []
    n = _MOMENT_N
    theta = 2.0 * np.pi * np.arange(n) / n
    # the discrete Fourier transform as a matrix: np.fft would load its module
    dft = np.exp(-1j * theta)[np.outer(np.arange(n), np.arange(n)) % n] / n
    table = np.asarray(F(np.concatenate([c + rho * np.exp(1j * theta) for c, rho in circles])))
    out: list = []
    for (c, rho), m, vals in zip(circles, counts, table.reshape(len(circles), n)):
        mags = np.abs(vals)
        ok = m >= 1 and np.isfinite(mags).all() and mags.min() >= min(ftol, 1e-9 * mags.max())
        steps = np.angle(np.roll(vals, -1) / vals) if ok else None
        if not ok or np.abs(steps).max() >= 1.5 or abs(steps.sum() / (2.0 * np.pi) - m) >= 1e-6:
            out.append("count")
            continue
        coef = (dft * (np.log(mags) + 1j * (np.unwrap(np.angle(vals)) - m * theta))).sum(axis=1)
        tail = float(np.abs(coef[3 * n // 8 : 5 * n // 8 + 1]).max())
        if rho * tail > _MOMENT_TOL * (1.0 + abs(c)):
            out.append("tail")
            continue
        # power sums in units of rho^k, then central sums: 0 at one m-fold zero
        s = [m] + [-k * coef[n - k] for k in range(1, m + 1)]
        b = -s[1] / m  # minus the centroid
        q = [sum(math.comb(k, i) * s[i] * b ** (k - i) for i in range(k + 1)) for k in range(m + 1)]
        if all(abs(q[k]) <= _CENTRAL_TOL + k * 2**k * tail for k in range(2, m + 1)):
            out.append([(complex(c - rho * b), m)])
        elif m > _MOMENT_CAP:
            out.append("cap")
        else:  # elementary symmetric sums of the offsets from the centroid
            e = [1.0]
            for k in range(1, m + 1):
                e.append(sum((-1) ** (i - 1) * e[k - i] * q[i] for i in range(1, k + 1)) / k)
            roots = np.roots([(-1) ** k * ek for k, ek in enumerate(e)])
            out.append([(complex(c + rho * (v - b)), 1) for v in roots])
    return out


# ---------------------------------------------------------------------------
# the node pass: zeros seeded from the grid


def _grid_values(F, domain: BasicDomainSpec, node_vals, box) -> tuple:
    """Cell breaks (bx, by) and the values W of F at every break point.

    The breaks are the domain's grid lines, framed by the edges of the search
    box: the full xs x ys lattice, mirrored below the axis on slice domains,
    and a ring on the box contour.  The nodes keep ``node_vals``, the mirrored
    rows are their conjugates, and one F call fills in the lattice points off
    the domain and the ring.
    """
    mask, ys = domain.mask, domain.ys
    X, Y = np.meshgrid(domain.xs, ys)
    off = ~mask
    n_off = int(off.sum())
    if domain.kind == "slice":
        low = ys.size - (1 if ys.size and ys[0] == 0.0 else 0)  # the axis row is its own mirror
        ys = np.concatenate([-ys[::-1][:low], ys])
    bx = np.concatenate([[box[0]], domain.xs, [box[1]]])
    by = np.concatenate([[box[2]], ys, [box[3]]])
    ring = [bx + 1j * box[2], bx + 1j * box[3], box[0] + 1j * ys, box[1] + 1j * ys]
    with np.errstate(all="ignore"):  # a value that is not finite makes its cells unsafe
        vals = np.asarray(F(np.concatenate([X[off] + 1j * Y[off]] + ring)), dtype=complex)
    U = np.empty(mask.shape, dtype=complex)
    U[mask] = node_vals
    U[off] = vals[:n_off]
    if domain.kind == "slice":
        U = np.concatenate([U[::-1][:low].conj(), U])
    W = np.empty((by.size, bx.size), dtype=complex)
    W[1:-1, 1:-1] = U
    ends = np.cumsum([bx.size, bx.size, ys.size])
    W[0], W[-1], W[1:-1, 0], W[1:-1, -1] = np.split(vals[n_off:], ends)
    return bx, by, W


def _unsafe_cells(W, ftol: float) -> np.ndarray:
    """Cells of the break lattice whose corner values do not certify them.

    A cell is safe when every edge step ``np.angle(w_b / w_a)`` is under pi/4
    and no corner is near zero or not finite.  Its four steps then turn by
    less than pi in all, so its winding rounds to 0: a safe cell holds no zero.
    """
    good = np.isfinite(W) & (np.abs(W) > ftol)
    with np.errstate(all="ignore"):
        okx = good[:, 1:] & good[:, :-1] & (np.abs(np.angle(W[:, 1:] / W[:, :-1])) < np.pi / 4)
        oky = good[1:] & good[:-1] & (np.abs(np.angle(W[1:] / W[:-1])) < np.pi / 4)
    return ~(okx[:-1] & okx[1:] & oky[:, :-1] & oky[:, 1:])


def _components(mask: np.ndarray) -> np.ndarray:
    """Labels of the 8-connected components of ``mask`` (-1 outside it)."""
    ny, nx = mask.shape
    lab = np.where(mask, np.arange(mask.size).reshape(mask.shape), -1)
    while True:
        p = np.pad(lab, 1, constant_values=-1)
        new = lab.copy()
        for dj in range(3):
            for di in range(3):
                np.maximum(new, p[dj : dj + ny, di : di + nx], out=new)
        new[~mask] = -1
        new[mask] = new.flat[new[mask]]  # a label is a cell of the component: take its label
        if np.array_equal(new, lab):
            return lab
        lab = new


def _clusters(bad: np.ndarray) -> list:
    """Inclusive cell ranges (j0, j1, i0, i1) covering the cells of ``bad``:
    bounding boxes of its 8-connected groups, merged until no two touch.

    Boxes that do not touch, padded by half a cell, do not overlap.
    """
    while True:
        lab = _components(bad)
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


def _depth_first(found: list, rect, stop: float) -> list:
    """The (z, multiplicity) pairs ``found`` in the depth-first quadrant
    order in which _split over ``rect`` meets them.

    Each cell is cut at the first ratio of _CUT_RATIOS whose cut lines pass
    no zero of odd multiplicity closer than 2**-15 of the cell's side: that
    near, the phase jumps by an odd multiple of pi along the cut, the sampled
    counts of its quadrants fail, and _split moves on to the next ratio.  A
    zero of even multiplicity on a cut turns the phase by no more than the
    samples see, so _split counts half of it on either side and meets it
    first on the lower or left one.  A cell holding one zero, or no larger
    than ``stop``, is a leaf.
    """
    out: list = []

    def visit(part, rect):
        x0, x1, y0, y1 = rect
        side = max(x1 - x0, y1 - y0)
        if len(part) < 2 or side <= stop:
            out.extend(part)
            return
        near = 2.0**-15 * side
        odd = [z for z, m in part if m % 2]
        for r in _CUT_RATIOS:
            quads = _quads(x0, x1, y0, y1, r)
            xm, ym = quads[0][1], quads[0][3]
            if all(min(abs(z.real - xm), abs(z.imag - ym)) > near for z in odd):
                break
        sides = [(z.real - xm > near, z.imag - ym > near) for z, _ in part]
        for j, quad in enumerate(quads):
            visit([zm for zm, s in zip(part, sides) if s == (bool(j & 1), bool(j & 2))], quad)

    visit(found, rect)
    return out


def _cell_circles(cells: list) -> list:
    """Moment circles (centre, radius), each about a cell of _split with its
    diagonal as radius, and counts.  Cells whose circles meet are joined and
    their counts summed: _split counts an even zero on a cut half in either
    cell, and one circle must hold it whole."""
    circles = [
        (complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), math.hypot(x1 - x0, y1 - y0))
        for (x0, x1, y0, y1), _ in cells
    ]
    for a, (ca, pa) in enumerate(circles):
        for b, (cb, pb) in enumerate(circles[:a]):
            if abs(ca - cb) <= pa + pb:
                (ra, ma), (rb, mb) = cells[a], cells[b]
                hull = (min(ra[0], rb[0]), max(ra[1], rb[1]), min(ra[2], rb[2]), max(ra[3], rb[3]))
                rest = [cell for k, cell in enumerate(cells) if k not in (a, b)]
                return _cell_circles(rest + [(hull, ma + mb)])
    return [(circle, m) for circle, (_, m) in zip(circles, cells)]


def _grid_zeros(F, domain: BasicDomainSpec, node_vals, box, total: int, ftol: float, stop: float):
    """Zeros inside the search box from one pass over the node lattice.

    Returns (zeros, cells): the (z, multiplicity) pairs read off the moment
    circles of the clusters, and the (cell, count) pairs that _split found
    in the clusters left over, still to be read.  Raises NoConvergence when
    a count fails or the counts do not add up to the box count ``total``.
    """
    bx, by, W = _grid_values(F, domain, node_vals, box)
    bad = _unsafe_cells(W, ftol)
    # a cluster that reaches the box contour takes the whole of that side, so
    # that its count samples the side where the box count did: a double zero
    # near a contour can turn the phase by 2 pi between two samples unseen
    for side in (bad[0], bad[-1], bad[:, 0], bad[:, -1]):
        if side.any():
            side[:] = True
    rects, circles, inner = [], [], []
    for j0, j1, i0, i1 in _clusters(bad):
        inner.append(0 < i0 and i1 < bx.size - 2 and 0 < j0 and j1 < by.size - 2)
        # pad by half a cell into the safe cells around, or up to the box edge
        x0 = bx[0] if i0 == 0 else 0.5 * (bx[i0 - 1] + bx[i0])
        x1 = bx[-1] if i1 == bx.size - 2 else 0.5 * (bx[i1 + 1] + bx[i1 + 2])
        y0 = by[0] if j0 == 0 else 0.5 * (by[j0 - 1] + by[j0])
        y1 = by[-1] if j1 == by.size - 2 else 0.5 * (by[j1 + 1] + by[j1 + 2])
        rects.append((x0, x1, y0, y1))
        # the moment circle about the lattice point of least |F| lies inside the
        # rectangle: if it counts the cluster's zeros, it holds them and no other
        mags = np.abs(W[j0 : j1 + 2, i0 : i1 + 2])
        j, i = np.unravel_index(np.argmin(np.where(np.isfinite(mags), mags, np.inf)), mags.shape)
        c = complex(bx[i0 + i], by[j0 + j])
        circles.append((c, min(2.0 * domain.h, c.real - x0, x1 - c.real, c.imag - y0, y1 - c.imag)))
    counts = _windings(F, rects, ftol)
    if None in counts or sum(counts) != total:
        raise NoConvergence(f"grid clusters count {counts} zeros, the search box {total}")

    # a cluster on the box contour shares its samples with the box count, and
    # both can miss the same double zero near the contour: only a subdivision,
    # which samples ever smaller cells, finds it there
    held = [k for k, c in enumerate(counts) if c and inner[k]]
    read = dict(zip(held, _moments(F, [circles[k] for k in held], [counts[k] for k in held], ftol)))
    zeros, cells = [], []
    for k, c in enumerate(counts):
        got = read.get(k, "contour")
        if isinstance(got, list):
            zeros += got
        elif c:
            logger.debug(
                "cluster [%g,%g]x[%g,%g] with %d zero(s) fails its %s guard, subdividing",
                *rects[k], c, got,
            )
            cells += _split(F, rects[k], c, ftol, stop)
    return zeros, cells


def find_zeros_sp(expr: SliceExpr, domain: BasicDomainSpec) -> list[SphereZero]:
    """Zeros of a slice-preserving function over the domain, as upper stem points.

    The winding number around the bounding box, padded past the boundary,
    counts the zeros; when it is not 0, _grid_zeros places them from the
    node values and reads each cluster off one circle, and the cells of the
    clusters it subdivides are read off circles of their own.  Zeros within
    _MERGE_TOL of each other come back as one, in the depth-first quadrant
    order of the box (lower left, lower right, upper left, upper right).

    Raises Vanishing when the function is identically zero, BoundaryZero when
    a zero falls inside the ambiguity band around the domain boundary, and
    NoConvergence when the circle of a subdivision cell fails.
    """
    if not expr.slice_preserving:
        raise SlicePreservingRequired("zero search expects a slice-preserving function")

    def F(zs):
        return stem_complex(expr, np.asarray(zs, dtype=complex))

    node_vals = F(domain.node_z)
    scale = float(np.abs(node_vals).max())
    if scale <= 1e-300:
        raise Vanishing("cannot locate zeros of the zero function")
    ftol = 1e-12 * scale

    if domain.kind == "slice":
        box = (domain.xmin, domain.xmax, -domain.ymax, domain.ymax)
    else:
        box = (domain.xmin, domain.xmax, domain.ymin, domain.ymax)
    stop = _CELL_STOP * max(box[1] - box[0], box[3] - box[2])

    for attempt in range(6):
        pad = (1e-3 + 2.3e-3 * attempt) * domain.h
        cell = (box[0] - pad, box[1] + pad, box[2] - pad, box[3] + pad)
        (total,) = _windings(F, [cell], ftol)
        if total is None:
            continue
        if total == 0:
            found, cells = [], []
            break
        try:
            found, cells = _grid_zeros(F, domain, node_vals, cell, total, ftol, stop)
            break
        except NoConvergence:
            continue
    else:
        raise BoundaryZero("a zero sits persistently on the search boundary")

    groups = _cell_circles(cells)
    for read, (circle, _) in zip(_moments(F, *zip(*groups), ftol) if groups else [], groups):
        if isinstance(read, str):
            raise NoConvergence(f"zeros near {circle[0]} fail their moment circle's {read} guard")
        found += read
    found = _depth_first(found, cell, stop)

    merged: list[tuple[complex, int]] = []
    for z, m in found:
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
        counts = _windings(F, [square] * len(cols), ftol, cols)
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

    Raises DomainError where g or g_v^s is not finite at a grid node.
    """
    gv = vect_part(g)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        C = eval_stem_many(g, domain.node_z)
    _require_finite(C, "g")
    full_scale = sup_parts(C)
    comps = C[:, 1:]  # the vector part of g has the same components
    comp_sup = np.abs(comps).max(axis=0)
    vect_scale = float(comp_sup.max())

    if vect_scale <= ZERO_REL * (1.0 + full_scale):
        return VectorialClassReport("zero", [], vect_scale, 0.0)

    sym = symmetrization(gv)
    # one evaluation of g_v^s at the nodes, which find_zeros_sp reads again
    with shared_stem(sym, domain.node_z) as S:
        sym_vals = S[:, 0]
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
            order = _component_order(gv, live, sz.z, ftol)
            classified.append(ClassifiedZero(sz.z, sz.multiplicity, "spherical", order, None))
        else:
            qa = Quaternion(0.0, float(av[0]), float(av[1]), float(av[2]))
            qb = Quaternion(0.0, float(bv[0]), float(bv[1]), float(bv[2]))
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

    report = VectorialClassReport("no-zeros", classified, vect_scale, sym_scale)
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

    lam = np.polyval(coeffs, domain.node_z)
    want = eval_stem_many(gv, domain.node_z)[:, 1:]
    got = eval_stem_many(quotient, domain.node_z)[:, 1:] * lam[:, None]
    err = np.abs(got - want).max()
    if err > 1e-9 * (1.0 + report.vect_scale):
        raise FactorResidual(f"factored product deviates by {err:.3e}")
    return coeffs, quotient


def normalize(w_tilde: SliceExpr, domain: BasicDomainSpec):
    """Scale a vectorial function to unit symmetrization.

    Requires the symmetrization of ``w_tilde`` to be zero-free on the domain.
    Returns (normalized expression, log field of the symmetrization).
    """
    ws = symmetrization(w_tilde)

    def F(zs):
        return stem_complex(ws, np.asarray(zs, dtype=complex))

    log_field = lift_log(F, domain, name="vector normalizer")
    inv_length = ScalarApply("exp", const(-0.5) * GridFieldExpr(log_field, "vector normalizer"))
    w = StarMul(w_tilde, inv_length)

    unit_vals = stem_complex(symmetrization(w), domain.node_z)
    err = np.abs(unit_vals - 1.0).max()
    if err > 1e-10:
        raise FactorResidual(f"normalized vector has symmetrization 1 + O({err:.3e})")
    return w, log_field


def linearly_dependent(
    e1: SliceExpr, e2: SliceExpr, domain: BasicDomainSpec, tol: float = 1e-9
) -> bool:
    """Whether two vectorial functions are pointwise proportional on the domain.

    Proportionality of the holomorphic component triples is tested through
    their two-by-two minors on the grid, so a varying slice-preserving ratio
    still counts as dependent.
    """
    c1 = eval_stem_many(e1, domain.node_z)[:, 1:]
    c2 = eval_stem_many(e2, domain.node_z)[:, 1:]
    s1 = float(np.abs(c1).max())
    s2 = float(np.abs(c2).max())
    if s1 <= 1e-300 or s2 <= 1e-300:
        return True
    worst = 0.0
    for a, b in ((0, 1), (0, 2), (1, 2)):
        minor = c1[:, a] * c2[:, b] - c1[:, b] * c2[:, a]
        worst = max(worst, float(np.abs(minor).max()))
    return worst <= tol * s1 * s2
