"""Expression trees for slice functions and their stem evaluation.

A node evaluates to its stem over complex leaf points z = x + iy, held as one
(n, 4) complex array C = A + iB: column l is the l-th quaternion component, A
and B are ``C.real`` and ``C.imag``, and the slice function value at x + Jy is
A + J B.  The i of the stem is central, so the star product of two stems is
the Hamilton product with complex coefficients: ``quaternion.qmul`` applied to
complex arrays.  Stems obey the reflection symmetry C(conj z) = conj(C(z)),
which the evaluator applies globally: batches are normalized to the upper half
plane and conjugated back afterwards, so contours may dip below the axis.

Stems are column-major: each component is one contiguous column, so the
Hamilton products read memory in order.  A constant evaluates to one (1, 4)
row that broadcasts against the stems it meets; a tree of constants alone is
widened to every point once, when its evaluation ends.

Inside a :func:`shared_stem` block, one expression's stem at one node array
is evaluated once: trees that contain the expression reuse it when evaluated
at that same array object, and compute it afresh at any other points.

Nodes carry a structural slice-preserving flag (real stem components, exact
zeros in the vector part); scalar branch functions may only be applied to
structurally slice-preserving children.  The evaluator relies on those exact
zeros: a star product with a slice-preserving factor is that factor's scalar
column times the other factor, and only a product of two other factors runs
the full Hamilton product.  The exp, cos and sin star series of F = f0 + f_v
stay in span{1, f_v}, because f_v*f_v = -f_v^s: each term is two complex
columns a + b*f_v, not a Hamilton product.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .branches import SCALAR_FUNCTIONS
from .errors import (
    DomainError,
    ExprError,
    NoConvergence,
    RealInput,
    SlicePreservingRequired,
    UnitFnOnRealAxis,
)
from .quaternion import Quaternion, qconj, qmul, qsym, split

logger = logging.getLogger(__name__)

REAL_AXIS_TOL = 1e-10
SP_GRID_TOL = 1e-10
SERIES_TOL = 1e-15
MAX_SERIES_TERMS = 200
PATCH_POINTS = 32


@dataclass(frozen=True)
class StemValue:
    """Stem components at one leaf point: the value at x + Jy is a + J*b."""

    a: Quaternion
    b: Quaternion

    def value(self, unit: Quaternion) -> Quaternion:
        return self.a + unit * self.b


class SliceExpr:
    """Base class providing operator sugar; subclasses are frozen dataclasses."""

    slice_preserving: bool

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Add(self, Neg(as_expr(other)))

    def __rsub__(self, other):
        return Add(as_expr(other), Neg(self))

    def __neg__(self):
        return Neg(self)

    def __mul__(self, other):
        return StarMul(self, as_expr(other))

    def __rmul__(self, other):
        return StarMul(as_expr(other), self)

    def __pow__(self, n: int):
        return IntPow(self, n)

    def _set_sp(self, value: bool) -> None:
        object.__setattr__(self, "slice_preserving", value)


def as_expr(value) -> SliceExpr:
    if isinstance(value, SliceExpr):
        return value
    if isinstance(value, (int, float, Quaternion)):
        return Const(Quaternion.coerce(value))
    raise ExprError(f"cannot interpret {value!r} as an expression")


@dataclass(frozen=True)
class Const(SliceExpr):
    value: Quaternion

    def __post_init__(self):
        self._set_sp(self.value.vec_norm() == 0.0)


@dataclass(frozen=True)
class VarQ(SliceExpr):
    def __post_init__(self):
        self._set_sp(True)


@dataclass(frozen=True)
class UnitFn(SliceExpr):
    """The unit slice function with stem (0, 1); undefined on the real axis."""

    def __post_init__(self):
        self._set_sp(True)


@dataclass(frozen=True)
class Add(SliceExpr):
    left: SliceExpr
    right: SliceExpr

    def __post_init__(self):
        self._set_sp(self.left.slice_preserving and self.right.slice_preserving)


@dataclass(frozen=True)
class Neg(SliceExpr):
    child: SliceExpr

    def __post_init__(self):
        self._set_sp(self.child.slice_preserving)


@dataclass(frozen=True)
class StarMul(SliceExpr):
    left: SliceExpr
    right: SliceExpr

    def __post_init__(self):
        self._set_sp(self.left.slice_preserving and self.right.slice_preserving)


@dataclass(frozen=True)
class IntPow(SliceExpr):
    child: SliceExpr
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ExprError(f"star power needs an integer exponent >= 0, got {self.n!r}")
        self._set_sp(self.child.slice_preserving)


@dataclass(frozen=True)
class RegConj(SliceExpr):
    """Regular conjugate: both stem components conjugated quaternionically."""

    child: SliceExpr

    def __post_init__(self):
        self._set_sp(self.child.slice_preserving)


@dataclass(frozen=True)
class Component(SliceExpr):
    """Coefficient function f_l of the split f = f0 + f1 i + f2 j + f3 k."""

    child: SliceExpr
    index: int

    def __post_init__(self):
        if self.index not in (0, 1, 2, 3):
            raise ExprError("component index must be 0..3")
        self._set_sp(True)


@dataclass(frozen=True)
class VectPart(SliceExpr):
    """f - f0: stem components with the real (coefficient of 1) part removed."""

    child: SliceExpr

    def __post_init__(self):
        self._set_sp(self.child.slice_preserving)


@dataclass(frozen=True)
class Symm(SliceExpr):
    """Symmetrization f0^2 + f1^2 + f2^2 + f3^2, slice preserving by construction."""

    child: SliceExpr

    def __post_init__(self):
        self._set_sp(True)


@dataclass(frozen=True)
class ScalarApply(SliceExpr):
    """A scalar branch function applied leafwise to a slice-preserving child."""

    fn: str
    child: SliceExpr

    def __post_init__(self):
        if self.fn not in SCALAR_FUNCTIONS:
            raise ExprError(f"unknown scalar function {self.fn!r}")
        if not self.child.slice_preserving:
            raise SlicePreservingRequired(
                f"{self.fn} needs a slice-preserving argument"
            )
        self._set_sp(True)


@dataclass(frozen=True)
class StarSeries(SliceExpr):
    """exp/cos/sin evaluated as a series in star powers of the child."""

    kind: str
    child: SliceExpr
    max_terms: int = MAX_SERIES_TERMS

    def __post_init__(self):
        if self.kind not in ("exp", "cos", "sin"):
            raise ExprError(f"unknown series kind {self.kind!r}")
        if not isinstance(self.max_terms, int) or self.max_terms < 1:
            raise ExprError(
                f"a star series needs an integer max_terms >= 1, got {self.max_terms!r}"
            )
        self._set_sp(self.child.slice_preserving)


@dataclass(frozen=True, eq=False)
class GridFieldExpr(SliceExpr):
    """A slice-preserving function known through a lifted field on a grid."""

    fld: object  # lifts.LiftedScalarField
    name: str = "field"

    def __post_init__(self):
        self._set_sp(True)


@dataclass(frozen=True, eq=False)
class QuotientBySP(SliceExpr):
    """Stem of the child divided by a real-coefficient polynomial in z.

    The polynomial zeros (all real or paired) are removable for the quotient;
    nodes within ``patch_radius`` of a zero are evaluated as a mean over a
    small circle, which reproduces the holomorphic quotient there.
    """

    child: SliceExpr
    coeffs: tuple  # highest degree first, np.polyval order
    zeros: tuple  # complex roots being divided out (upper representatives and real)
    patch_radius: float

    def __post_init__(self):
        self._set_sp(self.child.slice_preserving)


# ---------------------------------------------------------------------------
# evaluation

# (expression, node array, its stem before the reflection) of the active
# shared_stem block; the strong references keep id(expression) unique
_SHARED: ContextVar[tuple | None] = ContextVar("shared_stem", default=None)


def eval_stem_many(expr: SliceExpr, zs) -> np.ndarray:
    """Evaluate the stem over complex points as one (n, 4) complex array C.

    Column l holds the l-th quaternion component, so C = A + iB with A and B
    the real stem halves ``C.real`` and ``C.imag``.  C is column-major, so
    each column is contiguous.
    """
    flat = np.asarray(zs, dtype=complex).ravel()
    if not flat.size:  # no point to evaluate and no series term to sum
        return np.zeros((0, 4), dtype=complex)
    zhat = flat.real + 1j * np.abs(flat.imag)
    shared = _SHARED.get()
    seeded = shared is not None and zs is shared[1]
    # no name holds the cache, so its intermediates are freed before the reflection
    C = _eval(expr, zhat, {id(shared[0]): shared[2]} if seeded else {})
    if C.shape[0] != flat.size:  # an all-constant tree evaluates to one row
        C = np.broadcast_to(C, (flat.size, 4)).copy(order="F")
    lower = flat.imag < 0
    return np.where(lower[:, None], C.conj(), C) if lower.any() else C


@contextmanager
def shared_stem(expr: SliceExpr, nodes: np.ndarray):
    """Evaluate the stem of ``expr`` at the array ``nodes`` once and yield it.

    Until the block ends, every :func:`eval_stem_many` call handed that same
    array object reuses the stem wherever ``expr`` occurs in the evaluated
    tree.  Other points are evaluated as usual.  Overflow in the stem raises no
    warning: the values may be non-finite, and the caller must check them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        C = eval_stem_many(expr, nodes)
    lower = (np.asarray(nodes).imag < 0).ravel()
    pre = np.where(lower[:, None], C.conj(), C) if lower.any() else C  # undo the reflection
    pre.flags.writeable = False  # handed out to every evaluation of ``expr`` itself
    token = _SHARED.set((expr, nodes, pre))
    try:
        yield C
    finally:
        _SHARED.reset(token)


def slice_values(C: np.ndarray, unit: Quaternion) -> np.ndarray:
    """Values A + unit*B on the slice of ``unit``, from a stem C = A + iB."""
    return C.real + qmul(unit.to_array()[None, :], C.imag)


def sup_parts(C: np.ndarray) -> float:
    """Largest entry of |A| and |B| over a stem array C = A + iB."""
    return float(max(np.abs(C.real).max(), np.abs(C.imag).max()))


def eval_stem(expr: SliceExpr, z: complex) -> StemValue:
    c = eval_stem_many(expr, [z])[0]
    return StemValue(Quaternion.from_array(c.real), Quaternion.from_array(c.imag))


def evaluate(expr: SliceExpr, q) -> Quaternion:
    """Value of the slice function at a quaternion point.

    Real points use the slice-domain rule f(x) = A(x), valid only when the
    stem has B(x) = 0 within tolerance.  A point with an infinite or NaN
    component has no splitting q = x + Iy and raises :class:`DomainError`.
    """
    q = Quaternion.coerce(q)
    if not np.isfinite(q.to_array()).all():
        raise DomainError(f"no value at the non-finite point {q!r}")
    try:
        x, y, unit = split(q)
    except RealInput:
        stem = eval_stem(expr, complex(q.w, 0.0))
        if abs(stem.b) > REAL_AXIS_TOL * (1.0 + abs(stem.a)):
            raise DomainError(
                f"no well-defined value at the real point {q.w}: stem B = {stem.b!r}"
            ) from None
        return stem.a
    return eval_stem(expr, complex(x, y)).value(unit)


def eval_many(expr: SliceExpr, zs, unit: Quaternion) -> np.ndarray:
    """Values A + unit*B over a batch of leaf points, as an (n, 4) array."""
    return slice_values(eval_stem_many(expr, zs), unit)


def stem_complex(expr: SliceExpr, zs) -> np.ndarray:
    """Leaf form a + ib of a slice-preserving expression over a batch."""
    if not expr.slice_preserving:
        raise SlicePreservingRequired("leaf form exists only for slice-preserving expressions")
    return eval_stem_many(expr, zs)[:, 0]


def is_slice_preserving(expr: SliceExpr, domain=None) -> bool:
    """Structural flag, optionally cross-checked numerically on a domain grid.

    On disagreement the structural answer wins and the discrepancy is logged:
    numerically vanishing vector parts do not make an expression structurally
    slice preserving.
    """
    structural = expr.slice_preserving
    if domain is not None and domain.n_nodes:
        C = eval_stem_many(expr, domain.node_z)
        vec = sup_parts(C[:, 1:])
        numeric = vec <= SP_GRID_TOL * (1.0 + sup_parts(C))
        if numeric != structural:
            logger.warning(
                "slice-preserving flag %s disagrees with grid check %s (sup vec %.2e)",
                structural,
                numeric,
                vec,
            )
    return structural


def _scalar(values: np.ndarray) -> np.ndarray:
    """Stem with ``values`` as its scalar component and a zero vector part."""
    out = np.zeros(values.shape + (4,), dtype=complex, order="F")
    out[..., 0] = values
    return out


def _star(a: np.ndarray, b: np.ndarray, a_sp: bool, b_sp: bool) -> np.ndarray:
    """Star product a*b of two stems; a_sp and b_sp flag slice-preserving factors.

    A slice-preserving factor has exact zeros in its vector columns, so the
    product is its scalar column times the other factor, in the same order.
    """
    if not (a_sp or b_sp):
        return qmul(a, b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), complex, order="F")
    return np.multiply(a[:, :1] if a_sp else a, b if a_sp else b[:, :1], out=out)


def _eval(expr: SliceExpr, z: np.ndarray, cache: dict) -> np.ndarray:
    key = id(expr)
    hit = cache.get(key)
    if hit is not None:
        return hit
    n = z.size

    if isinstance(expr, Const):
        out = expr.value.to_array().astype(complex)[None, :]
    elif isinstance(expr, VarQ):
        out = _scalar(z)
    elif isinstance(expr, UnitFn):
        if (z.imag == 0).any():
            raise UnitFnOnRealAxis("the unit function I has no value on the real axis")
        out = _scalar(np.full(n, 1j))
    elif isinstance(expr, Add):
        out = _eval(expr.left, z, cache) + _eval(expr.right, z, cache)
    elif isinstance(expr, Neg):
        out = -_eval(expr.child, z, cache)
    elif isinstance(expr, StarMul):
        a, b = _eval(expr.left, z, cache), _eval(expr.right, z, cache)
        out = _star(a, b, expr.left.slice_preserving, expr.right.slice_preserving)
    elif isinstance(expr, IntPow):
        base = _eval(expr.child, z, cache)
        sp = expr.child.slice_preserving
        out = None
        m = expr.n
        while m:
            if m & 1:
                out = base if out is None else _star(out, base, sp, sp)
            m >>= 1
            if m:
                base = _star(base, base, sp, sp)
        if out is None:  # the zeroth power
            out = _scalar(np.ones(n))
    elif isinstance(expr, RegConj):
        out = qconj(_eval(expr.child, z, cache))
    elif isinstance(expr, Component):
        out = _scalar(_eval(expr.child, z, cache)[:, expr.index])
    elif isinstance(expr, VectPart):
        out = _eval(expr.child, z, cache).copy(order="K")
        out[:, 0] = 0.0
    elif isinstance(expr, Symm):
        out = _scalar(qsym(_eval(expr.child, z, cache)))
    elif isinstance(expr, ScalarApply):
        w = SCALAR_FUNCTIONS[expr.fn](_eval(expr.child, z, cache)[:, 0])
        out = _scalar(np.asarray(w, dtype=complex))
    elif isinstance(expr, StarSeries):
        out = _star_series(expr, _eval(expr.child, z, cache))
    elif isinstance(expr, GridFieldExpr):
        out = _scalar(np.asarray(expr.fld.sample(z), dtype=complex))
    elif isinstance(expr, QuotientBySP):
        out = _eval_quotient(expr, z, cache)
    else:
        raise ExprError(f"cannot evaluate node {type(expr).__name__}")

    cache[key] = out
    return out


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real * x.real + x.imag * x.imag


def _star_series(expr: StarSeries, F: np.ndarray) -> np.ndarray:
    """Sum the exp, cos or sin series in star powers of F = f0 + f_v.

    The i of the stem is central, so f_v*f_v = -s with s = f_v1^2 + f_v2^2 +
    f_v3^2, and every term is a + b*f_v with complex columns a and b.  A step
    multiplies the term by c + d*f_v, which is F for exp and F*F = (f0^2 - s)
    + 2*f0*f_v for cos and sin, and divides it by its factorial ratio.  The
    stop test reads |a + b*f_v|^2 = |a|^2 + |b|^2*|f_v|^2; a term or partial
    sum whose squared norm is not finite raises :class:`NoConvergence`.
    """
    f0, fv = F[:, 0], F[:, 1:]
    one, zero = np.ones_like(f0), np.zeros_like(f0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        s = fv[:, 0] * fv[:, 0] + fv[:, 1] * fv[:, 1] + fv[:, 2] * fv[:, 2]
        w = _abs2(fv[:, 0]) + _abs2(fv[:, 1]) + _abs2(fv[:, 2])
        if expr.kind == "exp":
            c, d, a, b = f0, 1.0, one, zero
        else:
            c, d = f0 * f0 - s, 2.0 * f0
            a, b = (one, zero) if expr.kind == "cos" else (f0, one)
        ds, odd = d * s, expr.kind == "sin"
        ta, tb = a.copy(), b.copy()
        for m in range(1, expr.max_terms):
            r = 1.0 / (m if expr.kind == "exp" else -(2 * m - 1 + odd) * (2 * m + odd))
            a, b = (a * c - b * ds) * r, (a * d + b * c) * r
            ta += a
            tb += b
            term = np.sqrt((_abs2(a) + _abs2(b) * w).max())
            total = np.sqrt((_abs2(ta) + _abs2(tb) * w).max())
            if not (np.isfinite(term) and np.isfinite(total)):
                raise NoConvergence(f"{expr.kind} star series has a term that is not finite")
            if term <= SERIES_TOL * (1.0 + total):
                break
        else:
            raise NoConvergence(f"{expr.kind} star series did not converge")
    out = np.empty(F.shape, complex, order="F")
    out[:, 0] = ta
    np.multiply(tb[:, None], fv, out=out[:, 1:])
    return out


def _eval_quotient(expr: QuotientBySP, z: np.ndarray, cache: dict) -> np.ndarray:
    coeffs = np.asarray(expr.coeffs, dtype=float)
    dist = np.full(z.shape, np.inf)
    for r in expr.zeros:
        dist = np.minimum(dist, np.abs(z - r))
        if abs(complex(r).imag) > 1e-14:
            dist = np.minimum(dist, np.abs(z - np.conj(complex(r))))
    near = dist < expr.patch_radius

    denom = np.where(near, 1.0, np.polyval(coeffs, z))
    out = _eval(expr.child, z, cache) / denom[:, None]

    if near.any():
        # removable singularity: mean over a circle avoiding every zero,
        # one batch for the rings of all near nodes
        R = 2.0 * expr.patch_radius
        theta = 2.0 * np.pi * (np.arange(PATCH_POINTS) + 0.37) / PATCH_POINTS
        pts = (z[near, None] + R * np.exp(1j * theta)).ravel()
        ring = eval_stem_many(expr.child, pts) / np.polyval(coeffs, pts)[:, None]
        out[near] = ring.reshape(-1, PATCH_POINTS, 4).mean(axis=1)
    return out


# convenient singletons for building expressions
Q = VarQ()
UNIT = UnitFn()


def const(value) -> Const:
    return Const(Quaternion.coerce(value))
