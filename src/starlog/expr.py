"""Expression trees for slice functions and their stem evaluation.

A node evaluates to its stem over complex leaf points z = x + iy, held as one
(n, 4) complex array C = A + iB: column l is the l-th quaternion component, A
and B are ``C.real`` and ``C.imag``, and the slice function value at x + Jy is
A + J B.  The i of the stem is central, so the star product of two stems is
the Hamilton product with complex coefficients: ``quaternion.qmul`` applied to
complex arrays.  Stems obey the reflection symmetry C(conj z) = conj(C(z)),
which the evaluator applies globally: batches are normalized to the upper half
plane and conjugated back afterwards, so contours may dip below the axis.

A tree is compiled once, on its first evaluation, into a program kept on its
root: a post-order list of steps over numbered slots, one per distinct node.
A step is a function of its inputs' stems, so the steps of a program that a
subtree's root already keeps are spliced in, renumbered: a tree derived from
a compiled g (g_v^s, g_0, exp_*(f)) compiles its own nodes only, a node that
two kept programs compute gets one slot, and every run is one loop.
A subtree that reads no points (no q, I, lifted field or quotient) and holds
no star series is folded at compile time into one (1, 4) row by the same
step functions, so folding changes no bit; the row broadcasts against the
stems it meets, and a tree that ends in one row (constants alone, or a star
series of a constant) is widened to every point when its run ends.  A step
that meets a floating-point error is not folded, so each evaluation meets
it under its own ``np.errstate``.  Slice-preserving flags and star-product
kernels are fixed at compile time, and each slot is freed after its last
consumer.  Stems are column-major: each component is one contiguous column.

Inside a :func:`shared_stem` block, one expression's stem at one node array
is evaluated once: a tree that contains the expression and is evaluated at
that same array object runs a copy of its program pruned of the steps that
only feed the expression, whose slot the stem fills.  At other points the
expression is computed afresh, and no program keeps the stem.

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
from typing import NamedTuple

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
# shared_stem block
_SHARED: ContextVar[tuple | None] = ContextVar("shared_stem", default=None)

# nodes that are never folded: q, I and a lifted field read the points, a
# quotient patches the points near its zeros, and a star series is summed
# term by term at every run
_VARYING = (VarQ, UnitFn, GridFieldExpr, QuotientBySP, StarSeries)
# the points a constant subtree is folded at; only the zeroth power reads them
_FOLD_Z = np.zeros(1, dtype=complex)


class _Program(NamedTuple):
    """``slots`` holds the folded rows and None for the other slots.  A step
    (run, out, ins, dead) fills slot ``out`` with ``run(z, *stems)`` of the
    ``ins`` slots and frees the ``dead`` slots.  ``computed`` maps the id of
    the node each step computes to its slot, in step order; ``preset`` is
    the slot a shared stem fills, or None."""

    slots: list
    steps: tuple
    result: int
    computed: dict
    preset: int | None = None


def eval_stem_many(expr: SliceExpr, zs) -> np.ndarray:
    """Evaluate the stem over complex points as one (n, 4) complex array C.

    Column l holds the l-th quaternion component, so C = A + iB with A and B
    the real stem halves ``C.real`` and ``C.imag``.  C is column-major, so
    each column is contiguous.
    """
    flat = np.asarray(zs, dtype=complex).ravel()
    if not flat.size:  # no point to evaluate and no series term to sum
        return np.zeros((0, 4), dtype=complex)
    zhat = flat.real + 0j  # x + 0.0 and |y|, with no 0 * inf where y is infinite
    zhat.imag = np.abs(flat.imag)
    shared = _SHARED.get()
    seeded = shared is not None and zs is shared[1]
    program = _program(expr, shared[0] if seeded else None)
    C = _run(program, zhat, shared[2] if program.preset is not None else None)
    # a constant tree or a star series of a constant ends in one row, and a
    # folded row is shared by every run, so it is copied even at one point
    if C.shape[0] != flat.size or program.slots[program.result] is not None:
        C = np.broadcast_to(C, (flat.size, 4)).copy(order="F")
    lower = flat.imag < 0
    return np.where(lower[:, None], C.conj(), C) if lower.any() else C


def _run(program: _Program, z: np.ndarray, preset) -> np.ndarray:
    """The stem of a compiled tree at the points z (upper half plane)."""
    slots = program.slots.copy()
    if program.preset is not None:
        slots[program.preset] = preset
    stem = slots.__getitem__
    for run, out, ins, dead in program.steps:
        slots[out] = run(z, *map(stem, ins))
        for i in dead:
            slots[i] = None
    return slots[program.result]


def _program(root: SliceExpr, preset: SliceExpr | None) -> _Program:
    """The program of ``root``, compiled on first use and kept on the node.

    When a step of it computes the ``preset`` node, it is a copy pruned for
    that node's slot, kept under the node's id: the tree keeps the node
    alive, so the id stays its own while the copy lives.
    """
    programs = getattr(root, "_programs", None)
    if programs is None:
        programs = {None: _compile(root)}
        object.__setattr__(root, "_programs", programs)
    plain, key = programs[None], id(preset)
    if key in plain.computed and key not in programs:  # a preset the tree computes
        programs[key] = _assemble(plain, plain.computed[key])
    return programs.get(key, plain)


def _children(node: SliceExpr) -> tuple:
    if isinstance(node, (Add, StarMul)):
        return node.left, node.right
    child = getattr(node, "child", None)
    return () if child is None else (child,)


def _compile(root: SliceExpr) -> _Program:
    """Number the nodes of ``root`` in post order and fold the constant ones.

    A node shared within the tree gets one slot, and a node below the root
    that keeps a program is not visited: that program is spliced in.  A node
    outside ``_VARYING`` whose inputs are all folded runs its step once,
    here, on one (1, 4) row, and the row becomes a constant slot: the same
    step functions fold and run, so folding changes no bit of the result.  A
    step that meets any floating-point error is not folded, so that each run
    meets the error under its caller's ``np.errstate``.
    """
    slots, steps, slot_of, computed = [], [], {}, {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in slot_of:
            continue
        sub = None if ready or node is root else getattr(node, "_programs", {}).get(None)
        if sub is not None:
            slot_of[id(node)] = _splice(sub, slots, steps, slot_of, computed)
            continue
        kids = _children(node)
        if not ready:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(kids))
            continue
        ins = tuple(slot_of[id(kid)] for kid in kids)
        run = _step(node)
        slot_of[id(node)] = len(slots)
        slots.append(None if isinstance(node, _VARYING) else _fold(run, slots, ins))
        if slots[-1] is None:
            computed[id(node)] = len(slots) - 1
            steps.append((run, len(slots) - 1, ins))
    return _assemble(_Program(slots, steps, slot_of[id(root)], computed))


def _splice(sub: _Program, slots: list, steps: list, slot_of: dict, computed: dict) -> int:
    """Append the steps of ``sub``, renumbered, to those of a program being
    compiled, and return the slot of its result.  A step whose node the
    program computes already is dropped for that node's slot, and a folded
    row gets a slot when a step reads it.
    """
    renumbered = {}

    def slot(i: int) -> int:
        if i not in renumbered:  # a folded row
            renumbered[i] = len(slots)
            slots.append(sub.slots[i])
        return renumbered[i]

    for (run, out, ins, _), node in zip(sub.steps, sub.computed):
        if node not in slot_of:
            ins = tuple(map(slot, ins))
            slot_of[node] = computed[node] = len(slots)
            slots.append(None)
            steps.append((run, len(slots) - 1, ins))
        renumbered[out] = slot_of[node]
    return slot(sub.result)


def _assemble(program: _Program, preset=None) -> _Program:
    """``program`` without the steps that only feed the slot ``preset``,
    which is filled from outside, each step with the slots it reads last,
    apart from folded rows, to free after it."""
    slots, needed, kept = program.slots, {program.result}, []
    for run, out, ins, *_ in reversed(program.steps):
        if out in needed and out != preset:
            dead = tuple(sorted({i for i in ins if i not in needed and slots[i] is None}))
            kept.append((run, out, ins, dead))
            needed.update(ins)
    computed = {node: i for node, i in program.computed.items() if i in needed and i != preset}
    return program._replace(steps=tuple(reversed(kept)), computed=computed, preset=preset)


def _fold(run, slots: list, ins: tuple) -> np.ndarray | None:
    """The row of a step whose inputs are all folded, or None."""
    rows = [slots[i] for i in ins]
    if any(row is None for row in rows):
        return None
    try:
        with np.errstate(all="raise"):
            row = run(_FOLD_Z, *rows)
    except FloatingPointError:
        return None
    row.flags.writeable = False  # every run shares it
    return row


def _step(node: SliceExpr):
    """``run(z, *stems)`` computing ``node`` from its children's stems.

    It holds the node's fields, not the node, so that a program kept on its
    root makes no reference cycle, and no slot, so that programs share it.
    Branch functions and lifted fields are looked up at run time, so that
    wrappers installed later see the calls.
    """
    if isinstance(node, Const):
        row = node.value.to_array().astype(complex)[None, :]
        return lambda z: row
    if isinstance(node, VarQ):
        return _scalar
    if isinstance(node, UnitFn):
        return _unit
    if isinstance(node, Add):
        return lambda z, a, b: a + b
    if isinstance(node, Neg):
        return lambda z, a: -a
    if isinstance(node, StarMul):
        kernel = _KERNELS[node.left.slice_preserving, node.right.slice_preserving]
        return lambda z, a, b: kernel(a, b)
    if isinstance(node, IntPow):
        return _power(node.n, _KERNELS[(node.child.slice_preserving,) * 2])
    if isinstance(node, RegConj):
        return lambda z, a: qconj(a)
    if isinstance(node, Component):
        index = node.index
        return lambda z, a: _scalar(a[:, index])
    if isinstance(node, VectPart):
        return lambda z, a: _vect(a)
    if isinstance(node, Symm):
        return lambda z, a: _scalar(qsym(a))
    if isinstance(node, ScalarApply):
        fn = node.fn
        return lambda z, a: _scalar(np.asarray(SCALAR_FUNCTIONS[fn](a[:, 0]), dtype=complex))
    if isinstance(node, StarSeries):
        kind, max_terms = node.kind, node.max_terms
        return lambda z, a: _star_series(kind, max_terms, a)
    if isinstance(node, GridFieldExpr):
        fld = node.fld
        return lambda z: _scalar(np.asarray(fld.sample(z), dtype=complex))
    if isinstance(node, QuotientBySP):
        return _quotient(node)
    raise ExprError(f"cannot evaluate node {type(node).__name__}")


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
    component has no splitting q = x + Iy, and a value that overflows is not
    a value: both raise :class:`DomainError`.
    """
    q = Quaternion.coerce(q)
    if not np.isfinite(q.to_array()).all():
        raise DomainError(f"no value at the non-finite point {q!r}")
    try:
        x, y, unit = split(q)
    except RealInput:
        x, y, unit = q.w, 0.0, None
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        stem = eval_stem(expr, complex(x, y))
    value = stem.a if unit is None else stem.value(unit)
    parts = np.array([stem.a.to_array(), stem.b.to_array(), value.to_array()])
    if not np.isfinite(parts).all():
        raise DomainError(f"the value at {q!r} is not finite")
    if unit is None and abs(stem.b) > REAL_AXIS_TOL * (1.0 + abs(stem.a)):
        raise DomainError(f"no well-defined value at the real point {q.w}: stem B = {stem.b!r}")
    return value


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


def _unit(z: np.ndarray) -> np.ndarray:
    if (z.imag == 0).any():
        raise UnitFnOnRealAxis("the unit function I has no value on the real axis")
    return _scalar(np.full(z.size, 1j))


def _vect(C: np.ndarray) -> np.ndarray:
    out = C.copy(order="K")
    out[:, 0] = 0.0
    return out


def _column_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a*b column by column into one column-major array; stems are (n, 4) or
    (1, 4) rows, so the product has the larger row count."""
    out = np.empty((max(a.shape[0], b.shape[0]), 4), complex, order="F")
    return np.multiply(a, b, out=out)


# the star-product kernel by the slice-preserving flags of (a, b): such a
# factor has exact zeros in its vector columns, so the product is its scalar
# column times the other factor, in the same order
_KERNELS = {
    (False, False): qmul,
    (True, False): lambda a, b: _column_product(a[:, :1], b),
    (True, True): lambda a, b: _column_product(a[:, :1], b),
    (False, True): lambda a, b: _column_product(a, b[:, :1]),
}


def _power(n: int, kernel):
    """Step of the star power n, by square-and-multiply."""

    def run(z, base):
        out, m = None, n
        while m:
            if m & 1:
                out = base if out is None else kernel(out, base)
            m >>= 1
            if m:
                base = kernel(base, base)
        return _scalar(np.ones(z.size)) if out is None else out  # None: the zeroth power

    return run


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real * x.real + x.imag * x.imag


def _star_series(kind: str, max_terms: int, F: np.ndarray) -> np.ndarray:
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
        if kind == "exp":
            c, d, a, b = f0, 1.0, one, zero
        else:
            c, d = f0 * f0 - s, 2.0 * f0
            a, b = (one, zero) if kind == "cos" else (f0, one)
        ds, odd = d * s, kind == "sin"
        ta, tb = a.copy(), b.copy()
        for m in range(1, max_terms):
            r = 1.0 / (m if kind == "exp" else -(2 * m - 1 + odd) * (2 * m + odd))
            a, b = (a * c - b * ds) * r, (a * d + b * c) * r
            ta += a
            tb += b
            term = np.sqrt((_abs2(a) + _abs2(b) * w).max())
            total = np.sqrt((_abs2(ta) + _abs2(tb) * w).max())
            if not (np.isfinite(term) and np.isfinite(total)):
                raise NoConvergence(f"{kind} star series has a term that is not finite")
            if term <= SERIES_TOL * (1.0 + total):
                break
        else:
            raise NoConvergence(f"{kind} star series did not converge")
    out = np.empty(F.shape, complex, order="F")
    out[:, 0] = ta
    np.multiply(tb[:, None], fv, out=out[:, 1:])
    return out


def _quotient(node: QuotientBySP):
    """Step of a quotient of the child's stem by a real polynomial."""
    child, zeros, radius = node.child, node.zeros, node.patch_radius
    coeffs = np.asarray(node.coeffs, dtype=float)

    def run(z, C):
        dist = np.full(z.shape, np.inf)
        for r in zeros:
            dist = np.minimum(dist, np.abs(z - r))
            if abs(complex(r).imag) > 1e-14:
                dist = np.minimum(dist, np.abs(z - np.conj(complex(r))))
        near = dist < radius

        denom = np.where(near, 1.0, np.polyval(coeffs, z))
        out = C / denom[:, None]

        if near.any():
            # removable singularity: mean over a circle avoiding every zero,
            # one batch for the rings of all near nodes
            R = 2.0 * radius
            theta = 2.0 * np.pi * (np.arange(PATCH_POINTS) + 0.37) / PATCH_POINTS
            pts = (z[near, None] + R * np.exp(1j * theta)).ravel()
            ring = eval_stem_many(child, pts) / np.polyval(coeffs, pts)[:, None]
            out[near] = ring.reshape(-1, PATCH_POINTS, 4).mean(axis=1)
        return out

    return run


# convenient singletons for building expressions
Q = VarQ()
UNIT = UnitFn()


def const(value) -> Const:
    return Const(Quaternion.coerce(value))
