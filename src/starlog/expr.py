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
root: a post-order list of steps, each naming by id the node it computes and
the nodes it reads, one per distinct node of the tree.  Every tree compiles
its own nodes; a tree derived from g (g_v^s, g_0, exp_*(f)) reaches g through
a node stem, a leaf of one step.  Every run is one loop, apart from the
nested runs of a quotient's rings and of a node stem off its nodes.  A
subtree that reads no points (no q, I, lifted field, quotient or node stem)
and holds no star series is folded at compile time into one (1, 4) row by
the same step functions, so folding changes no bit; the row broadcasts
against the stems it meets, and a tree that ends in one row (constants
alone, or a star series of a constant) is widened to every point when its
run ends.  A step that meets a floating-point error is not folded, so each
evaluation meets it under its own ``np.errstate``.  Slice-preserving flags
and star-product kernels are fixed at compile time, and each stem is dropped
after its last reader.  Stems are column-major: each component is one
contiguous column.

A :class:`NodeStem` pins an expression g to a domain's grid nodes:
:func:`node_stem` evaluates g there once, a run at the node array reads that
stem, and a run at other points evaluates g by one nested run of g's own
program.  The node is a leaf: compiling a tree that holds it neither folds
nor compiles g.  The library's own readers take :func:`_stem_at`, which
hands out a node stem read at its nodes as is; only the public entry points
copy it.

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
from dataclasses import dataclass, field
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
# a star series whose partial-sum bounds stay below this has finite squares
_FINITE_NORM = 1e150
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


@dataclass(frozen=True, eq=False)
class NodeStem(SliceExpr):
    """g pinned to the grid nodes of a domain, made by :func:`node_stem`.

    ``stem`` is the read-only stem of g at ``domain.node_z``, which lie in
    the upper half plane; a run at other points evaluates g.
    """

    g: SliceExpr
    domain: object = field(repr=False)  # domain.BasicDomainSpec
    stem: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._set_sp(self.g.slice_preserving)


# ---------------------------------------------------------------------------
# evaluation

# nodes that are never folded: q, I, a lifted field and a node stem read the
# points, a quotient patches the points near its zeros, and a star series is
# summed term by term at every run
_VARYING = (VarQ, UnitFn, GridFieldExpr, QuotientBySP, StarSeries, NodeStem)
# the points a constant subtree is folded at; only the zeroth power reads them
_FOLD_Z = np.zeros(1, dtype=complex)


class _Program(NamedTuple):
    """``rows`` maps the id of each folded node to its (1, 4) row.  A step
    (run, out, ins, dead) sets the stem of node ``out`` to ``run(z, *stems)``
    of the nodes ``ins`` and then drops the stems of the ``dead`` nodes.
    ``result`` is the id of the root."""

    rows: dict
    steps: tuple
    result: int


def eval_stem_many(expr: SliceExpr, zs) -> np.ndarray:
    """Evaluate the stem over complex points as one (n, 4) complex array C.

    Column l holds the l-th quaternion component, so C = A + iB with A and B
    the real stem halves ``C.real`` and ``C.imag``.  C is column-major, so
    each column is contiguous.  C is the caller's own, writeable array: a
    node stem read at its nodes, or a folded row, is copied (the library's
    own readers take :func:`_stem_at`, which does not copy).
    """
    flat = np.asarray(zs, dtype=complex).ravel()
    if not flat.size:  # no point to evaluate and no series term to sum
        return np.zeros((0, 4), dtype=complex)
    zhat = flat.real + 0j  # x + 0.0 and |y|, with no 0 * inf where y is infinite
    zhat.imag = np.abs(flat.imag)
    C = _run(_program(expr), zhat)
    # a constant tree or a star series of a constant ends in one row, widened
    # here to every point
    if C.shape[0] != flat.size:
        C = np.broadcast_to(C, (flat.size, 4))
    C = _own(C)
    lower = flat.imag < 0
    return np.where(lower[:, None], C.conj(), C) if lower.any() else C


def _stem_at(expr: SliceExpr, zs) -> np.ndarray:
    """The stem of ``expr`` at the points zs, for a reader that does not
    write to it: a node stem read at its own nodes hands out its read-only
    stem as is, and any other tree is evaluated by :func:`eval_stem_many`.
    The library reads every pinned stem through this path, so that none is
    copied; only the public entry points copy, each what it returns.
    """
    if isinstance(expr, NodeStem) and expr.domain.at_nodes(zs):
        return expr.stem
    return eval_stem_many(expr, zs)


def _leaf_at(expr: SliceExpr, zs) -> np.ndarray:
    """Leaf form a + ib of a slice-preserving expression, read by
    :func:`_stem_at`: a column of a pinned stem is not copied."""
    if not expr.slice_preserving:
        raise SlicePreservingRequired("leaf form exists only for slice-preserving expressions")
    return _stem_at(expr, zs)[:, 0]


def _own(C: np.ndarray) -> np.ndarray:
    """C where it is writeable, else a column-major copy of it: a read-only
    array (a folded or widened row, or a node stem) is shared by every run,
    and a public entry point hands out the caller's own array."""
    return C if C.flags.writeable else C.copy(order="F")


def _run(program: _Program, z: np.ndarray) -> np.ndarray:
    """The stem of a compiled tree at the points z (upper half plane)."""
    stems = dict(program.rows)
    stem = stems.__getitem__
    for run, out, ins, dead in program.steps:
        stems[out] = run(z, *map(stem, ins))
        for node in dead:
            del stems[node]
    return stems[program.result]


def _program(root: SliceExpr) -> _Program:
    """The program of ``root``, compiled on first use and kept on the node."""
    program = getattr(root, "_program", None)
    if program is None:
        program = _compile(root)
        object.__setattr__(root, "_program", program)
    return program


def _children(node: SliceExpr) -> tuple:
    if isinstance(node, (Add, StarMul)):
        return node.left, node.right
    child = getattr(node, "child", None)
    return () if child is None else (child,)


def _compile(root: SliceExpr) -> _Program:
    """List the steps of ``root`` in post order and fold the constant nodes.

    A node shared within the tree gets one step, and the program's ids name
    nodes of this tree alone, which its root keeps alive.  A node outside
    ``_VARYING`` whose inputs are all folded runs its step once, here, on one
    (1, 4) row, which becomes the node's row: the same step functions fold
    and run, so folding changes no bit of the result.  A step that meets any
    floating-point error is not folded, so that each run meets the error
    under its caller's ``np.errstate``.
    """
    rows, steps = {}, {}  # steps: node id -> (run, ins), in step order
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in steps or id(node) in rows:
            continue
        kids = _children(node)
        if not ready:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(kids))
            continue
        run, ins = _step(node), tuple(map(id, kids))
        row = None if isinstance(node, _VARYING) else _fold(run, rows, ins)
        if row is None:
            steps[id(node)] = run, ins
        else:
            rows[id(node)] = row
    return _assemble(rows, steps, id(root))


def _assemble(rows: dict, steps: dict, result: int) -> _Program:
    """The program of ``steps`` with each step given the nodes it reads last,
    apart from folded rows, to drop after it."""
    read, assembled = {result, *rows}, []
    for out, (run, ins) in reversed(steps.items()):
        assembled.append((run, out, ins, tuple({node for node in ins if node not in read})))
        read.update(ins)
    return _Program(rows, tuple(reversed(assembled)), result)


def _fold(run, rows: dict, ins: tuple) -> np.ndarray | None:
    """The row of a step whose inputs are all folded, or None."""
    if not all(node in rows for node in ins):
        return None
    try:
        with np.errstate(all="raise"):
            row = run(_FOLD_Z, *(rows[node] for node in ins))
    except FloatingPointError:
        return None
    row.flags.writeable = False  # every run shares it
    return row


def _step(node: SliceExpr):
    """``run(z, *stems)`` computing ``node`` from its children's stems.

    It holds the node's fields, not the node, so that a program kept on its
    root makes no reference cycle.
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
    if isinstance(node, NodeStem):
        g, at_nodes, stem = node.g, node.domain.at_nodes, node.stem
        return lambda z: stem if at_nodes(z) else eval_stem_many(g, z)
    raise ExprError(f"cannot evaluate node {type(node).__name__}")


def node_stem(g: SliceExpr, domain) -> NodeStem:
    """g pinned to the grid nodes of ``domain``: its stem there is evaluated
    once, here, and every run of a tree holding the node at the node array
    reads it.  A g that is a node stem on ``domain`` already comes back
    unchanged.
    Overflow in the stem raises no warning: the values may be non-finite,
    and the caller must check them.
    """
    if isinstance(g, NodeStem) and g.domain is domain:
        return g
    with np.errstate(over="ignore", invalid="ignore"):
        stem = eval_stem_many(g, domain.node_z)
    stem.flags.writeable = False  # handed to every run at the nodes
    return NodeStem(g, domain, stem)


def slice_values(C: np.ndarray, unit: Quaternion) -> np.ndarray:
    """Values A + unit*B on the slice of ``unit``, from a stem C = A + iB."""
    return C.real + qmul(unit.to_array()[None, :], C.imag)


def slice_range(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest |A + J B| over every unit imaginary J, per row of a
    stem C = A + iB, in closed form.

    |A + J B|^2 = |A|^2 + |B|^2 + 2 v.J with v = vec(A conj(B)) = b0 a - a0 b
    - a x b, so it runs from s - 2|v| to s + 2|v|, s = |A|^2 + |B|^2, reached
    at J = -+v/|v|.  The least is read as |S| / hi for the row's
    symmetrization S = sum of C_l^2 (``qsym``), since |S|^2 = (|A|^2 -
    |B|^2)^2 + 4 (A.B)^2 = (s - 2|v|)(s + 2|v|): that keeps its accuracy where
    the row nearly vanishes on a slice, which s - 2|v| loses.  Rows of
    any memory layout, and one (1, 4) row, are read.  A row whose squares
    overflow reads hi = inf, one with an entry not finite may read hi = nan,
    and both read lo = 0, with no warning.
    """
    a0, a1, a2, a3 = C.real.T
    b0, b1, b2, b3 = C.imag.T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        aa = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
        bb = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
        ab = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
        vv = np.square(b0 * a1 - a0 * b1 - (a2 * b3 - a3 * b2))  # |v|^2
        vv += np.square(b0 * a2 - a0 * b2 - (a3 * b1 - a1 * b3))
        vv += np.square(b0 * a3 - a0 * b3 - (a1 * b2 - a2 * b1))
        hi = np.sqrt(aa + bb + 2.0 * np.sqrt(vv))
        p = (aa - bb) / hi
        q = 2.0 * ab / hi
        lo = np.sqrt(p * p + q * q)
    lo[~((hi > 0.0) & (hi < np.inf))] = 0.0  # a zero row, or one that overflows
    return lo, hi


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
    """Leaf form a + ib of a slice-preserving expression over a batch, as
    the caller's own, writeable array: a column of a node stem read at its
    nodes is copied, that column alone."""
    return _own(_leaf_at(expr, zs))


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


def _peak_norms(a: np.ndarray, b: np.ndarray, w: np.ndarray, work: np.ndarray):
    """N(a, b) = sqrt(max |a|^2 + |b|^2 w), the norm the series stop test
    reads, and max |b|, over the points; ``work`` is a (2, 2n) float buffer."""
    sq, n = work[0], a.size
    a2, b2 = work[1, :n], work[1, n:]
    np.square(b.view(float), out=sq)
    np.add(sq[0::2], sq[1::2], out=b2)  # _abs2(b)
    b_peak = b2.max()
    np.square(a.view(float), out=sq)
    np.add(sq[0::2], sq[1::2], out=a2)
    a2 += np.multiply(b2, w, out=b2)
    return np.sqrt(a2.max()), np.sqrt(b_peak)


def _star_series(kind: str, max_terms: int, F: np.ndarray) -> np.ndarray:
    """Sum the exp, cos or sin series in star powers of F = f0 + f_v.

    The i of the stem is central, so f_v*f_v = -s with s = f_v1^2 + f_v2^2 +
    f_v3^2, and every term is a + b*f_v with complex columns a and b.  A step
    multiplies the term by c + d*f_v, which is F for exp and F*F = (f0^2 - s)
    + 2*f0*f_v for cos and sin, and divides it by its factorial ratio, in
    place in two pairs of buffers.

    The stop test reads the term norm N(a, b) = sqrt(max |a|^2 + |b|^2*|f_v|^2)
    on every term, and stops at the first term with N(a, b) <= SERIES_TOL *
    (1 + N(ta, tb)), ta + tb*f_v being the partial sum.  A term or partial
    sum whose norm is not finite raises :class:`NoConvergence`.  At a point N
    is a weighted Euclidean norm, so the sum B of the term norms bounds
    N(ta, tb), and the sum of the max |b| bounds |tb|.  N(ta, tb) is computed
    only on a term with N(a, b) <= SERIES_TOL * (1 + 2B), which rounding
    cannot push past the stop test, or while B or the |tb| bound is too large
    to prove the squares of the partial sum finite.  So every sum returned
    and every raise, on the same term, is the one that computing N(ta, tb) on
    every term gives.
    """
    f0, fv = F[:, 0], F[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        s = fv[:, 0] * fv[:, 0] + fv[:, 1] * fv[:, 1] + fv[:, 2] * fv[:, 2]
        w = _abs2(fv[:, 0]) + _abs2(fv[:, 1]) + _abs2(fv[:, 2])
        exp = kind == "exp"
        if exp:  # d = 1: a*d and d*s are a and s
            c, ds = f0, s
        else:
            c, d = f0 * f0 - s, 2.0 * f0
            ds = d * s
        odd = kind == "sin"
        ta = f0.copy() if odd else np.ones_like(f0)
        tb = np.ones_like(f0) if odd else np.zeros_like(f0)
        a, b, na, nb = ta.copy(), tb.copy(), np.empty_like(ta), np.empty_like(ta)
        work = np.empty((2, 2 * ta.size))
        bound, b_bound = _peak_norms(ta, tb, w, work)  # of term 0, the partial sum
        for m in range(1, max_terms):
            r = 1.0 / (m if exp else -(2 * m - 1 + odd) * (2 * m + odd))
            np.multiply(a, c, out=na)
            na -= np.multiply(b, ds, out=nb)
            na *= r
            np.multiply(b, c, out=nb)
            nb += a if exp else np.multiply(a, d, out=b)  # b is spent
            nb *= r
            a, na, b, nb = na, a, nb, b
            ta += a
            tb += b
            term, b_peak = _peak_norms(a, b, w, work)
            bound += term
            b_bound += b_peak
            # N(ta, tb) <= bound, and twice it leaves room for rounding; a
            # term that is not finite fails every comparison and reads on
            if (
                term > SERIES_TOL * (1.0 + 2.0 * bound)
                and bound < _FINITE_NORM
                and b_bound < _FINITE_NORM
            ):
                continue
            total = _peak_norms(ta, tb, w, work)[0]
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
