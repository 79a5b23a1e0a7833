"""Seeded workloads of verified star-logarithm ops.

An op is one unit of closed-loop work: one timed call into starlog's public
API plus an untimed check of its output.  Every input is drawn from a family
whose route and logarithm are known, so each op can be checked against an
independent reference, not only against starlog's own residual test.

All grids use h = extent / divisions, where the extent is the larger side of
the leaf's bounding box.  The library is always reached through module
attributes (``starlog.log_star``), so that the traced run sees the calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import starlog
from starlog.expr import ScalarApply, StarSeries
from starlog.logarithm import RESIDUAL_ACCEPT
from starlog.quaternion import VERIFY_UNITS

# agreement required of a returned log with its family's known log, and of
# the closed-form exponential with its series
REFERENCE_TOL = 1e-10

SLICE_RECT = (-1.0, 1.0, 0.0, 1.0)
PRODUCT_RECT = (0.5, 1.5, 0.3, 1.0)
BALL_DISC = (0.0, 1.0, 0.5)
SQRT2 = "1.4142135623730951"


@dataclass
class Op:
    """One closed-loop op: ``call`` is timed, ``check`` returns a failure or None."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Setup:
    ops: list
    nodes: int


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Setup]
    labels: tuple  # op labels, the routes a run reports separately


def grid(kind: str, divisions: int, rects=(), discs=()):
    """A strictly validated domain with h = extent / divisions."""
    bounds = list(rects) + [(cx - r, cx + r, cy - r, cy + r) for cx, cy, r in discs]
    x0 = min(b[0] for b in bounds)
    x1 = max(b[1] for b in bounds)
    y0 = max(min(b[2] for b in bounds), 0.0)
    y1 = max(b[3] for b in bounds)
    h = max(x1 - x0, y1 - y0) / divisions
    dom = starlog.BasicDomainSpec(rects=rects, discs=discs, kind=kind, h=h)
    dom.validate(strict=True)
    return dom


def sup_rel(got: np.ndarray, want: np.ndarray) -> float:
    num = np.linalg.norm(got - want, axis=-1)
    return float((num / (1.0 + np.linalg.norm(want, axis=-1))).max())


def slice_distance(f, f_ref, zs) -> float:
    """sup-relative distance of two expressions at the nodes on every check slice."""
    return max(
        sup_rel(starlog.eval_many(f, zs, unit), starlog.eval_many(f_ref, zs, unit))
        for unit in VERIFY_UNITS
    )


# ---------------------------------------------------------------------------
# seeded draws


def _num(x: float) -> str:
    return repr(float(x))


def _vec(v) -> str:
    """Source text of the constant vector v[0] i + v[1] j + v[2] k."""
    terms = [f"{'-' if c < 0 else '+'} {_num(abs(c))}*{unit}" for c, unit in zip(v, "ijk")]
    return "(" + " ".join(terms).lstrip("+ ") + ")"


def _rotation(rng: random.Random):
    """Images of i, j, k under q -> p q conj(p) for a random unit quaternion p."""
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)),
        (2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)),
        (2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)),
    )


def scalar_source(rng: random.Random) -> tuple[str, str]:
    """exp(a q^2 + b): slice preserving, positive on the real trace; log a q^2 + b."""
    a = rng.uniform(0.2, 0.6)
    b = rng.uniform(-0.5, 0.5)
    log_src = f"{_num(a)}*q^2 + {_num(b)}"
    return f"exp({log_src})", log_src


def angle_source(rng: random.Random) -> str:
    """(c0 + c2 q^2) v with 0 < Re, |.| < pi on the slice rect: exp_star of it
    has zero-free g_v^s, and the principal phase gives it back."""
    c0 = rng.uniform(0.4, 0.7)
    c2 = rng.uniform(0.1, 0.3)
    v = _rotation(rng)[0]  # a random unit vector
    return f"({_num(c0)} + {_num(c2)}*q^2)*{_vec(v)}"


def null_vector_source(rng: random.Random) -> str:
    """c p (q + I i + j) conj(p): null symmetrization on the product rect."""
    c = rng.uniform(0.5, 2.0)
    ri, rj, _ = _rotation(rng)
    return (
        f"{_num(c)}*q + I*{_vec([c * t for t in ri])} + {_vec([c * t for t in rj])}"
    )


def fold_source(rng: random.Random) -> str:
    """c p g conj(p) for g = -1 + q^2 i + sqrt2 q j + k, whose vectorial part
    has an isolated zero in the ball leaf disc."""
    c = rng.uniform(0.5, 2.0)
    ri, rj, rk = _rotation(rng)
    return f"{_num(c)}*(-1 + q^2*{_vec(ri)} + {SQRT2}*q*{_vec(rj)} + {_vec(rk)})"


# exponent shapes of the CLI's exp identity corpus; {a} and {b} take the
# corpus coefficient scaled by a seeded factor, so the series length stays
# in a narrow band
EXP_SHAPES = (
    ("{a}*q", 1.0, 0.0),
    ("{a}*q^2 + {b}", 0.3, 0.1),
    ("{a}*q*i", 1.0, 0.0),
    ("({a} + {b}*q^2)*j", 0.5, 0.25),
    ("{a}*q*i + {b}*q*j", 0.2, 0.3),
    ("{a}*q^2*k + {b}*q*i", 0.1, 0.2),
    ("{a} + {b}*q*k", 1.0, 0.5),
    ("conj({a}*q)*i + {b}", 0.3, 0.1),
    ("vect({a}*q*i + {b})", 1.0, 0.2),
    ("{a}*q^2*i - {b}*q*j", 0.25, 0.5),
    ("{a}*I*i + {b}*j", 1.0, 1.0),
    ("{a}*q + I*i + {b}*j", 1.0, 1.0),
)


def exp_source(rng: random.Random, shape: int) -> str:
    template, a, b = EXP_SHAPES[shape]
    return template.format(a=_num(a * rng.uniform(0.8, 1.2)), b=_num(b * rng.uniform(0.8, 1.2)))


# ---------------------------------------------------------------------------
# ops


def _log_op(label: str, g, domain, f_ref) -> Op:
    """log_star(g) must take route ``label``, stay in the class of g and, when
    f_ref is given, return f_ref at the nodes on every check slice."""
    zs = domain.node_z

    def call():
        return starlog.log_star(g, domain)

    def check(res):
        if res.case != label:
            return f"route {res.case}, expected {label}"
        if not res.residual <= RESIDUAL_ACCEPT:
            return f"residual {res.residual:.3e}"
        if not res.diagnostics.get("class_preserved"):
            return "class not preserved"
        if f_ref is not None:
            dist = slice_distance(res.f, f_ref, zs)
            if not dist <= REFERENCE_TOL:
                return f"log differs from the known log by {dist:.3e}"
        return None

    return Op(label, call, check)


def _exp_op(f, domain) -> Op:
    """Closed-form exp_star(f) against the star-power series on every check slice."""
    closed = starlog.exp_star(f)
    series = StarSeries("exp", f)
    zs = domain.node_z

    def call():
        return slice_distance(series, closed, zs)

    def check(worst):
        return None if worst <= REFERENCE_TOL else f"exp identity off by {worst:.3e}"

    return Op("exp", call, check)


# A run draws one input per family and cycles them.  The draw barely changes
# the work: under rotation and positive scale the traced counts stay within
# 1% of each other (test_workloads.py holds them in a 1.25x band), so runs
# with different seeds compare.


def build_routes(seed: int) -> Setup:
    rng = random.Random(seed)
    parse = starlog.parse_expr
    slice_dom = grid("slice", 128, rects=[SLICE_RECT])
    product_dom = grid("product", 128, rects=[PRODUCT_RECT])
    g_src, log_src = scalar_source(rng)
    f = parse(angle_source(rng))
    g = parse(null_vector_source(rng))
    # log(g0) + g_v / g0, with g0 = c q off the negative axis
    g0 = starlog.scalar_part(g)
    ops = [
        _log_op("scalar", parse(g_src), slice_dom, parse(log_src)),
        _log_op("angle", starlog.exp_star(f), slice_dom, f),
        _log_op(
            "null-vector",
            g,
            product_dom,
            ScalarApply("log", g0) + starlog.vect_part(g) * ScalarApply("recip", g0),
        ),
    ]
    return Setup(ops, slice_dom.n_nodes + product_dom.n_nodes)


def build_fold(seed: int) -> Setup:
    rng = random.Random(seed)
    ball = grid("product", 64, discs=[BALL_DISC])
    op = _log_op("fold", starlog.parse_expr(fold_source(rng)), ball, None)
    return Setup([op], ball.n_nodes)


def build_exp_identity(seed: int) -> Setup:
    rng = random.Random(seed)
    product_dom = grid("product", 128, rects=[PRODUCT_RECT])
    ops = [
        _exp_op(starlog.parse_expr(exp_source(rng, shape)), product_dom)
        for shape in range(len(EXP_SHAPES))
    ]
    return Setup(ops, product_dom.n_nodes)


# why each workload is there: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("routes-128", build_routes, ("scalar", "angle", "null-vector")),
        Workload("fold-64", build_fold, ("fold",)),
        Workload("exp-identity-128", build_exp_identity, ("exp",)),
    )
}
