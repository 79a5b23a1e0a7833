"""Layer spans recorded from outside starlog.

Each traced function is replaced at every module that binds it:
``from .expr import eval_stem_many`` gives logarithm and vectorial their own
name for the stem evaluator, and the library's ``__init__`` re-exports most
entry points.  Nothing under ``src/`` is edited; ``install`` swaps the names
in, ``uninstall`` puts the originals back.

A span covers one call.  Its self time is its duration minus the durations
of the spans it directly caused, so nested layers are not counted twice.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _size(x) -> int:
    size = getattr(x, "size", None)  # arrays and numpy scalars
    if size is not None:
        return int(size)
    return len(x) if isinstance(x, (list, tuple)) else 1


def _points(index: int):
    """Points of a batched call: the size of its ``index``-th argument."""
    return lambda args, result: (_size(args[index]), 0)


def _lift(args, result):
    return int(result.values.size), int(result.refinement_level)


def _zeros(args, result):
    return len(result), 0


# (defining module, name, span, (points, depth) of a call, also replace the binding in
# the defining module).  The defining module is replaced where its own code
# reaches the layer through that name (eval_many -> eval_stem_many,
# classify_vectorial -> find_zeros_sp, log_star -> residual_sup); it is left
# alone where that would only split one layer (lift_angle runs lift_log).
FUNCTIONS = (
    ("starlog.expr", "eval_stem_many", "expr", _points(1), True),
    ("starlog.branches", "mu", "branches", _points(0), False),
    ("starlog.branches", "nu", "branches", _points(0), False),
    ("starlog.lifts", "lift_log", "lifts.log", _lift, False),
    ("starlog.lifts", "lift_angle", "lifts.angle", _lift, False),
    ("starlog.lifts", "lift_mu", "lifts.mu", _lift, False),
    ("starlog.vectorial", "classify_vectorial", "vectorial.classify", None, False),
    ("starlog.vectorial", "find_zeros_sp", "vectorial.find_zeros", _zeros, True),
    ("starlog.vectorial", "factor_minimal", "vectorial.factor", None, False),
    ("starlog.vectorial", "normalize", "vectorial.factor", None, False),
    ("starlog.vectorial", "linearly_dependent", "logarithm.class_check", None, False),
    ("starlog.logarithm", "residual_sup", "logarithm.verify", None, True),
    ("starlog.logarithm", "log_star", "logarithm.route", None, False),
    ("starlog.parse", "parse_expr", "parse", None, False),
)
METHODS = (
    ("starlog.domain", "BasicDomainSpec", "__init__", "domain.build", None),
    ("starlog.domain", "BasicDomainSpec", "validate", "domain.validate", None),
    ("starlog.lifts", "LiftedScalarField", "sample", "lifts.sample", _points(1)),
)
# the expression evaluator applies scalar branch functions through this table
BRANCH_TABLE = ("starlog.branches", "SCALAR_FUNCTIONS", "branches", _points(0))


class Span:
    """One call: points are the batch size, or the nodes or zeros returned."""

    __slots__ = ("name", "parent", "op", "start", "dur", "self_s", "points", "depth")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.dur = self.self_s = 0.0
        self.points = self.depth = 0


class Tracer:
    """Records spans of the current op while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1  # -1 tags set-up
        self._stack: list[Span] = []
        self._child: list[float] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------

    def _wrap(self, name, fn, measure):
        spans, stack, child = self.spans, self._stack, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            child.append(0.0)
            span.start = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span.points, span.depth = measure(args, result)
                return result
            finally:
                span.dur = dur = time.perf_counter() - start
                span.self_s = dur - child.pop()
                stack.pop()
                if child:
                    child[-1] += dur

        return traced

    # -- patching ----------------------------------------------------

    def _replace(self, owner, name, value) -> None:
        original = getattr(owner, name)
        self._restore.append(lambda: setattr(owner, name, original))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "starlog"]
        for mod_name, attr, span, points, in_home in FUNCTIONS:
            home = importlib.import_module(mod_name)
            original = getattr(home, attr)
            wrapped = self._wrap(span, original, points)
            for mod in modules:
                if (mod is not home or in_home) and getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapped)
        for mod_name, cls_name, attr, span, points in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._replace(cls, attr, self._wrap(span, getattr(cls, attr), points))
        mod_name, table_name, span, points = BRANCH_TABLE
        table = getattr(importlib.import_module(mod_name), table_name)
        for key, fn in list(table.items()):
            self._restore.append(functools.partial(table.__setitem__, key, fn))
            table[key] = self._wrap(span, fn, points)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output ------------------------------------------------------

    def dump(self, path, ops: set) -> None:
        """Write the spans of the given ops (and of set-up) as JSON rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "id": index[id(s)],
                "parent": None if s.parent is None else index[id(s.parent)],
                "op": s.op,
                "name": s.name,
                "start": s.start,
                "dur": s.dur,
                "self": s.self_s,
                "points": s.points,
                "depth": s.depth,
            }
            for s in self.spans
            if s.op < 0 or s.op in ops
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _under(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


SELF_TIMES = (
    "expr",
    "branches",
    "lifts.log",
    "lifts.angle",
    "lifts.mu",
    "lifts.sample",
    "vectorial.classify",
    "vectorial.find_zeros",
    "vectorial.factor",
    "logarithm.verify",
    "logarithm.class_check",
    "logarithm.route",
    "domain.validate",
)


def layer_metrics(tracer: Tracer, n_setups: int, counted_ops: int, traced_ops: int) -> dict:
    """Per-layer figures: set-up per set-up, counts per op over the first
    ``counted_ops`` ops (the same inputs on every run with one seed), self
    times per op over all ``traced_ops`` ops."""
    self_op = defaultdict(float)
    self_setup = defaultdict(float)
    calls = defaultdict(int)
    points = defaultdict(int)
    branch_self = branch_self_in_mu = 0.0
    lift_nodes = max_depth = zero_points = one_point = 0
    for s in tracer.spans:
        if s.op < 0:
            self_setup[s.name] += s.self_s
            continue
        self_op[s.name] += s.self_s
        if s.name == "branches":
            branch_self += s.self_s
            if _under(s, "lifts.mu"):
                branch_self_in_mu += s.self_s
        if s.op >= counted_ops:
            continue
        calls[s.name] += 1
        points[s.name] += s.points
        if s.name == "branches" and s.points == 1:
            one_point += 1
        elif s.name in ("lifts.log", "lifts.angle", "lifts.mu"):
            lift_nodes += s.points
            max_depth = max(max_depth, s.depth)
        elif s.name == "expr" and _under(s, "vectorial.find_zeros"):
            zero_points += s.points

    n = counted_ops
    out = {
        "domain.build_s": (self_setup["domain.build"] + self_setup["domain.validate"]) / n_setups,
        "parse.self_s": self_setup["parse"] / n_setups,
        "expr.calls": calls["expr"] / n,
        "expr.points": points["expr"] / n,
        "expr.points_per_call": points["expr"] / max(calls["expr"], 1),
        "branches.calls": calls["branches"] / n,
        "branches.points_per_call": points["branches"] / max(calls["branches"], 1),
        "branches.one_point_frac": one_point / max(calls["branches"], 1),
        "branches.in_lifts_mu_frac": branch_self_in_mu / branch_self if branch_self else 0.0,
        "lifts.nodes": lift_nodes / n,
        "lifts.max_depth": max_depth,
        "lifts.sample.calls": calls["lifts.sample"] / n,
        "lifts.sample.points": points["lifts.sample"] / n,
        "vectorial.find_zeros.points": zero_points / n,
        "vectorial.zeros": points["vectorial.find_zeros"] / n,
    }
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = self_op[name] / traced_ops
    return out

