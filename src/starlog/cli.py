"""Command line front end and the runnable verification suites."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .algebra import scalar_part, symmetrization
from .branches import mu, mu_inv, nu
from .domain import BasicDomainSpec
from .errors import (
    BoundaryZero,
    BranchDomainViolation,
    ClassificationError,
    ConditionFailed,
    DomainError,
    ExprError,
    ExprSyntaxError,
    FactorResidual,
    LiftError,
    NoConvergence,
    NoGlobalLogWitness,
    RealInput,
    ResidualRejected,
    StarlogError,
    Vanishing,
)
from .expr import (
    Neg,
    StarMul,
    StarSeries,
    eval_stem_many,
    evaluate,
    node_stem,
    slice_range,
    slice_values,
    stem_complex,
)
from .logarithm import RESIDUAL_ACCEPT, BranchSpec, check_conditions, log_star, stem_distance
from .parse import parse_expr, to_source
from .quaternion import VERIFY_UNITS, format_quaternion, parse_quaternion
from .starexp import exp_star
from .vectorial import classify_vectorial

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CONDITION = 4
EXIT_LIFT = 5
EXIT_RESIDUAL = 6
# an error exits with the code of the first of its classes, in method
# resolution order, that this table names
EXIT_CODES = {
    ExprSyntaxError: EXIT_PARSE,
    ExprError: EXIT_PARSE,
    DomainError: EXIT_DOMAIN,
    BranchDomainViolation: EXIT_DOMAIN,
    RealInput: EXIT_DOMAIN,
    ConditionFailed: EXIT_CONDITION,
    Vanishing: EXIT_CONDITION,
    ClassificationError: EXIT_CONDITION,
    BoundaryZero: EXIT_CONDITION,
    LiftError: EXIT_LIFT,
    NoConvergence: EXIT_LIFT,
    NoGlobalLogWitness: EXIT_LIFT,
    ResidualRejected: EXIT_RESIDUAL,
    FactorResidual: EXIT_RESIDUAL,
}

IDENTITY_TOL = 1e-10
COVERING_TOL = 1e-11

# the stem of the constant 1, one row that broadcasts over the nodes
_ONE = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=complex)

CSV_HEADER = ["x", "y", "Ix", "Iy", "Iz", "w_re", "w_i", "w_j", "w_k"]

# star-exponential identity corpus; unit-function entries are appended on
# product domains only
EXP_CORPUS = [
    "q",
    "0.3*q^2 + 0.1",
    "q*i",
    "(0.5 + 0.25*q^2)*j",
    "0.2*q*i + 0.3*q*j",
    "0.1*q^2*k + 0.2*q*i",
    "1.0 + 0.5*q*k",
    "conj(0.3*q)*i + 0.1",
    "vect(q*i + 0.2)",
    "0.25*q^2*i - 0.5*q*j",
]
EXP_CORPUS_PRODUCT = [
    "I*i + j",
    "q + I*i + j",
]


def exit_code_for(err: StarlogError) -> int:
    return next((EXIT_CODES[c] for c in type(err).__mro__ if c in EXIT_CODES), 1)


def _graded(worst: float, tol: float) -> str:
    return "pass" if worst <= tol else "fail"


class Report:
    """Check rows with a stable key set, printed as they are produced.

    Each row is timed from ``mark`` to its ``add``, which restarts the clock:
    a row's seconds run from the previous row, or from where a check set
    ``mark`` to leave its set-up out.  ``slices`` counts the slice units a
    check samples: 1 for one point or one slice-preserving value, and 0 both
    for a check of whole stems, which covers every slice in closed form
    (:func:`expr.slice_range`), and for a check of complex functions.  The
    printed line leaves a count of 0 out.
    """

    def __init__(self):
        self.rows = []
        self.mark = time.perf_counter()

    def add(self, check, status, residual=None, grid=0, slices=0):
        now = time.perf_counter()
        row = {
            "check": check,
            "status": status,
            "residual": None if residual is None else float(residual),
            "grid": int(grid),
            "slices": int(slices),
            "seconds": round(now - self.mark, 6),
        }
        self.mark = now
        self.rows.append(row)
        tag = status.split(":", 1)[0].upper()
        res = "" if row["residual"] is None else f"  residual={row['residual']:.3e}"
        sampled = f"{row['slices']} slices, " if row["slices"] else ""
        print(f"[{tag}] {check}{res}  ({row['grid']} nodes, {sampled}{row['seconds']:.3f}s)")

    @property
    def failed(self) -> bool:
        return any(r["status"].split(":")[0] in ("fail", "error") for r in self.rows)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.rows, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# shared helpers


def _load_domain(path: str) -> BasicDomainSpec:
    try:
        spec = BasicDomainSpec.load(path)
    except OSError as err:
        raise DomainError(f"cannot read domain file: {err}")
    except (KeyError, TypeError, ValueError) as err:
        raise DomainError(f"bad domain file {path!r}: {err}")
    spec.validate(strict=True)
    return spec


def _branch_arg(text: str) -> BranchSpec:
    try:
        m_txt, n_txt = text.split(",")
        return BranchSpec(int(m_txt), int(n_txt))
    except (ValueError, ConditionFailed) as err:
        raise argparse.ArgumentTypeError(f"branch must be 'm,n' with integers: {err}")


def _write_grid_csv(path, expr, domain: BasicDomainSpec) -> int:
    zs = domain.node_z
    stem = eval_stem_many(expr, zs)
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for unit in VERIFY_UNITS:
            vals = slice_values(stem, unit)
            for z, v in zip(zs, vals):
                writer.writerow(
                    [z.real, z.imag, unit.x, unit.y, unit.z, v[0], v[1], v[2], v[3]]
                )
                count += 1
    return count


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args, report: Report) -> int:
    tree = parse_expr(args.expr)
    try:
        point = parse_quaternion(args.at)
    except ValueError as err:
        raise ExprSyntaxError(str(err), 0)
    value = evaluate(tree, point)
    print(format_quaternion(value))
    report.add("eval", "pass", grid=1, slices=1)
    return 0


def _cmd_classify(args, report: Report) -> int:
    tree = parse_expr(args.expr)
    domain = _load_domain(args.domain)
    tree = node_stem(tree, domain)  # one evaluation of g at the nodes
    summary = check_conditions(tree, domain)
    shape = classify_vectorial(tree, domain)
    print(f"vectorial class: {shape.kind}")
    for zero in shape.zeros:
        where = "" if zero.location is None else f" at {format_quaternion(zero.location)}"
        print(
            f"  zero sphere z={zero.z:.6g} multiplicity={zero.multiplicity}"
            f" kind={zero.kind}{where}"
        )
    print(f"min |g| on grid: {summary.min_abs:.6e} (scale {summary.scale:.6e})")
    if summary.cond_positive_trace is not None:
        print(f"positive trace: {summary.cond_positive_trace}")
        print(f"root trace avoids the slit: {summary.cond_slit_avoided}")
    report.add(f"classify:{shape.kind}", "pass", grid=domain.n_nodes)
    return 0


def _cmd_exp_star(args, report: Report) -> int:
    tree = parse_expr(args.expr)
    domain = _load_domain(args.domain)
    image = exp_star(tree)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        stem = eval_stem_many(image, domain.node_z)
    mags = slice_range(stem)[1]  # the greatest |exp_star| over every slice
    bad = ~(np.isfinite(stem).all(axis=1) & np.isfinite(mags))
    if bad.any():
        raise DomainError(
            f"exp_star of the input is not finite at {int(bad.sum())} of {bad.size} grid nodes"
        )
    print(f"sup |exp_star| on grid: {float(mags.max()):.6e}")
    if args.grid_out:
        count = _write_grid_csv(args.grid_out, image, domain)
        print(f"wrote {count} samples to {args.grid_out}")
    report.add("exp-star", "pass", grid=domain.n_nodes)
    return 0


def _cmd_log_star(args, report: Report) -> int:
    tree = parse_expr(args.expr)
    domain = _load_domain(args.domain)
    rep = parse_expr(args.rep) if args.rep else None
    result = log_star(tree, domain, args.branch, rep=rep)
    print(f"case: {result.case}")
    print(f"branch: m={result.branch.m}, n={result.branch.n}")
    print(f"residual: {result.residual:.3e}")
    if args.grid_out:
        count = _write_grid_csv(args.grid_out, result.f, domain)
        print(f"wrote {count} samples to {args.grid_out}")
    report.add(f"log-star:{result.case}", "pass", residual=result.residual, grid=domain.n_nodes)
    return 0


def _cmd_roundtrip(args, report: Report) -> int:
    tree = parse_expr(args.expr)
    printed = to_source(tree)
    again = parse_expr(printed)
    ok = again == tree and to_source(again) == printed
    print(printed)
    report.add("roundtrip", "pass" if ok else "fail")
    return 0 if ok else EXIT_PARSE


def _cmd_verify(args, report: Report) -> int:
    domain = _load_domain(args.domain)
    report.mark = time.perf_counter()
    names = ("exp", "log", "mu") if args.suite == "all" else (args.suite,)
    for name in names:
        _SUITES[name](domain, report)
    return EXIT_RESIDUAL if report.failed else 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_exp(domain: BasicDomainSpec, report: Report) -> None:
    corpus = list(EXP_CORPUS)
    if domain.kind == "product":
        corpus += EXP_CORPUS_PRODUCT
    zs = domain.node_z
    for src in corpus:
        f = parse_expr(src)
        closed = exp_star(f)
        report.mark = time.perf_counter()

        series = eval_stem_many(StarSeries("exp", f), zs)
        worst = stem_distance(series, eval_stem_many(closed, zs))
        report.add(f"exp-series[{src}]", _graded(worst, IDENTITY_TOL), worst, zs.size)

        inverse = eval_stem_many(StarMul(closed, exp_star(Neg(f))), zs)
        worst = stem_distance(inverse, _ONE)
        report.add(f"exp-inverse[{src}]", _graded(worst, IDENTITY_TOL), worst, zs.size)

        sym = stem_complex(symmetrization(closed), zs)
        target = np.exp(2.0 * stem_complex(scalar_part(f), zs))
        worst = float((np.abs(sym - target) / (1.0 + np.abs(target))).max())
        report.add(
            f"exp-symmetrization[{src}]", _graded(worst, IDENTITY_TOL), worst, zs.size, 1
        )


def _suite_log(domain: BasicDomainSpec, report: Report) -> None:
    zs = domain.node_z

    def run(name, fn, expect=None):
        try:
            residual = fn()
        except StarlogError as err:
            if expect is not None and isinstance(err, expect):
                status = "pass"
            else:
                status = f"error:{type(err).__name__}"
            report.add(name, status, None, zs.size)
            return
        if expect is not None:
            status = "fail"  # the rejection did not happen
        else:
            status = _graded(residual, RESIDUAL_ACCEPT)
        report.add(name, status, residual, zs.size)

    def skip(name, why):
        report.add(name, f"skip:{why}")

    def scalar_roundtrip():
        f_expr = parse_expr("0.5*q^2 + 1.0")
        g = parse_expr("exp(0.5*q^2 + 1.0)")
        result = log_star(g, domain)
        diff = float(np.abs(stem_complex(result.f, zs) - stem_complex(f_expr, zs)).max())
        return max(result.residual, diff)

    def angle_roundtrip():
        f_expr = parse_expr("(0.5 + 0.25*q^2)*i")
        result = log_star(exp_star(f_expr), domain)
        got = eval_stem_many(result.f, zs)
        return max(result.residual, stem_distance(got, eval_stem_many(f_expr, zs)))

    run("log-roundtrip[scalar]", scalar_roundtrip)
    run("log-roundtrip[angle]", angle_roundtrip)

    if domain.kind == "product":
        run(
            "log-roundtrip[null-vector]",
            lambda: log_star(parse_expr("q + I*i + j"), domain).residual,
        )
    else:
        skip("log-roundtrip[null-vector]", "product-only")

    isolated = "-1 + q^2*i + 1.4142135623730951*q*j + k"
    if domain.kind == "product" and domain.contains_z(1j):
        run("log-roundtrip[fold]", lambda: log_star(parse_expr(isolated), domain).residual)
    else:
        skip("log-roundtrip[fold]", "geometry")

    if domain.kind == "slice":
        run(
            "log-reject[negative-trace]",
            lambda: log_star(parse_expr("-2.0 - q^2"), domain).residual,
            expect=ConditionFailed,
        )
        run(
            "log-reject[scalar-shift]",
            lambda: log_star(parse_expr("2.0 + q^2"), domain, (1, 0)).residual,
            expect=ConditionFailed,
        )
    else:
        run(
            "log-branch-shift[m=1]",
            lambda: log_star(parse_expr("2.0 + q^2"), domain, (1, 0)).residual,
        )
        run(
            "log-reject[parity]",
            lambda: log_star(
                parse_expr("-1"), domain, (1, 2), rep=parse_expr("i")
            ).residual,
            expect=ConditionFailed,
        )


def _suite_mu(domain: BasicDomainSpec, report: Report) -> None:
    rng = np.random.default_rng(7)
    n = 1000
    radius = rng.uniform(0.2, 3.0, n)
    theta = rng.uniform(0.05, math.pi - 0.05, n) * rng.choice([-1.0, 1.0], n)
    ws = radius * np.exp(1j * theta)  # off the real axis, clear of both slits

    for k in range(-2, 3):
        back = mu(mu_inv(ws, k))
        worst = float((np.abs(back - ws) / (1.0 + np.abs(ws))).max())
        report.add(f"mu-covering[k={k}]", _graded(worst, COVERING_TOL), worst, n)

    gs = rng.uniform(-4.0, 4.0, n) + 1j * rng.uniform(-4.0, 4.0, n)
    unity = mu(gs) ** 2 + gs * nu(gs) ** 2
    worst = float(np.abs(unity - 1.0).max())
    report.add("mu-nu-identity", _graded(worst, IDENTITY_TOL), worst, n)

    at_zero = abs(complex(mu(0.0)) - 1.0)
    report.add("mu-at-zero", _graded(at_zero, 1e-14), at_zero, 1)
    step = 1e-6
    slope = (complex(mu(step)) - 1.0) / step
    derivative = abs(slope + 0.5)
    report.add("mu-derivative-at-zero", _graded(derivative, 1e-6), derivative, 1)


_SUITES = {"exp": _suite_exp, "log": _suite_log, "mu": _suite_mu}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starlog",
        description="Star logarithms of slice functions on basic domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="OUT", help="write the report rows as JSON")

    p = sub.add_parser("eval", parents=[common], help="evaluate at one quaternion")
    p.add_argument("expr")
    p.add_argument("--at", required=True, metavar="Q", help="point, e.g. '0.5+1j-0.2k'")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", parents=[common], help="vectorial class on a domain")
    p.add_argument("expr")
    p.add_argument("--domain", required=True, metavar="D.json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("exp-star", parents=[common], help="star exponential on a grid")
    p.add_argument("expr")
    p.add_argument("--domain", required=True, metavar="D.json")
    p.add_argument("--grid-out", metavar="G.csv", help="write sampled values as CSV")
    p.set_defaults(func=_cmd_exp_star)

    p = sub.add_parser("log-star", parents=[common], help="star logarithm on a domain")
    p.add_argument("expr")
    p.add_argument("--domain", required=True, metavar="D.json")
    p.add_argument("--branch", type=_branch_arg, default=BranchSpec(), metavar="m,n")
    p.add_argument("--rep", metavar="WEXPR", help="unit class representative")
    p.add_argument("--grid-out", metavar="G.csv", help="write sampled log values as CSV")
    p.set_defaults(func=_cmd_log_star)

    p = sub.add_parser("verify", parents=[common], help="run identity suites")
    p.add_argument("--suite", choices=("all", "exp", "log", "mu"), default="all")
    p.add_argument("--domain", required=True, metavar="D.json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("roundtrip", parents=[common], help="parse-print-parse check")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report = Report()
    try:
        code = args.func(args, report)
    except StarlogError as err:
        print(f"error: {err}", file=sys.stderr)
        report.add(args.command, f"error:{type(err).__name__}")
        code = exit_code_for(err)
    if args.json:
        report.dump(args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
