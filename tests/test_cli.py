"""Exit codes, report files, and grid output of the command line front end."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import starlog
import starlog.expr as expr_module
from starlog import cli, errors
from starlog.cli import CSV_HEADER, main
from starlog.domain import BasicDomainSpec
from starlog.parse import MAX_DEPTH

ISOLATED = "-1 + q^2*i + 1.4142135623730951*q*j + k"


@pytest.fixture(scope="module")
def domains(tmp_path_factory):
    root = tmp_path_factory.mktemp("domains")
    paths = {}
    specs = {
        "slice": BasicDomainSpec(rects=[(-1.2, 1.2, 0.0, 1.0)], kind="slice"),
        "product": BasicDomainSpec(rects=[(0.5, 1.5, 0.3, 1.0)], kind="product"),
        "disc": BasicDomainSpec(discs=[(0.0, 1.0, 0.3)], kind="product"),
        "ball": BasicDomainSpec(discs=[(0.0, 0.0, 1.1)], kind="slice"),
    }
    for name, spec in specs.items():
        path = root / f"{name}.json"
        spec.dump(path)
        paths[name] = str(path)
    return paths


def test_eval_prints_value(capsys):
    assert main(["eval", "q^2 + 1", "--at", "1+1i"]) == 0
    out = capsys.readouterr().out
    assert "1.0+2.0i" in out


def test_eval_parse_error(capsys):
    assert main(["eval", "q +", "--at", "1"]) == 2
    assert "position" in capsys.readouterr().err


def test_eval_bad_point():
    assert main(["eval", "q", "--at", "1+2x"]) == 2


def test_eval_non_finite_point():
    assert main(["eval", "q", "--at", "1+1e999i"]) == 2


@pytest.mark.parametrize("at", ["1+1e200i+1e200j", "1e300+1e300i"])
def test_eval_overflowing_value_is_a_domain_error(at, capsys):
    # the first point used to print f(1) = 2.0 with [PASS] and exit 0
    assert main(["eval", "q^2 + 1", "--at", at]) == 3
    assert "[PASS]" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "expr", ["(" * 3000 + "q" + ")" * 3000, "-" * 3000 + "q"], ids=["parens", "minus"]
)
def test_eval_deep_nesting(expr):
    assert main(["eval", "--at", "1+1i", "--", expr]) == 2


@pytest.mark.parametrize("op", ["*", "+"], ids=["product", "sum"])
@pytest.mark.parametrize("command", ["eval", "roundtrip"])
def test_deep_chain_is_a_parse_error(command, op):
    chain = op.join(["q"] * 3000)
    extra = ["--at", "1+1i"] if command == "eval" else []
    assert main([command, *extra, "--", chain]) == 2


def test_long_chain_evaluates_and_round_trips(capsys):
    chain = "*".join(["q"] * 200)
    assert main(["eval", chain, "--at", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1.0"
    deepest = "*".join(["q"] * MAX_DEPTH)
    assert main(["roundtrip", deepest]) == 0


def test_classify_reports_isolated_zero(domains, capsys):
    assert main(["classify", ISOLATED, "--domain", domains["disc"]]) == 0
    out = capsys.readouterr().out
    assert "discrete-zeros" in out
    assert "isolated" in out


def test_classify_evaluates_g_once_on_the_grid(domains, monkeypatch, capsys):
    # check_conditions and classify_vectorial share one stem of g at the nodes
    trees, computed = [], []
    parse, run = cli.parse_expr, expr_module._run
    n_nodes = BasicDomainSpec.load(domains["product"]).n_nodes

    def parsing(text):
        trees.append(parse(text))
        return trees[-1]

    def counting(program, z, preset):
        if id(trees[0]) in program.computed and z.size == n_nodes:
            computed.append(z.size)
        return run(program, z, preset)

    monkeypatch.setattr(cli, "parse_expr", parsing)
    monkeypatch.setattr(expr_module, "_run", counting)
    assert main(["classify", "q^2*j + 2", "--domain", domains["product"]]) == 0
    assert "vectorial class: no-zeros" in capsys.readouterr().out
    assert len(computed) == 1


def test_exp_star_grid_csv(domains, tmp_path, capsys):
    out_csv = tmp_path / "grid.csv"
    code = main(["exp-star", "q*i", "--domain", domains["slice"], "--grid-out", str(out_csv)])
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    spec = BasicDomainSpec.load(domains["slice"])
    assert len(rows) == 1 + 3 * spec.n_nodes
    assert all(len(r) == 9 for r in rows)


def test_log_star_null_vector(domains, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        ["log-star", "q + I*i + j", "--domain", domains["product"],
         "--branch", "0,0", "--json", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "case: null-vector" in out
    rows = json.loads(report.read_text())
    assert len(rows) == 1
    assert sorted(rows[0]) == ["check", "grid", "residual", "seconds", "slices", "status"]
    assert rows[0]["status"] == "pass"
    assert rows[0]["residual"] < 1e-8


def test_log_star_with_representative(domains, capsys):
    code = main(
        ["log-star", "-1", "--domain", domains["product"],
         "--branch", "1,1", "--rep", "i"]
    )
    assert code == 0
    assert "case: angle" in capsys.readouterr().out


def test_log_star_branch_point_exit(domains, capsys):
    code = main(["log-star", ISOLATED, "--domain", domains["ball"]])
    assert code == 5
    assert "no logarithm" in capsys.readouterr().err


def test_log_star_condition_exit(domains):
    assert main(["log-star", "-2.0 - q^2", "--domain", domains["slice"]]) == 4


def test_log_star_vanishing_exit(domains):
    assert main(["log-star", "q", "--domain", domains["slice"]]) == 4


def test_log_star_boundary_zero_exit(tmp_path, capsys):
    # the zero of g_v at z = i sits on the rim of this disc
    path = tmp_path / "rim.json"
    BasicDomainSpec(discs=[(0.0, 0.6, 0.4)], kind="product", h=1.0 / 32.0).dump(path)
    assert main(["log-star", ISOLATED, "--domain", str(path)]) == 4
    assert "domain boundary" in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_has_a_documented_exit_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    subclasses = list(_subclasses(errors.StarlogError))
    assert errors.LiftStep in subclasses  # found through LiftError
    for sub in subclasses:
        code = cli.exit_code_for(sub.__new__(sub))
        assert 2 <= code <= 6, sub.__name__
        assert f"`{code}`" in documented, sub.__name__
    assert cli.exit_code_for(errors.BoundaryZero("rim")) == cli.EXIT_CONDITION
    assert cli.exit_code_for(errors.FactorResidual("left over")) == cli.EXIT_RESIDUAL
    assert cli.exit_code_for(errors.RealInput("real")) == cli.EXIT_DOMAIN


OVERFLOWING = pytest.mark.parametrize(
    "expr", ["exp(800*q)", "1e300*q*i + 1e300", "exp(q)*1e300"], ids=["exp", "sym", "scaled-exp"]
)


@pytest.fixture
def slice_rect(tmp_path):
    path = tmp_path / "rect.json"
    BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1.0 / 16.0).dump(path)
    return str(path)


@OVERFLOWING
def test_log_star_non_finite_g_exit(expr, slice_rect, capsys):
    assert main(["log-star", expr, "--domain", slice_rect]) == 3
    assert "not finite at" in capsys.readouterr().err


@OVERFLOWING
def test_classify_non_finite_g_exit(expr, slice_rect, capsys):
    assert main(["classify", expr, "--domain", slice_rect]) == 3
    out, err = capsys.readouterr()
    assert "not finite at" in err
    assert "vectorial class" not in out


@pytest.mark.parametrize("command", ["log-star", "classify"])
def test_overflow_is_a_typed_error_under_warnings_as_errors(command, slice_rect):
    src = str(Path(starlog.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "starlog.cli", command, "exp(800*q)",
         "--domain", slice_rect],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 3, done.stderr
    assert "not finite at" in done.stderr
    assert "Traceback" not in done.stderr


def test_unit_function_needs_product_domain(domains):
    assert main(["exp-star", "I*i + j", "--domain", domains["slice"]]) == 3


def test_missing_domain_file(tmp_path):
    assert main(["classify", "q", "--domain", str(tmp_path / "nope.json")]) == 3


def test_oversized_grid_domain_file(tmp_path):
    path = tmp_path / "fine.json"
    path.write_text(json.dumps({"kind": "slice", "h": 1e-9, "rects": [[-1.0, 1.0, 0.0, 1.0]]}))
    assert main(["classify", "q", "--domain", str(path)]) == 3


@pytest.mark.parametrize(
    "text",
    ['{"kind": "slice"', "[1, 2]", '"slice"', "null"],
    ids=["truncated", "list", "string", "null"],
)
@pytest.mark.parametrize("command", ["classify", "log-star", "exp-star", "verify"])
def test_garbage_domain_file(tmp_path, command, text, capsys):
    # valid JSON that is no object used to escape as an AttributeError
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    args = ["--suite", "mu"] if command == "verify" else ["q"]
    assert main([command, *args, "--domain", str(bad)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_roundtrip_command(capsys):
    assert main(["roundtrip", "-(q*i) + conj(q)^2"]) == 0
    out = capsys.readouterr().out
    assert "-(q*i) + conj(q)^2" in out


def test_verify_mu_suite(domains, tmp_path):
    report = tmp_path / "mu.json"
    assert main(["verify", "--suite", "mu", "--domain", domains["slice"],
                 "--json", str(report)]) == 0
    rows = json.loads(report.read_text())
    assert len(rows) == 8
    assert all(r["status"] == "pass" for r in rows)
    assert all(sorted(r) == ["check", "grid", "residual", "seconds", "slices", "status"]
               for r in rows)


def test_verify_log_suite_slice(domains, capsys):
    assert main(["verify", "--suite", "log", "--domain", domains["slice"]]) == 0
    out = capsys.readouterr().out
    assert "[PASS] log-roundtrip[scalar]" in out
    assert "[SKIP] log-roundtrip[null-vector]" in out
    assert "[PASS] log-reject[negative-trace]" in out


def test_verify_log_suite_product(domains, capsys):
    assert main(["verify", "--suite", "log", "--domain", domains["product"]]) == 0
    out = capsys.readouterr().out
    assert "[PASS] log-roundtrip[null-vector]" in out
    assert "[PASS] log-branch-shift[m=1]" in out
    assert "[PASS] log-reject[parity]" in out


def test_verify_row_seconds_add_up_to_at_most_the_run(domains, tmp_path):
    # each row is timed from the previous one, so the rows never overlap
    report = tmp_path / "all.json"
    start = time.perf_counter()
    assert main(["verify", "--domain", domains["slice"], "--json", str(report)]) == 0
    wall = time.perf_counter() - start
    seconds = [r["seconds"] for r in json.loads(report.read_text())]
    assert len(seconds) == 44
    assert min(seconds) >= 0.0
    assert sum(seconds) <= wall


def test_verify_exp_suite(domains):
    assert main(["verify", "--suite", "exp", "--domain", domains["product"]]) == 0
