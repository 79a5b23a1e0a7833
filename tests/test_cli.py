"""Exit codes, report files, and grid output of the command line front end."""

from __future__ import annotations

import csv
import json

import pytest

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


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize(
    "expr", ["exp(800*q)", "1e300*q*i + 1e300", "exp(q)*1e300"], ids=["exp", "sym", "scaled-exp"]
)
def test_log_star_non_finite_g_exit(expr, tmp_path, capsys):
    path = tmp_path / "rect.json"
    BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1.0 / 16.0).dump(path)
    assert main(["log-star", expr, "--domain", str(path)]) == 3
    assert "not finite at" in capsys.readouterr().err


def test_unit_function_needs_product_domain(domains):
    assert main(["exp-star", "I*i + j", "--domain", domains["slice"]]) == 3


def test_missing_domain_file(tmp_path):
    assert main(["classify", "q", "--domain", str(tmp_path / "nope.json")]) == 3


def test_oversized_grid_domain_file(tmp_path):
    path = tmp_path / "fine.json"
    path.write_text(json.dumps({"kind": "slice", "h": 1e-9, "rects": [[-1.0, 1.0, 0.0, 1.0]]}))
    assert main(["classify", "q", "--domain", str(path)]) == 3


def test_garbage_domain_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"slice\"")
    assert main(["classify", "q", "--domain", str(bad)]) == 3


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


def test_verify_exp_suite(domains):
    assert main(["verify", "--suite", "exp", "--domain", domains["product"]]) == 0
