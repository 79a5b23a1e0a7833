"""Grammar round trips and parse errors."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from starlog.errors import ExprError, ExprSyntaxError, SlicePreservingRequired
from starlog.expr import (
    Add,
    Const,
    IntPow,
    Neg,
    ScalarApply,
    StarMul,
    UnitFn,
    VarQ,
    eval_stem,
    evaluate,
)
from starlog.parse import MAX_DEPTH, MAX_NESTING, parse_expr, to_source
from starlog.quaternion import Quaternion


def roundtrip(src: str):
    tree = parse_expr(src)
    printed = to_source(tree)
    again = parse_expr(printed)
    assert again == tree or to_source(again) == printed
    assert to_source(again) == printed
    return tree, printed


# ---------------------------------------------------------------------------
# parsing


def test_atoms():
    assert parse_expr("q") == VarQ()
    assert parse_expr("I") == UnitFn()
    assert parse_expr("2.5") == Const(Quaternion(2.5, 0.0, 0.0, 0.0))
    assert parse_expr("j") == Const(Quaternion(0.0, 0.0, 1.0, 0.0))


def test_precedence_shapes():
    tree = parse_expr("1 + q*i")
    assert isinstance(tree, Add) and isinstance(tree.right, StarMul)
    tree = parse_expr("-q^2")
    assert isinstance(tree, Neg) and isinstance(tree.child, IntPow)
    tree = parse_expr("q*i - i*q")
    assert isinstance(tree, Add) and isinstance(tree.right, Neg)
    tree = parse_expr("(q + 1)^3")
    assert isinstance(tree, IntPow) and tree.n == 3


def test_star_commutators():
    # q is slice preserving, hence central: its commutator vanishes
    central = parse_expr("q*i - i*q")
    at_j = Quaternion(0.0, 0.0, 1.0, 0.0)
    assert abs(evaluate(central, at_j)) < 1e-15
    # noncommutativity lives between non-slice-preserving constants
    comm = parse_expr("i*j - j*i")
    val = evaluate(comm, at_j)
    assert abs(val - Quaternion(0.0, 0.0, 0.0, 2.0)) < 1e-15


def test_isolated_zero_example_parses():
    src = "-1 + q^2*i + 1.4142135623730951*q*j + k"
    tree, printed = roundtrip(src)
    assert printed == "-1.0 + q^2*i + 1.4142135623730951*q*j + k"
    stem = eval_stem(tree, 1j)
    assert stem.a == Quaternion(-1.0, -1.0, 0.0, 1.0)
    assert stem.b == Quaternion(0.0, 0.0, math.sqrt(2.0), 0.0)


def test_nilpotent_example_parses():
    tree, printed = roundtrip("I*i + j")
    assert printed == "I*i + j"
    assert isinstance(tree, Add)
    assert isinstance(tree.left, StarMul) and isinstance(tree.left.left, UnitFn)


def test_calls():
    assert parse_expr("exp(q)") == ScalarApply("exp", VarQ())
    assert parse_expr("log0(q)") == ScalarApply("log", VarQ())
    assert to_source(parse_expr("sqrt(symm(q*i))")) == "sqrt(symm(q*i))"
    assert to_source(parse_expr("vect(conj(q + i))")) == "vect(conj(q + i))"


def test_scalar_call_rejects_vector_argument():
    with pytest.raises(SlicePreservingRequired):
        parse_expr("exp(q*i)")


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("q + ")
    assert err.value.pos == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("q ^ -2")
    with pytest.raises(ExprSyntaxError):
        parse_expr("2 $ 3")
    with pytest.raises(ExprSyntaxError):
        parse_expr("spam(q)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("q^2^3")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(q + 1")
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1e999*q")
    assert err.value.pos == 0
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("q - 1e999")
    assert err.value.pos == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(" * 3000 + "q" + ")" * 3000)
    assert err.value.pos == MAX_NESTING
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("-" * 3000 + "q")
    assert err.value.pos == MAX_NESTING


@pytest.mark.parametrize("text, pos", [("q q", 2), ("q)", 1), ("1 2", 2)])
def test_trailing_input_is_a_syntax_error(text, pos):
    with pytest.raises(ExprSyntaxError, match="trailing input") as err:
        parse_expr(text)
    assert err.value.pos == pos


def test_deep_chains_stop_at_max_depth():
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse_expr("*".join(["q"] * 3000))
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse_expr("*".join(["q"] * (MAX_DEPTH + 1)))
    with pytest.raises(ExprSyntaxError):
        parse_expr("+".join(["q"] * 3000))
    # a chain inside parentheses adds its depth to the chain around it
    with pytest.raises(ExprSyntaxError):
        parse_expr("(" + "*".join(["q"] * 200) + ")*" + "*".join(["q"] * 100))
    deepest = "*".join(["q"] * MAX_DEPTH)
    assert to_source(parse_expr(deepest)) == deepest


def test_unknown_name_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 + bogus")
    assert err.value.pos == 4


# ---------------------------------------------------------------------------
# printing


def test_printer_spacing_and_parens():
    cases = [
        "q^2*i + 1.5*j",
        "-(q*i)",
        "-q*i",
        "(1.0 + q)*(1.0 - q)",
        "q - -q",
        "mu(q^2)*nu(q^2)",
        "2.0*I*i",
    ]
    for src in cases:
        tree, printed = roundtrip(src)
        assert printed == src, src


def test_printer_rejects_runtime_nodes():
    from starlog.expr import StarSeries

    with pytest.raises(ExprError):
        to_source(StarSeries("exp", VarQ()))
    with pytest.raises(ExprError):
        to_source(ScalarApply("recip", VarQ()))


def test_hand_built_constant_prints():
    src = to_source(Const(Quaternion(0.5, 0.0, -math.sqrt(2.0), 1.0)))
    assert src == "0.5 - 1.4142135623730951*j + k"
    reparsed = parse_expr(src)
    assert to_source(reparsed) == src  # stable from the first print onward


# ---------------------------------------------------------------------------
# property: parse-print-parse is the identity on printed trees

_leaves = st.sampled_from(["q", "I", "i", "j", "k", "2.0", "0.5", "3.75"])


@st.composite
def _exprs(draw, depth=3):
    if depth == 0:
        return draw(_leaves)
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return draw(_leaves)
    if kind == 1:
        return f"{draw(_exprs(depth - 1))} + {draw(_exprs(depth - 1))}"
    if kind == 2:
        return f"{draw(_exprs(depth - 1))} - {draw(_exprs(depth - 1))}"
    if kind == 3:
        return f"{draw(_exprs(depth - 1))}*{draw(_exprs(depth - 1))}"
    if kind == 4:
        return f"-{draw(_exprs(depth - 1))}"
    if kind == 5:
        return f"({draw(_exprs(depth - 1))})^{draw(st.integers(0, 4))}"
    fn = draw(st.sampled_from(["conj", "vect", "symm", "scalar"]))
    return f"{fn}({draw(_exprs(depth - 1))})"


@given(_exprs())
def test_roundtrip_property(src):
    tree = parse_expr(src)
    printed = to_source(tree)
    assert parse_expr(printed) == tree
    assert to_source(parse_expr(printed)) == printed
