"""Expression grammar for the command line.

Grammar (precedence low to high):

    sum      := product (('+' | '-') product)*
    product  := unary ('*' unary)*
    unary    := '-' unary | power
    power    := primary ('^' INTEGER)?
    primary  := NUMBER | 'q' | 'I' | 'i' | 'j' | 'k'
              | NAME '(' sum ')' | '(' sum ')'

Numbers are decimal literals; there are no symbolic constants.  Parentheses,
call arguments and unary minus nest at most MAX_NESTING levels deep; the
token that opens a deeper level is a syntax error.  So is a tree more than
MAX_DEPTH levels deep, each chained operator counting one level, so every
accepted tree evaluates and prints within the recursion limit.  Binary '+' and '-' are
printed with surrounding spaces, everything else without, and parentheses
appear only where precedence demands them, so parsing a printed tree
reproduces it exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ExprError, ExprSyntaxError
from .expr import (
    Add,
    Component,
    Const,
    IntPow,
    Neg,
    RegConj,
    ScalarApply,
    SliceExpr,
    StarMul,
    Symm,
    UnitFn,
    VarQ,
    VectPart,
)
from .quaternion import Quaternion

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])"
)

# nesting depth of '(', call arguments and unary '-' that the parser accepts
MAX_NESTING = 100
# tree depth that the parser accepts, a leaf counting one level
MAX_DEPTH = 250

_UNITS = {
    "i": Quaternion(0.0, 1.0, 0.0, 0.0),
    "j": Quaternion(0.0, 0.0, 1.0, 0.0),
    "k": Quaternion(0.0, 0.0, 0.0, 1.0),
}

# call name -> node builder; scalar branch functions go through ScalarApply
_STRUCTURE_CALLS = {
    "conj": RegConj,
    "scalar": lambda e: Component(e, 0),
    "vect": VectPart,
    "symm": Symm,
}
_SCALAR_CALLS = {
    "exp": "exp",
    "log0": "log",
    "sqrt": "sqrt",
    "mu": "mu",
    "nu": "nu",
    "cos": "cos",
    "sin": "sin",
}


@dataclass(frozen=True)
class _Tok:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _lex(text: str) -> list[_Tok]:
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        out.append(_Tok(kind, m.group(), pos))
        pos = m.end()
    out.append(_Tok("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.idx = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.idx]

    def take(self) -> _Tok:
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def nested(self, tok: _Tok, parse) -> SliceExpr:
        """Run ``parse`` one nesting level deeper, the level opened by ``tok``."""
        if self.depth >= MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expect(self, text: str) -> _Tok:
        tok = self.take()
        if tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text or 'end'!r}", tok.pos)
        return tok

    # -- grammar -------------------------------------------------------

    def sum(self) -> SliceExpr:
        node = self.product()
        while self.peek().text in ("+", "-"):
            op = self.take()
            rhs = self.product()
            node = Add(node, Neg(rhs) if op.text == "-" else rhs)
        return node

    def product(self) -> SliceExpr:
        node = self.unary()
        while self.peek().text == "*":
            self.take()
            node = StarMul(node, self.unary())
        return node

    def unary(self) -> SliceExpr:
        if self.peek().text == "-":
            return Neg(self.nested(self.take(), self.unary))
        return self.power()

    def power(self) -> SliceExpr:
        node = self.primary()
        if self.peek().text == "^":
            self.take()
            tok = self.take()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ExprSyntaxError("exponent must be a nonnegative integer", tok.pos)
            node = IntPow(node, int(tok.text))
            if self.peek().text == "^":
                raise ExprSyntaxError("chained exponents need parentheses", self.peek().pos)
        return node

    def primary(self) -> SliceExpr:
        tok = self.take()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text} is not finite", tok.pos)
            return Const(Quaternion.coerce(value))
        if tok.text == "(":
            node = self.nested(tok, self.sum)
            self.expect(")")
            return node
        if tok.kind == "name":
            if self.peek().text == "(":
                return self.call(tok)
            if tok.text == "q":
                return VarQ()
            if tok.text == "I":
                return UnitFn()
            if tok.text in _UNITS:
                return Const(_UNITS[tok.text])
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.pos)
        raise ExprSyntaxError(f"unexpected {tok.text or 'end'!r}", tok.pos)

    def call(self, tok: _Tok) -> SliceExpr:
        arg = self.nested(self.expect("("), self.sum)
        self.expect(")")
        if tok.text in _STRUCTURE_CALLS:
            return _STRUCTURE_CALLS[tok.text](arg)
        if tok.text in _SCALAR_CALLS:
            # ScalarApply rejects structurally non-slice-preserving arguments
            return ScalarApply(_SCALAR_CALLS[tok.text], arg)
        raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)


def parse_expr(text: str) -> SliceExpr:
    """Parse source text in the expression grammar into a tree."""
    parser = _Parser(text)
    node = parser.sum()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"trailing input {tail.text!r}", tail.pos)
    level = [node]  # the tree's levels, walked without recursion
    for _ in range(MAX_DEPTH):
        level = [c for n in level for c in vars(n).values() if isinstance(c, SliceExpr)]
        if not level:
            return node
    raise ExprSyntaxError(f"expression tree deeper than {MAX_DEPTH} levels", 0)


# ---------------------------------------------------------------------------
# printing

_PREC_SUM = 0
_PREC_MUL = 1
_PREC_NEG = 2
_PREC_POW = 3
_PREC_ATOM = 4

_CALL_OF_SCALAR = {v: k for k, v in _SCALAR_CALLS.items()}


def _paren(src: str, prec: int, minimum: int) -> str:
    return f"({src})" if prec < minimum else src


def _const_source(value: Quaternion) -> tuple[str, int]:
    parts = [float(v) for v in value.to_array()]
    names = ("", "i", "j", "k")
    terms: list[tuple[bool, str, int]] = []
    for axis in range(4):
        c = parts[axis]
        if c == 0.0:
            continue
        mag = abs(c)
        if axis == 0:
            text, prec = repr(mag), _PREC_ATOM
        elif mag == 1.0:
            text, prec = names[axis], _PREC_ATOM
        else:
            text, prec = f"{mag!r}*{names[axis]}", _PREC_MUL
        terms.append((c < 0.0, text, prec))
    if not terms:
        return "0.0", _PREC_ATOM
    neg, text, prec = terms[0]
    src = f"-{text}" if neg else text
    if len(terms) == 1:
        return src, (_PREC_NEG if neg else prec)
    for neg, text, _ in terms[1:]:
        src += f" {'-' if neg else '+'} {text}"
    return src, _PREC_SUM


def _source(expr: SliceExpr) -> tuple[str, int]:
    if isinstance(expr, Const):
        return _const_source(expr.value)
    if isinstance(expr, VarQ):
        return "q", _PREC_ATOM
    if isinstance(expr, UnitFn):
        return "I", _PREC_ATOM
    if isinstance(expr, Add):
        left, lp = _source(expr.left)
        right = expr.right
        if isinstance(right, Neg):
            rs, rp = _source(right.child)
            return f"{_paren(left, lp, _PREC_SUM)} - {_paren(rs, rp, _PREC_MUL)}", _PREC_SUM
        rs, rp = _source(right)
        return f"{_paren(left, lp, _PREC_SUM)} + {_paren(rs, rp, _PREC_MUL)}", _PREC_SUM
    if isinstance(expr, Neg):
        src, prec = _source(expr.child)
        return f"-{_paren(src, prec, _PREC_NEG)}", _PREC_NEG
    if isinstance(expr, StarMul):
        left, lp = _source(expr.left)
        right, rp = _source(expr.right)
        return f"{_paren(left, lp, _PREC_MUL)}*{_paren(right, rp, _PREC_NEG)}", _PREC_MUL
    if isinstance(expr, IntPow):
        src, prec = _source(expr.child)
        return f"{_paren(src, prec, _PREC_ATOM)}^{expr.n}", _PREC_POW
    if isinstance(expr, RegConj):
        return f"conj({_source(expr.child)[0]})", _PREC_ATOM
    if isinstance(expr, Component):
        if expr.index != 0:
            raise ExprError("only the scalar component is printable")
        return f"scalar({_source(expr.child)[0]})", _PREC_ATOM
    if isinstance(expr, VectPart):
        return f"vect({_source(expr.child)[0]})", _PREC_ATOM
    if isinstance(expr, Symm):
        return f"symm({_source(expr.child)[0]})", _PREC_ATOM
    if isinstance(expr, ScalarApply):
        name = _CALL_OF_SCALAR.get(expr.fn)
        if name is None:
            raise ExprError(f"no source form for scalar call {expr.fn!r}")
        return f"{name}({_source(expr.child)[0]})", _PREC_ATOM
    raise ExprError(f"no source form for {type(expr).__name__}")


def to_source(expr: SliceExpr) -> str:
    """Print a tree in the grammar; parsing the result reproduces the tree."""
    return _source(expr)[0]
