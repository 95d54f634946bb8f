"""Tiny arithmetic expression evaluator for user-defined channel entries.

Grammar (whitespace insensitive)::

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?                 # right associative, binds over unary
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Allowed names: the parameter variable (``l``, ``lam`` or ``lambda``), the
constants ``pi`` and ``e``, and the functions ``sqrt``, ``sin``, ``cos``,
``exp``.  Nothing else, by design: expressions come from plain-text config
files and must stay side-effect free.  Python's own parser reads the text once
the variable is renamed ``l`` and ``^`` becomes ``**``; the whole tree is
checked against the grammar before anything is compiled, every literal
becomes a float, and the function runs without builtins.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Callable

__all__ = ["ExprError", "compile_expr"]

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"\b(?:lambda|lam)\b")

_FUNCS: dict[str, Callable[[float], float]] = {
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
}
_CONSTS = {"pi": math.pi, "e": math.e}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)


class ExprError(ValueError):
    """Raised for syntax errors or disallowed names in an expression."""


def compile_expr(src: str) -> Callable[[float], float]:
    """Compile an expression in the channel parameter into a float function."""
    if not src.isascii() or "#" in src:
        raise ExprError(f"bad character in expression {src!r}")
    text = _VAR_RE.sub("l", " ".join(src.split())).replace("^", "**")
    if not text:
        raise ExprError("empty expression")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExprError(f"syntax error in expression {src!r}: {exc.msg}") from None

    def check(node: ast.AST) -> None:
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
            check(node.operand)
        elif isinstance(node, ast.Constant):
            literal = ast.get_source_segment(text, node) or ""
            if not _NUMBER_RE.fullmatch(literal):
                raise ExprError(f"bad number {literal!r} in {src!r}")
            node.value = float(literal)
        elif isinstance(node, ast.Name):
            if node.id != "l" and node.id not in _CONSTS:
                raise ExprError(f"unknown name {node.id!r} in {src!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
            check(node.args[0])
        else:
            raise ExprError(f"{ast.get_source_segment(text, node)!r} is not allowed in {src!r}")

    check(tree.body)
    fn = ast.parse("lambda l: 0", mode="eval")
    fn.body.body = tree.body
    return eval(compile(fn, "<expr>", "eval"), {"__builtins__": {}, **_FUNCS, **_CONSTS})
