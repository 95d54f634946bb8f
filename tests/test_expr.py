import math

import pytest

from noisyqfi.expr import ExprError, compile_expr


def test_literals_and_precedence():
    assert compile_expr("2 + 3 * 4")(0.0) == 14.0
    assert compile_expr("(2 + 3) * 4")(0.0) == 20.0
    assert compile_expr("2 - 3 - 4")(0.0) == -5.0
    assert compile_expr("12 / 4 / 3")(0.0) == 1.0


def test_power_is_right_associative():
    assert compile_expr("2 ^ 3 ^ 2")(0.0) == 512.0
    assert compile_expr("2 ** 3")(0.0) == 8.0
    assert compile_expr("-2 ^ 2")(0.0) == -4.0  # unary minus binds outside the power


def test_variable_names_and_constants():
    for name in ("l", "lam", "lambda"):
        assert compile_expr(f"1 - 2 * {name}")(0.25) == 0.5
    assert compile_expr("pi")(0.0) == pytest.approx(math.pi)
    assert compile_expr("e")(0.0) == pytest.approx(math.e)


def test_functions():
    f = compile_expr("sqrt(1 - l)")
    assert f(0.19) == pytest.approx(math.sqrt(0.81))
    assert compile_expr("sin(l)^2 + cos(l)^2")(0.7) == pytest.approx(1.0)
    assert compile_expr("exp(0)")(0.0) == 1.0


def test_scientific_notation():
    assert compile_expr("1e-3 + 2.5e2")(0.0) == pytest.approx(250.001)


def test_errors():
    with pytest.raises(ExprError):
        compile_expr("")
    with pytest.raises(ExprError):
        compile_expr("2 +")
    with pytest.raises(ExprError):
        compile_expr("foo(3)")
    with pytest.raises(ExprError):
        compile_expr("import os")
    with pytest.raises(ExprError):
        compile_expr("1 2")
    with pytest.raises(ExprError):
        compile_expr("sqrt 4")


@pytest.mark.parametrize("src", [
    "0x10", "1_0", "1j", "True", "l.real", "(1)(2)", "sqrt(1,2)", "sqrt(x=1)",
    '__import__("os")', "2 // 3", "2 % 3", "2 & 3", "l if l else 0",
    "sqrt", "pi()", "l # note", "π",
])
def test_rejected_forms(src):
    with pytest.raises(ExprError):
        compile_expr(src)


def test_literals_are_floats():
    # integer literals would give the correctly rounded 1e23 instead
    assert compile_expr("10^23")(0.0).hex() == (10.0 ** 23.0).hex()
    assert compile_expr("1e999")(0.0) == math.inf


def test_runs_without_builtins():
    f = compile_expr("sqrt(l)")
    assert f.__globals__["__builtins__"] == {}
    assert compile_expr("lambda ^ 2 + lam")(3.0) == 12.0
