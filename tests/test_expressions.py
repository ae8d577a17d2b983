"""Parser, printer and evaluator for the scenario expression language.

Expected values in the reference table were computed independently with
Python's own operators and ``math`` functions and then frozen.
"""

import numpy as np
import pytest

from slabflow import (
    Binary,
    Call,
    ExpressionError,
    Name,
    Num,
    NumericEvalError,
    Unary,
    evaluate,
    parse_expr,
    to_source,
)

REFERENCE = [
    ("2^3^2", {}, 512.0),
    ("-2^2", {}, -4.0),
    ("2^-1", {}, 0.5),
    ("1 + 2*3", {}, 7.0),
    ("(1 + 2)*3", {}, 9.0),
    ("6/4/2", {}, 0.75),
    ("10 - 3 - 2", {}, 5.0),
    ("-x^2", {"x": 3.0}, -9.0),
    ("sin(pi/2)", {}, 1.0),
    ("cos(0)", {}, 1.0),
    ("exp(1)", {}, 2.718281828459045),
    ("log(e)", {}, 1.0),
    ("sqrt(16)", {}, 4.0),
    ("abs(-3.5)", {}, 3.5),
    ("sign(-2)", {}, -1.0),
    ("min(3, -1)", {}, -1.0),
    ("max(2^3, 3^2)", {}, 9.0),
    ("2*pi", {}, 6.283185307179586),
    ("x*y - y/x", {"x": 2.0, "y": 8.0}, 12.0),
    ("exp(-t)*sin(pi*x)", {"t": 0.5, "x": 0.25}, 0.4288819424803534),
]


@pytest.mark.parametrize("text,env,expected", REFERENCE)
def test_reference_values(text, env, expected):
    tree = parse_expr(text)
    assert evaluate(tree, env) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_power_is_right_associative():
    # 2^(3^2) = 512, never (2^3)^2 = 64
    assert evaluate(parse_expr("2^3^2"), {}) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert evaluate(parse_expr("-3^2"), {}) == -9.0
    assert evaluate(parse_expr("(-3)^2"), {}) == 9.0


def test_tree_shape():
    tree = parse_expr("1 + 2*x")
    assert isinstance(tree, Binary) and tree.op == "+"
    assert tree.left == Num(1.0)
    assert tree.right == Binary("*", Num(2.0), Name("x"))


def test_positions_ignored_by_equality():
    a = parse_expr("1 +  x")
    b = parse_expr("1+x")
    assert a == b


def test_vectorized_evaluation():
    tree = parse_expr("exp(-t)*sin(pi*x)")
    x = np.linspace(0.0, 1.0, 7)
    got = evaluate(tree, {"t": 0.5, "x": x})
    want = np.exp(-0.5) * np.sin(np.pi * x)
    assert np.allclose(got, want, rtol=1e-15, atol=1e-15)


def test_min_max_broadcast():
    tree = parse_expr("max(x, 0.5)", ("x",))
    x = np.array([0.0, 0.5, 1.0])
    assert np.array_equal(evaluate(tree, {"x": x}), [0.5, 0.5, 1.0])


# --- round trips -----------------------------------------------------------

ROUND_TRIP = [
    "2^3^2",
    "-x^2",
    "(-x)^2",
    "x - (y - 1)",
    "x - y - 1",
    "(x + y)*(x - y)",
    "6/4/2",
    "a/(b/c)" .replace("a", "x").replace("b", "y").replace("c", "2"),
    "2^(x*y)",
    "(2^x)^y",
    "min(max(x, 0), 1)",
    "-(x + y)",
    "exp(-t)*x*(1 + t/2 - x)",
    "sign(x)*abs(x)^0.5",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_print_reparse_identity(text):
    first = parse_expr(text)
    printed = to_source(first)
    again = parse_expr(printed)
    assert again == first
    # canonical text is a fixed point
    assert to_source(again) == printed


def test_round_trip_keeps_division_grouping():
    left = parse_expr("x/y/2")
    right = parse_expr("x/(y/2)")
    assert left != right
    assert parse_expr(to_source(left)) == left
    assert parse_expr(to_source(right)) == right
    env = {"x": 12.0, "y": 3.0}
    assert evaluate(left, env) == 2.0
    assert evaluate(right, env) == 8.0


# --- parse errors ----------------------------------------------------------


def test_unknown_identifier_rejected_at_parse_time():
    with pytest.raises(ExpressionError) as err:
        parse_expr("2*q", ("x",))
    assert err.value.line == 1
    assert err.value.column == 3
    assert "q" in str(err.value)


def test_variables_depend_on_context():
    parse_expr("xi1 + z", ("t", "x", "y", "z", "xi1", "xi2"))
    with pytest.raises(ExpressionError):
        parse_expr("xi1 + z", ("x",))


def test_error_position_on_second_line():
    with pytest.raises(ExpressionError) as err:
        parse_expr("1 +\n @", ("x",))
    assert err.value.line == 2
    assert err.value.column == 2


@pytest.mark.parametrize(
    "bad",
    ["", "1 +", "(1 + 2", "1 + * 2", "sin()", "sin(1, 2)", "min(1)", "foo(1)", "1 2", "$",
     "1e999*0 + x"],
)
def test_malformed_input_raises(bad):
    with pytest.raises(ExpressionError):
        parse_expr(bad, ("x",))


def test_arity_error_mentions_function():
    with pytest.raises(ExpressionError) as err:
        parse_expr("min(1)")
    assert "min" in str(err.value)


# --- evaluation errors -----------------------------------------------------


def test_division_by_zero_names_subterm():
    tree = parse_expr("1 + 1/x", ("x",))
    with pytest.raises(NumericEvalError) as err:
        evaluate(tree, {"x": 0.0})
    assert "1/x" in str(err.value)


@pytest.mark.parametrize(
    "text,env",
    [
        ("sqrt(x)", {"x": -1.0}),
        ("log(x)", {"x": 0.0}),
        ("log(x)", {"x": -2.0}),
        ("x^0.5", {"x": -2.0}),
        ("x^-1", {"x": 0.0}),
    ],
)
def test_domain_violations_raise(text, env):
    with pytest.raises(NumericEvalError):
        evaluate(parse_expr(text, ("x",)), env)


def test_vectorized_error_detection():
    tree = parse_expr("sqrt(x)", ("x",))
    with pytest.raises(NumericEvalError):
        evaluate(tree, {"x": np.array([1.0, 4.0, -9.0])})


def test_integer_exponent_of_negative_base_is_fine():
    assert evaluate(parse_expr("x^3", ("x",)), {"x": -2.0}) == -8.0


def test_unary_nodes_print_compactly():
    assert to_source(parse_expr("-(x*y)", ("x", "y"))) == "-(x*y)"
    assert to_source(parse_expr("--x", ("x",))) == "--x"
    assert evaluate(parse_expr("--x", ("x",)), {"x": 4.0}) == 4.0
