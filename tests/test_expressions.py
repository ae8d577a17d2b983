"""Parser, printer and evaluator for the scenario expression language.

Expected values in the reference table were computed independently with
Python's own operators and ``math`` functions and then frozen.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from slabflow.expressions import free_variables

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


DOMAIN_VIOLATIONS = [
    ("sqrt(x)", {"x": -1.0}, "square root of a negative number", "sqrt(x)"),
    ("log(x)", {"x": 0.0}, "log of a non-positive number", "log(x)"),
    ("log(x)", {"x": -2.0}, "log of a non-positive number", "log(x)"),
    ("x^0.5", {"x": -2.0}, "negative base with non-integer exponent", "x^0.5"),
    ("x^-1", {"x": 0.0}, "zero raised to a negative power", "x^-1"),
    ("0/x", {"x": 0.0}, "division by zero", "0/x"),
    ("1 + 1/x", {"x": 0.0}, "division by zero", "1/x"),
    ("exp(x)", {"x": 1000.0}, "non-finite value", "exp(x)"),
    ("1e200*1e200", {}, "non-finite value", "1e+200*1e+200"),
    ("2 + 1/(x - 2)", {"x": np.array([1.0, 2.0, 3.0])}, "division by zero", "1/(x-2)"),
    ("x^(x - 0.5)", {"x": np.array([-1.0, 0.0, 2.0])},
     "negative base with non-integer exponent", "x^(x-0.5)"),
]


# ids are the text and the row index, so a column added to the rows keeps every test id
@pytest.mark.parametrize(
    "text,env,message,subterm",
    DOMAIN_VIOLATIONS,
    ids=[f"{row[0]}-env{i}" for i, row in enumerate(DOMAIN_VIOLATIONS)],
)
def test_domain_violations_raise(text, env, message, subterm):
    with pytest.raises(NumericEvalError) as err:
        evaluate(parse_expr(text, ("x",)), env)
    assert str(err.value).startswith(f"{message} in subterm '{subterm}'")
    assert err.value.subterm == subterm


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


def test_free_variables_lists_the_names_a_tree_reads():
    tree = parse_expr("pi*min(xi1, -z^2) + exp(t)/e", ("t", "z", "xi1", "xi2"))
    assert free_variables(tree) == {"t", "z", "xi1"}
    assert free_variables(parse_expr("2*pi")) == frozenset()


# --- the flag rule against the per-node scans it replaced --------------------

_REF_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "sign": np.sign}


def _ref_fail(message, node):
    raise NumericEvalError(message, to_source(node), node.line or None, node.column or None)


def _ref_check_finite(value, node):
    if not np.all(np.isfinite(value)):
        _ref_fail("non-finite value", node)
    return value


def reference_evaluate(node, env):
    """The evaluator as it was before the flag rule: a finiteness scan after
    each node, pre-scans for '/', sqrt and log, and a post-diagnosis of '^'."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        if node.ident in ("pi", "e"):
            return {"pi": np.pi, "e": np.e}[node.ident]
        try:
            return env[node.ident]
        except KeyError:
            _ref_fail(f"variable {node.ident!r} has no value", node)
    if isinstance(node, Unary):
        return -reference_evaluate(node.operand, env)
    if isinstance(node, Binary):
        a = reference_evaluate(node.left, env)
        b = reference_evaluate(node.right, env)
        with np.errstate(all="ignore"):
            if node.op == "+":
                return _ref_check_finite(a + b, node)
            if node.op == "-":
                return _ref_check_finite(a - b, node)
            if node.op == "*":
                return _ref_check_finite(a * b, node)
            if node.op == "/":
                if np.any(b == 0):
                    _ref_fail("division by zero", node)
                return _ref_check_finite(a / b, node)
            if node.op == "^":
                out = np.power(a, b)
                if not np.all(np.isfinite(out)):
                    if np.any((np.asarray(a) < 0) & (np.asarray(b) % 1 != 0)):
                        _ref_fail("negative base with non-integer exponent", node)
                    if np.any((np.asarray(a) == 0) & (np.asarray(b) < 0)):
                        _ref_fail("zero raised to a negative power", node)
                    _ref_fail("non-finite value", node)
                return out
    if isinstance(node, Call):
        args = [reference_evaluate(a, env) for a in node.args]
        with np.errstate(all="ignore"):
            if node.func == "sqrt":
                if np.any(np.asarray(args[0]) < 0):
                    _ref_fail("square root of a negative number", node)
                return np.sqrt(args[0])
            if node.func == "log":
                if np.any(np.asarray(args[0]) <= 0):
                    _ref_fail("log of a non-positive number", node)
                return np.log(args[0])
            if node.func == "min":
                return np.minimum(args[0], args[1])
            if node.func == "max":
                return np.maximum(args[0], args[1])
            return _ref_check_finite(_REF_UNARY[node.func](args[0]), node)
    raise TypeError(f"not an expression node: {node!r}")


FUZZ_VARIABLES = ("t", "x", "y")
EDGE_VALUES = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -2.5, 3.0, 1e-300, 1e-200, 1e200, -1e200, 709.0, 710.0]

_leaves = st.one_of(
    st.sampled_from([v for v in EDGE_VALUES if v >= 0.0]).map(Num),
    st.floats(min_value=0.0, max_value=1e6).map(Num),
    st.sampled_from(FUZZ_VARIABLES + ("pi", "e")).map(Name),
)


def _interior(children):
    one = ("sin", "cos", "exp", "log", "abs", "sqrt", "sign")
    return st.one_of(
        children.map(lambda c: Unary("-", c)),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda f, c: Call(f, (c,)), st.sampled_from(one), children),
        st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(("min", "max")), children, children),
    )


_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(min_value=-1e3, max_value=1e3))


@st.composite
def _environments(draw):
    n = draw(st.integers(1, 4))
    array = st.lists(_values, min_size=n, max_size=n).map(np.array)
    return {name: draw(st.one_of(_values, array)) for name in FUZZ_VARIABLES}


@settings(max_examples=400, deadline=None)
@given(raw=st.recursive(_leaves, _interior, max_leaves=12), env=_environments())
def test_evaluate_matches_the_per_node_scan_evaluator(raw, env):
    tree = parse_expr(to_source(raw), FUZZ_VARIABLES)  # positioned, as the loader builds them
    try:
        want = reference_evaluate(tree, env)
    except NumericEvalError as ref:
        with pytest.raises(NumericEvalError) as err:
            evaluate(tree, env)
        got = err.value
        assert type(got) is type(ref) and str(got) == str(ref)
        assert (got.subterm, got.line, got.column) == (ref.subterm, ref.line, ref.column)
        return
    got = evaluate(tree, env)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()
