"""Parser, printer and evaluator for the scenario expression language.

Expected values in the reference table were computed independently with
Python's own operators and ``math`` functions and then frozen.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

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
from slabflow.expressions import FUNCTIONS, _tokenize, bind, derivative, free_variables

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
     "1e999*0 + x", "sin x"],
)
def test_malformed_input_raises(bad):
    with pytest.raises(ExpressionError):
        parse_expr(bad, ("x",))


def test_arity_error_mentions_function():
    with pytest.raises(ExpressionError) as err:
        parse_expr("min(1)")
    assert "min" in str(err.value)


def _offset(text, line, column):
    """Index into ``text`` of a 1-based (line, column) position."""
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    return starts[line - 1] + column - 1


@settings(max_examples=500, deadline=None)
@given(text=st.text(alphabet="0123456789.eE+-*/^(),_xtsin \t\n$", max_size=30))
def test_tokens_reproduce_the_text_they_were_read_from(text):
    """Either the lexer stops at the first character no token can start with
    ('$', or a '.' without a digit after it) and names its position, or each
    token's text sits at its position, the tokens cover the non-blank text in
    order and one end token closes the list."""
    try:
        tokens = _tokenize(text)
    except ExpressionError as exc:
        at = _offset(text, exc.line, exc.column)
        ch = text[at]
        assert ch == "$" or (ch == "." and not text[at + 1:at + 2].isdigit())
        assert repr(ch) in str(exc)
        _tokenize(text[:at])  # everything before it reads
        return
    *body, end = tokens
    assert (end.kind, end.text) == ("end", "")
    assert _offset(text, end.line, end.column) == len(text)
    offsets = [_offset(text, tok.line, tok.column) for tok in body]
    assert all(text[at:at + len(tok.text)] == tok.text for at, tok in zip(offsets, body))
    assert offsets == sorted(offsets)
    assert "".join(tok.text for tok in body) == "".join(text.split())
    assert all(tok.kind in ("number", "name", tok.text) for tok in body)


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


# --- binding the names that do not change ------------------------------------


def test_bind_folds_each_subtree_that_reads_only_bound_names():
    x = np.array([0.25, 0.5])
    assert isinstance(bind(parse_expr("0"), {"x": x}), Num)
    tree = parse_expr("exp(-t)*sin(pi*x)", ("t", "x"))
    bound = bind(tree, {"x": x})
    assert isinstance(bound.right, Num) and not isinstance(bound.left, Num)
    assert to_source(bound) == to_source(tree)
    assert evaluate(bound, {"t": 0.5, "x": x}).tobytes() == evaluate(tree, {"t": 0.5, "x": x}).tobytes()


def test_bind_keeps_a_subtree_that_raises():
    bound = bind(parse_expr("t + 1/x", ("t", "x")), {"x": np.array([0.0, 1.0])})
    assert isinstance(bound.right, Binary)
    with pytest.raises(NumericEvalError, match="division by zero in subterm '1/x'"):
        evaluate(bound, {"t": 1.0})


@settings(max_examples=400, deadline=None)
@given(raw=st.recursive(_leaves, _interior, max_leaves=12), env=_environments())
def test_bind_then_evaluate_matches_one_walk(raw, env):
    """x and y bound first, then the walk with t: bitwise the values of one
    walk, or the same NumericEvalError."""
    tree = parse_expr(to_source(raw), FUZZ_VARIABLES)
    bound = bind(tree, {"x": env["x"], "y": env["y"]})
    try:
        want = evaluate(tree, env)
    except NumericEvalError as ref:
        with pytest.raises(NumericEvalError) as err:
            evaluate(bound, env)
        got = err.value
        assert type(got) is type(ref) and str(got) == str(ref)
        assert (got.subterm, got.line, got.column) == (ref.subterm, ref.line, ref.column)
        return
    got = evaluate(bound, env)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


# --- derivative trees -------------------------------------------------------------

DIFF_VARIABLES = ("t", "x", "z", "xi1")


@pytest.mark.parametrize(
    "text,name,printed",
    [
        ("x^3", "x", "3*x^2"),
        ("x^2", "x", "2*x"),
        ("2*x + 5", "x", "2"),
        ("t*x - x", "x", "t-1"),
        ("sin(t)*x", "t", "cos(t)*x"),
        ("x/t", "x", "1/t"),
        ("2^x", "x", "2^x*0.6931471805599453"),
        ("exp(2*pi)*x", "x", "exp(2*pi)"),
        ("-x", "x", "-1"),
        ("sign(x)*t", "x", "0"),
        ("x", "t", "0"),
    ],
)
def test_derivative_drops_zero_and_one_terms_and_folds_constants(text, name, printed):
    assert to_source(derivative(parse_expr(text, DIFF_VARIABLES), name)) == printed


FUNCTION_RULES = [
    ("sin(x)", 0.5, np.cos(0.5)),
    ("cos(x)", 0.5, -np.sin(0.5)),
    ("exp(x)", 0.5, np.exp(0.5)),
    ("log(x)", 0.5, 2.0),
    ("abs(x)", -0.5, -1.0),
    ("sqrt(x)", 0.25, 1.0),
    ("sign(x)", 0.5, 0.0),
    ("min(x, 2*x)", 0.5, 1.0),
    ("min(x, 2*x)", -0.5, 2.0),
    ("max(x, 2*x)", 0.5, 2.0),
    ("max(3, x)", 4.0, 1.0),
    ("max(x, 1 - x)", 0.5, 0.0),  # a tie: the mean of both derivatives
    ("x^x", 2.0, 4.0 * (1.0 + np.log(2.0))),
    ("1/x", 2.0, -0.25),
]


def test_every_function_has_a_rule_case():
    assert {text.split("(")[0] for text, _, _ in FUNCTION_RULES} >= set(FUNCTIONS)


@pytest.mark.parametrize("text,x,want", FUNCTION_RULES)
def test_each_function_has_its_rule(text, x, want):
    got = evaluate(derivative(parse_expr(text, DIFF_VARIABLES), "x"), {"x": x})
    assert got == pytest.approx(want, rel=1e-15, abs=0)


def test_a_factor_whose_derivative_is_zero_is_never_evaluated():
    """log(x) does not evaluate at x = -2, but d(x^t)/dx has no log term: t reads no x."""
    tree = derivative(parse_expr("x^t", DIFF_VARIABLES), "x")
    assert "log" not in to_source(tree)
    assert evaluate(tree, {"x": -2.0, "t": 3.0}) == 12.0


@pytest.mark.parametrize(
    "text,name,env,want",
    [
        ("(xi1^2)^0.5*xi1", "xi1", {"xi1": np.array([0.0, 1.0, -2.0])}, [0.0, 2.0, 4.0]),
        ("sqrt(xi1^2 + x^2)*xi1", "x", {"xi1": np.array([0.0, 3.0]), "x": np.array([0.0, 4.0])}, [0.0, 2.4]),
        ("abs(xi1)^0.5*sign(xi1)", "xi1", {"xi1": np.array([0.0, 4.0])}, [0.0, 0.25]),
        ("sqrt(x*xi1)", "xi1", {"x": 0.0, "xi1": 0.0}, 0.0),
        ("sqrt(x*xi1)", "xi1", {"x": np.array([0.0, 1.0]), "xi1": np.array([0.0, 4.0])}, [0.0, 0.25]),
    ],
)
def test_a_chain_term_is_zero_where_its_tangent_is(text, name, env, want):
    """f'(u) u' is 0 wherever u' is 0, though f'(u) does not evaluate there
    (1/sqrt(0), 0^-0.5), and f'(u) u' elsewhere."""
    got = evaluate(derivative(parse_expr(text, DIFF_VARIABLES), name), env)
    assert got == pytest.approx(want, rel=1e-15, abs=0)


def test_a_partial_that_does_not_evaluate_where_its_tangent_is_not_zero_raises():
    tree = derivative(parse_expr("sqrt(x*xi1)", DIFF_VARIABLES), "xi1")
    with pytest.raises(NumericEvalError, match="division by zero") as err:
        evaluate(tree, {"x": np.array([0.0, 1.0]), "xi1": np.array([0.0, 0.0])})
    assert err.value.subterm == "1/(2*sqrt(x*xi1))"


def _kinks(node):
    """The subtrees whose sign change is a kink or a tie: abs and sign
    arguments, and a - b for min(a, b) and max(a, b)."""
    if isinstance(node, Call):
        inner = [k for a in node.args for k in _kinks(a)]
        if node.func in ("abs", "sign"):
            return inner + [node.args[0]]
        if node.func in ("min", "max"):
            return inner + [Binary("-", *node.args)]
        return inner
    if isinstance(node, Binary):
        return _kinks(node.left) + _kinks(node.right)
    if isinstance(node, Unary):
        return _kinks(node.operand)
    return []


_diff_leaves = st.one_of(  # two in three leaves a variable
    st.sampled_from(DIFF_VARIABLES).map(Name),
    st.sampled_from(DIFF_VARIABLES).map(Name),
    st.one_of(st.floats(min_value=0.1, max_value=3.0).map(Num), st.just(Name("pi"))),
)


ROOTS = ("-",) + tuple("+-*/^") + tuple(sorted(FUNCTIONS))  # unary minus, operators, functions


def _root(key, a, b):
    """The node ``ROOTS[key]`` over the operands a (and b)."""
    op = ROOTS[key]
    if key == 0:
        return Unary("-", a)
    if op in "+-*/^":
        return Binary(op, a, b)
    return Call(op, (a, b)[: FUNCTIONS[op].nin])


def _diff_interior(children):
    return st.builds(_root, st.integers(0, len(ROOTS) - 1), children, children)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(key=st.integers(0, len(ROOTS) - 1),
       operands=st.lists(st.recursive(_diff_leaves, _diff_interior, max_leaves=4), min_size=2, max_size=2),
       point=st.tuples(*[st.floats(min_value=-1.0, max_value=2.0)] * 4),
       name=st.sampled_from(DIFF_VARIABLES))
def test_derivative_matches_central_differences_away_from_kinks_and_ties(key, operands, point, name):
    """Random trees over t, x, z, xi1 with every operator and every
    ``FUNCTIONS`` entry (each example has one of them at its root), against
    central differences with the steps h and h/2 that agree with each other
    (no singularity between them), at a point where no abs/sign argument
    and no min/max difference changes sign within the steps."""
    tree = parse_expr(to_source(_root(key, *operands)), DIFF_VARIABLES)
    env = dict(zip(DIFF_VARIABLES, point))
    h = 1e-4 * (1.0 + abs(env[name]))
    shifted = [{**env, name: env[name] + k * h} for k in (-1.0, -0.5, 0.5, 1.0)]
    try:
        exact = evaluate(derivative(tree, name), env)
        lo, half_lo, half_hi, hi = (evaluate(tree, e) for e in shifted)
        kinks = [[evaluate(k, e) for e in [env] + shifted] for k in _kinks(tree)]
    except NumericEvalError:
        assume(False)
    assume(all(min(v) > 0 or max(v) < 0 for v in kinks))
    coarse, fine = (hi - lo) / (2 * h), (half_hi - half_lo) / h
    scale = 1.0 + abs(fine) + max(abs(lo), abs(hi)) * 1e-4
    assume(abs(coarse - fine) <= 1e-4 * scale)  # smooth enough for the difference quotients
    assert abs(exact - fine) <= 1e-4 * scale
