"""Small arithmetic expression language used by scenario files.

Grammar (binding tightest last):
    sum     := product (('+'|'-') product)*
    product := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' unary]          # right-associative
    atom    := NUMBER | NAME | NAME '(' sum (',' sum)* ')' | '(' sum ')'

so ``^`` binds tighter than unary minus (``-x^2`` is ``-(x^2)``) and
``2^3^2`` is ``2^(3^2) = 512``.  Constants: pi, e.  Which variable names
are legal is decided by the caller; everything else is rejected at parse
time with a line/column position.  A scenario's jump entry is read as
comma-separated sums, ``left, right`` or ``phi`` (:func:`parse_exprs`).

``FUNCTIONS`` is the one function table (name -> numpy ufunc; the parser
takes a call's arity from the ufunc's ``nin``).  Operators are ufuncs too,
so Python-float constants follow the same error rule as arrays.

Evaluation is numpy-vectorised over finite scalar or array environments,
in one walk under ``np.errstate(all="raise", under="ignore")``: by IEEE
754 an operation on finite operands returns a non-finite value exactly
when it raises the overflow, invalid or divide-by-zero flag.  The node
whose ufunc raises becomes a :class:`NumericEvalError` naming its subterm,
with a message picked only then ("division by zero", ...).  :func:`derivative`
builds a tree's exact derivative as another tree.
"""

import re
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExpressionError, NumericEvalError

DEFAULT_VARIABLES = ("t", "x", "y", "z", "xi1", "xi2")

FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "abs": np.abs,
    "sqrt": np.sqrt, "sign": np.sign, "min": np.minimum, "max": np.maximum,
}

CONSTANTS = {"pi": np.pi, "e": np.e}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    """Base node.  Positions are carried but excluded from equality so that
    a parse -> print -> parse round trip yields an equal tree."""

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)
    tree: Expr = field(default=None, compare=False, repr=False)  # the subtree :func:`bind` replaced


@dataclass(frozen=True)
class Name(Expr):
    ident: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Chain(Binary):
    """A chain-rule term of :func:`derivative`, the partial ``left`` times the
    tangent ``right`` (op ``*``): 0 where the tangent is 0, the partial being
    evaluated only where it is not."""


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<newline>\n)
  | (?P<ws>[ \t]+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

Token = namedtuple("Token", "kind text line column")  # an operator's kind is its text


def _tokenize(text):
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ExpressionError(f"unexpected character {m.group()!r}", line, col)
        elif kind != "ws":
            tokens.append(Token(m.group() if kind == "op" else kind, m.group(), line, col))
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            what = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ExpressionError(f"expected {kind!r}, found {what}", tok.line, tok.column)
        return self.advance()

    def parse(self, count):
        """``count`` comma-separated sums making up the whole input."""
        nodes = [self.sum()]
        while len(nodes) < count:
            self.expect(",")
            nodes.append(self.sum())
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return nodes

    def _chain(self, ops, operand):
        """operand (op operand)*, grouped to the left."""
        node = operand()
        while self.peek().kind in ops:
            tok = self.advance()
            node = Binary(tok.kind, node, operand(), tok.line, tok.column)
        return node

    def sum(self):
        return self._chain(("+", "-"), self.product)

    def product(self):
        return self._chain(("*", "/"), self.unary)

    def unary(self):
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Unary("-", self.unary(), tok.line, tok.column)
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "^":
            self.advance()
            rhs = self.unary()  # right-associative; exponent may be signed
            node = Binary("^", node, rhs, tok.line, tok.column)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not np.isfinite(value):
                raise ExpressionError(f"number {tok.text} overflows", tok.line, tok.column)
            return Num(value, tok.line, tok.column)
        if tok.kind == "(":
            self.advance()
            node = self.sum()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                return self.call(tok)
            if tok.text in CONSTANTS or tok.text in self.variables:
                return Name(tok.text, tok.line, tok.column)
            if tok.text in FUNCTIONS:
                raise ExpressionError(
                    f"function {tok.text!r} needs argument parentheses", tok.line, tok.column
                )
            allowed = ", ".join(sorted(self.variables))
            raise ExpressionError(
                f"unknown variable {tok.text!r} (allowed here: {allowed})",
                tok.line,
                tok.column,
            )
        what = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ExpressionError(f"unexpected {what}", tok.line, tok.column)

    def call(self, name_tok):
        if name_tok.text not in FUNCTIONS:
            raise ExpressionError(f"unknown function {name_tok.text!r}", name_tok.line, name_tok.column)
        arity = FUNCTIONS[name_tok.text].nin
        self.expect("(")
        args = [self.sum()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.sum())
        self.expect(")")
        if len(args) != arity:
            raise ExpressionError(
                f"{name_tok.text!r} takes {arity} argument(s), got {len(args)}",
                name_tok.line,
                name_tok.column,
            )
        return Call(name_tok.text, tuple(args), name_tok.line, name_tok.column)


def parse_expr(text, variables=DEFAULT_VARIABLES):
    """Parse ``text`` into an expression tree.

    ``variables`` is the set of identifiers legal in this context (scenario
    fields differ: initial data sees x/y, fluxes see xi1/xi2, the time
    modulus sees r).  Unknown names are parse errors, not runtime errors.
    """
    return _Parser(_tokenize(text), variables).parse(1)[0]


def parse_exprs(text, count, variables=DEFAULT_VARIABLES):
    """Parse ``text`` as ``count`` comma-separated sums, as in a jump entry's
    ``left, right`` (two) or ``phi`` (one)."""
    return tuple(_Parser(_tokenize(text), variables).parse(count))


# ---------------------------------------------------------------------------
# Printing

_PREC_ATOM = 5
_PREC_POW = 4
_PREC_UNARY = 3
_PREC_MUL = 2
_PREC_ADD = 1

_BIN_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}


def _prec(node):
    node = getattr(node, "tree", None) or node  # a bound value ranks as its subtree
    if isinstance(node, Binary):
        return _BIN_PREC[node.op]
    if isinstance(node, Unary):
        return _PREC_UNARY
    return _PREC_ATOM


def to_source(node):
    """Render a tree to canonical text; reparsing gives an equal tree."""
    node = getattr(node, "tree", None) or node  # a bound value prints as its subtree
    if isinstance(node, Num):
        value = node.value
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Unary):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({','.join(to_source(a) for a in node.args)})"
    if isinstance(node, Binary):
        left, right = to_source(node.left), to_source(node.right)
        p = _BIN_PREC[node.op]
        if node.op == "^":
            # right-associative: parenthesise a left operand binding no
            # tighter than '^'; the right operand is a unary per grammar.
            if _prec(node.left) <= p:
                left = f"({left})"
            if _prec(node.right) < _PREC_UNARY:
                right = f"({right})"
        else:
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation

_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide, "^": np.power}


def free_variables(node):
    """The variable names ``node`` reads (constants excluded)."""
    if isinstance(node, Name):
        return frozenset() if node.ident in CONSTANTS else frozenset((node.ident,))
    if isinstance(node, Unary):
        return free_variables(node.operand)
    if isinstance(node, Binary):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Call):
        return frozenset().union(*map(free_variables, node.args))
    return frozenset()


def _diagnosis(node, args):
    """Why ``node``'s ufunc raised an IEEE flag on finite ``args``."""
    key = node.func if isinstance(node, Call) else node.op
    a, b = np.asarray(args[0]), np.asarray(args[-1])
    if key == "/" and np.any(b == 0):
        return "division by zero"
    if key == "^" and np.any((a < 0) & (b % 1 != 0)):
        return "negative base with non-integer exponent"
    if key == "^" and np.any((a == 0) & (b < 0)):
        return "zero raised to a negative power"
    if key == "sqrt" and np.any(a < 0):
        return "square root of a negative number"
    if key == "log" and np.any(a <= 0):
        return "log of a non-positive number"
    return "non-finite value"


def _error(message, node):
    return NumericEvalError(message, to_source(node), node.line or None, node.column or None)


def _walk(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        if node.ident in CONSTANTS:
            return CONSTANTS[node.ident]
        try:
            return env[node.ident]
        except KeyError:
            raise _error(f"variable {node.ident!r} has no value", node) from None
    if isinstance(node, Chain):
        tangent = _walk(node.right, env)
        ufunc, args = np.multiply, (_partial(node.left, env, tangent), tangent)
    elif isinstance(node, Binary):
        ufunc, args = _OPERATORS[node.op], (_walk(node.left, env), _walk(node.right, env))
    elif isinstance(node, Call):
        ufunc, args = FUNCTIONS[node.func], [_walk(a, env) for a in node.args]
    elif isinstance(node, Unary):
        ufunc, args = np.negative, (_walk(node.operand, env),)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    try:
        return ufunc(*args)
    except FloatingPointError:
        raise _error(_diagnosis(node, args), node) from None


def _partial(node, env, tangent):
    """A :class:`Chain`'s partial ``node``; if it does not evaluate everywhere,
    0 where ``tangent`` is 0 and its value on the other points."""
    try:
        return _walk(node, env)
    except NumericEvalError:
        used = {k: env[k] for k in free_variables(node) & env.keys()}
        shape = np.broadcast_shapes(np.shape(tangent), *map(np.shape, used.values()))
        rows = np.broadcast_to(tangent != 0, shape)
        if rows.all():
            raise
        out = np.zeros(shape)
        out[rows] = _walk(node, {**env, **{k: np.broadcast_to(v, shape)[rows] for k, v in used.items()}})
        return out


def evaluate(node, env):
    """Evaluate a tree against ``env`` (name -> finite scalar or ndarray); a
    non-finite intermediate raises :class:`NumericEvalError` naming it."""
    if isinstance(node, (Num, Name)):  # a leaf raises no IEEE flag
        return _walk(node, env)
    with np.errstate(all="raise", under="ignore"):
        return _walk(node, env)


def bind(node, env):
    """``node`` with each subtree reading only names in ``env`` replaced by a :class:`Num`
    of its value that prints as the subtree; a node whose evaluation raises stays a node.
    An unfolded :class:`Chain` keeps its partial as given: where the partial raises,
    :func:`_partial` evaluates it on the rows of the names it reads."""
    if isinstance(node, Num):
        return node
    if free_variables(node) <= env.keys():
        with suppress(NumericEvalError):
            return Num(evaluate(node, env), tree=node)
    if isinstance(node, Chain):
        return replace(node, right=bind(node.right, env))
    if isinstance(node, Unary):
        return replace(node, operand=bind(node.operand, env))
    if isinstance(node, Binary):
        return replace(node, left=bind(node.left, env), right=bind(node.right, env))
    if isinstance(node, Call):
        return replace(node, args=tuple(bind(a, env) for a in node.args))
    return node


# ---------------------------------------------------------------------------
# Differentiation

_ZERO, _ONE, _TWO, _MINUS = Num(0.0), Num(1.0), Num(2.0), Num(-1.0)  # compared by value


def _op(op, a, b=None):
    """``a op b`` or the call ``op(a[, b])``, with a zero term or a one factor
    dropped, and the :class:`Num` of its value where its operands are numbers."""
    if op == "*" and _ZERO in (a, b) or op == "/" and a == _ZERO:
        return _ZERO
    if op in ("+", "-") and b == _ZERO or op in ("*", "/", "^") and b == _ONE:
        return a
    if op == "+" and a == _ZERO or op == "*" and a == _ONE:
        return b
    operands = (a,) if b is None else (a, b)
    node = Binary(op, a, b) if op in _OPERATORS else Call(op, operands)
    if all(isinstance(c, Num) for c in operands):
        with suppress(NumericEvalError):
            return Num(float(evaluate(node, {})))
    return node


def _chain(partial, tangent):
    """``partial * tangent`` as :func:`_op` builds it, a :class:`Chain` where it stays a product."""
    node = _op("*", partial, tangent)
    return node if isinstance(node, Num) or node is partial or node is tangent else Chain("*", partial, tangent)


_CHAIN = {  # f -> f'(u) from u and f(u), for the one-argument entries of FUNCTIONS
    "sin": lambda u, f: _op("cos", u),
    "cos": lambda u, f: _op("*", _MINUS, _op("sin", u)),
    "exp": lambda u, f: f,
    "log": lambda u, f: _op("/", _ONE, u),
    "abs": lambda u, f: _op("sign", u),
    "sqrt": lambda u, f: _op("/", _ONE, _op("*", _TWO, f)),
    "sign": lambda u, f: _ZERO,
}


def _d(node, name):
    if isinstance(node, (Num, Name)):
        return _ONE if getattr(node, "ident", None) == name else _ZERO
    if isinstance(node, Unary):
        return _op("*", _MINUS, _d(node.operand, name))
    if isinstance(node, Call) and node.func in ("min", "max"):
        a, b = node.args  # ``first``: 1 where a is taken, 0 where b is, 1/2 at a tie
        first = _op("/", _op("+", _ONE, _op("sign", _op("-", *((a, b) if node.func == "max" else (b, a))))), _TWO)
        return _op("+", _op("*", _d(a, name), first), _op("*", _d(b, name), _op("-", _ONE, first)))
    if isinstance(node, Call):
        return _chain(_CHAIN[node.func](node.args[0], node), _d(node.args[0], name))
    a, b, da, db = node.left, node.right, _d(node.left, name), _d(node.right, name)
    if node.op in ("+", "-"):
        return _op(node.op, da, db)
    if node.op == "*":
        return _op("+", _op("*", da, b), _op("*", a, db))
    if node.op == "/":
        return _op("/", _op("-", da, _op("*", _op("/", a, b), db)), b)
    # a^b: b a^(b-1) a' + a^b log(a) b', a term dropped where its factor a' or b' is 0
    return _op("+", _chain(_op("*", b, _op("^", a, _op("-", b, _ONE))), da),
               _chain(_op("*", node, _op("log", a)), db))


def derivative(node, name):
    """d(node)/d(name) as a tree, by the sum, product, quotient, power and chain
    rules with one rule per ``FUNCTIONS`` entry (Griewank and Walther, *Evaluating
    Derivatives*, 2008): ``abs`` has sign(u) u', ``sign`` 0, ``min``/``max`` the
    derivative of the argument taken (their mean at a tie).  A factor whose
    derivative is 0 is dropped unevaluated, and :func:`bind` folds what reads no
    name: the derivative of a term linear in ``name`` is a number.  A chain-rule
    term f'(u) u' is a :class:`Chain`, 0 wherever u' is 0 even where f'(u) does not
    evaluate: d((xi1^2)^0.5*xi1)/dxi1 is 0 at xi1 = 0, a kink's subgradient, as
    ``abs`` has sign(0) = 0."""
    return bind(_d(node, name), {})
