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
time with a line/column position.

``FUNCTIONS`` is the one function table (name -> numpy ufunc; the parser
takes a call's arity from the ufunc's ``nin``).  Operators are ufuncs too,
so Python-float constants follow the same error rule as arrays.

Evaluation is numpy-vectorised over finite scalar or array environments,
in one walk under ``np.errstate(all="raise", under="ignore")``: by IEEE
754 an operation on finite operands returns a non-finite value exactly
when it raises the overflow, invalid or divide-by-zero flag.  The node
whose ufunc raises becomes a :class:`NumericEvalError` naming its subterm,
with a message picked only then ("division by zero", ...).
"""

import re
from dataclasses import dataclass, field

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
  | (?P<ws>[ \t]+)
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.column})"


def _tokenize(text):
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos] == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        col = pos - line_start + 1
        if m.lastgroup == "number":
            tokens.append(Token("number", m.group(), line, col))
        elif m.lastgroup == "name":
            tokens.append(Token("name", m.group(), line, col))
        elif m.lastgroup == "op":
            tokens.append(Token(m.group(), m.group(), line, col))
        pos = m.end()
    tokens.append(Token("end", "", line, n - line_start + 1))
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

    def parse(self):
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return node

    def sum(self):
        node = self.product()
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            rhs = self.product()
            node = Binary(tok.kind, node, rhs, tok.line, tok.column)
        return node

    def product(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            rhs = self.unary()
            node = Binary(tok.kind, node, rhs, tok.line, tok.column)
        return node

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
    return _Parser(_tokenize(text), variables).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC_ATOM = 5
_PREC_POW = 4
_PREC_UNARY = 3
_PREC_MUL = 2
_PREC_ADD = 1

_BIN_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}


def _prec(node):
    if isinstance(node, Binary):
        return _BIN_PREC[node.op]
    if isinstance(node, Unary):
        return _PREC_UNARY
    return _PREC_ATOM


def to_source(node):
    """Render a tree to canonical text; reparsing gives an equal tree."""
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
    if isinstance(node, Binary):
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


def evaluate(node, env):
    """Evaluate a tree against ``env`` (name -> finite scalar or ndarray); a
    non-finite intermediate raises :class:`NumericEvalError` naming it."""
    with np.errstate(all="raise", under="ignore"):
        return _walk(node, env)
