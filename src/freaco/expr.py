"""A small scalar expression language for objective functions.

Grammar (see docs/expression-grammar.ebnf for the shipped EBNF)::

    expr    = term { ("+"|"-") term }
    term    = factor { ("*"|"/") factor }
    factor  = "-" factor | power
    power   = atom [ "^" factor ]          # right-associative
    atom    = NUMBER
            | "x" DIGITS                   # variable x1 .. xn
            | "x" "(" index ")"            # computed index, e.g. x(k+1)
            | FUNC "(" expr ")"            # sin cos exp ln abs
            | "sum" "(" NAME "," ["-"] INT "," ["-"] INT "," expr ")"
            | NAME                         # loop variable in scope
            | "(" expr ")"
    index   = iterm { ("+"|"-") iterm }
    iterm   = ifactor { "*" ifactor }
    ifactor = "-" ifactor | INT | NAME | "(" index ")"

Precedence: ^ binds tighter than unary minus, which binds tighter than
* and /, which bind tighter than + and -.  Power is right-associative.
Angles are radians; ln is the natural logarithm.  Nesting (parentheses,
calls, sums, unary minus, power) may go ``MAX_NESTING`` levels deep.
Sum bounds and index literals (INT) are integer-valued numbers, such as
``3``, ``3.0`` or ``3e0``; an index NAME is a loop variable in scope.

:func:`parse` compiles each objective in one pass: the recursive-descent
compiler emits flat register code as it reads, with no syntax tree.  It
reads a ``sum`` body once per term, with the loop variable bound, so
parse cost grows with the sum's range (up to ``MAX_OPERATIONS``
operations in all), and every loop variable and computed index becomes a
constant, range-checked against the dimension as it is read.  Of several
errors in one source, the first in reading order is reported.  One
executor runs the code on ``np.float64`` scalars for :func:`evaluate`
and on columns for :func:`evaluate_many`, so both give bit-identical
values for a point.

Domain policy: overflow, division by zero or an invalid operation (ln of
a non-positive value, a fractional power of a negative base, inf - inf,
...) in any intermediate value raises :class:`EvalDomainError` carrying
the point.  So does a NaN or infinite result, which a finite point cannot
give without one of those faults, but a point with a NaN or infinite
coordinate can (quiet NaNs raise no floating-point flag).  Underflow to 0
is allowed.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, EvalDomainError, ExprParseError

# + - * / and negation use Python's operators; ^ and the named functions
# use numpy ufuncs.  np.float64 scalars and arrays then run the same
# routines, so single points and batches agree bit for bit.
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "abs": np.abs}
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": np.power,
}

MAX_NESTING = 100
MAX_OPERATIONS = 1_000_000


@dataclass(frozen=True)
class Expr:
    """A compiled objective over x1..xn.

    Registers 0..n-1 hold the coordinates; the rest start as ``tail``,
    where constants are ``np.float64`` and scratch slots None.
    Instruction ``(fn, dst, a, b)`` stores ``fn(r[a], r[b])`` in
    ``r[dst]``, or ``fn(r[a])`` when ``b`` is -1.  The value is left in
    ``r[out]``.  Immutable, so safe to share across threads.
    """

    n: int
    code: tuple
    tail: tuple
    out: int


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^,])"
    r"|(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<bad>.)"
)


class _Token(NamedTuple):
    kind: str  # num | name | op | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, start = 1, 0  # start: offset of the line's first character
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ExprParseError(f"unexpected character {m.group()!r}", line, m.start() - start + 1)
        elif kind != "space":
            tokens.append(_Token(kind, m.group(), line, m.start() - start + 1))
    tokens.append(_Token("end", "", line, len(src) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Compiler

_VAR_RE = re.compile(r"^x(\d+)$")
_NOT_INDEX = "variable index must use integer arithmetic over loop variables"


def _reserved(name: str) -> bool:
    return name in ("x", "sum") or name in FUNCTIONS or _VAR_RE.match(name) is not None


class _Compiler:
    """Recursive descent that emits register code as it reads.

    Each ``expr``/``term``/``factor``/``atom`` call returns the register
    holding its value.  A value that needs an instruction at slot depth
    ``d`` lands in scratch slot ``d``; a right operand is read at
    ``d + 1``.  So a run holds at most nesting-depth temporaries, and
    chains such as ``x1 + x1 + ...`` reuse two slots in a loop.
    """

    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.depth = 0  # nesting, capped at MAX_NESTING
        self.env: dict[str, int] = {}  # loop variable -> value of this term
        self.code: list = []
        self.tail: list = []  # registers n, n+1, ... in order of first use
        self.consts: dict[float, int] = {}
        self.slots: list[int] = []  # register of each scratch slot

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ExprParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}")
        return self.advance()

    def enter(self):
        # Every recursive path of both grammars passes through here.
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels")

    def emit(self, fn, d: int, a: int, b: int = -1) -> int:
        while len(self.slots) <= d:
            self.slots.append(self.n + len(self.tail))
            self.tail.append(None)
        self.code.append((fn, self.slots[d], a, b))
        return self.slots[d]

    def const(self, value: float) -> int:
        if value not in self.consts:
            self.consts[value] = self.n + len(self.tail)
            self.tail.append(np.float64(value))
        return self.consts[value]

    def number(self, tok: _Token) -> float:
        value = float(tok.text)
        if math.isinf(value):
            self.fail(f"number {tok.text} is out of range", tok)
        return value

    def expr(self, d: int) -> int:
        a = self.term(d)
        while self.peek().text in ("+", "-"):
            fn = _BINARY[self.advance().text]
            a = self.emit(fn, d, a, self.term(d + 1))
        return a

    def term(self, d: int) -> int:
        a = self.factor(d)
        while self.peek().text in ("*", "/"):
            fn = _BINARY[self.advance().text]
            a = self.emit(fn, d, a, self.factor(d + 1))
        return a

    def factor(self, d: int) -> int:
        self.enter()
        if self.peek().text == "-":
            self.advance()
            a = self.emit(operator.neg, d, self.factor(d))
        else:
            a = self.atom(d)
            if self.peek().text == "^":
                self.advance()
                a = self.emit(np.power, d, a, self.factor(d + 1))
        self.depth -= 1
        return a

    def atom(self, d: int) -> int:
        tok = self.advance()
        if tok.kind == "num":
            return self.const(self.number(tok))
        if tok.text == "(":
            a = self.expr(d)
            self.expect(")")
            return a
        if tok.kind != "name":
            self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)
        name = tok.text
        var = _VAR_RE.match(name)
        if var:
            index = int(var.group(1))
            if not 1 <= index <= self.n:
                self.fail(f"variable x{index} is out of range for dimension {self.n}", tok)
            return index - 1
        if name == "x":
            self.expect("(")
            index = self.index_expr(tok)
            self.expect(")")
            if not 1 <= index <= self.n:
                self.fail(f"computed index evaluates to {index}, outside 1..{self.n}", tok)
            return index - 1
        if name in FUNCTIONS:
            self.expect("(")
            a = self.expr(d)
            self.expect(")")
            return self.emit(FUNCTIONS[name], d, a)
        if name == "sum":
            return self.sum(tok, d)
        if name in self.env:
            return self.const(float(self.env[name]))
        self.fail(f"unknown identifier {name!r}", tok)

    def sum(self, tok: _Token, d: int) -> int:
        """Read the body once per term, with the loop variable bound."""
        self.expect("(")
        var_tok = self.advance()
        if var_tok.kind != "name":
            self.fail("sum needs a loop variable name", var_tok)
        var = var_tok.text
        if _reserved(var):
            self.fail(f"loop variable {var!r} shadows a reserved name", var_tok)
        if var in self.env:
            self.fail(f"loop variable {var!r} is already in scope", var_tok)
        self.expect(",")
        lo = self.bound()
        self.expect(",")
        hi = self.bound()
        if lo > hi:
            self.fail(f"sum bounds must satisfy lo <= hi, got {lo} > {hi}", tok)
        self.expect(",")
        body = self.pos
        for k in range(lo, hi + 1):
            if len(self.code) > MAX_OPERATIONS:
                self.fail(f"sum expands to more than {MAX_OPERATIONS} operations", tok)
            self.pos = body
            self.env[var] = k
            if k == lo:
                total = self.expr(d)
            else:
                total = self.emit(operator.add, d, total, self.expr(d + 1))
        del self.env[var]
        self.expect(")")
        return total

    def bound(self) -> int:
        negate = False
        if self.peek().text == "-":
            self.advance()
            negate = True
        tok = self.peek()
        if tok.kind != "num" or not float(tok.text).is_integer():
            self.fail("sum bounds must be integer literals", tok)
        self.advance()
        value = int(float(tok.text))
        return -value if negate else value

    # The index grammar: integer + - * and unary minus over integer-valued
    # literals and loop variables.  ``at`` is the ``x`` token, where a
    # misuse is reported.

    def index_expr(self, at: _Token) -> int:
        value = self.index_term(at)
        while self.peek().text in ("+", "-"):
            value = _BINARY[self.advance().text](value, self.index_term(at))
        return value

    def index_term(self, at: _Token) -> int:
        value = self.index_factor(at)
        while self.peek().text in ("*", "/"):
            if self.advance().text == "/":
                self.fail(_NOT_INDEX, at)
            value *= self.index_factor(at)
        return value

    def index_factor(self, at: _Token) -> int:
        self.enter()
        if self.peek().text == "-":
            self.advance()
            value = -self.index_factor(at)
        else:
            value = self.index_atom(at)
            if self.peek().text == "^":
                self.fail(_NOT_INDEX, at)
        self.depth -= 1
        return value

    def index_atom(self, at: _Token) -> int:
        tok = self.advance()
        if tok.kind == "num":
            value = self.number(tok)
            if not value.is_integer():
                self.fail("variable index must be an integer", at)
            return int(value)
        if tok.text == "(":
            value = self.index_expr(at)
            self.expect(")")
            return value
        if tok.kind == "name":
            if tok.text in self.env:
                return self.env[tok.text]
            if _reserved(tok.text):
                self.fail(_NOT_INDEX, at)
            self.fail(f"unknown identifier {tok.text!r}", tok)
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)


def parse(src: str, n: int) -> Expr:
    """Parse ``src`` into a compiled expression over x1..xn.

    Raises :class:`ExprParseError` (with line/column) on syntax errors,
    unknown identifiers, out-of-range variable indices, too deep nesting
    and too large expansions; with more than one, the first read wins.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    compiler = _Compiler(_tokenize(src), n)
    out = compiler.expr(0)
    tok = compiler.peek()
    if tok.kind != "end":
        compiler.fail(f"unexpected trailing {tok.text!r}", tok)
    return Expr(n, tuple(compiler.code), tuple(compiler.tail), out)


# ---------------------------------------------------------------------------
# Evaluation


def _run(expr: Expr, columns):
    """Execute ``expr`` on one value per coordinate, all np.float64
    scalars or all arrays of one length."""
    r = [*columns, *expr.tail]
    with np.errstate(all="raise", under="ignore"):
        for fn, dst, a, b in expr.code:
            r[dst] = fn(r[a]) if b < 0 else fn(r[a], r[b])
    return r[expr.out]


def _reason(exc: FloatingPointError) -> str:
    # numpy names scalar operations "scalar divide" and so on; drop that
    # so a fault reads the same from evaluate and evaluate_many.
    return str(exc).replace("scalar ", "")


def evaluate(expr: Expr, x) -> float:
    """Evaluate at a single point of length n.

    Raises :class:`EvalDomainError` carrying the point on domain faults.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (expr.n,):
        raise DimensionMismatchError("point", expr.n, x.size)
    try:
        value = float(_run(expr, x))
    except FloatingPointError as exc:
        raise EvalDomainError(_reason(exc), x.copy()) from None
    if not math.isfinite(value):
        raise EvalDomainError("non-finite result", x.copy())
    return value


def evaluate_many(expr: Expr, X) -> np.ndarray:
    """Evaluate at each row of ``X`` (N x n), bit-identical to :func:`evaluate`.

    A domain fault or non-finite result raises the same
    :class:`EvalDomainError` as :func:`evaluate` at the first faulting
    row.  A batch of zero rows gives an empty array; a batch of one row
    goes through :func:`evaluate`, whose scalar operations cost less than
    array operations on one element.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (points by coordinates)")
    if X.shape[1] != expr.n:
        raise DimensionMismatchError("points", expr.n, X.shape[1])
    if len(X) < 2:
        return np.array([evaluate(expr, x) for x in X])
    try:
        values = np.empty(len(X))
        values[:] = _run(expr, X.T.copy())  # a constant objective gives a scalar
    except FloatingPointError as exc:
        # Rows are independent and evaluate() gives each row's value or
        # fault: run them alone to find the first that faults; when no
        # earlier row does, the last must.
        for row in X[:-1]:
            evaluate(expr, row)
        raise EvalDomainError(_reason(exc), X[-1].copy()) from None
    finite = np.isfinite(values)
    if not finite.all():
        raise EvalDomainError("non-finite result", X[finite.argmin()].copy())
    return values
