"""A small scalar expression language for objective functions.

Grammar (see docs/expression-grammar.ebnf for the shipped EBNF)::

    expr    = term { ("+"|"-") term }
    term    = factor { ("*"|"/") factor }
    factor  = "-" factor | power
    power   = atom [ "^" factor ]          # right-associative
    atom    = NUMBER
            | "x" DIGITS                   # variable x1 .. xn
            | "x" "(" expr ")"             # computed index, e.g. x(k+1)
            | FUNC "(" expr ")"            # sin cos exp ln abs
            | "sum" "(" NAME "," INT "," INT "," expr ")"
            | NAME                         # loop variable in scope
            | "(" expr ")"

Precedence: ^ binds tighter than unary minus, which binds tighter than
* and /, which bind tighter than + and -.  Power is right-associative.
Angles are radians; ln is the natural logarithm.  Nesting (parentheses,
calls, sums, unary minus, power) may go ``MAX_NESTING`` levels deep.

Computed indices may only use loop variables, integer literals, +, -, *
and unary minus.

:func:`parse` compiles each objective once.  Every ``sum`` is expanded
term by term (its bounds are integer literals, so parse cost grows with
the sum's range, up to ``MAX_OPERATIONS`` operations in all), and every
loop variable and computed index becomes a constant; each computed index
is range-checked against the dimension as it is resolved.  The result is
a flat tuple of instructions over registers.  One executor runs it on
``np.float64`` scalars for :func:`evaluate` and on columns for
:func:`evaluate_many`, so both give bit-identical values for a point.

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


# ---------------------------------------------------------------------------
# Syntax tree: the parser's output, which the compiler consumes.


class Node:
    """Base syntax-tree node."""


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    index: int  # 1-based


@dataclass(frozen=True)
class IndexedVar(Node):
    index: Node
    pos: tuple[int, int]


@dataclass(frozen=True)
class Name(Node):
    """Reference to an enclosing sum's loop variable."""

    name: str


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # one of + - * / ^
    lhs: Node
    rhs: Node


@dataclass(frozen=True)
class Call(Node):
    fn: str
    arg: Node


@dataclass(frozen=True)
class Sum(Node):
    var: str
    lo: int
    hi: int
    body: Node
    pos: tuple[int, int]


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
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^,])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ExprParseError(f"unexpected character {c!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        tokens.append(_Token(kind, text, line, col))
        col += len(text)
        i = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


_VAR_RE = re.compile(r"^x(\d+)$")


class _Parser:
    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.scopes: list[str] = []
        self.depth = 0

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

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        # Every recursive path of the grammar passes through here.
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels")
        if self.peek().text == "-":
            self.advance()
            node = Neg(self.parse_factor())
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> Node:
        node = self.parse_atom()
        if self.peek().text == "^":
            self.advance()
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if math.isinf(value):
                self.fail(f"number {tok.text} is out of range", tok)
            return Num(value)
        if tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            return self.parse_name()
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)

    def parse_name(self) -> Node:
        tok = self.advance()
        name = tok.text
        var = _VAR_RE.match(name)
        if var:
            index = int(var.group(1))
            if not 1 <= index <= self.n:
                self.fail(
                    f"variable x{index} is out of range for dimension {self.n}", tok
                )
            return Var(index)
        if name == "x":
            self.expect("(")
            index = self.parse_expr()
            self.expect(")")
            return IndexedVar(index, (tok.line, tok.col))
        if name in FUNCTIONS:
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return Call(name, arg)
        if name == "sum":
            return self.parse_sum(tok)
        if name in self.scopes:
            return Name(name)
        self.fail(f"unknown identifier {name!r}", tok)

    def parse_sum(self, tok: _Token) -> Node:
        self.expect("(")
        var_tok = self.advance()
        if var_tok.kind != "name":
            self.fail("sum needs a loop variable name", var_tok)
        var = var_tok.text
        if var == "x" or var in FUNCTIONS or var == "sum" or _VAR_RE.match(var):
            self.fail(f"loop variable {var!r} shadows a reserved name", var_tok)
        if var in self.scopes:
            self.fail(f"loop variable {var!r} is already in scope", var_tok)
        self.expect(",")
        lo = self.parse_int_literal()
        self.expect(",")
        hi = self.parse_int_literal()
        if lo > hi:
            self.fail(f"sum bounds must satisfy lo <= hi, got {lo} > {hi}", tok)
        self.expect(",")
        self.scopes.append(var)
        body = self.parse_expr()
        self.scopes.pop()
        self.expect(")")
        return Sum(var, lo, hi, body, (tok.line, tok.col))

    def parse_int_literal(self) -> int:
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


# ---------------------------------------------------------------------------
# Compiler


@dataclass(frozen=True)
class _Apply:
    """Pending instruction: apply ``fn`` to the last one or two operands."""

    fn: object
    unary: bool


@dataclass(frozen=True)
class _Terms:
    """Pending terms ``k..hi`` of a sum, each added to the running total."""

    sum: Sum
    k: int


_APPLY = {
    **{sym: _Apply(fn, False) for sym, fn in _BINARY.items()},
    **{name: _Apply(fn, True) for name, fn in FUNCTIONS.items()},
    "neg": _Apply(operator.neg, True),
}
_INDEX_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _resolve_index(node: IndexedVar, env: dict[str, int], n: int) -> int:
    """The 1-based coordinate a computed index names under ``env``."""
    line, col = node.pos
    values: list[int] = []
    todo: list = [node.index]
    while todo:
        item = todo.pop()
        if isinstance(item, str):  # an operator, its operands done
            b = values.pop()
            values.append(-b if item == "neg" else _INDEX_OPS[item](values.pop(), b))
        elif isinstance(item, Name):
            values.append(env[item.name])
        elif isinstance(item, Num):
            if not item.value.is_integer():
                raise ExprParseError("variable index must be an integer", line, col)
            values.append(int(item.value))
        elif isinstance(item, Neg):
            todo += ["neg", item.arg]
        elif isinstance(item, BinOp) and item.op in _INDEX_OPS:
            todo += [item.op, item.rhs, item.lhs]
        else:
            raise ExprParseError(
                "variable index must use integer arithmetic over loop variables", line, col
            )
    (idx,) = values
    if not 1 <= idx <= n:
        raise ExprParseError(f"computed index evaluates to {idx}, outside 1..{n}", line, col)
    return idx


def _compile(root: Node, n: int) -> Expr:
    """Lower a tree to flat code, iteratively, since trees can be thousands deep.

    A subtree compiled at stack depth d leaves its value in scratch slot
    d, so a run holds at most tree-depth temporaries.
    """
    tail: list = []  # registers n, n+1, ... in order of first use
    consts: dict[float, int] = {}
    slots: list[int] = []  # register of each scratch slot
    code = []
    operands = []  # register of each finished subtree
    todo: list = [(root, {}, 0)]
    while todo:
        node, env, d = todo.pop()
        kind = type(node)
        if kind is _Apply:
            b = -1 if node.unary else operands.pop()
            while len(slots) <= d:
                slots.append(n + len(tail))
                tail.append(None)
            code.append((node.fn, slots[d], operands.pop(), b))
            operands.append(slots[d])
        elif kind is Var:
            operands.append(node.index - 1)
        elif kind is IndexedVar:
            operands.append(_resolve_index(node, env, n) - 1)
        elif kind is Num or kind is Name:
            value = node.value if kind is Num else float(env[node.name])
            if value not in consts:
                consts[value] = n + len(tail)
                tail.append(np.float64(value))
            operands.append(consts[value])
        elif kind is BinOp:
            todo += [(_APPLY[node.op], env, d), (node.rhs, env, d + 1), (node.lhs, env, d)]
        elif kind is Neg or kind is Call:
            todo += [(_APPLY[node.fn if kind is Call else "neg"], env, d), (node.arg, env, d)]
        elif kind is Sum:
            todo.append((_Terms(node, node.lo), env, d))
        else:  # _Terms: compile term k, add it to the total so far, go on
            s, k = node.sum, node.k
            if len(code) > MAX_OPERATIONS:
                raise ExprParseError(f"sum expands to more than {MAX_OPERATIONS} operations", *s.pos)
            if k < s.hi:
                todo.append((_Terms(s, k + 1), env, d))
            if k > s.lo:
                todo.append((_APPLY["+"], env, d))
            todo.append((s.body, {**env, s.var: k}, d + (k > s.lo)))
    return Expr(n, tuple(code), tuple(tail), operands.pop())


def parse(src: str, n: int) -> Expr:
    """Parse ``src`` into a compiled expression over x1..xn.

    Raises :class:`ExprParseError` (with line/column) on syntax errors,
    unknown identifiers, out-of-range variable indices, too deep nesting
    and too large expansions.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    parser = _Parser(_tokenize(src), n)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        parser.fail(f"unexpected trailing {tok.text!r}", tok)
    return _compile(node, n)


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
