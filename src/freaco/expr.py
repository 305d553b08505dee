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

:func:`parse` compiles each objective in one pass, reading each token
once into flat register code.  A ``sum`` body is compiled once: its loop
variable is the vector ``lo..hi`` on a new leading axis, ``x(index)`` a
gather, and one fold adds the terms left to right like an unrolled ``+``
chain.  Indices are exact integers, range-checked as read; the first
error read wins, so an index out of range in any term beats a later
syntax error.  A product in an index whose integers for all terms would
pass ``MAX_INDEX_BITS`` bits is refused.  A sum that unrolls past ``MAX_OPERATIONS`` operations is
refused as soon as that shows: on entry, at an ``x(...)`` whose indices
settle it, else at its end; so also before a later error in its body.
One executor runs the code on ``np.float64`` scalars for
:func:`evaluate` and on columns for :func:`evaluate_many`, so both give
bit-identical values; a ``^`` whose exponent varies by point gets it as a
whole array in both (see :func:`_power`).

Domain policy: overflow, division by zero or an invalid operation (ln of
a non-positive value, a fractional power of a negative base, inf - inf,
...) in any intermediate value raises :class:`EvalDomainError` carrying
the point.  So does a NaN or infinite result, which a finite point cannot
give without one of those faults, but a point with a NaN or infinite
coordinate can (quiet NaNs raise no floating-point flag).  Underflow to 0
is allowed.  Of several faults, the first one met with the sums written
out term by term names the reason: a faulting point is run again so.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, EvalDomainError, ExprParseError, real_entries, whole

# + - * / and negation use Python's operators; ^ (see _power) and the
# named functions use numpy ufuncs.  np.float64 scalars and arrays then
# run the same routines, so single points and batches agree bit for bit.
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "abs": np.abs}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

MAX_NESTING = 100
MAX_OPERATIONS = 1_000_000
MAX_INDEX_BITS = 1 << 28  # exact integers of an index product, all terms together
BLOCK = 1 << 16  # rows x terms that evaluate_many runs at once


@dataclass(frozen=True, eq=False)
class Expr:
    """A compiled objective over x1..xn.

    Registers 0..n-1 are the coordinates, of which only those in
    ``reads``, the ones the code reads directly (``xj``, or ``x(c)``
    with a constant index), are filled; the others stay None.  Register
    n holds all coordinates together, for gathers, and the rest start as
    ``tail``: constants, gather indices and loop variables, None for
    scratch slots.  Instruction ``(fn, dst, a, b)`` stores
    ``fn(r[a], r[b])`` in ``r[dst]``, or ``fn(r[a])`` when ``b`` is -1,
    and the value is left in ``r[out]``.  Inside sums a value has an axis
    per sum, innermost first, then the points; ``terms`` is the largest
    product of those lengths.  Immutable: threads may share it.
    """

    n: int
    reads: tuple
    code: tuple
    tail: tuple
    out: int
    terms: int


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


def _bits(value) -> int:
    return int(np.max(np.abs(value))).bit_length()


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
        self.env: dict[str, tuple] = {}  # loop variable -> (index vector, value register, sum token)
        self.terms = 1
        self.gathered = 0  # x(...) operands of the unrolled program so far
        self.ops = self.peak = 0  # operations with sums unrolled: so far, and at the latest check
        self.code: list = []
        self.tail: list = []  # registers n+1, n+2, ... in order of first use
        self.slots: list[int] = []  # register of each scratch slot
        self.by_point = set(range(n + 1))  # registers whose value varies by point
        self.reads: set[int] = set()  # coordinate registers the code reads

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

    def emit(self, fn, d: int, a: int, b: int = -1, ops: int = 1) -> int:
        while len(self.slots) <= d:
            self.slots.append(self.register(None))
        dst = self.slots[d]
        self.code.append((fn, dst, a, b))
        self.ops += ops
        if a in self.by_point or b in self.by_point:
            self.by_point.add(dst)
        else:
            self.by_point.discard(dst)
        return dst

    def register(self, value) -> int:
        self.tail.append(value)
        return self.n + len(self.tail)

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
                b = self.factor(d + 1)
                a = self.emit(_power_by_point if b in self.by_point else _power, d, a, b)
        self.depth -= 1
        return a

    def atom(self, d: int) -> int:
        tok = self.advance()
        if tok.kind == "num":
            return self.register(np.float64(self.number(tok)))
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
            self.reads.add(index - 1)
            return index - 1
        if name == "x":
            # x(...) in a sum is an operand in each term of its nest when
            # unrolled, where there is an operation per operand, less at most
            # one per token read after the last size check: past this bound,
            # refuse before computing an index per term.
            self.gathered += math.prod(len(k) for k, _, _ in self.env.values()) if self.env else 0
            if self.gathered > MAX_OPERATIONS + len(self.tokens):
                self.fail(f"sum expands to more than {MAX_OPERATIONS} operations", [*self.env.values()][-1][2])
            self.expect("(")
            index = self.index_expr(tok)
            self.expect(")")
            for i in index.T.flat if isinstance(index, np.ndarray) else [index]:  # reading order
                if not 1 <= i <= self.n:
                    self.fail(f"computed index evaluates to {i}, outside 1..{self.n}", tok)
            if isinstance(index, int):
                self.reads.add(index - 1)
                return index - 1
            return self.emit(_gather, d, self.n, self.register((index - 1).astype(np.intp)), ops=0)
        if name in FUNCTIONS:
            self.expect("(")
            a = self.expr(d)
            self.expect(")")
            return self.emit(FUNCTIONS[name], d, a)
        if name == "sum":
            return self.sum(tok, d)
        if name in self.env:
            return self.env[name][1]
        self.fail(f"unknown identifier {name!r}", tok)

    def sum(self, tok: _Token, d: int) -> int:
        """Read the body once, the loop variable the vector lo..hi on a new first axis."""
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
        size = (hi - lo + 1) * math.prod(len(k) for k, _, _ in self.env.values())  # terms of the nest
        # the check before the first term; a nest of over 2x the limit fails a later one
        if self.ops > MAX_OPERATIONS or size > 2 * MAX_OPERATIONS + 4:
            self.fail(f"sum expands to more than {MAX_OPERATIONS} operations", tok)
        self.terms = max(self.terms, size)
        k = np.array(range(lo, hi + 1), dtype=object).reshape(-1, *(1 for _ in self.env))
        self.env[var] = (k, self.register(k[..., None].astype(float)), tok)
        start = self.peak = self.ops
        total = self.emit(_fold, d, self.expr(d), self.env.pop(var)[1], ops=0)
        more = (len(k) - 1) * (self.ops - start + 1)  # the other bodies and the adds
        self.ops += more
        self.peak += max(more - 1, 0)  # the last check: one body's peak past the last term's start
        if self.peak > MAX_OPERATIONS:
            self.fail(f"sum expands to more than {MAX_OPERATIONS} operations", tok)
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
            factor = self.index_factor(at)
            size = np.broadcast(value, factor).size
            if size > 1 and size * (_bits(value) + _bits(factor)) > MAX_INDEX_BITS:
                self.fail(f"computed index needs more than {MAX_INDEX_BITS} bits over its terms", at)
            value = value * factor  # never in place: value may be a loop variable
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
                return self.env[tok.text][0]
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
    n = whole("dimension", n, 1)
    compiler = _Compiler(_tokenize(src), n)
    out = compiler.expr(0)
    tok = compiler.peek()
    if tok.kind != "end":
        compiler.fail(f"unexpected trailing {tok.text!r}", tok)
    reads = tuple(sorted(compiler.reads))
    return Expr(n, reads, tuple(compiler.code), tuple(compiler.tail), out, compiler.terms)


# ---------------------------------------------------------------------------
# Evaluation


def _fold(terms, k):
    """Add ``terms`` left to right along the leading axis of loop variable ``k``."""
    shape = np.broadcast(terms, k).shape
    if np.shape(terms) != shape:  # a body that does not span the loop
        terms = np.broadcast_to(terms, shape)
    return np.add.accumulate(terms, axis=0)[-1]


def _gather(columns, index):
    """``x(index)`` in every term: rows of the coordinate table, taken
    along the coordinate axis in one copy (fancy indexing copies row by row)."""
    return columns.reshape(len(columns), -1).take(index, axis=0)


def _power(base, exponent):
    """``np.power`` with an exponent that all points share, given term by term
    as a scalar, as an unrolled sum did.

    numpy computes a scalar exponent 2, 0.5 or -1 as ``x*x``, ``sqrt`` or
    ``1/x``, and an array of exponents with its ``pow``; the two can differ
    in the last bit.  Passed as a scalar, an exponent gives the same bits
    for one point as for a column of them.
    """
    if exponent.ndim == 0:
        return np.power(base, exponent)
    base, exponent = np.broadcast_arrays(base, exponent)
    out = np.empty(base.shape)
    for i in np.ndindex(exponent.shape[:-1]):
        out[i] = np.power(base[i], exponent[i][0])
    return out


def _power_by_point(base, exponent):
    """``np.power`` with an exponent that varies by point: both operands as
    whole arrays, so that numpy's ``pow`` computes every value, for one
    point as for a column of them (see :func:`_power`)."""
    base, exponent = np.broadcast_arrays(base, exponent)
    return np.power(base.ravel(), exponent.ravel()).reshape(base.shape)[()]


def _run(expr: Expr, columns):
    """Execute ``expr`` on a point of n values or on n columns."""
    r = [None] * expr.n + [columns, *expr.tail]
    for i in expr.reads:
        r[i] = columns[i]
    with np.errstate(all="raise", under="ignore"):
        for fn, dst, a, b in expr.code:
            r[dst] = fn(r[a]) if b < 0 else fn(r[a], r[b])
    return r[expr.out]


def _unrolled(expr: Expr, x) -> float:
    """:func:`evaluate` with each sum written out, term after term, so that
    of several faults the one met first is raised, where one instruction
    for all terms can meet another first: in ``sum(i, -3, 1, ln(i))``,
    ln(-3) is invalid before ln(0) divides by zero.

    It interprets the compiled code instead of compiling the written-out
    sums, because a compiled copy builds every term before running any,
    while this stops at the first faulting term.  Parsing and evaluating
    the written-out source of ``sum(k, 1, 100000, x1*ln(x1) + k)`` at
    x1 = 0 took 4.9 s (222 MB traced peak) against 0.16 ms (4 kB) here,
    and 125 against 0.84 ms on a 999-term sum over ``x(k)`` (2-vCPU Xeon,
    numpy 2.4.6)."""
    code, r = expr.code, [*x, x, *expr.tail]
    first, writer, folds = [], {}, {}  # code[first[p] : p + 1] computes code[p]'s value
    for p, (fn, dst, a, b) in enumerate(code):
        first.append(min([p] + [first[writer[i]] for i in (a, b) if i in writer]))
        writer[dst] = p
        if fn is _fold:  # its body is code[first[p] : p]; enclosing sums listed first
            folds.setdefault(first[p], []).insert(0, p)

    def term(i, at):  # register i in the terms ``at``, innermost sum first
        v = r[i]
        if i <= expr.n or not isinstance(v, np.ndarray):
            return v
        v = v[..., 0] if v.dtype.kind == "f" else v  # a loop variable has a points axis
        return v[tuple(t % size for t, size in zip(at[len(at) - v.ndim :], v.shape))]

    def run(p, end, at):
        while p < end:
            f = next((f for f in folds.get(p, ()) if f < end), None)
            if f is None:
                fn, dst, a, b = code[p]
                r[dst] = fn(term(a, at)) if b < 0 else fn(term(a, at), term(b, at))
                p += 1
                continue
            _, dst, a, k = code[f]
            for t in range(len(r[k])):
                run(p, f, (t, *at))
                total = term(a, (t, *at)) if t == 0 else total + term(a, (t, *at))
            r[dst], p = total, f + 1

    try:
        with np.errstate(all="raise", under="ignore"):
            run(0, len(code), ())
    except FloatingPointError as exc:
        raise EvalDomainError(_reason(exc), x.copy()) from None
    return float(r[expr.out])


def _reason(exc: FloatingPointError) -> str:
    # numpy names scalar operations "scalar divide" and so on; drop that
    # so a fault reads the same from evaluate and evaluate_many.
    return str(exc).replace("scalar ", "")


def evaluate(expr: Expr, x) -> float:
    """Evaluate at a single point of length n.

    The coordinates must be real numbers: a string, boolean or complex
    coordinate, which numpy would read as real, raises :class:`ValueError`
    naming ``x``, and a point of another length raises
    :class:`DimensionMismatchError`.  Raises :class:`EvalDomainError`
    carrying the point on domain faults.
    """
    real_entries("x", x)
    x = np.asarray(x, dtype=float)
    if x.shape != (expr.n,):
        raise DimensionMismatchError("point", expr.n, x.shape[0] if x.ndim == 1 else -1)
    return _evaluate(expr, x)


def _evaluate(expr: Expr, x: np.ndarray) -> float:
    """:func:`evaluate` at a float point of length n, unchecked."""
    try:
        value = _run(expr, x).item()  # a sum leaves shape (1,)
    except FloatingPointError:
        value = _unrolled(expr, x)
    if not math.isfinite(value):
        raise EvalDomainError("non-finite result", x.copy())
    return value


def evaluate_many(expr: Expr, X) -> np.ndarray:
    """Evaluate at each row of ``X`` (N x n), bit-identical to :func:`evaluate`:
    the same code runs on columns, and each ``^`` gets its exponent in the
    same form, a scalar or a whole array (see :func:`_power`).

    A domain fault or non-finite result raises the same
    :class:`EvalDomainError` as :func:`evaluate` at the first faulting
    row.  A batch of zero rows gives an empty array; a batch of one row
    goes through the code behind :func:`evaluate`, without its checks,
    whose scalar operations cost less than array operations on one
    element.  Rows run in blocks of ``BLOCK``
    values (rows x terms), which bounds a long sum's temporaries.
    Coordinates follow the rule of :func:`evaluate`: a string, boolean or
    complex one raises :class:`ValueError` naming ``X``.
    """
    real_entries("X", X)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (points by coordinates)")
    if X.shape[1] != expr.n:
        raise DimensionMismatchError("points", expr.n, X.shape[1])
    if len(X) < 2:
        return np.array([_evaluate(expr, x) for x in X])
    if len(X) > (step := max(1, BLOCK // expr.terms)):  # bound a long sum's temporaries
        return np.concatenate([evaluate_many(expr, X[i : i + step]) for i in range(0, len(X), step)])
    try:
        values = np.empty(len(X))
        values[:] = _run(expr, X.T.copy())  # a constant objective gives a scalar
    except FloatingPointError as exc:
        # Rows are independent and evaluate() gives each row's value or
        # fault: run them alone to find the first that faults.
        for row in X:
            _evaluate(expr, row)
        raise EvalDomainError(_reason(exc), X[-1].copy()) from None
    finite = np.isfinite(values)
    if not finite.all():
        raise EvalDomainError("non-finite result", X[finite.argmin()].copy())
    return values
