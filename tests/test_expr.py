import math
import os
import pickle
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from freaco import (
    DimensionMismatchError,
    EvalDomainError,
    ExprParseError,
    builtin_problems,
    evaluate,
    evaluate_many,
    parse,
)
from freaco import expr as expr_module


def test_parse_product_expression():
    expr = parse("x1*x4 - x2*x3*x5 + x6^2", 6)
    assert evaluate(expr, [1, 1, 1, 1, 1, 2]) == 1 - 1 + 4


def test_variable_out_of_range():
    with pytest.raises(ExprParseError) as info:
        parse("x7", 6)
    assert "x7" in str(info.value)


def test_parse_sum_form():
    expr = parse("sum(k, 1, 9, 100*(x(k+1) - x(k)^2)^2 + (1 - x(k))^2)", 10)
    ones = np.ones(10)
    assert evaluate(expr, ones) == 0.0
    zeros = np.zeros(10)
    assert evaluate(expr, zeros) == 9.0  # each term is (1 - 0)^2


def test_worked_evaluation():
    expr = parse("x1*x4 - x2*x3*x5 + x6^2", 6)
    value = evaluate(expr, [0.8, 0.3, 0.2, 0.0, 0.7, 1.0])
    assert value == pytest.approx(0.958, abs=1e-12)


def test_polynomial_at_zero_gives_constant_term():
    expr = parse("3.5 + x1*x2 - x3^4", 3)
    assert evaluate(expr, np.zeros(3)) == 3.5


def test_power_is_right_associative():
    assert evaluate(parse("2^3^2", 1), [0.0]) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert evaluate(parse("-x1^2", 1), [3.0]) == -9.0
    assert evaluate(parse("(-x1)^2", 1), [3.0]) == 9.0


def test_unary_minus_binds_tighter_than_product():
    assert evaluate(parse("2*-x1", 1), [3.0]) == -6.0


def test_negative_exponent_allowed_after_caret():
    assert evaluate(parse("2^-2", 1), [0.0]) == 0.25


def test_functions_use_radians():
    expr = parse("sin(x1) + cos(x2)", 2)
    assert evaluate(expr, [math.pi / 2, 0.0]) == pytest.approx(2.0, abs=1e-12)


def test_ln_is_natural_log():
    assert evaluate(parse("ln(x1)", 1), [math.e]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# parse errors


def test_syntax_error_reports_position():
    with pytest.raises(ExprParseError) as info:
        parse("x1 + * x2", 2)
    assert info.value.line == 1
    assert info.value.col == 6
    with pytest.raises(ExprParseError) as info:
        parse("x1 +\r\n\t x2 $", 2)  # a line starts after each newline
    assert (info.value.line, info.value.col) == (2, 6)


def test_unknown_identifier():
    with pytest.raises(ExprParseError):
        parse("x1 + y", 2)


def test_unknown_function_name():
    with pytest.raises(ExprParseError):
        parse("tan(x1)", 1)


def test_unbalanced_parens():
    with pytest.raises(ExprParseError):
        parse("(x1 + x2", 2)


def test_trailing_garbage():
    with pytest.raises(ExprParseError):
        parse("x1 x2", 2)


def test_sum_bounds_must_be_integers():
    with pytest.raises(ExprParseError):
        parse("sum(k, 1.5, 3, x(k))", 3)


def test_sum_bounds_must_be_ordered():
    with pytest.raises(ExprParseError):
        parse("sum(k, 3, 1, x(k))", 3)


def test_sum_loop_var_cannot_shadow_reserved():
    with pytest.raises(ExprParseError):
        parse("sum(x, 1, 2, 1)", 2)
    with pytest.raises(ExprParseError):
        parse("sum(x2, 1, 2, 1)", 2)


def test_loop_variable_out_of_scope():
    with pytest.raises(ExprParseError):
        parse("sum(k, 1, 2, x(k)) + k", 2)


@pytest.mark.parametrize(
    "src,message",
    [
        ("sum(1, 1, 2, x1)", "sum needs a loop variable name"),
        ("sum(k, 1, 2, sum(k, 1, 2, x1))", "loop variable 'k' is already in scope"),
        ("sum(k, 1, 2, x(j))", "unknown identifier 'j'"),
        ("sum(k, 1, 2, x(k + ))", "unexpected ')'"),
    ],
)
def test_sum_and_index_refusals(src, message):
    with pytest.raises(ExprParseError, match=re.escape(message)):
        parse(src, 2)


def test_dimension_must_be_positive():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        parse("1", 0)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        parse("1", 2.5)
    assert type(parse("x1 + x2", np.int64(2)).n) is int


def test_computed_index_out_of_range_detected_at_parse():
    with pytest.raises(ExprParseError) as info:
        parse("sum(k, 1, 9, x(k + 2))", 10)
    assert "11" in str(info.value)


def test_number_literal_out_of_range():
    with pytest.raises(ExprParseError) as info:
        parse("1e999*x1", 1)
    assert info.value.col == 1


def test_sum_expansion_is_capped(monkeypatch):
    monkeypatch.setattr(expr_module, "MAX_OPERATIONS", 1000)
    parse("sum(k, 1, 900, x1)", 1)
    with pytest.raises(ExprParseError) as info:
        parse("1 + sum(k, 1, 2000, x1)", 1)
    assert (info.value.line, info.value.col) == (1, 5)


# The unrolled program checked its size before each term, refusing once
# it held more than MAX_OPERATIONS instructions: sum(k, 1, T, x1) checks
# T - 2 last, and 1 + sum(i, 1, A, sum(j, 1, B, x1)) checks A*B - 3.
@pytest.mark.parametrize(
    "src,col",
    [
        ("sum(k, 1, 1002, x1)", None),
        ("sum(k, 1, 1003, x1)", 1),
        ("1 + sum(i, 1, 17, sum(j, 1, 59, x1))", None),
        # the unrolled compiler named the inner sum (column 18), in the
        # outer sum's fourth term; the body is read once, so the outer
        # sum is named
        ("1 + sum(i, 1, 4, sum(j, 1, 251, x1))", 5),
        ("sum(i, 1, 2, sum(j, 1, 2, sum(l, 1, 250, x1)) + x1)", None),
        ("sum(i, 1, 2, sum(j, 1, 2, sum(l, 1, 251, x1)) + x1)", 1),  # unrolled: column 27
        # gathers: one add per term in the body, one in the fold
        ("sum(k, 1, 1002, x(k - k + 1))", None),
        ("sum(k, 1, 1003, x(k - k + 1))", 1),
        ("sum(k, 1, 501, x(k - k + 1) + x(k - k + 1))", None),
        ("sum(k, 1, 502, x(k - k + 1) + x(k - k + 1))", 1),
    ],
)
def test_sum_expansion_cap_at_the_limit(monkeypatch, src, col):
    monkeypatch.setattr(expr_module, "MAX_OPERATIONS", 1000)
    if col is None:
        parse(src, 1)  # accepted
        return
    with pytest.raises(ExprParseError, match="sum expands to more than 1000 operations") as info:
        parse(src, 1)
    assert (info.value.line, info.value.col) == (1, col)


def test_huge_nest_is_refused_before_it_is_allocated():
    # 10^12 terms: refused from the ranges alone, without building them
    with pytest.raises(ExprParseError, match="sum expands") as info:
        parse("sum(i, 1, 1000000, sum(j, 1, 1000000, x(i + j - 1)))", 2)
    assert info.value.col == 20


def test_long_sum_of_many_gathers_is_refused_at_once():
    # 1000 gathers of 2,000,000 indices would hold 16 GB; the first one
    # already shows that the unrolled program passes the limit
    src = "sum(k, 1, 2000000, " + " + ".join(["x(k - k + 1)"] * 1000) + ")"
    start = time.perf_counter()
    with pytest.raises(ExprParseError, match="sum expands to more than 1000000 operations") as info:
        parse(src, 1)
    assert time.perf_counter() - start < 30  # about 0.5 s on a 2-vCPU host
    assert info.value.col == 1


# The unrolled compiler read the first term's body whole before a size
# check, so it named the "*"; a sum known to be too large is refused at once.
@pytest.mark.parametrize(
    "src",
    [
        "sum(k, 1, 600, x(k - k + 1) + x(k - k + 1) + * x1)",  # the indices pass 1000 + tokens
        "sum(k, 1, 2005, x1 + * x1)",  # the range passes 2 * 1000 + 4
    ],
)
def test_size_refusal_comes_before_a_later_error_in_the_body(monkeypatch, src):
    monkeypatch.setattr(expr_module, "MAX_OPERATIONS", 1000)
    with pytest.raises(ExprParseError, match="sum expands to more than 1000 operations") as info:
        parse(src, 1)
    assert info.value.col == 1


def test_code_size_does_not_grow_with_the_range():
    body = "(x(k) - 0.5)^2 + x(k)*x(k+1)"
    short = parse(f"sum(k, 1, 10, {body})", 1001)
    long = parse(f"sum(k, 1, 1000, {body})", 1001)
    assert len(short.code) == len(long.code) == 8
    assert (short.terms, long.terms) == (10, 1000)


def test_long_sum_with_redundant_parentheses_parses():
    expr = parse("sum(k, 1, 400000, (((((x1))))))", 1)
    assert len(expr.code) == 1
    assert evaluate(expr, [0.5]) == 200000.0  # every partial sum is exact
    with pytest.raises(ExprParseError, match=r"expected '\)'") as info:  # one ")" short
        parse("sum(k, 1, 400000, (((((x1)))))", 1)
    assert info.value.col == 31


def test_index_arithmetic_is_exact():
    # 2^64 + 1 wraps to 1 in 64-bit integers
    with pytest.raises(ExprParseError) as info:
        parse("sum(k, 1, 2, x(k*4611686018427387904*4 + 1))", 3)
    assert str(info.value) == (
        "computed index evaluates to 18446744073709551617, outside 1..3 (line 1, column 14)"
    )


def test_index_product_past_int64_is_exact():
    # (k + 1.5 * 2^40) * 1.75 * 2^22, 41 + 23 bits, passes 2^63 in 64-bit integers
    with pytest.raises(ExprParseError) as info:
        parse("sum(k, 1, 2, x((k + 1649267441664) * 7340032))", 1)
    assert str(info.value).startswith("computed index evaluates to 12105675798379233280, outside 1..1 ")


def test_index_product_too_large_for_all_terms_is_refused():
    # 40 factors of 1e308 in each of 10^6 terms would hold 5 GB; the
    # unrolled compiler computed one term at a time
    with pytest.raises(ExprParseError, match="computed index needs more than 268435456 bits") as info:
        parse("sum(k, 1, 1000000, x(k" + " * 1e308" * 40 + "))", 1)
    assert info.value.col == 20
    expr = parse("sum(k, 1, 3, x(k*1e308*1e308 - k*1e308*1e308 + 1))", 1)  # large terms cancel
    assert evaluate(expr, [0.5]) == 1.5


def test_index_error_names_the_first_out_of_range_term():
    # the unrolled terms run i = 1, j = 1..3, then i = 2: (1, 3) reads 3
    # before (2, 1) reads 6
    with pytest.raises(ExprParseError, match="evaluates to 3,"):
        parse("sum(i, 1, 2, sum(j, 1, 3, x(j + i*5 - 5)))", 2)


def test_index_out_of_range_in_a_later_term_comes_before_a_later_syntax_error():
    # x(k + 2) reads 4 at k = 2; the body is read once, for all terms
    with pytest.raises(ExprParseError, match="evaluates to 4") as info:
        parse("sum(k, 1, 2, x(k + 2) + * x1)", 3)  # unrolled: the "*", in term 1
    assert info.value.col == 14


@st.composite
def index_sources(draw, depth=3):
    """An index over loop variables i and j: its source, and its value as a
    function of (i, j) on Python ints.  Literals reach 2^70 (each a double,
    as literals are read), so products pass int64 and the compiler goes on
    with Python ints."""
    if depth == 0 or draw(st.booleans()):
        large = st.integers(2**20, 2**70).map(lambda v: int(float(v)))
        leaf = draw(st.one_of(st.sampled_from(["i", "j"]), st.integers(0, 9), large))
        if leaf == "i":
            return leaf, lambda i, j: i
        if leaf == "j":
            return leaf, lambda i, j: j
        return str(leaf), lambda i, j: leaf
    op = draw(st.sampled_from(["+", "-", "*", "neg"]))
    a, fa = draw(index_sources(depth - 1))
    if op == "neg":
        return f"-({a})", lambda i, j: -fa(i, j)
    b, fb = draw(index_sources(depth - 1))
    f = expr_module._BINARY[op]
    return f"({a} {op} {b})", lambda i, j: f(fa(i, j), fb(i, j))


@settings(max_examples=300, deadline=None)
@given(
    big=index_sources(),
    other=index_sources(),
    cancel=st.booleans(),
    small=index_sources(depth=1),
    bounds=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
def test_index_arithmetic_equals_python_integer_arithmetic(big, other, cancel, small, bounds):
    # int64 while the bits allow, Python ints beyond: the same indices, and
    # the same first out-of-range term, as Python ints term by term
    (a, fa), (b, fb), (c, fc) = big, big if cancel else other, small
    lo1, hi1, lo2, hi2 = min(bounds[:2]), max(bounds[:2]), min(bounds[2:]), max(bounds[2:])
    src = f"sum(i, {lo1}, {hi1}, sum(j, {lo2}, {hi2}, x({a} - ({b}) + {c} + 3)))"
    want = [[fa(i, j) - fb(i, j) + fc(i, j) + 3 for j in range(lo2, hi2 + 1)] for i in range(lo1, hi1 + 1)]
    bad = [v for row in want for v in row if not 1 <= v <= 6]  # terms in reading order
    if bad:
        with pytest.raises(ExprParseError) as info:
            parse(src, 6)
        assert str(info.value).startswith(f"computed index evaluates to {bad[0]}, outside 1..6 ")
    else:  # the terms written out, each sum's in its parentheses
        unrolled = " + ".join("(" + " + ".join(f"x{v}" for v in row) + ")" for row in want)
        X = np.random.default_rng(0).random((4, 6))
        assert np.array_equal(evaluate_many(parse(src, 6), X), evaluate_many(parse(unrolled, 6), X))


# ---------------------------------------------------------------------------
# deep expressions


@pytest.mark.parametrize("x1", [0.25, 0.5, 1.0])
def test_thousands_of_terms_parse_and_evaluate(x1):
    # every partial sum of these values is exact, so the result is too
    expr = parse(" + ".join(["x1"] * 3000), 1)
    assert evaluate(expr, [x1]) == 3000 * x1
    assert np.array_equal(evaluate_many(expr, [[x1], [0.0]]), [3000 * x1, 0.0])


@pytest.mark.parametrize(
    "src",
    [
        "(" * 300 + "x1" + ")" * 300,
        "-" * 2000 + "x1",
        "2^" * 300 + "x1",
        "sin(" * 300 + "x1" + ")" * 300,
        "x(" + "(" * 300 + "1" + ")" * 300 + ")",
    ],
    ids=["parentheses", "unary-minus", "power", "calls", "index-parentheses"],
)
def test_nesting_beyond_limit_is_a_parse_error(src):
    with pytest.raises(ExprParseError):
        parse(src, 1)


def test_nesting_within_limit_parses():
    depth = expr_module.MAX_NESTING - 1
    assert evaluate(parse("(" * depth + "x1" + ")" * depth, 1), [0.5]) == 0.5
    assert evaluate(parse("-" * depth + "x1", 1), [0.5]) == -0.5


def test_computed_index_must_be_integer_arithmetic():
    with pytest.raises(ExprParseError):
        parse("sum(k, 1, 3, x(k/2))", 3)
    with pytest.raises(ExprParseError):
        parse("x(1.5)", 3)
    for src in ["x(x1)", "x(sin(1))", "x(2^1)", "x(sum(k, 1, 2, k))"]:
        with pytest.raises(ExprParseError, match="integer arithmetic") as info:
            parse(src, 3)
        assert (info.value.line, info.value.col) == (1, 1), src
    # unary minus and parentheses are integer arithmetic too
    assert pickle.dumps(parse("x(--1) + x((1 + 1)*1)", 2)) == pickle.dumps(parse("x1 + x2", 2))


def test_first_error_in_reading_order_is_reported():
    # the index (column 14) is read before the stray ")" (column 26)
    with pytest.raises(ExprParseError, match="computed index evaluates to 6") as info:
        parse("sum(k, 1, 3, x(k + 5)) + )", 3)
    assert (info.value.line, info.value.col) == (1, 14)


# ---------------------------------------------------------------------------
# evaluation domain errors


def test_ln_nonpositive_raises_with_point():
    expr = parse("ln(x1 - 0.5)", 1)
    with pytest.raises(EvalDomainError) as info:
        evaluate(expr, [0.25])
    assert np.array_equal(info.value.point, [0.25])


def test_division_by_zero():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x1", 1), [0.0])


def test_fractional_power_of_negative_base():
    with pytest.raises(EvalDomainError):
        evaluate(parse("(x1 - 1)^0.5", 1), [0.0])
    # integer exponents of negative bases are fine
    assert evaluate(parse("(x1 - 1)^3", 1), [0.0]) == -1.0


def test_zero_to_negative_power():
    with pytest.raises(EvalDomainError):
        evaluate(parse("x1^-1", 1), [0.0])


@pytest.mark.parametrize(
    "src,x",
    [
        ("x1 + 1e308*10*(x2 - 0.25)", [0.5, 0.5]),  # overflow in a product
        ("exp(1000*x1)", [1.0, 0.0]),
        ("x1 - x2/(x1 - x1)", [0.5, 0.5]),  # 0/0
    ],
)
def test_any_overflow_or_invalid_intermediate_raises(src, x):
    expr = parse(src, 2)
    with pytest.raises(EvalDomainError):
        evaluate(expr, x)
    with pytest.raises(EvalDomainError):
        evaluate_many(expr, [x])


def test_underflow_to_zero_is_allowed():
    expr = parse("exp(-1000*x1) + 1e-300*1e-300", 1)
    assert evaluate(expr, [1.0]) == 0.0
    assert np.array_equal(evaluate_many(expr, [[1.0]]), [0.0])


def test_evaluate_many_raises_same_error_at_offending_row():
    expr = parse("ln(x1)", 1)
    X = np.array([[0.5], [0.0], [0.7]])
    with pytest.raises(EvalDomainError) as info:
        evaluate_many(expr, X)
    assert np.array_equal(info.value.point, [0.0])


def test_zero_row_batch_of_faulting_objective_is_empty():
    # the constant part ln(0) faults even with no rows to pin it to
    values = evaluate_many(parse("ln(0)", 1), np.empty((0, 1)))
    assert values.shape == (0,) and values.dtype == float
    assert evaluate_many(parse("x1 + 1", 1), np.empty((0, 1))).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinate_raises_in_both_modes(bad):
    # quiet NaNs and infinities pass x1 + x3 without a floating-point flag
    expr = parse("x1 + x3", 3)
    point = [bad, 0.0, 0.0]
    with pytest.raises(EvalDomainError) as single:
        evaluate(expr, point)
    with pytest.raises(EvalDomainError) as batch:
        evaluate_many(expr, [[0.5, 0.0, 0.5], point, [bad, 1.0, 1.0]])
    for info in (single, batch):
        assert info.value.reason == "non-finite result"
        assert np.array_equal(info.value.point, point, equal_nan=True)


def test_first_faulting_row_wins_across_fault_kinds():
    # row 1 gives NaN silently, row 2 divides by zero: row 1 is reported
    expr = parse("x1 + 1/x2", 2)
    X = [[0.5, 0.5], [math.nan, 0.5], [0.5, 0.0]]
    with pytest.raises(EvalDomainError) as info:
        evaluate_many(expr, X)
    assert info.value.reason == "non-finite result"
    assert np.isnan(info.value.point[0])


# ---------------------------------------------------------------------------
# properties

ROUND_TRIP_SOURCES = [
    ("x1*x4 - x2*x3*x5 + x6^2", 6),
    ("ln(0.5 + x1^2*x2 + x3) - x4^2 + x5*x6", 6),
    ("sum(k, 1, 9, 100*(x(k+1) - x(k)^2)^2 + (1 - x(k))^2)", 10),
    ("-0.5*(x1*x4 - x2*x3 + x2*x6 - x5*x6)", 6),
    ("2^-x1 + abs(x2 - 0.5)/((x3 + 1)^2)", 3),
    ("sum(i, 1, 3, sum(j, 1, 2, x(i + j)*i - j))", 5),
    ("sum(i, 1, 2, sum(j, 1, 3, sum(l, 1, 2, x(i + j + l - 2)*j - l*x(i))))", 6),
    ("sum(k, 1, 3, x1)", 1),  # the body does not use k
    ("sum(k, -2, 1, x(k + 3)*(k - 0.5)) + sum(k, -3, -1, x(-k))", 4),
    ("sum(k, 1, 4, k*x(k) + x1^k + (x(k) + 1)^(k/2) - 2^-k)", 4),  # k as a value
    ("x1^x2", 2),  # exponents that vary by point
    ("sum(k, 1, 3, x(k)^x4)", 4),
]


# the ten built-in objectives, less the two already listed above
BUILTIN_SOURCES = [
    (p.objective_src, p.n)
    for p in builtin_problems()
    if (p.objective_src, p.n) not in ROUND_TRIP_SOURCES
]


@pytest.mark.parametrize("src,n", ROUND_TRIP_SOURCES + BUILTIN_SOURCES)
def test_vectorized_matches_scalar(src, n):
    expr = parse(src, n)
    rng = np.random.default_rng(43)
    X = rng.random((64, n))
    batched = evaluate_many(expr, X)
    singles = np.array([evaluate(expr, x) for x in X])
    assert np.array_equal(batched, singles)


@pytest.mark.parametrize(
    "src,n,column,values",
    [
        ("x1^x2", 2, 1, [0.5, 2.0, -1.0]),
        ("sum(k, 1, 3, x(k)^x4)", 4, 3, [0.5, 2.0, -1.0]),
        ("(x1 + 1)^(x2*4 - 2)", 2, 1, [0.625, 1.0, 0.25]),
        ("2^-x1", 1, 0, [-0.5, -2.0, 1.0]),
    ],
)
def test_exponent_that_varies_by_point_gives_the_same_bits_in_both_modes(src, n, column, values):
    # numpy computes a scalar exponent 0.5, 2 or -1 as sqrt, x*x or 1/x,
    # and a column of them with pow; the two differ in the last bit
    rng = np.random.default_rng(5)
    X = rng.uniform(0.1, 3.0, (2000, n))
    X[:, column] = rng.choice(values, len(X))
    expr = parse(src, n)
    assert np.array_equal(evaluate_many(expr, X), [evaluate(expr, x) for x in X])


def _unroll(src: str) -> str:
    """``src`` with each sum written out term by term, left to right."""
    start = src.find("sum(")
    if start < 0:
        return src
    depth, args, arg = 0, [], start + 4
    for end in range(start + 3, len(src)):
        depth += {"(": 1, ")": -1}.get(src[end], 0)
        if depth == 1 and src[end] == ",":
            args, arg = args + [src[arg:end]], end + 1
        if depth == 0:
            break
    var, lo, hi, body = (a.strip() for a in args + [src[arg:end]])
    terms = [re.sub(rf"\b{var}\b", f"({k})", body) for k in range(int(lo), int(hi) + 1)]
    return src[:start] + "(" + _unroll(" + ".join(f"({t})" for t in terms)) + ")" + _unroll(src[end + 1 :])


@pytest.mark.parametrize(
    "src,n", [(src, n) for src, n in ROUND_TRIP_SOURCES + BUILTIN_SOURCES if "sum(" in src]
)
def test_sum_equals_its_unrolled_terms(src, n):
    # the written-out terms run on np.float64 scalars, one term at a time
    expr, unrolled = parse(src, n), parse(_unroll(src), n)
    assert len(expr.code) < len(unrolled.code)
    X = np.random.default_rng(59).random((64, n))
    assert np.array_equal([evaluate(expr, x) for x in X], [evaluate(unrolled, x) for x in X])
    assert np.array_equal(evaluate_many(expr, X), evaluate_many(unrolled, X))


NEST_BODIES = [
    "x(i + 3)*j - x(j + 3)",
    "(x(i + 3) - 0.5)^j + x(j + 3)^i",
    "x(i + j + 5)^2 + i*j",
    "sum(k, 1, 2, x(k + i + 3)*j) / (x1 + 1)",
    "exp(x(j + 3) - i) - ln(x(i + 3) + j)",
    "(j - 0.5)^2*x1 - i/3",
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nested_sum_equals_its_unrolled_terms(data):
    i, j = (data.draw(st.integers(-2, 2)) for _ in range(2))
    src = (
        f"sum(i, {i}, {i + data.draw(st.integers(0, 3))}, "
        f"sum(j, {j}, {j + data.draw(st.integers(0, 3))}, {data.draw(st.sampled_from(NEST_BODIES))}))"
    )
    X = data.draw(arrays(float, (data.draw(st.integers(1, 6)), 16), elements=st.floats(0.0, 1.0)))
    expr, unrolled = parse(src, 16), parse(_unroll(src), 16)
    for run in (lambda e: [evaluate(e, x) for x in X], lambda e: evaluate_many(e, X)):
        try:
            expected = run(unrolled)
        except EvalDomainError as fault:
            with pytest.raises(EvalDomainError) as info:
                run(expr)
            assert np.array_equal(info.value.point, fault.point)
            assert info.value.reason == fault.reason
        else:
            assert np.array_equal(run(expr), expected)


# A point with several faults: the reason is that of the first fault in
# the written-out terms, though one instruction runs for all terms.
@pytest.mark.parametrize(
    "src,reason",
    [
        ("sum(i, -3, 1, ln(i))", "invalid value encountered in log"),  # ln(-3), then ln(0)
        ("sum(i, 1, 2, sum(j, -1, 0, ln(j*i)))", "invalid value encountered in log"),
        ("sum(k, 0, 1, 1/(1 - k) + ln(k - 1))", "invalid value encountered in log"),  # k = 0 first
        ("sum(k, 1, 3, 1e308 + ln(3 - k))", "overflow encountered in add"),  # the first add, then ln(0)
        # every term of the sum passes, then the code after it faults
        ("sum(k, 1, 2, x1*k) + ln(x1 - 1)", "invalid value encountered in log"),
        ("sum(i, 1, 2, sum(j, 1, 2, x1*i*j)) + ln(x1 - 1)", "invalid value encountered in log"),
    ],
)
def test_fault_reason_is_the_first_met_term_by_term(src, reason):
    expr, unrolled = parse(src, 1), parse(_unroll(src), 1)
    X = np.array([[0.25], [0.5]])
    for e in (expr, unrolled):
        for run in (lambda: evaluate(e, X[1]), lambda: evaluate_many(e, X)):
            with pytest.raises(EvalDomainError) as info:
                run()
            assert info.value.reason == reason


FAULTING_SOURCES = [
    ("ln(x1 - 0.5) + x2", 2),
    ("1/(x1 - x2)", 2),
    ("(x1 - 0.5)^x2", 2),
    ("exp(800*x1)*x2", 2),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_and_batch_agree_bit_for_bit(data):
    src, n = data.draw(st.sampled_from(ROUND_TRIP_SOURCES + BUILTIN_SOURCES + FAULTING_SOURCES))
    expr = parse(src, n)
    rows = data.draw(st.integers(1, 12))
    X = data.draw(arrays(float, (rows, n), elements=st.floats(0.0, 1.0)))
    singles = []
    try:
        for x in X:
            singles.append(evaluate(expr, x))
    except EvalDomainError as fault:
        with pytest.raises(EvalDomainError) as info:
            evaluate_many(expr, X)
        assert np.array_equal(info.value.point, fault.point)
        assert info.value.reason == fault.reason
    else:
        assert np.array_equal(evaluate_many(expr, X), singles)


def test_batch_of_several_row_blocks(monkeypatch):
    expr = parse("sum(k, 1, 1000, ln(x1 + k - 1)*x2)", 2)
    assert expr_module.BLOCK // expr.terms == 65  # rows per block
    X = np.random.default_rng(53).random((300, 2)) + 0.25
    calls = []

    def counting(expr, X):
        calls.append(len(X))
        return evaluate_many(expr, X)

    monkeypatch.setattr(expr_module, "evaluate_many", counting)
    assert np.array_equal(expr_module.evaluate_many(expr, X), [evaluate(expr, x) for x in X])
    assert calls == [300]  # the blocks do not re-enter evaluate_many: X is checked once
    X[[200, 250], 0] = 0.0  # ln(0) at k = 1, in the fourth block only
    with pytest.raises(EvalDomainError, match="divide by zero") as info:
        evaluate_many(expr, X)
    assert np.array_equal(info.value.point, X[200])
    X[100, 1] = math.nan  # a silent NaN in the second block comes first
    with pytest.raises(EvalDomainError, match="non-finite result") as info:
        evaluate_many(expr, X)
    assert np.array_equal(info.value.point, X[100], equal_nan=True)


PLANTED_SOURCE = "sum(k, 1, 999, (x(k) - 0.5)^2 + x(k)*x(k+1))"  # perfbench's planted objective


def planted_reference(x) -> float:
    # the sum written out, term by term, in floats, added left to right
    total = 0.0
    for k in range(1, 1000):
        d = x[k - 1] - 0.5
        term = d * d + x[k - 1] * x[k]
        total = term if k == 1 else total + term
    return total


@pytest.mark.parametrize("rows", [1, 2, 65, 66])  # 66 rows cross the 65-row block
def test_planted_objective_at_full_size_matches_its_terms(rows):
    expr = parse(PLANTED_SOURCE, 1000)
    assert expr_module.BLOCK // expr.terms == 65
    X = np.random.default_rng(59).random((rows, 1000))
    reference = [planted_reference(x.tolist()) for x in X]
    assert [evaluate(expr, x) for x in X] == reference
    assert evaluate_many(expr, X).tolist() == reference


@pytest.mark.parametrize("src", ["x3*sum(k, 1, 2, x(k)) + x5", "x(1 + 2)*sum(k, 1, 2, x(k)) + x(5)"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_direct_and_gathered_reads_agree_and_skip_unread_coordinates(src, bad):
    # x3 and x5 are read directly, x1 and x2 only through the gather
    expr = parse(src, 6)
    assert expr.reads == (2, 4)
    X = np.random.default_rng(61).random((5, 6))
    assert np.array_equal(evaluate_many(expr, X), [evaluate(expr, x) for x in X])
    point = [0.5, 0.25, 0.25, bad, 0.5, bad]  # x4 and x6 are never read
    assert evaluate(expr, point) == 0.6875
    assert evaluate_many(expr, [point, point, X[0]]).tolist() == [0.6875, 0.6875, evaluate(expr, X[0])]


def test_batch_memory_stays_bounded_for_a_long_sum(tmp_path):
    # Unblocked, this batch holds 20000 x 1500 temporaries (about 460 MB)
    script = tmp_path / "peak.py"
    script.write_text(
        "import resource, numpy as np\n"
        "from freaco import evaluate_many, parse\n"
        "expr = parse('sum(k, 1, 20000, x1*k)', 1)\n"
        "X = np.random.default_rng(0).random((1500, 1))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "evaluate_many(expr, X)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 50 * 1024  # KiB


def test_expr_compares_and_pickles_by_content():
    # == and hash go by identity, like every record; content is the pickle
    src = "sum(k, 1, 3, x(k)^k)"
    expr, again = parse(src, 3), parse(src, 3)
    assert expr == expr and expr != again and len({expr, again}) == 2
    assert pickle.dumps(expr) == pickle.dumps(again)
    assert pickle.dumps(expr) != pickle.dumps(parse("sum(k, 1, 3, x(k)^2)", 3))
    copy = pickle.loads(pickle.dumps(expr))
    assert pickle.dumps(copy) == pickle.dumps(expr)
    assert evaluate(copy, [0.3, 0.6, 0.9]) == evaluate(expr, [0.3, 0.6, 0.9])


@pytest.mark.parametrize("src,n", [(p.objective_src, p.n) for p in builtin_problems()])
def test_one_row_batch_equals_evaluate(src, n):
    expr = parse(src, n)
    for x in np.random.default_rng(47).random((20, n)):
        assert np.array_equal(evaluate_many(expr, x[None]), [evaluate(expr, x)])


@pytest.mark.parametrize(
    "src,x",
    [
        ("ln(x1 - 1)", [0.5]),  # domain fault
        ("exp(1000*x1)", [1.0]),  # overflow
        ("x1 + 1", [math.nan]),  # NaN result without a floating-point flag
    ],
)
def test_one_row_batch_faults_like_evaluate(src, x):
    expr = parse(src, len(x))
    with pytest.raises(EvalDomainError) as single:
        evaluate(expr, x)
    with pytest.raises(EvalDomainError) as batch:
        evaluate_many(expr, [x])
    assert batch.value.reason == single.value.reason
    assert np.array_equal(batch.value.point, single.value.point, equal_nan=True)


def test_one_row_batch_keeps_shape_errors():
    expr = parse("x1 + x3", 3)
    with pytest.raises(DimensionMismatchError):
        evaluate_many(expr, np.full((1, 2), 0.5))
    with pytest.raises(ValueError, match="2-D"):
        evaluate_many(expr, np.full(3, 0.5))


@pytest.mark.parametrize(
    "bad", ["0.25", b"0.25", np.str_("0.25"), True, np.True_, 0.25 + 0j, np.complex64(0.25)],
    ids=["str", "bytes", "numpy-str", "bool", "numpy-bool", "complex", "numpy-complex"],
)
def test_coordinates_must_be_real_numbers(bad):
    expr = parse("x1 + x2", 2)
    for x in ([0.5, bad], (0.5, bad), np.array([0.5, bad], dtype=object), np.array([bad, bad])):
        with pytest.raises(ValueError, match="^entries of 'x' must be real numbers"):
            evaluate(expr, x)
    for X in ([[0.5, bad]], [[0.5, 0.5], [0.5, bad]], [np.array([0.5, bad], dtype=object)], np.array([[bad, bad]])):
        with pytest.raises(ValueError, match="^entries of 'X' must be real numbers"):
            evaluate_many(expr, X)


@pytest.mark.parametrize("x, got", [(np.full(2, 0.5), 2), (np.full((1, 3), 0.5), -1), (0.5, -1)])
def test_point_error_reports_its_length_or_minus_one_for_wrong_axes(x, got):
    with pytest.raises(DimensionMismatchError, match=f"^point: expected length 3, got {got}$"):
        evaluate(parse("x1 + x3", 3), x)


@pytest.mark.parametrize("length", [2, 4])
def test_point_length_must_match_dimension(length):
    expr = parse("x1 + x3", 3)
    with pytest.raises(DimensionMismatchError):
        evaluate(expr, np.full(length, 0.5))
    with pytest.raises(DimensionMismatchError):
        evaluate_many(expr, np.full((2, length), 0.5))


def test_evaluate_is_pure():
    expr = parse("x1 + x2", 2)
    x = np.array([0.25, 0.5])
    before = x.copy()
    assert evaluate(expr, x) == evaluate(expr, x)
    assert np.array_equal(x, before)
