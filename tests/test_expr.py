import math

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
    assert parse("x(--1) + x((1 + 1)*1)", 2) == parse("x1 + x2", 2)


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
