"""Every error type crosses a process boundary intact: the benchmark pool
pickles a failed run's error back to the parent process."""

import pickle

import numpy as np
import pytest

from freaco import (
    DimensionMismatchError,
    EvalDomainError,
    ExperimentError,
    ExprParseError,
    FreacoError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidPathError,
    PathSpaceTooLargeError,
)

SAMPLES = [
    FreacoError("generic fault"),
    InvalidInstanceError("A must be 2-D"),
    DimensionMismatchError("b", 5, 4),
    InvalidPathError("column 7 outside 0..5"),
    InfeasibleInstanceError(np.array([1.0, 0.5, 0.3]), np.array([0, 2])),
    PathSpaceTooLargeError(10**7, 10**6),
    ExprParseError("unexpected ')'", 2, 9),
    EvalDomainError("overflow", [1.0, -2.5]),
    ExperimentError("problem-03", 4),
]


def subclasses(cls):
    return {cls}.union(*(subclasses(sub) for sub in cls.__subclasses__()))


def test_every_error_type_has_a_sample():
    assert {type(error) for error in SAMPLES} == subclasses(FreacoError)


@pytest.mark.parametrize("error", SAMPLES, ids=lambda error: type(error).__name__)
def test_errors_survive_pickle_with_message_and_fields(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy).keys() == vars(error).keys()
    for name, value in vars(error).items():
        kept = getattr(copy, name)
        assert type(kept) is type(value)
        np.testing.assert_array_equal(kept, value, strict=True)
