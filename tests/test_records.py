"""Every result type holds read-only arrays, built or unpickled, and
compares by identity; building one leaves the caller's arrays alone."""

import pickle

import numpy as np
import pytest

from freaco import (
    ArchiveSolution,
    Instance,
    OracleReport,
    Problem,
    ProblemSummary,
    RunResult,
    SolverConfig,
    builtin_problem,
    reference_optimum,
)
from freaco.fre import Record

from conftest import EX_A, EX_B


def build_instance():
    A, b = np.array(EX_A), np.array(EX_B)
    return Instance(A, b), [A, b]


def build_problem():
    return builtin_problem(1), []


def build_archive_solution():
    x, lb, e = np.array([0.5, 0.2]), np.zeros(2), np.array([0, 1])
    return ArchiveSolution(x, lb, e, 0.25), [x, lb, e]


def build_run_result():
    best, passed = build_archive_solution()
    trace = np.array([0.5, 0.25])
    return RunResult(best, trace, 2, 0, SolverConfig()), [trace, *passed]


def build_problem_summary():
    trace = np.ones((2, 3))
    return ProblemSummary("p", None, 1.0, 1.0, 0.0, 1.0, 3.0, None, trace), [trace]


def build_oracle_report():
    return reference_optimum(builtin_problem(3), samples_per_cell=4), []


BUILDERS = {
    Instance: build_instance,
    Problem: build_problem,
    ArchiveSolution: build_archive_solution,
    RunResult: build_run_result,
    ProblemSummary: build_problem_summary,
    OracleReport: build_oracle_report,
}


def held_arrays(record):
    """Every ndarray a record holds: in its fields, in tuple fields and in
    the records it holds."""
    found = []
    for value in vars(record).values():
        for item in value if type(value) is tuple else (value,):
            if isinstance(item, np.ndarray):
                found.append(item)
            elif isinstance(item, Record):
                found += held_arrays(item)
    return found


@pytest.mark.parametrize("kind", list(BUILDERS), ids=lambda kind: kind.__name__)
def test_record_arrays_read_only_built_and_unpickled_and_identity_equality(kind):
    record, passed = BUILDERS[kind]()
    copy = pickle.loads(pickle.dumps(record))
    for r in (record, copy):
        assert isinstance(r, kind) and isinstance(r, Record)
        arrays = held_arrays(r)
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][...] = 0
    assert all(a.flags.writeable for a in passed)  # the caller's arrays stay writeable
    assert record == record and record != copy
    assert hash(record) == object.__hash__(record)
    assert len({record, copy, record}) == 2
    if kind is OracleReport:
        assert not record.best_point.flags.writeable
