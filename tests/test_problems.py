import json
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freaco import (
    EPS_EQ,
    InfeasibleInstanceError,
    InvalidInstanceError,
    Problem,
    SolverConfig,
    builtin_problem,
    builtin_problems,
    compute_candidate_sets,
    evaluate,
    is_feasible,
    load_problem_file,
    parse,
    problem_from_dict,
    random_feasible_instance,
    reference_optimum,
    residual,
    compute_max_solution,
    run,
    run_many,
)
from freaco import cli

from conftest import EX_A, EX_B, EX_OBJECTIVE


# Independent re-implementations of the ten benchmark objectives, written
# directly from their formulas with plain Python arithmetic.  These never
# touch the expression module.

def f01(x):
    return math.log(0.5 + x[0] ** 2 * x[1] + x[2]) - x[3] ** 2 + x[4] * x[5]


def f02(x):
    return (
        math.sin(x[0] * x[1])
        + (1 - math.cos(x[0] * x[2]))
        + x[3]
        + x[4] ** 2
        + x[5] ** 3
    )


def f03(x):
    return (
        (x[0] + 10 * x[1]) ** 2
        + 5 * (x[2] - x[3]) ** 2
        + (x[1] - 2 * x[2]) ** 4
        + 10 * (x[0] - x[3]) ** 4
        - x[4]
        - x[5]
        + (2 * x[6] + x[7]) ** 2
    )


def f04(x):
    return (
        x[0]
        - x[1]
        - x[2]
        - x[0] * x[2] * x[4]
        + x[0] * x[3] * x[5]
        + x[1] * x[2] * x[6]
        - x[1] * x[3] * x[7]
    )


def f05(x):
    return x[0] * x[1] * x[2] * x[3] * x[4] - x[5] * x[6] * x[7] + x[8] * x[9]


def f06(x):
    return (
        x[0]
        + 2 * x[1]
        + 4 * x[4]
        + math.exp(x[0] * x[3] * x[5])
        - x[6] * x[7] * math.exp(2 * x[8] - x[9])
    )


def f07(x):
    total = 0.0
    for k in range(9):  # terms k = 1..9 with 0-based coordinates
        total += 100 * (x[k + 1] - x[k] ** 2) ** 2 + (1 - x[k]) ** 2
    return total


def f08(x):
    return -0.5 * (
        x[0] * x[3]
        - x[1] * x[2]
        + x[1] * x[5]
        - x[4] * x[5]
        + x[3] * x[4]
        - x[5] * x[6]
        + x[7] * x[9]
        - x[8] * x[9]
    )


def f09(x):
    return math.exp(x[0] * x[1] + x[2] * x[5] + x[6] * x[8]) - 0.5 * (
        x[0] ** 3 + x[1] ** 3 + x[7] ** 3 + x[9] ** 3 + 1
    ) ** 2


def f10(x):
    total = (x[0] - 1) ** 2 + (x[6] - 1) ** 2
    for k in range(1, 12):  # sum runs k = 1..11 over (x_k^2 - x_{k+1})^2
        total += 10 * (10 - k) * (x[k - 1] ** 2 - x[k]) ** 2
    return total


HAND_CODED = [f01, f02, f03, f04, f05, f06, f07, f08, f09, f10]

KNOWN_OPTIMA = {
    1: -0.0096019,
    2: 0.8197,
    3: 80.3752,
    4: -0.39657,
    5: -0.27162,
    6: 1.2612,
    7: 140.4693,
    8: -0.10108,
    9: 1.277,
    10: 55.7954,
}

EXPECTED_DIMS = {
    1: (4, 6),
    2: (6, 6),
    3: (8, 8),
    4: (8, 8),
    5: (8, 10),
    6: (9, 10),
    7: (7, 10),
    8: (7, 10),
    9: (10, 10),
    10: (10, 12),
}


def test_registry_has_ten_problems():
    problems = builtin_problems()
    assert len(problems) == 10
    assert [p.name for p in problems] == [f"problem-{i:02d}" for i in range(1, 11)]


@pytest.mark.parametrize("index", range(1, 11))
def test_builtin_feasible(index):
    assert is_feasible(builtin_problem(index).instance, EPS_EQ)


@pytest.mark.parametrize("index", range(1, 11))
def test_builtin_dimensions(index):
    inst = builtin_problem(index).instance
    assert (inst.m, inst.n) == EXPECTED_DIMS[index]


@pytest.mark.parametrize("index", range(1, 11))
def test_builtin_known_optimum(index):
    assert builtin_problem(index).known_optimum == KNOWN_OPTIMA[index]


@pytest.mark.parametrize("index", range(1, 11))
def test_builtin_objective_matches_hand_coded(index):
    problem = builtin_problem(index)
    reference = HAND_CODED[index - 1]
    rng = np.random.default_rng(index)
    for _ in range(50):
        x = rng.random(problem.n)
        assert evaluate(problem.objective, x) == pytest.approx(reference(x), abs=1e-12)


def test_sum_form_agrees_with_expanded_terms():
    # problems whose registry text uses the bounded-sum form, re-parsed
    # here as explicit expansions
    from freaco import parse

    p7 = builtin_problem(7)
    expanded7 = " + ".join(
        f"100*(x{k + 1} - x{k}^2)^2 + (1 - x{k})^2" for k in range(1, 10)
    )
    e7 = parse(expanded7, p7.n)
    p10 = builtin_problem(10)
    expanded10 = "(x1 - 1)^2 + (x7 - 1)^2 + " + " + ".join(
        f"10*({10 - k})*(x{k}^2 - x{k + 1})^2" for k in range(1, 12)
    )
    e10 = parse(expanded10, p10.n)
    rng = np.random.default_rng(77)
    for _ in range(100):
        x7 = rng.random(p7.n)
        assert evaluate(p7.objective, x7) == pytest.approx(evaluate(e7, x7), abs=1e-12)
        x10 = rng.random(p10.n)
        assert evaluate(p10.objective, x10) == pytest.approx(evaluate(e10, x10), abs=1e-12)


def test_problem_five_keeps_printed_shape():
    # objective touches x9, x10 only through the final product, yet the
    # printed system is 8 x 10 and stays that way
    p = builtin_problem(5)
    assert p.instance.m == 8
    assert p.instance.n == 10


def test_problem_ten_leading_term_verbatim():
    assert "(x7 - 1)^2" in builtin_problem(10).objective_src


# ---------------------------------------------------------------------------
# instance files


def ex1_dict():
    return {
        "name": "example-1",
        "A": [row[:] for row in EX_A],
        "b": list(EX_B),
        "objective": EX_OBJECTIVE,
    }


def test_problem_from_dict_round_trip(tmp_path):
    payload = ex1_dict()
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    problem = load_problem_file(path)
    assert problem.name == "example-1"
    assert problem.instance.m == 5 and problem.instance.n == 6
    assert problem.known_optimum is None
    assert np.array_equal(compute_max_solution(problem.instance), [1, 0.5, 0.3, 0.1, 0.7, 1])


def test_problem_from_dict_optional_optimum():
    payload = ex1_dict()
    payload["known_optimum"] = 0.25
    assert problem_from_dict(payload).known_optimum == 0.25


@pytest.mark.parametrize(
    "optimum",
    [[1], "0.5", "nan", True, False, {"f": 1}, float("nan"), float("inf"), 10**400],
    ids=["list", "string", "nan-string", "true", "false", "object", "NaN", "Infinity", "huge-int"],
)
def test_known_optimum_must_be_finite_number_or_null(optimum):
    payload = ex1_dict()
    payload["known_optimum"] = optimum
    with pytest.raises(InvalidInstanceError) as info:
        problem_from_dict(payload)
    assert "known_optimum" in str(info.value)


def test_integer_known_optimum_reads_as_float():
    payload = ex1_dict()
    payload["known_optimum"] = -2
    optimum = problem_from_dict(payload).known_optimum
    assert optimum == -2.0 and isinstance(optimum, float)


@pytest.mark.parametrize(
    "key,value",
    [
        ("A", {"a": 1}),
        ("A", [[0.5, 0.5], [0.5]]),
        ("A", [[0.5, "high"]] * 5),
        ("A", [[{"a": 1}] * 6] * 5),
        ("b", {"b": 1}),
        ("b", [0.7, [0.5], 0.3, 0.1, 0.6]),
        # JSON strings and booleans, which numpy would read as numbers
        ("A", [["0.7", *EX_A[0][1:]], *EX_A[1:]]),
        ("A", [*EX_A[:3], [False, *EX_A[3][1:]], EX_A[4]]),
        ("b", ["0.7", *EX_B[1:]]),
        ("b", [True, *EX_B[1:]]),
    ],
)
def test_non_numeric_matrix_data_rejected(key, value):
    payload = ex1_dict()
    payload[key] = value
    with pytest.raises(InvalidInstanceError):
        problem_from_dict(payload)


def test_missing_keys_rejected():
    payload = ex1_dict()
    del payload["objective"]
    with pytest.raises(InvalidInstanceError):
        problem_from_dict(payload)


def test_values_outside_unit_interval_rejected():
    payload = ex1_dict()
    payload["A"][0][0] = 1.3
    with pytest.raises(InvalidInstanceError):
        problem_from_dict(payload)


def test_objective_must_fit_dimension():
    payload = ex1_dict()
    payload["objective"] = "x7"
    with pytest.raises(Exception) as info:
        problem_from_dict(payload)
    assert "x7" in str(info.value)


def test_infeasible_file_raises_typed_error():
    payload = ex1_dict()
    payload["b"] = [0.9, 0.5, 0.3, 0.1, 0.6]
    with pytest.raises(InfeasibleInstanceError) as info:
        problem_from_dict(payload)
    assert 0 in info.value.rows.tolist()


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidInstanceError):
        load_problem_file(path)


# ---------------------------------------------------------------------------
# the structure a Problem carries


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    density=st.sampled_from([1.0, 0.7, 0.4, 0.15]),
    seed=st.integers(0, 2**32 - 1),
)
def test_problem_structure_matches_fre_and_survives_pickling(m, n, density, seed):
    inst = random_feasible_instance(m, n, density, rng=np.random.default_rng(seed))
    problem = Problem("planted", inst, parse("x1", n), "x1")
    xbar = compute_max_solution(inst)
    sets = compute_candidate_sets(inst, xbar)
    copy = pickle.loads(pickle.dumps(problem))
    assert problem == problem and copy != problem  # by identity, not by array data
    for p in (problem, copy):
        assert np.array_equal(p.xbar, xbar)
        assert isinstance(p.sets, tuple) and len(p.sets) == m
        assert all(np.array_equal(a, b) for a, b in zip(p.sets, sets))
        for a in (p.xbar, *p.sets, p.instance.A, p.instance.b):
            assert not a.flags.writeable


def test_structure_fields_stay_out_of_init_and_repr():
    problem = builtin_problem(1)
    assert "xbar" not in repr(problem) and "sets" not in repr(problem)
    with pytest.raises(TypeError):
        Problem("p", problem.instance, problem.objective, problem.objective_src, None, problem.xbar)


def test_structure_is_computed_once_per_problem(monkeypatch, capsys):
    # Wrap the two structure functions wherever a freaco module binds
    # them; a problem that is already built must not need them again.
    problem = builtin_problem(5)
    calls = []
    for fn in (compute_max_solution, compute_candidate_sets):

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "freaco" or name.startswith("freaco."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)

    Problem("again", problem.instance, problem.objective, problem.objective_src)
    assert sorted(calls) == ["compute_candidate_sets", "compute_max_solution"]
    calls.clear()
    config = SolverConfig(t_max=3)
    run(problem, config)
    run_many(problem, config, [1, 2])
    reference_optimum(problem, samples_per_cell=2)
    assert cli.main(["enumerate", "--builtin", "5", "--max", "3"]) == 0
    capsys.readouterr()
    assert calls == []
