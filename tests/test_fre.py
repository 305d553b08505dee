import numpy as np
import pytest

from freaco import (
    EPS_EQ,
    DimensionMismatchError,
    InfeasibleInstanceError,
    Instance,
    InvalidInstanceError,
    InvalidPathError,
    compose_many,
    compute_candidate_sets,
    compute_max_solution,
    is_feasible,
    path_space_size,
    path_to_candidate,
    residual,
)
from freaco.oracle import enumerate_paths, random_feasible_instance

from conftest import EX_JBAR, EX_LOWER, EX_PATH, EX_XBAR, grid_instance


def naive_compose(A, x):
    """Independent double-loop re-evaluation of the composition."""
    A = np.asarray(A, float)
    out = []
    for i in range(A.shape[0]):
        out.append(max(min(A[i, j], x[j]) for j in range(A.shape[1])))
    return np.array(out)


# ---------------------------------------------------------------------------
# construction


def test_instance_validation():
    with pytest.raises(InvalidInstanceError):
        Instance([[0.5, 1.2]], [0.5])
    with pytest.raises(InvalidInstanceError):
        Instance([[0.5, 0.5]], [-0.1])
    with pytest.raises(InvalidInstanceError):
        Instance([[0.5], [0.5]], [0.5])
    inst = Instance([[0.5]], [0.5])
    with pytest.raises(ValueError):
        inst.A[0, 0] = 0.9  # arrays are frozen


@pytest.mark.parametrize(
    "A,b,message",
    [
        ([], [0.5], "A must be a non-empty 2-D matrix"),
        ([[]], [0.5], "A must be a non-empty 2-D matrix"),
        ([0.5, 0.5], [0.5], "A must be a non-empty 2-D matrix"),
        ([[[0.5]]], [0.5], "A must be a non-empty 2-D matrix"),
        ([[0.5]], [], "b must be a non-empty vector"),
        ([[0.5]], [[0.5]], "b must be a non-empty vector"),
        ([[np.nan]], [0.5], "A and b must be finite"),
        ([[0.5]], [np.inf], "A and b must be finite"),
        # integers beyond the double range, which float() cannot convert
        ([[10**400]], [0.5], "A and b must be arrays of numbers"),
        ([[0.5]], [10**400], "A and b must be arrays of numbers"),
        (np.array([[0.5, 10**400]], dtype=object), [0.5], "A and b must be arrays of numbers"),
    ],
)
def test_instance_refuses_malformed_data(A, b, message):
    with pytest.raises(InvalidInstanceError, match=message):
        Instance(A, b)


def test_instance_stores_no_signed_zero():
    A, b = np.array([[0.5, -0.0]]), np.array([-0.0])
    inst = Instance(A, b)
    assert not np.signbit(inst.A).any() and not np.signbit(inst.b).any()
    assert np.signbit(A[0, 1]) and np.signbit(b[0])  # the caller's arrays are left as they are
    assert not np.may_share_memory(inst.A, A) and not np.may_share_memory(inst.b, b)


# ---------------------------------------------------------------------------
# composition


def test_compose_worked_example(ex_instance):
    assert np.array_equal(compose_many(ex_instance, [EX_XBAR])[0], ex_instance.b)
    assert residual(ex_instance, EX_XBAR) == 0.0


def test_compose_all_zero_matrix():
    inst = Instance(np.zeros((3, 4)), np.zeros(3))
    assert np.array_equal(compose_many(inst, np.full((1, 4), 0.9)), np.zeros((1, 3)))


def test_compose_matches_naive_loop():
    rng = np.random.default_rng(101)
    for _ in range(25):
        inst = Instance(rng.random((3, 3)), rng.random(3))
        x = rng.random(3)
        assert np.array_equal(compose_many(inst, x[None])[0], naive_compose(inst.A, x))


def test_compose_dimension_mismatch(ex_instance):
    # got: the offending length, or -1 when the number of axes is wrong
    for X, got in ((np.zeros((1, 5)), 5), (np.zeros(6), -1), (0.5, -1)):
        with pytest.raises(DimensionMismatchError, match=f"^X columns: expected length 6, got {got}$"):
            compose_many(ex_instance, X)
    # one point: a vector of length n, not a batch
    for x, got in ((np.zeros(5), 5), (np.zeros((1, 6)), -1)):
        with pytest.raises(DimensionMismatchError, match=f"^x: expected length 6, got {got}$"):
            residual(ex_instance, x)


@pytest.mark.parametrize(
    "bad", ["0.5", True, np.True_, 0.5 + 0j, np.complex128(0.5)],
    ids=["str", "bool", "numpy-bool", "complex", "numpy-complex"],
)
def test_compose_and_residual_refuse_coordinates_that_are_not_real(ex_instance, bad):
    x = [bad] + [0.5] * (ex_instance.n - 1)
    with pytest.raises(ValueError, match="^entries of 'x' must be real numbers"):
        residual(ex_instance, x)
    with pytest.raises(ValueError, match="^entries of 'X' must be real numbers"):
        compose_many(ex_instance, [x])
    with pytest.raises(ValueError, match="^entries of 'X' must be real numbers"):
        compose_many(ex_instance, np.array([x], dtype=object))


def test_compose_many_matches_single(ex_instance):
    rng = np.random.default_rng(3)
    X = rng.random((40, ex_instance.n))
    stacked = compose_many(ex_instance, X)
    for k in range(X.shape[0]):
        assert np.array_equal(stacked[k], naive_compose(ex_instance.A, X[k]))
        assert residual(ex_instance, X[k]) == np.abs(stacked[k] - ex_instance.b).max()


# ---------------------------------------------------------------------------
# maximum solution


def test_max_solution_worked_example(ex_instance):
    assert np.array_equal(compute_max_solution(ex_instance), EX_XBAR)


def test_max_solution_all_zero_is_ones():
    inst = Instance(np.zeros((2, 3)), np.zeros(2))
    assert np.array_equal(compute_max_solution(inst), np.ones(3))


def test_max_solution_dominates_grid_brute_force():
    # componentwise max over all feasible 0.01-grid points equals xbar
    # whenever the instance data also sits on the grid
    rng = np.random.default_rng(7)
    axis = np.round(np.arange(101) * 0.01, 2)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([g1.ravel(), g2.ravel()])
    for _ in range(10):
        inst = grid_instance(2, 2, rng)
        vals = compose_many(inst, grid)
        feasible = grid[np.abs(vals - inst.b).max(axis=1) <= EPS_EQ]
        assert feasible.size  # planted instances are feasible
        assert np.array_equal(feasible.max(axis=0), compute_max_solution(inst))


def test_maximality_bump_breaks_feasibility():
    # pushing any non-saturated coordinate of xbar upward must violate
    # some constraint row
    rng = np.random.default_rng(11)
    for _ in range(25):
        inst = grid_instance(4, 4, rng)
        xbar = compute_max_solution(inst)
        assert residual(inst, xbar) <= EPS_EQ
        for j in range(inst.n):
            if xbar[j] >= 1.0:
                continue
            bumped = xbar.copy()
            bumped[j] = min(bumped[j] + 0.01, 1.0)
            assert residual(inst, bumped) > EPS_EQ


# ---------------------------------------------------------------------------
# feasibility


def test_feasibility_worked_example(ex_instance):
    assert is_feasible(ex_instance)


def test_zero_matrix_with_positive_rhs_infeasible():
    inst = Instance(np.zeros((2, 2)), [0.4, 0.0])
    assert not is_feasible(inst)


def test_planted_instances_feasible():
    rng = np.random.default_rng(13)
    for _ in range(100):
        inst = random_feasible_instance(4, 5, density=0.8, rng=rng)
        assert is_feasible(inst)


# ---------------------------------------------------------------------------
# candidate sets


def test_candidate_sets_worked_example(ex_instance):
    sets = compute_candidate_sets(ex_instance)
    assert [set(s.tolist()) for s in sets] == EX_JBAR


def test_candidate_sets_single_cell():
    inst = Instance([[0.5]], [0.5])
    assert np.array_equal(compute_max_solution(inst), [1.0])
    sets = compute_candidate_sets(inst)
    assert [s.tolist() for s in sets] == [[0]]


def test_candidate_sets_match_direct_scan():
    rng = np.random.default_rng(17)
    for _ in range(20):
        inst = random_feasible_instance(4, 4, rng=rng)
        xbar = compute_max_solution(inst)
        sets = compute_candidate_sets(inst, xbar)
        for i in range(inst.m):
            direct = [
                j
                for j in range(inst.n)
                if abs(min(inst.A[i, j], xbar[j]) - inst.b[i]) <= EPS_EQ
            ]
            assert sets[i].tolist() == direct


def test_candidate_sets_infeasible_raises():
    inst = Instance(np.zeros((2, 2)), [0.5, 0.2])
    with pytest.raises(InfeasibleInstanceError) as info:
        compute_candidate_sets(inst)
    assert info.value.rows.tolist() == [0, 1]


def test_candidate_sets_fail_exactly_on_rows_xbar_misses():
    # a row has no candidate exactly when A phi xbar misses its b_i by more
    # than EPS_EQ, so the error names the rows a residual check would name
    rng = np.random.default_rng(19)
    infeasible = 0
    for _ in range(2000):
        m, n = rng.integers(1, 6, size=2)
        inst = Instance(rng.integers(0, 6, (m, n)) / 5, rng.integers(0, 6, m) / 5)
        xbar = compute_max_solution(inst)
        missed = np.flatnonzero(np.abs(compose_many(inst, [xbar])[0] - inst.b) > EPS_EQ)
        try:
            compute_candidate_sets(inst, xbar)
        except InfeasibleInstanceError as exc:
            infeasible += 1
            assert exc.rows.tolist() == missed.tolist()
            assert np.array_equal(exc.xbar, xbar)
        else:
            assert missed.size == 0
    assert 0 < infeasible < 2000


# ---------------------------------------------------------------------------
# path space


def test_path_space_size_worked_example(ex_instance):
    assert path_space_size(compute_candidate_sets(ex_instance)) == 72


def test_path_space_size_singleton_sets():
    sets = [np.array([2]), np.array([0]), np.array([1])]
    assert path_space_size(sets) == 1


def test_path_size_is_exact_big_integer():
    sets = [np.arange(10)] * 30
    assert path_space_size(sets) == 10**30


def test_path_space_size_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(10):
        inst = random_feasible_instance(3, 3, rng=rng)
        sets = compute_candidate_sets(inst)
        assert path_space_size(sets) == enumerate_paths(sets).shape[0]


# ---------------------------------------------------------------------------
# candidate lower corners and cells


def plain_lower_corner(path, b, n):
    """Plain-Python corner: per column, the largest b_i of rows choosing it."""
    lower = [0.0] * n
    for i, j in enumerate(path):
        lower[j] = max(lower[j], float(b[i]))
    return lower


def cell(path, inst):
    """The box ``[lower corner, xbar]`` spanned by a path."""
    return path_to_candidate(path, inst.b, inst.n), compute_max_solution(inst)


def test_path_to_candidate_worked_example(ex_instance):
    lower = path_to_candidate(EX_PATH, ex_instance.b, ex_instance.n)
    assert np.array_equal(lower, EX_LOWER)
    batch = path_to_candidate([EX_PATH], ex_instance.b, ex_instance.n)
    assert batch.shape == (1, ex_instance.n)
    assert np.array_equal(batch[0], EX_LOWER)


def test_path_to_candidate_single_row():
    lower = path_to_candidate([2], [0.4], 4)
    assert np.array_equal(lower, [0, 0, 0.4, 0])
    assert np.array_equal(path_to_candidate([[2]], [0.4], 4), [[0, 0, 0.4, 0]])


def test_path_to_candidate_out_of_range(ex_instance):
    b, n = ex_instance.b, ex_instance.n
    for bad in ([0, 0, 0, 0, 6], [0, 0, -1, 0, 0], [0, 0, 0, 0, -6], [0, 0, 1.7, 0, 0]):
        with pytest.raises(InvalidPathError):
            path_to_candidate(bad, b, n)
        with pytest.raises(InvalidPathError):
            path_to_candidate([EX_PATH, bad], b, n)  # a bad row anywhere in a batch
    for short, got in (
        ([0, 0, 0, 0], 4), ([[0, 0, 0, 0]], 4), ([[0] * 6] * 2, 6), ([[[0] * 5]], -1), ([[[0] * 4]], -1), (0, -1)
    ):
        with pytest.raises(DimensionMismatchError, match=f"^path: expected length 5, got {got}$"):
            path_to_candidate(short, b, n)


@pytest.mark.parametrize(
    "paths, b",
    [
        ([[0, 1], [1, 0]], [[0.3], [0.7]]),  # a column: each path would use one entry for all its rows
        ([0, 1], [[0.3], [0.7]]),
        ([[0, 1], [1, 0]], [[0.3, 0.7]]),
        ([[0, 1], [1, 0]], 0.5),  # a scalar
        ([[0, 1], [1, 0]], [[[0.3, 0.7]]]),
    ],
    ids=["column", "column-one-path", "row", "scalar", "3-d"],
)
def test_path_to_candidate_refuses_b_that_is_not_a_vector(paths, b):
    with pytest.raises(DimensionMismatchError, match="^b: expected length 2, got -1$"):
        path_to_candidate(paths, b, 2)
    want = [[0.3, 0.7], [0.7, 0.3]] if np.ndim(paths) == 2 else [0.3, 0.7]
    assert np.array_equal(path_to_candidate(paths, [0.3, 0.7], 2), want)  # b as a vector


@pytest.mark.parametrize("n, message", [(2.5, "n must be an integer"), (0, "n must be >= 1"), (-1, "n must be >= 1")])
def test_path_to_candidate_checks_n(ex_instance, n, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        path_to_candidate(EX_PATH, ex_instance.b, n)


@pytest.mark.parametrize(
    "b, message",
    [
        ([np.nan, 0.5], "A and b must be finite"),
        ([np.inf, 0.5], "A and b must be finite"),
        ([0.5, -np.inf], "A and b must be finite"),
        ([1.5, 0.5], r"entries of b must lie in \[0, 1\]"),
        ([0.5, -3.0], r"entries of b must lie in \[0, 1\]"),
        (["0.5", "0.2"], "entries of 'b' must be real numbers"),
        ([True, 0.5], "entries of 'b' must be real numbers"),
        (np.array([0.5, 0.2]).astype(str), "entries of 'b' must be real numbers"),
    ],
    ids=["nan", "inf", "minus-inf", "above-one", "negative", "strings", "boolean", "numpy-strings"],
)
def test_path_to_candidate_refuses_b_values_an_instance_refuses(b, message):
    for paths in ([0, 1], [[0, 1], [1, 1]]):
        with pytest.raises(InvalidInstanceError, match=message):
            path_to_candidate(paths, b, 2)
    with pytest.raises(InvalidInstanceError, match=message):  # the same rule and message
        Instance([[0.5, 0.5], [0.5, 0.5]], b)


def test_path_to_candidate_gives_no_signed_zero():
    assert not np.signbit(path_to_candidate([[0]], [-0.0], 1)).any()
    assert not np.signbit(path_to_candidate([0, 1], [-0.0, 0.5], 3)).any()


def test_path_to_candidate_of_no_rows_is_the_zero_corner():
    # the engine's base corner takes this form when every row has a choice
    assert np.array_equal(path_to_candidate(np.empty(0, dtype=np.int64), [], 3), [0.0, 0.0, 0.0])
    batch = path_to_candidate(np.empty((2, 0), dtype=np.int64), np.empty(0), 3)
    assert np.array_equal(batch, np.zeros((2, 3)))


def test_path_to_candidate_batch_matches_plain_loop(ex_instance):
    rng = np.random.default_rng(37)
    instances = [ex_instance] + [
        random_feasible_instance(m, n, density, rng=rng)
        for m, n, density in [(3, 4, 1.0), (4, 5, 0.6), (5, 3, 1.0), (6, 6, 0.5), (2, 7, 0.3)]
    ]
    for inst in instances:
        paths = enumerate_paths(compute_candidate_sets(inst))
        batch = path_to_candidate(paths, inst.b, inst.n)
        assert batch.shape == (len(paths), inst.n)
        for e, lower in zip(paths.tolist(), batch.tolist()):
            assert lower == plain_lower_corner(e, inst.b, inst.n)
            assert lower == path_to_candidate(e, inst.b, inst.n).tolist()


def test_all_worked_example_candidates_solve_the_system(ex_instance):
    sets = compute_candidate_sets(ex_instance)
    paths = enumerate_paths(sets)
    assert paths.shape[0] == 72
    for e in paths:
        lower = path_to_candidate(e, ex_instance.b, ex_instance.n)
        assert residual(ex_instance, lower) <= EPS_EQ


def test_cell_of_worked_example(ex_instance):
    lower, upper = cell(EX_PATH, ex_instance)
    assert np.array_equal(lower, EX_LOWER)
    assert np.array_equal(upper, EX_XBAR)
    assert np.all(lower <= upper)


def test_cell_of_unique_cell():
    inst = Instance([[0.8, 0.3], [0.2, 0.3]], [0.5, 0.3])
    sets = compute_candidate_sets(inst)
    assert [s.tolist() for s in sets] == [[0], [1]]
    lower, upper = cell(np.array([0, 1]), inst)
    assert np.array_equal(lower, [0.5, 0.3])
    assert np.array_equal(upper, [0.5, 1.0])


def test_cell_samples_all_feasible(ex_instance):
    lower, upper = cell(EX_PATH, ex_instance)
    rng = np.random.default_rng(29)
    X = lower + rng.random((1000, ex_instance.n)) * (upper - lower)
    vals = compose_many(ex_instance, X)
    assert np.abs(vals - ex_instance.b).max() <= EPS_EQ


def test_monotone_closure_within_cell(ex_instance):
    # any point between a feasible point and xbar inside one cell stays
    # feasible
    lower, xbar = cell(EX_PATH, ex_instance)
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = lower + rng.random(ex_instance.n) * (xbar - lower)
        y = x + rng.random(ex_instance.n) * (xbar - x)
        assert residual(ex_instance, y) <= EPS_EQ
