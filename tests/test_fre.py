import numpy as np
import pytest

from freaco import (
    EPS_EQ,
    Cell,
    DimensionMismatchError,
    InfeasibleInstanceError,
    Instance,
    InvalidInstanceError,
    InvalidPathError,
    candidate_matrix,
    cell_of,
    clamp_to_cell,
    compose_many,
    compute_candidate_sets,
    compute_max_solution,
    is_feasible,
    max_min_compose,
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


# ---------------------------------------------------------------------------
# composition


def test_compose_worked_example(ex_instance):
    assert np.array_equal(max_min_compose(ex_instance, EX_XBAR), ex_instance.b)


def test_compose_all_zero_matrix():
    inst = Instance(np.zeros((3, 4)), np.zeros(3))
    assert np.array_equal(max_min_compose(inst, np.full(4, 0.9)), np.zeros(3))


def test_compose_matches_naive_loop():
    rng = np.random.default_rng(101)
    for _ in range(25):
        inst = Instance(rng.random((3, 3)), rng.random(3))
        x = rng.random(3)
        assert np.allclose(max_min_compose(inst, x), naive_compose(inst.A, x), atol=0)


def test_compose_dimension_mismatch(ex_instance):
    with pytest.raises(DimensionMismatchError):
        max_min_compose(ex_instance, np.zeros(5))


def test_compose_many_matches_single(ex_instance):
    rng = np.random.default_rng(3)
    X = rng.random((40, ex_instance.n))
    stacked = compose_many(ex_instance, X)
    for k in range(X.shape[0]):
        assert np.array_equal(stacked[k], max_min_compose(ex_instance, X[k]))


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
# candidate sets and matrix


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


def test_candidate_matrix_worked_example(ex_instance):
    sets = compute_candidate_sets(ex_instance)
    M = candidate_matrix(sets, ex_instance.b)
    expected_row1 = np.array([0.7, 0, 0, 0, 0.7, 0.7])
    assert np.array_equal(M[0], expected_row1)
    for i, cols in enumerate(sets):
        assert np.array_equal(np.flatnonzero(M[i]), cols)
        assert np.all(M[i, cols] == ex_instance.b[i])


def test_candidate_matrix_full_sets():
    b = np.array([0.3, 0.6])
    sets = [np.arange(4), np.arange(4)]
    M = candidate_matrix(sets, b)
    assert np.array_equal(M, np.array([[0.3] * 4, [0.6] * 4]))


def test_candidate_matrix_pattern_matches_sets():
    rng = np.random.default_rng(19)
    for _ in range(10):
        inst = random_feasible_instance(5, 6, density=0.8, rng=rng)
        sets = compute_candidate_sets(inst)
        M = candidate_matrix(sets, inst.b, inst.n)
        assert M.shape == (inst.m, inst.n)
        for i, cols in enumerate(sets):
            pattern = np.zeros(inst.n, dtype=bool)
            pattern[cols] = True
            assert np.array_equal(M[i] > 0, pattern & (inst.b[i] > 0))


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


def test_path_to_candidate_worked_example(ex_instance):
    lower = path_to_candidate(EX_PATH, ex_instance.b, ex_instance.n)
    assert np.array_equal(lower, EX_LOWER)


def test_path_to_candidate_single_row():
    lower = path_to_candidate([2], [0.4], 4)
    assert np.array_equal(lower, [0, 0, 0.4, 0])


def test_path_to_candidate_out_of_range(ex_instance):
    from freaco import InvalidPathError

    with pytest.raises(InvalidPathError):
        path_to_candidate([0, 0, 0, 0, 6], ex_instance.b, ex_instance.n)


def test_all_worked_example_candidates_solve_the_system(ex_instance):
    sets = compute_candidate_sets(ex_instance)
    paths = enumerate_paths(sets)
    assert paths.shape[0] == 72
    for e in paths:
        lower = path_to_candidate(e, ex_instance.b, ex_instance.n)
        assert residual(ex_instance, lower) <= EPS_EQ


def test_cell_of_worked_example(ex_instance):
    xbar = compute_max_solution(ex_instance)
    cell = cell_of(EX_PATH, ex_instance, xbar)
    assert np.array_equal(cell.lower, EX_LOWER)
    assert np.array_equal(cell.upper, EX_XBAR)


def test_cell_of_unique_cell():
    inst = Instance([[0.8, 0.3], [0.2, 0.3]], [0.5, 0.3])
    xbar = compute_max_solution(inst)
    sets = compute_candidate_sets(inst, xbar)
    assert [s.tolist() for s in sets] == [[0], [1]]
    cell = cell_of(np.array([0, 1]), inst, xbar)
    assert np.array_equal(cell.lower, [0.5, 0.3])
    assert np.array_equal(cell.upper, [0.5, 1.0])


def test_cell_of_rejects_path_not_from_candidate_sets(ex_instance):
    # row 1 choosing column 4 puts x4 >= 0.7 in the lower corner, above
    # xbar's 0.1; the check must hold under python -O as well
    xbar = compute_max_solution(ex_instance)
    with pytest.raises(InvalidPathError):
        cell_of(np.array([3, 0, 5, 4, 0]), ex_instance, xbar)


def test_cell_samples_all_feasible(ex_instance):
    xbar = compute_max_solution(ex_instance)
    cell = cell_of(EX_PATH, ex_instance, xbar)
    rng = np.random.default_rng(29)
    X = cell.lower + rng.random((1000, ex_instance.n)) * (cell.upper - cell.lower)
    vals = compose_many(ex_instance, X)
    assert np.abs(vals - ex_instance.b).max() <= EPS_EQ


def test_monotone_closure_within_cell(ex_instance):
    # any point between a feasible point and xbar inside one cell stays
    # feasible
    xbar = compute_max_solution(ex_instance)
    cell = cell_of(EX_PATH, ex_instance, xbar)
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = cell.lower + rng.random(ex_instance.n) * (cell.upper - cell.lower)
        y = x + rng.random(ex_instance.n) * (xbar - x)
        assert residual(ex_instance, y) <= EPS_EQ


# ---------------------------------------------------------------------------
# clamping


def test_clamp_identity_inside_cell(ex_instance):
    cell = cell_of(EX_PATH, ex_instance, compute_max_solution(ex_instance))
    x = np.array([0.8, 0.3, 0.2, 0.0, 0.7, 1.0])
    assert np.array_equal(clamp_to_cell(x, cell), x)


def test_clamp_componentwise(ex_instance):
    cell = cell_of(EX_PATH, ex_instance, compute_max_solution(ex_instance))
    x = np.array([2.0, -1.0, 0.2, 0.05, 0.7, 0.5])
    assert np.array_equal(clamp_to_cell(x, cell), [1.0, 0.0, 0.2, 0.05, 0.7, 0.5])


def test_clamp_zeros_to_lower(ex_instance):
    cell = cell_of(EX_PATH, ex_instance, compute_max_solution(ex_instance))
    assert np.array_equal(clamp_to_cell(np.zeros(6), cell), cell.lower)


def test_cell_rejects_inverted_bounds():
    with pytest.raises(InvalidInstanceError):
        Cell(np.array([0.5, 0.5]), np.array([0.4, 0.6]))
