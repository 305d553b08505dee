import math
import sys
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freaco import (
    EPS_EQ,
    InfeasibleInstanceError,
    Instance,
    PheromoneMatrix,
    SolverConfig,
    builtin_problem,
    compose_many,
    compute_candidate_sets,
    compute_max_solution,
    evaluate_many,
    make_problem,
    oracle,
    path_to_candidate,
    reference_optimum,
    run,
    run_many,
)
from freaco.engine import (
    candidate_table,
    cell_points,
    construct_paths,
    deposit,
    gaussian_samples,
    init_pheromone,
    insert,
    probability_matrix,
    select_rank,
    sigma_vector,
    update_pheromone,
    weights,
)

from conftest import EX_A, EX_B, EX_JBAR, EX_OBJECTIVE, compact


@pytest.fixture
def ex_problem():
    return make_problem("example-1", EX_A, EX_B, EX_OBJECTIVE)


def ex_sets(problem):
    inst = problem.instance
    return inst, compute_max_solution(inst), compute_candidate_sets(inst)


def update(tau, f, E, big_q, rho):
    """One run's dense ``tau`` after update_pheromone: deposits
    ``big_q * exp(-f)`` (f: 1 x s) on paths ``E`` (1 x s x m) of columns."""
    table = candidate_table([np.flatnonzero(row) for row in tau.support])
    values = compact(tau.values, table)[None]
    slots = ((table < E[..., None]) & (table >= 0)).sum(axis=-1)  # a column's rank in its row
    update_pheromone(values, table, deposit(f, big_q), slots, rho)
    dense = np.zeros_like(tau.values)
    dense[tau.support] = values[0, table >= 0]
    return PheromoneMatrix(dense, tau.support)


def deposit_one(tau, e, f, big_q=1.0):
    """A single member's deposit: update_pheromone without evaporation."""
    return update(tau, np.array([[f]]), np.array([[e]]), big_q=big_q, rho=0.0)


def last_slots(table):
    """Each row's last candidate slot in ``table`` (m x kmax, -1 padded)."""
    return (table[:, 1:] >= 0).sum(axis=1)


def draw_paths(tau, table, k, rng):
    """``k`` paths (k x m) of columns drawn with ``rng`` as the engine draws them."""
    u = rng.random((k, len(table)))
    slots = construct_paths(compact(tau.values, table), tau.values.sum(axis=1), last_slots(table), u)
    return table[np.arange(len(table)), slots]


class Fields(NamedTuple):
    """The columns of archive rows: value, deposit, point, lower corner
    and path."""

    f: np.ndarray
    d: np.ndarray
    X: np.ndarray
    LB: np.ndarray
    E: np.ndarray


def pack(fields):
    """Archive rows (... x width) as the engine keeps them, from :class:`Fields`."""
    f, d, X, LB, E = fields
    return np.concatenate([f[..., None], d[..., None], X, LB, E], axis=-1)


def split(archive, n):
    """The :class:`Fields` of ``archive`` rows with ``n`` coordinates."""
    cuts = (1, 2, 2 + n, 2 + 2 * n)
    f, d, X, LB, E = np.split(archive, cuts, axis=-1)
    return Fields(f[..., 0], d[..., 0], X, LB, E.astype(np.int64))


def uniform_archive(problem, k, rng):
    """One run's archive (leading axis of length 1): ``k`` fresh paths,
    here as columns, one uniform point per cell, ranked."""
    inst, xbar, sets = ex_sets(problem)
    tau = init_pheromone(sets, inst.n)
    E = draw_paths(tau, candidate_table(sets), k, rng)
    X, LB = cell_points(E, inst.b, xbar, rng.random((k, inst.n)))
    f = evaluate_many(problem.objective, X)
    return pack(Fields(f, deposit(f, 1.0), X, LB, E))[None, np.argsort(f, kind="stable")]


def sample(archive, cw, k, xi, xbar, rng):
    """``k`` Gaussian samples (k x n) around a one-run archive and their
    ranks, with the engine's draws: a uniform, then n normals, per sample."""
    n = len(xbar)
    u, z = np.empty((1, k)), np.empty((1, k, n))
    for s in range(k):
        u[0, s] = rng.random()
        z[0, s] = rng.standard_normal(n)
    ranks = select_rank(cw, u)
    return split(gaussian_samples(archive, ranks, z, xi, xbar), n).X[0], ranks[0]


def sigma(X, rank, xi):
    """Spread around ``X[rank]`` within one archive ``X``."""
    return sigma_vector(X[None], X[None, [rank]], xi)[0, 0]


# ---------------------------------------------------------------------------
# pheromone initialization and probabilities


def test_init_pheromone_pattern(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau = init_pheromone(sets, inst.n)
    assert np.array_equal(np.flatnonzero(tau.values[0]), sorted(EX_JBAR[0]))
    assert np.all(tau.values[tau.support] == 1.0)
    assert np.all(tau.values[~tau.support] == 0.0)


def test_init_pheromone_single_candidates():
    sets = [np.array([1]), np.array([0])]
    tau = init_pheromone(sets, 3)
    assert tau.values.sum() == 2.0


def test_fresh_probabilities_uniform(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    p = probability_matrix(init_pheromone(sets, inst.n))
    for i, cols in enumerate(sets):
        assert np.allclose(p[i, cols], 1.0 / len(cols), atol=1e-15)
        assert p[i].sum() == pytest.approx(1.0, abs=1e-12)


def test_probability_single_candidate_row():
    tau = init_pheromone([np.array([2])], 4)
    assert probability_matrix(tau)[0, 2] == 1.0


def test_probability_after_one_deposit(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau = init_pheromone(sets, inst.n)
    e = np.array([0, 0, 2, 1, 0])
    tau = deposit_one(tau, e, 0.5)
    d = math.exp(-0.5)
    p = probability_matrix(tau)
    for i, cols in enumerate(sets):
        expected = (1 + d) / (len(cols) - 1 + 1 + d)
        assert p[i, e[i]] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# path construction


def test_single_candidate_rows_give_unique_path():
    sets = [np.array([1]), np.array([0]), np.array([2])]
    tau = init_pheromone(sets, 3)
    rng = np.random.default_rng(0)
    paths = draw_paths(tau, candidate_table(sets), 5, rng)
    assert paths.shape == (5, 3)
    for e in paths:
        assert np.array_equal(e, [1, 0, 2])


def test_path_frequencies_match_uniform_probabilities(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau = init_pheromone(sets, inst.n)
    rng = np.random.default_rng(57)
    draws = 100_000
    paths = draw_paths(tau, candidate_table(sets), draws, rng)
    for i, cols in enumerate(sets):
        prob = 1.0 / len(cols)
        sd = math.sqrt(prob * (1 - prob) / draws)
        for j in cols:
            freq = np.mean(paths[:, i] == j)
            assert abs(freq - prob) <= 3 * sd


def test_paths_reproducible_for_fixed_seed(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau, table = init_pheromone(sets, inst.n), candidate_table(sets)
    a = draw_paths(tau, table, 20, np.random.default_rng(9))
    b = draw_paths(tau, table, 20, np.random.default_rng(9))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# archive initialization


def test_degenerate_cell_yields_its_unique_point():
    problem = make_problem("point", [[1.0]], [1.0], "x1")
    inst = problem.instance
    xbar = compute_max_solution(inst)
    rng = np.random.default_rng(0)
    X, LB = cell_points(np.array([[0]]), inst.b, xbar, rng.random((1, 1)))
    assert X[0, 0] == 1.0 and evaluate_many(problem.objective, X)[0] == 1.0


def test_init_archive_samples_live_in_their_cells(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    archive = split(uniform_archive(ex_problem, 64, np.random.default_rng(3)), inst.n)
    assert np.all(archive.LB - EPS_EQ <= archive.X) and np.all(archive.X <= xbar + EPS_EQ)
    assert np.all(np.isfinite(archive.f))
    assert np.all(np.diff(archive.f) >= 0)


def test_insert_ties_keep_older_rows_first():
    def rows(fs, tag):  # one run's rows, n = 1
        shape = (1, len(fs), 1)
        f = np.array([fs])
        return pack(Fields(f, deposit(f, 1.0), np.full(shape, tag), np.zeros(shape), np.zeros(shape)))

    old = rows([0.1, 0.5, 0.9], tag=0.0)
    merged = old.copy()
    insert(merged, rows([0.5, 0.2], tag=1.0))
    assert split(merged, 1).f.tolist() == [[0.1, 0.2, 0.5]]
    assert split(merged, 1).X[0, :, 0].tolist() == [0.0, 1.0, 0.0]  # the older 0.5 wins the tie
    merged = old.copy()
    insert(merged, rows([0.9, 1.0], tag=1.0))
    assert np.array_equal(merged, old)  # nothing beats the worst


@settings(max_examples=200, deadline=None)
@given(
    runs=st.integers(1, 4),
    s=st.integers(2, 6),
    k=st.integers(0, 3),
    width=st.integers(3, 5),
    data=st.data(),
)
def test_insert_equals_a_stable_sort_cut_to_size(runs, s, k, width, data):
    # values from a small set, so ties are common; the other columns tag each row
    values = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0])
    f = np.array(data.draw(st.lists(values, min_size=runs * (s + k), max_size=runs * (s + k))))
    rows = np.arange(f.size * width, dtype=float).reshape(runs, s + k, width)
    rows[..., 0] = f.reshape(runs, s + k)
    old = np.take_along_axis(rows[:, :s], rows[:, :s, :1].argsort(axis=1, kind="stable"), axis=1)
    both = np.concatenate([old, rows[:, s:]], axis=1)
    expected = np.take_along_axis(both, both[..., :1].argsort(axis=1, kind="stable")[:, :s], axis=1)
    insert(old, rows[:, s:])
    assert np.array_equal(old, expected)


def test_init_archive_points_all_feasible(ex_problem):
    inst = ex_problem.instance
    archive = split(uniform_archive(ex_problem, 1000, np.random.default_rng(5)), inst.n)
    assert np.abs(compose_many(inst, archive.X[0]) - inst.b).max() <= EPS_EQ


# ---------------------------------------------------------------------------
# rank weights and selection


def test_weight_of_rank_one_has_unit_exponential_factor():
    for s_pop, q in ((50, 0.0125), (10, 0.5), (3, 2.0)):
        w = weights(s_pop, q)
        assert w[0] == pytest.approx(
            1.0 / (math.sqrt(2 * math.pi) * q * s_pop), abs=1e-15
        )


def test_weights_default_parameters_frozen_values():
    w = weights(50, 0.0125)
    # direct evaluation of the weight formula at ranks 1 and 2
    assert w[0] == pytest.approx(0.6383076486422923, abs=1e-12)
    assert w[1] == pytest.approx(0.17747333548712885, abs=1e-12)


def test_weights_strictly_decreasing():
    w = weights(50, 0.5)  # no underflow at this locality
    assert np.all(np.diff(w) < 0)
    # with the default locality the far ranks underflow to exactly zero;
    # the decrease is strict while weights stay positive
    w = weights(50, 0.0125)
    positive = w > 0
    assert np.all(np.diff(w[positive]) < 0)
    assert np.all(np.diff(w) <= 0)


def test_config_rejects_q_too_small_for_the_weight_scale():
    with pytest.raises(ValueError, match=r"q \* s_pop must be >="):
        SolverConfig(q=5e-324)


@pytest.mark.parametrize("q", [1e306, 1e307])  # subnormal weights; q * s_pop overflows
def test_config_rejects_q_whose_largest_weight_is_not_normal(q):
    assert not weights(50, q)[0] >= sys.float_info.min
    with pytest.raises(ValueError, match="largest rank weight is not a normal double"):
        SolverConfig(q=q)
    assert weights(50, 1e305)[0] >= sys.float_info.min
    SolverConfig(q=1e305)


def test_tiny_q_draws_only_the_best_rank_without_warning():
    q = 1e-200
    SolverConfig(q=q)  # accepted: q * s_pop is a normal double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cw = np.cumsum(weights(50, q))
    picks = select_rank(cw, np.random.default_rng(67).random(1000))
    assert np.all(picks == 0)


def test_select_rank_singleton():
    rng = np.random.default_rng(1)
    assert np.all(select_rank(np.array([0.7]), rng.random(10)) == 0)


def test_select_rank_frequency_matches_weights():
    w = weights(50, 0.0125)
    prob = w / w.sum()
    rng = np.random.default_rng(61)
    draws = 100_000
    picks = select_rank(np.cumsum(w), rng.random(draws))
    sd = math.sqrt(prob[0] * (1 - prob[0]) / draws)
    assert abs(np.mean(picks == 0) - prob[0]) <= 3 * sd


def test_large_q_selection_near_uniform():
    w = weights(5, 10.0)
    prob = w / w.sum()
    rng = np.random.default_rng(63)
    draws = 100_000
    picks = select_rank(np.cumsum(w), rng.random(draws))
    for rank in range(5):
        sd = math.sqrt(prob[rank] * (1 - prob[rank]) / draws)
        assert abs(np.mean(picks == rank) - prob[rank]) <= 3 * sd
    assert prob.max() - prob.min() < 0.002


# ---------------------------------------------------------------------------
# Gaussian spread


def test_sigma_zero_when_coordinates_agree():
    X = np.array([[0.3, 0.1], [0.3, 0.9], [0.3, 0.4]])
    assert sigma(X, 0, xi=1.0)[0] == 0.0


def test_sigma_two_points():
    X = np.array([[0.1], [0.5]])
    assert sigma(X, 0, xi=1.0)[0] == pytest.approx(0.4, abs=1e-15)


def test_sigma_linear_in_xi():
    X = np.array([[0.1, 0.2], [0.5, 0.9], [0.2, 0.3]])
    base = sigma(X, 1, xi=1.0)
    assert np.allclose(sigma(X, 1, xi=2.0), 2 * base, atol=1e-15)


# ---------------------------------------------------------------------------
# sampling


def test_sample_with_zero_spread_returns_mean(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    point = np.array([0.8, 0.3, 0.2, 0.0, 0.7, 1.0])
    lb = np.array([0.6, 0.0, 0.0, 0.0, 0.7, 0.3])
    f = np.full((1, 4), 0.958)
    archive = pack(Fields(
        f, deposit(f, 1.0), np.tile(point, (1, 4, 1)), np.tile(lb, (1, 4, 1)),
        np.tile([4, 0, 5, 4, 0], (1, 4, 1)),
    ))
    rng = np.random.default_rng(11)
    Xs, _ = sample(archive, np.cumsum(weights(4, 0.5)), 1, 1.0, xbar, rng)
    assert np.array_equal(Xs[0], point)
    assert evaluate_many(ex_problem.objective, Xs)[0] == pytest.approx(0.958, abs=1e-12)


def test_samples_stay_in_inherited_cell(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    rng = np.random.default_rng(13)
    archive = uniform_archive(ex_problem, 50, rng)
    cw = np.cumsum(weights(50, 0.5))
    Xs, ranks = sample(archive, cw, 10_000, 1.0, xbar, rng)
    assert np.all(split(archive, inst.n).LB[0, ranks] <= Xs) and np.all(Xs <= xbar)
    gaps = np.abs(compose_many(inst, Xs) - inst.b)
    assert gaps.max() <= EPS_EQ


def test_sampling_reproducible(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)

    def draw(seed):
        rng = np.random.default_rng(seed)
        archive = uniform_archive(ex_problem, 10, rng)
        return sample(archive, np.cumsum(weights(10, 0.5)), 1, 1.0, xbar, rng)

    (xa, ra), (xb, rb) = draw(99), draw(99)
    assert np.array_equal(xa, xb) and np.array_equal(ra, rb)


# ---------------------------------------------------------------------------
# pheromone update


def test_deposit_zero_objective_adds_exactly_one(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau = init_pheromone(sets, inst.n)
    e = np.array([0, 0, 2, 1, 0])
    tau = deposit_one(tau, e, 0.0)
    for i in range(inst.m):
        assert tau.values[i, e[i]] == 2.0


def test_deposit_amount_for_negative_objective(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau = init_pheromone(sets, inst.n)
    e = np.array([0, 0, 2, 1, 0])
    tau = deposit_one(tau, e, -0.0096)
    for i in range(inst.m):
        assert tau.values[i, e[i]] == pytest.approx(1 + 1.009646227810575, abs=1e-12)


def test_deposit_leaves_off_support_zero(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau = init_pheromone(sets, inst.n)
    tau = deposit_one(tau, np.array([0, 0, 2, 1, 0]), 1.0)
    assert np.all(tau.values[~tau.support] == 0.0)


def test_better_solutions_deposit_more(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    e = np.array([0, 0, 2, 1, 0])
    tau1 = init_pheromone(sets, inst.n)
    tau2 = init_pheromone(sets, inst.n)
    tau1 = deposit_one(tau1, e, 0.2)
    tau2 = deposit_one(tau2, e, 0.9)
    assert np.all(tau1.values[0, [0]] > tau2.values[0, [0]])


def test_evaporate():
    sets = [np.array([0, 1])]
    tau = PheromoneMatrix(np.array([[2.0, 1.0]]), init_pheromone(sets, 2).support)
    nobody = (np.empty((1, 0)), np.empty((1, 0, 1), dtype=np.int64))  # evaporation alone
    tau = update(tau, *nobody, big_q=1.0, rho=0.5)
    assert np.array_equal(tau.values[0], [1.0, 0.5])
    tau = update(tau, *nobody, big_q=1.0, rho=0.0)
    assert np.array_equal(tau.values[0], [1.0, 0.5])


def test_update_touches_only_archive_paths(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau = init_pheromone(sets, inst.n)
    e = np.array([0, 0, 2, 1, 0])
    before = tau.values.copy()
    tau = update(tau, np.full((1, 8), 0.5), np.tile(e, (1, 8, 1)), big_q=1.0, rho=0.0)
    grew = tau.values > before
    expected = np.zeros_like(grew)
    expected[np.arange(inst.m), e] = True
    assert np.array_equal(grew, expected)


def test_update_keeps_probability_rows_normalized(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    tau = init_pheromone(sets, inst.n)
    archive = split(uniform_archive(ex_problem, 30, np.random.default_rng(20)), inst.n)
    for _ in range(5):
        tau = update(tau, archive.f, archive.E, big_q=1.0, rho=0.5)
        rows = probability_matrix(tau).sum(axis=1)
        assert np.allclose(rows, 1.0, atol=1e-12)
        assert np.all(tau.values[~tau.support] == 0.0)


def test_degenerate_rows_reset_to_initial(ex_problem):
    inst, xbar, sets = ex_sets(ex_problem)
    support = init_pheromone(sets, inst.n).support
    tau = PheromoneMatrix(np.where(support, 1e-300, 0.0), support)
    tau = update(tau, np.array([[1e9]]), np.array([[[0, 0, 2, 1, 0]]]), big_q=1.0, rho=0.5)
    assert np.array_equal(tau.values, tau.support.astype(float))


def test_archive_carries_each_rows_deposit():
    f = np.array([[0.7, -0.2, 0.3]])
    rows = Fields(f, deposit(f, 2.0), f[..., None], f[..., None], np.zeros((1, 3, 1)))
    merged = pack(rows)[:, np.argsort(f[0], kind="stable")]
    insert(merged, pack(rows._replace(f=f - 1.0, d=deposit(f - 1.0, 2.0))))
    merged = split(merged, 1)
    assert np.array_equal(merged.d, deposit(merged.f, 2.0))
    assert merged.d[0, 0] == 2.0 * math.exp(1.2)


def test_update_rejects_non_contiguous_pheromone():
    # the deposit goes through a flat view, which a strided array cannot give
    table = candidate_table([np.array([0, 1]), np.array([0, 1])])
    strided = np.ones((1, 2, 4))[:, :, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        update_pheromone(strided, table, np.zeros((1, 1)), np.zeros((1, 1, 2), dtype=int), rho=0.5)


def test_cell_points_refuses_an_out_whose_rows_do_not_merge():
    # the corners are scattered through one rows x n view of out: a copy would lose them
    out = np.empty((4, 3, 2)).T  # 2 x 3 x 4, its leading axes transposed
    with pytest.raises(ValueError, match="without a copy"):
        cell_points(np.zeros((2, 3, 1), dtype=np.int64), [0.5], np.ones(2), np.zeros((2, 3, 2)), out=out)
    x, LB = cell_points(np.zeros((2, 3, 1), dtype=np.int64), [0.5], np.ones(2), np.zeros((2, 3, 2)),
                        out=np.empty((2, 3, 4)))
    assert np.array_equal(LB, np.broadcast_to([0.5, 0.0], (2, 3, 2))) and np.array_equal(x, LB)


# ---------------------------------------------------------------------------
# full runs


def test_default_budget_is_347_evaluations():
    result = run(builtin_problem(1), SolverConfig(seed=4))
    assert result.eval_count == 347
    assert len(result.trace) == 100


def test_single_iteration_budget():
    result = run(builtin_problem(1), SolverConfig(seed=4, t_max=1))
    assert result.eval_count == 50
    assert len(result.trace) == 1


def test_ablated_budget():
    result = run(builtin_problem(1), SolverConfig(seed=4, t_max=10, samples_per_iter=0))
    assert result.eval_count == 50 + 9


def test_budget_formula_general():
    cfg = SolverConfig(seed=0, s_pop=12, t_max=7, samples_per_iter=3)
    result = run(builtin_problem(2), cfg)
    assert result.eval_count == 12 + (1 + 3) * 6


def test_runs_are_bit_identical_for_equal_seeds():
    a = run(builtin_problem(3), SolverConfig(seed=123, t_max=40))
    b = run(builtin_problem(3), SolverConfig(seed=123, t_max=40))
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.best.x, b.best.x)
    assert np.array_equal(a.best.lb, b.best.lb)
    assert np.array_equal(a.best.e, b.best.e)
    assert a.best.f == b.best.f
    assert a.eval_count == b.eval_count


def test_different_seeds_differ():
    a = run(builtin_problem(5), SolverConfig(seed=1, t_max=10))
    b = run(builtin_problem(5), SolverConfig(seed=2, t_max=10))
    assert not np.array_equal(a.trace, b.trace)


def test_first_iteration_is_s_pop_paths_then_their_points_from_one_draw(ex_problem):
    seen = []
    run(ex_problem, SolverConfig(s_pop=5, samples_per_iter=3, t_max=1, seed=6),
        observer=lambda t, archive, tau: seen.append(archive))
    inst, xbar, sets = ex_sets(ex_problem)
    m, n = inst.m, inst.n
    u = np.random.default_rng(6).random(5 * (m + n))
    tau, table = init_pheromone(sets, n), candidate_table(sets)
    slots = construct_paths(compact(tau.values, table), tau.values.sum(axis=1), last_slots(table),
                            u[: 5 * m].reshape(5, m))
    E = table[np.arange(m), slots]
    X, LB = cell_points(E, inst.b, xbar, u[5 * m :].reshape(5, n))
    f = evaluate_many(ex_problem.objective, X)
    order = np.argsort(f, kind="stable")
    (archive,) = seen  # s_pop rows, no Gaussian sample
    assert np.array_equal([s.x for s in archive], X[order])
    assert np.array_equal([s.lb for s in archive], LB[order])
    assert np.array_equal([s.e for s in archive], E[order])
    assert [s.f for s in archive] == f[order].tolist()


def test_trace_monotone_and_matches_best():
    result = run(builtin_problem(6), SolverConfig(seed=8))
    assert np.all(np.diff(result.trace) <= 0)
    assert result.trace[-1] == result.best.f


def test_cells_never_pass_xbar_on_a_near_tie():
    # j = 0 enters S_1 within EPS_EQ although b_1 = 0.5 + 5e-10 exceeds xbar_0 = 0.5:
    # the raw corner of that cell lies above xbar
    problem = make_problem("near-tie", [[1.0, 0.2], [0.8, 0.3]], [0.5 + 5e-10, 0.5], "x1 + x2")
    xbar = problem.xbar
    assert path_to_candidate([0, 0], problem.instance.b, 2)[0] > xbar[0]

    def inside(lb, x):
        assert np.all(lb <= x) and np.all(x <= xbar) and np.all(lb <= xbar)

    for seed in range(10):
        def observer(t, archive, tau):
            for s in archive:
                inside(s.lb, s.x)

        result = run(problem, SolverConfig(seed=seed, t_max=5), observer=observer)
        inside(result.best.lb, result.best.x)

    searched = []

    def recording(problem, lows, start, values, ahead=None):
        searched.append(lows.copy())
        return start, values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_pattern_search", recording)
        reference_optimum(problem, samples_per_cell=4)
    assert searched and all(np.all(lows <= xbar) for lows in searched)


def test_archive_invariants_every_iteration(ex_problem):
    checked = []

    def observer(t, archive, tau):
        assert len(archive) == 50
        fs = [s.f for s in archive]
        assert fs == sorted(fs)
        assert np.all(tau.values[~tau.support] == 0.0)
        rows = probability_matrix(tau).sum(axis=1)
        assert np.allclose(rows, 1.0, atol=1e-12)
        checked.append(t)

    run(ex_problem, SolverConfig(seed=2, t_max=30), observer=observer)
    assert checked == list(range(1, 31))


def test_observer_gets_a_dense_copy_of_each_iterations_pheromone(ex_problem):
    seen = []

    def observer(t, archive, tau):
        seen.append(tau.values)

    run(ex_problem, SolverConfig(seed=3, t_max=3), observer=observer)
    assert [v.shape for v in seen] == [(5, 6)] * 3
    assert not np.array_equal(seen[0], seen[2])  # a copy, not a view of the live pheromone
    assert np.flatnonzero(seen[0][0]).tolist() == sorted(EX_JBAR[0])


def test_observer_cannot_write_the_pheromone(ex_problem):
    # the support is shared by every call; a write would corrupt the
    # next iteration's dense copy
    def observer(t, archive, tau):
        for array in (tau.support, tau.values):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0

    run(ex_problem, SolverConfig(seed=3, t_max=3), observer=observer)


# Every row has exactly one candidate (rows 0 and 3 share column 0), so
# the path space holds one path; and no row has exactly one candidate.
ONE_PATH = ([[0.9, 0.1, 0.2], [0.1, 0.8, 0.1], [0.2, 0.3, 0.7], [0.6, 0.2, 0.1]],
            [0.6, 0.5, 0.4, 0.6])
ALL_CHOICE = ([[0.5, 0.5, 0.2], [0.3, 0.4, 0.4], [0.6, 0.7, 0.6]], [0.5, 0.4, 0.5])


@pytest.mark.parametrize("A, b, sizes", [(*ONE_PATH, [1, 1, 1, 1]), (*ALL_CHOICE, [2, 2, 3])])
def test_blocks_without_choice_or_without_fixed_rows_match_solo_runs(A, b, sizes):
    problem = make_problem("edge", A, b, "sum(k, 1, 3, (x(k) - 0.3)^2)")
    assert [len(cols) for cols in problem.sets] == sizes
    single = [i for i, size in enumerate(sizes) if size == 1]
    config = SolverConfig(s_pop=6, t_max=12)
    seen = []

    def observer(t, r, archive, tau):
        assert np.all(tau.values[~tau.support] == 0.0)
        held = tau.values[single][tau.support[single]]  # one entry per such row
        assert np.all(held == held[:1])
        seen.append((t, r))

    block = run_many(problem, config, [4, 5, 6], observer)
    assert seen == [(t, r) for t in range(1, 13) for r in range(3)]
    for result in block:
        solo = run(problem, replace(config, seed=result.seed))
        for got, want in ((result.trace, solo.trace), (result.best.x, solo.best.x),
                          (result.best.lb, solo.best.lb), (result.best.e, solo.best.e)):
            assert np.array_equal(got, want)
        assert result.best.f == solo.best.f
        assert len(result.best.e) == len(sizes)
        assert np.array_equal(result.best.lb, path_to_candidate(result.best.e, problem.instance.b, 3))
    if len(single) == len(sizes):  # the one path
        assert all(r.best.e.tolist() == [0, 1, 2, 0] for r in block)


def test_every_archive_point_feasible_throughout(ex_problem):
    inst = ex_problem.instance
    collected = []

    def observer(t, archive, tau):
        collected.extend(sol.x for sol in archive)

    run(ex_problem, SolverConfig(seed=10, t_max=40), observer=observer)
    gaps = np.abs(compose_many(inst, np.array(collected)) - inst.b)
    assert gaps.max() <= EPS_EQ


def test_infeasible_problem_raises_with_rows():
    # A phi xbar caps row 1 at 0.2 < 0.5, so the system is unsolvable; a
    # Problem is feasible by construction, so building it directly raises
    # before any run can start
    from freaco import Problem

    inst = Instance([[0.2, 0.1], [0.9, 0.8]], [0.5, 0.3])
    with pytest.raises(InfeasibleInstanceError) as info:
        Problem("bad", inst, "x1", None)
    assert info.value.rows.tolist() == [0]
    assert np.array_equal(info.value.xbar, [0.3, 0.3])


def test_best_never_beats_certified_reference():
    from freaco import reference_optimum

    problem = builtin_problem(2)
    ref = reference_optimum(problem, rng=np.random.default_rng(0))
    for seed in range(5):
        result = run(problem, SolverConfig(seed=seed))
        assert result.best.f >= ref.best_value - 1e-6


@pytest.mark.parametrize("field", ["q", "xi", "big_q", "rho"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, np.float32("nan")])
def test_config_rejects_non_finite(field, value):
    message = r"rho must lie in \[0, 1\)" if field == "rho" else f"{field} must be positive and finite"
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["q", "xi", "big_q", "rho"])
def test_config_reals_are_floats_and_refuse_non_numbers(field):
    integer = 0 if field == "rho" else 2  # inside the field's range
    for value in (np.float32(0.25), np.float64(0.25), np.int64(integer), integer):
        stored = getattr(SolverConfig(**{field: value}), field)
        assert type(stored) is float and stored == float(value)
    for value in (True, np.bool_(False), "0.1", None, [0.1]):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
            SolverConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("s_pop", 50.0),
        ("t_max", 2.5),
        ("samples_per_iter", 1.5),
        ("seed", 1.5),
        ("seed", "3"),
        ("t_max", True),
        ("seed", False),
    ],
)
def test_config_rejects_non_integral_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverConfig(**{field: value})


def test_config_accepts_numpy_integers():
    config = SolverConfig(s_pop=np.int64(10), t_max=np.int32(3), seed=np.int64(7))
    plain = SolverConfig(s_pop=10, t_max=3, seed=7)
    assert config == plain and type(config.seed) is int
    assert run(builtin_problem(1), config).best.f == run(builtin_problem(1), plain).best.f


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(s_pop=1)
    with pytest.raises(ValueError):
        SolverConfig(q=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(t_max=0)
    with pytest.raises(ValueError, match="samples_per_iter must be >= 0"):
        SolverConfig(samples_per_iter=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SolverConfig(seed=-1)


@pytest.mark.parametrize(
    "objective, big_q, rho",
    [(EX_OBJECTIVE, 1e308, 0.5), (EX_OBJECTIVE, 1e308, 0.0), ("-1000 - x1", 1e5, 0.01)],
    ids=["big-deposit", "big-deposit-no-evaporation", "negative-objective"],
)
def test_huge_deposits_keep_pheromone_finite(objective, big_q, rho):
    # deposits that would overflow to inf (and turn every probability into
    # NaN) are clamped by an exponent cap derived from the config
    problem = make_problem("deposit", EX_A, EX_B, objective)
    final = []

    def observer(t, archive, tau):
        final[:] = [tau.values.copy(), probability_matrix(tau)]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(problem, SolverConfig(seed=4, t_max=20, big_q=big_q, rho=rho), observer)
    values, p = final
    assert np.isfinite(values).all() and np.isfinite(p).all()
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.isfinite(result.best.f)


def largest_xi(s_pop):
    """The largest ``xi`` for which ``xi * (s_pop - 1)`` is a finite double."""
    xi = sys.float_info.max / (s_pop - 1)
    while not math.isfinite(xi * (s_pop - 1)):
        xi = np.nextafter(xi, 0.0)
    return float(xi)


def test_config_rejects_xi_whose_spread_could_overflow():
    with pytest.raises(ValueError, match=r"xi \* \(s_pop - 1\) must be a finite double"):
        SolverConfig(xi=1e308)
    with pytest.raises(ValueError, match=r"xi \* \(s_pop - 1\) must be a finite double"):
        SolverConfig(xi=float(np.nextafter(largest_xi(50), math.inf)))
    SolverConfig(xi=largest_xi(50))
    SolverConfig(s_pop=2, xi=1e308)  # one gap of at most 1


@pytest.mark.parametrize("s_pop", [2, 50])
def test_a_draw_past_the_double_range_lands_on_the_cell_face(s_pop):
    # every other point lies 0.75 away in each coordinate, so sigma is
    # xi * 0.75, finite; at the largest xi sigma * z overflows to +-inf,
    # never NaN, at xi = 1 it stays finite, and either way the clamp puts
    # the draw on the face of the cell
    n, xbar = 2, np.ones(2)
    X, LB = np.ones((s_pop, n)), np.zeros((s_pop, n))
    X[0], LB[0] = 0.25, 0.2
    f = np.arange(s_pop, dtype=float)
    archive = pack(Fields(f, deposit(f, 1.0), X, LB, np.zeros((s_pop, 1))))[None]
    z = np.array([[[sys.float_info.max, -sys.float_info.max]]])
    for xi in (largest_xi(s_pop), 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = gaussian_samples(archive, np.zeros((1, 1), dtype=np.int64), z, xi, xbar)
        assert np.isfinite(sigma(X, 0, xi)).all()
        assert split(new, n).X[0, 0].tolist() == [1.0, 0.2]


@pytest.mark.parametrize("s_pop", [2, 50])
def test_largest_xi_keeps_runs_feasible_and_finite(s_pop):
    # seed 0 of problem 2 at s_pop 2 draws past the double range
    problem = builtin_problem(2)
    inst, xbar = problem.instance, problem.xbar

    def observer(t, archive, tau):
        for sol in archive:
            assert np.all(sol.lb <= sol.x) and np.all(sol.x <= xbar)
            assert np.abs(compose_many(inst, sol.x[None]) - inst.b).max() <= EPS_EQ

    config = SolverConfig(seed=0, s_pop=s_pop, t_max=30, xi=largest_xi(s_pop))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(problem, config, observer)
    assert np.isfinite(result.trace).all()
