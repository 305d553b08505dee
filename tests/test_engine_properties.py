"""Property tests of the engine on planted random instances."""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freaco import (
    EPS_EQ,
    PheromoneMatrix,
    SolverConfig,
    compute_candidate_sets,
    compute_max_solution,
    make_problem,
    path_to_candidate,
    random_feasible_instance,
    reference_optimum,
    residual,
    run,
    run_many,
)
from freaco import engine
from freaco.engine import (
    candidate_table,
    construct_paths,
    init_pheromone,
    probability_matrix,
    sigma_vector,
)
from freaco.fre import _capped_corners

from conftest import compact

# Uniforms at and just below 1.  In round-to-nearest, u * total stays
# below total for every u < 1, so only u = 1.0 (which Generator.random
# never returns, but a caller can pass) makes u * total equal total and
# reaches the clamp to the last candidate.
NEAR_ONE = st.sampled_from([1.0, np.nextafter(1.0, 0.0), 1.0 - 2.0**-52, 1.0 - 2.0**-50])
UNIFORMS = st.one_of(st.floats(0.0, 1.0, exclude_max=True), NEAR_ONE)


def draw(tau, sets, u: np.ndarray) -> np.ndarray:
    """The engine's vectorized path draw for uniforms ``u`` (k x m), as columns."""
    table = candidate_table(sets)
    last = (table[:, 1:] >= 0).sum(axis=1)  # each row's last candidate slot
    slots = construct_paths(compact(tau.values, table), tau.values.sum(axis=1), last, u)
    return table[np.arange(len(table)), slots]


def reference_paths(tau, sets, u: np.ndarray) -> np.ndarray:
    """Row-by-row categorical draw: searchsorted over each row's cumsum."""
    p = probability_matrix(tau)
    paths = np.empty(u.shape, dtype=np.int64)
    for r, row_u in enumerate(u):
        for i, cols in enumerate(sets):
            c = np.cumsum(p[i, cols])
            k = int(np.searchsorted(c, row_u[i] * c[-1], side="right"))
            paths[r, i] = cols[min(k, len(c) - 1)]
    return paths


@st.composite
def planted(draw, max_m=12, max_n=16, n=None):
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n) if n is None else n)
    density = draw(st.sampled_from([1.0, 0.6, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_feasible_instance(m, n, density, rng=np.random.default_rng(seed))


@settings(max_examples=200, deadline=None)
@given(inst=planted(), data=st.data())
def test_path_draw_matches_searchsorted_reference(inst, data):
    # R runs drawn in one call, as the engine draws them, each with its own
    # pheromone, against the row-by-row reference run by run
    sets = compute_candidate_sets(inst)
    table = candidate_table(sets)
    last = (table[:, 1:] >= 0).sum(axis=1)  # each row's last candidate slot
    support = init_pheromone(sets, inst.n).support
    size = int(support.sum())
    runs, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
    taus = []
    for _ in range(runs):  # uneven positive pheromone on the support
        values = np.zeros(support.shape)
        values[support] = data.draw(st.lists(st.floats(1e-300, 1e3), min_size=size, max_size=size))
        taus.append(PheromoneMatrix(values, support))
    count = runs * k * inst.m
    u = np.array(data.draw(st.lists(UNIFORMS, min_size=count, max_size=count))).reshape(runs, k, inst.m)
    slots = construct_paths(
        np.stack([compact(tau.values, table) for tau in taus]),
        np.stack([tau.values.sum(axis=1) for tau in taus]),
        last,
        u,
    )
    drawn = table[np.arange(inst.m), slots]
    for tau, run_u, run_drawn in zip(taus, u, drawn):
        assert np.array_equal(run_drawn, reference_paths(tau, sets, run_u))


def test_uniform_at_total_picks_the_last_candidate():
    # u * total == total, so searchsorted alone would step past the last
    # candidate (and, in the padded table, onto padding); both draws
    # must clamp to the last candidate
    sets = [np.array([0, 2, 3]), np.array([1])]
    start = init_pheromone(sets, 4)
    values = start.values.copy()
    values[0, [0, 2, 3]] = [0.1, 0.7, 0.2]
    tau = PheromoneMatrix(values, start.support)
    total = np.cumsum(probability_matrix(tau)[0, sets[0]])[-1]
    u = np.array([[1.0, 1.0]])
    assert u[0, 0] * total == total
    drawn = draw(tau, sets, u)
    assert drawn.tolist() == [[3, 1]] == reference_paths(tau, sets, u).tolist()


@settings(max_examples=25, deadline=None)
@given(inst=planted(max_m=10, max_n=12), seed=st.integers(0, 2**32 - 1))
def test_archive_feasible_and_support_fixed_throughout(inst, seed):
    objective = f"sum(k, 1, {inst.n}, (x(k) - 0.3)^2)"
    problem = make_problem("planted", inst.A, inst.b, objective)
    support = init_pheromone(compute_candidate_sets(inst), inst.n).support
    checked = []

    def observer(t, archive, tau):
        for sol in archive:
            assert residual(inst, sol.x) <= EPS_EQ
        assert np.array_equal(tau.support, support)
        assert np.all(tau.values[~support] == 0.0)
        assert np.all(tau.values[support] > 0.0)
        checked.append(t)

    run(problem, SolverConfig(seed=seed, s_pop=10, t_max=15), observer=observer)
    assert checked == list(range(1, 16))


@settings(max_examples=40, deadline=None)
@given(inst=planted(max_m=8, max_n=8), seed=st.integers(0, 2**32 - 1))
def test_best_cell_is_the_cell_of_its_full_path(inst, seed):
    problem = make_problem("planted", inst.A, inst.b, f"sum(k, 1, {inst.n}, (x(k) - 0.3)^2)")
    best = run(problem, SolverConfig(seed=seed, s_pop=6, t_max=8)).best
    assert len(best.e) == inst.m
    assert all(j in cols for j, cols in zip(best.e, problem.sets))
    assert np.array_equal(best.lb, path_to_candidate(best.e, inst.b, inst.n))
    assert np.all(best.lb <= best.x) and np.all(best.x <= problem.xbar)


@settings(max_examples=120, deadline=None)
@given(inst=planted(), runs=st.integers(1, 3), ants=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_cell_corner_kernel_equals_the_checked_corner(inst, runs, ants, seed):
    # the kept rows and the base corner as run_many builds them, and the
    # corners written through one rows x n view into the middle of a wider
    # row table, each path raising the row ``at`` names
    rng = np.random.default_rng(seed)
    m, n = inst.m, inst.n
    table = candidate_table(compute_candidate_sets(inst))
    last = (table[:, 1:] >= 0).sum(axis=1)
    multi = last > 0
    keep = np.concatenate([np.flatnonzero(multi), np.flatnonzero(~multi)[:1]])
    base = path_to_candidate(table[~multi, 0], inst.b[~multi], n)
    slots = np.floor(rng.random((runs, ants, len(keep))) * (last[keep] + 1)).astype(np.int64)
    columns = table[keep][np.arange(len(keep)), slots]
    xbar = compute_max_solution(inst)
    rows = np.full((runs, ants, 2 + 2 * n + len(keep)), np.nan)
    LB = rows[..., 2 + n : 2 + 2 * n]
    LB[...] = base
    lower = rows.reshape(-1, rows.shape[-1])[:, 2 + n : 2 + 2 * n]
    _capped_corners(lower, columns, inst.b[keep], xbar, np.arange(runs * ants).reshape(runs, ants, 1))
    raw = path_to_candidate(columns.reshape(-1, len(keep)), inst.b[keep], n)
    want = np.minimum(np.maximum(raw, base), xbar)
    assert LB.tobytes() == want.reshape(LB.shape).tobytes()  # written into the table itself
    assert np.isnan(rows[..., : 2 + n]).all() and np.isnan(rows[..., 2 + 2 * n :]).all()
    # the kept rows and the base stand for every row: the full path's corner
    home = np.full(m, len(keep) - 1)
    home[keep] = np.arange(len(keep))
    full = table[np.arange(m), slots[..., home]]
    assert np.array_equal(LB.reshape(-1, n), path_to_candidate(full.reshape(-1, m), inst.b, n))


def per_phase(archive, ranks, z, xi, xbar, runs=None):
    """Gaussian samples with the spread computed for every sample, even
    when all share one rank: the reference for the one-rank shortcut of
    :func:`~freaco.engine.gaussian_samples`, which it replaces, so it takes
    the same arguments (it builds its own run index)."""
    n = len(xbar)
    new = archive[np.arange(len(ranks))[:, None], ranks]
    loc, LB = new[..., 2 : 2 + n], new[..., 2 + n : 2 + 2 * n]
    scale = sigma_vector(archive[..., 2 : 2 + n], loc, xi)
    np.minimum(np.maximum(loc + scale * z, LB), xbar, out=loc)
    return new


def outcomes(problem, config, seeds):
    """Each run's trace, best point and final pheromone, as bytes."""
    final = {}

    def observer(t, r, archive, tau):
        final[r] = tau.values.tobytes()

    results = run_many(problem, config, seeds, observer)
    return [(res.trace.tobytes(), res.best.x.tobytes(), final[r]) for r, res in enumerate(results)]


@settings(max_examples=60, deadline=None)
@given(
    inst=planted(max_m=8, n=st.one_of(st.just(1), st.integers(2, 7), st.integers(8, 12))),
    k=st.sampled_from([1, 2, 3]),
    q=st.sampled_from([0.0125, 0.2, 1.0]),
    runs=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_rank_spread_equals_per_sample_spreads(inst, k, q, runs, seed):
    problem = make_problem("planted", inst.A, inst.b, f"sum(k, 1, {inst.n}, (x(k) - 0.3)^2)")
    config = SolverConfig(s_pop=8, q=q, t_max=20, samples_per_iter=k)
    seeds = range(seed, seed + runs)
    shared = outcomes(problem, config, seeds)
    with mock.patch.object(engine, "gaussian_samples", per_phase):
        assert outcomes(problem, config, seeds) == shared


def test_spreads_are_computed_for_fewer_rows_than_samples():
    inst = random_feasible_instance(6, 8, rng=np.random.default_rng(3))
    problem = make_problem("planted", inst.A, inst.b, "sum(k, 1, 8, (x(k) - 0.3)^2)")
    config = SolverConfig(seed=1, s_pop=10, t_max=40)
    rows = []

    def counted(X, loc, xi):
        rows.append(loc.shape[0] * loc.shape[1])
        return sigma_vector(X, loc, xi)

    with mock.patch.object(engine, "sigma_vector", counted):
        run(problem, config)
    phases = config.t_max - 1
    assert len(rows) == phases  # one call per Gaussian phase
    assert min(rows) == 1  # some phases draw every sample around one point
    assert sum(rows) < phases * config.samples_per_iter


def exact_minimum(A, b, target):
    """Least ``sum((x_j - target)^2)`` over the solution set, in plain Python.

    The objective is separable, so its minimum over a cell ``[lower, xbar]``
    sits at ``target`` clipped into the cell; the least cell value wins.
    """
    m, n = len(A), len(A[0])
    xbar = [min([b[i] for i in range(m) if A[i][j] > b[i]] + [1.0]) for j in range(n)]
    sets = [[j for j in range(n) if abs(min(A[i][j], xbar[j]) - b[i]) <= EPS_EQ] for i in range(m)]
    best = float("inf")
    for path in itertools.product(*sets):
        lower = [0.0] * n
        for i, j in enumerate(path):
            lower[j] = max(lower[j], b[i])
        best = min(best, sum((min(max(target, lo), hi) - target) ** 2 for lo, hi in zip(lower, xbar)))
    return best


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_oracle_exact_and_never_above_solver(m, n, seed):
    inst = random_feasible_instance(m, n, rng=np.random.default_rng(seed))
    problem = make_problem("planted", inst.A, inst.b, f"sum(k, 1, {n}, (x(k) - 0.3)^2)")
    exact = exact_minimum(inst.A.tolist(), inst.b.tolist(), 0.3)
    report = reference_optimum(problem)
    assert abs(report.best_value - exact) <= 1e-9
    assert residual(inst, report.best_point) <= EPS_EQ
    assert run(problem, SolverConfig(seed=seed, s_pop=10, t_max=10)).best.f >= exact - 1e-12
