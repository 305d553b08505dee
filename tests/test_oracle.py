import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freaco import (
    EPS_EQ,
    EvalDomainError,
    Instance,
    PathSpaceTooLargeError,
    SolverConfig,
    builtin_problem,
    compute_candidate_sets,
    compute_max_solution,
    enumerate_paths,
    is_feasible,
    make_problem,
    path_space_size,
    path_to_candidate,
    random_feasible_instance,
    reference_optimum,
    residual,
    run,
)
from freaco import oracle
from freaco.expr import evaluate_many

from conftest import EX_A, EX_B, EX_OBJECTIVE


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_worked_example():
    inst = Instance(EX_A, EX_B)
    sets = compute_candidate_sets(inst)
    paths = enumerate_paths(sets)
    assert paths.shape == (72, 5)
    # lexicographic ordering of the rows
    assert np.array_equal(paths, paths[np.lexsort(paths.T[::-1])])
    # first and last path in order
    assert paths[0].tolist() == [0, 0, 2, 1, 0]
    assert paths[-1].tolist() == [5, 1, 5, 4, 5]


def meshgrid_paths(sets):
    """Reference enumeration: every combination, last row fastest."""
    grids = np.meshgrid(*sets, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def test_enumerate_equals_meshgrid_reference():
    rng = np.random.default_rng(73)
    cases = [compute_candidate_sets(Instance(EX_A, EX_B))]
    cases += [compute_candidate_sets(random_feasible_instance(6, 7, 0.6, rng=rng)) for _ in range(5)]
    for sets in cases:
        paths = enumerate_paths(sets)
        assert paths.dtype == np.int64 and paths.flags.c_contiguous
        assert np.array_equal(paths, meshgrid_paths(sets))
        assert np.array_equal(paths, paths[np.lexsort(paths.T[::-1])])


def test_enumerate_single_path():
    sets = [np.array([1]), np.array([0])]
    paths = enumerate_paths(sets)
    assert paths.tolist() == [[1, 0]]


def test_enumerate_counts_match_size():
    rng = np.random.default_rng(71)
    for _ in range(10):
        inst = random_feasible_instance(3, 3, rng=rng)
        sets = compute_candidate_sets(inst)
        assert enumerate_paths(sets).shape[0] == path_space_size(sets)


def test_enumerate_cap_exceeded_reports_exact_size():
    sets = [np.arange(10)] * 8  # 10^8 paths
    with pytest.raises(PathSpaceTooLargeError) as info:
        enumerate_paths(sets, cap=10**6)
    assert info.value.path_count == 10**8
    assert info.value.cap == 10**6


# ---------------------------------------------------------------------------
# reference optimum


def test_linear_objective_on_single_cell_hits_lower_corner():
    # one path only; the cell spans [0.5, 0.3] .. [0.5, 1.0]; a monotone
    # objective is minimized exactly at the lower corner
    problem = make_problem("toy", [[0.8, 0.3], [0.2, 0.3]], [0.5, 0.3], "x1 + x2")
    report = reference_optimum(problem, rng=np.random.default_rng(0))
    assert report.cells_examined == 1
    assert report.path_count == 1
    assert report.best_value == pytest.approx(0.8, abs=0)
    assert np.array_equal(report.best_point, [0.5, 0.3])


def test_reference_optimum_problem_one():
    report = reference_optimum(builtin_problem(1), rng=np.random.default_rng(0))
    assert report.best_value == pytest.approx(-0.0096019, abs=1e-3)


def test_reference_optimum_problem_two():
    report = reference_optimum(builtin_problem(2), rng=np.random.default_rng(0))
    assert report.best_value == pytest.approx(0.8197, abs=1e-3)


def test_reference_best_point_is_feasible_and_in_a_cell():
    for index in (1, 2, 4, 5):
        problem = builtin_problem(index)
        report = reference_optimum(problem, rng=np.random.default_rng(0))
        inst = problem.instance
        assert residual(inst, report.best_point) <= EPS_EQ
        xbar = compute_max_solution(inst)
        sets = compute_candidate_sets(inst, xbar)
        inside = False
        for e in enumerate_paths(sets):
            lower = path_to_candidate(e, inst.b, inst.n)
            if np.all(report.best_point >= lower - EPS_EQ) and np.all(
                report.best_point <= xbar + EPS_EQ
            ):
                inside = True
                break
        assert inside


def test_oracle_at_least_as_good_as_solver():
    problem = builtin_problem(2)
    report = reference_optimum(problem, rng=np.random.default_rng(0))
    for seed in range(3):
        result = run(problem, SolverConfig(seed=seed))
        assert report.best_value <= result.best.f + 1e-6


def test_reference_optimum_respects_cap():
    problem = builtin_problem(5)  # 96 paths
    with pytest.raises(PathSpaceTooLargeError) as info:
        reference_optimum(problem, cap=10)
    assert info.value.path_count == 96


def test_reference_optimum_deterministic_given_rng():
    a = reference_optimum(builtin_problem(4), rng=np.random.default_rng(5))
    b = reference_optimum(builtin_problem(4), rng=np.random.default_rng(5))
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_point, b.best_point)


@pytest.mark.parametrize("block", [1, 6060, 10**9])  # a cell per block, three cells, all
def test_reference_optimum_does_not_depend_on_the_sample_block(monkeypatch, block):
    problem = builtin_problem(5)  # 44 cells, 202 points of 10 coordinates each
    a = reference_optimum(problem, rng=np.random.default_rng(2))
    monkeypatch.setattr(oracle, "SAMPLE_BLOCK", block)
    b = reference_optimum(problem, rng=np.random.default_rng(2))
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_point, b.best_point)


@pytest.mark.parametrize("block", [1, 10**9])
def test_cells_without_samples_do_not_depend_on_the_sample_block(monkeypatch, block):
    problem = builtin_problem(5)
    a = reference_optimum(problem, samples_per_cell=0)
    monkeypatch.setattr(oracle, "SAMPLE_BLOCK", block)
    b = reference_optimum(problem, samples_per_cell=0)
    assert (a.best_value, a.samples_per_cell) == (b.best_value, 0)
    assert np.array_equal(a.best_point, b.best_point)


def test_oversized_cell_is_drawn_in_pieces():
    # a cell of 20000 samples is 120012 coordinates, 15 times SAMPLE_BLOCK;
    # drawn whole, the cell peaks at about 3 MB
    tracemalloc.start()
    try:
        reference_optimum(builtin_problem(1), samples_per_cell=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# pattern search


def move_by_move(problem, lows, upper, start, values):
    """The pattern search one move at a time over all cells, every pass
    over every cell: the reference for ``oracle._pattern_search``."""
    n = lows.shape[1]
    x = start.copy()
    fx = values.copy()
    step = 0.5 * (upper - lows).max(axis=1)
    step = np.maximum(step, 1e-16)
    for _ in range(oracle.REFINE_STEPS):
        for _ in range(oracle.MAX_PASSES_PER_LEVEL):
            improved = False
            for j in range(n):
                for sign in (-1.0, 1.0):
                    cand = x.copy()
                    cand[:, j] = np.clip(x[:, j] + sign * step, lows[:, j], upper[j])
                    moved = cand[:, j] != x[:, j]
                    if not moved.any():
                        continue
                    fc = np.full_like(fx, np.inf)
                    fc[moved] = evaluate_many(problem.objective, cand[moved])
                    better = fc < fx
                    if better.any():
                        x[better] = cand[better]
                        fx[better] = fc[better]
                        improved = True
            if not improved:
                break
        step *= 0.5
    return x, fx


def cells(problem):
    """Each cell's lower corner, as ``reference_optimum`` lists them."""
    inst = problem.instance
    return np.unique(path_to_candidate(enumerate_paths(problem.sets), inst.b, inst.n), axis=0)


def corner_starts(problem):
    """Cells and their search starts at ``samples_per_cell=0``: the first
    minimum of the lower corner and ``xbar``."""
    lows = cells(problem)
    X = np.stack([lows, np.broadcast_to(problem.xbar, lows.shape)], axis=1)
    vals = evaluate_many(problem.objective, X.reshape(-1, lows.shape[1])).reshape(len(lows), 2)
    i = vals.argmin(axis=1)
    return lows, X[np.arange(len(lows)), i], vals[np.arange(len(lows)), i]


@st.composite
def smooth_terms(draw, n):
    """A fault-free objective on [0, 1]^n: ``^`` with a per-point exponent,
    ``exp``, ``sin``, ``ln`` and ``abs``, each of a drawn coordinate."""
    coef = st.integers(1, 19).map(lambda k: k / 10)
    var = st.integers(1, n).map(lambda j: f"x{j}")
    forms = [
        lambda a, b, u, v: f"({u} + {a})^({v} + {b})",
        lambda a, b, u, v: f"{a}*exp({b}*{u} - {v})",
        lambda a, b, u, v: f"sin({a}*{u} + {b}*{v})",
        lambda a, b, u, v: f"{a}*ln({b} + {u}*{v})",
        lambda a, b, u, v: f"abs({u} - {a}*{v} + {b})",
    ]
    k = draw(st.integers(1, 2 * n))
    picks = [draw(st.sampled_from(forms))(draw(coef), draw(coef), draw(var), draw(var)) for _ in range(k)]
    return " + ".join(picks)


@st.composite
def search_inputs(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    density = draw(st.sampled_from([1.0, 0.6, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = random_feasible_instance(m, n, density, rng=rng)
    problem = make_problem("planted", inst.A, inst.b, draw(smooth_terms(n)))
    lows = cells(problem)
    # samples inside each cell, some of them at the lower corner
    start = lows + rng.random(lows.shape) * (problem.xbar - lows) * (rng.random((len(lows), 1)) < 0.8)
    return problem, lows, start, evaluate_many(problem.objective, start)


@pytest.mark.parametrize(
    "ahead, block",
    [(None, None), (1, None), (None, (2, 1)), (3, None), (None, (None, 2))],
    ids=["whole-pass", "one-move", "blocks", "three-moves", "two-level-windows"],
)
# (3, 2): a window that crosses a pass end runs into the level's last pass
@pytest.mark.parametrize("schedule", [None, (3, 1), (3, 2)], ids=["full", "short", "capped"])
@settings(max_examples=30, deadline=None)
@given(case=search_inputs())
def test_pattern_search_equals_move_by_move_bit_for_bit(ahead, block, schedule, case):
    problem, lows, start, values = case
    K, n = lows.shape
    with pytest.MonkeyPatch.context() as mp:
        if schedule:  # a short search ends mid-way, where a wrong move order shows
            mp.setattr(oracle, "REFINE_STEPS", schedule[0])
            mp.setattr(oracle, "MAX_PASSES_PER_LEVEL", schedule[1])
        rx, rf = move_by_move(problem, lows, problem.xbar, start, values)
        if block:  # (cells per block or all of them, levels per window) of whole passes
            cells, levels = block
            mp.setattr(oracle, "SEARCH_BLOCK", (cells or K) * levels * (2 * n) * n)
        x, fx = oracle._pattern_search(problem, lows, start, values, ahead=ahead)
    assert np.array_equal(x, rx) and np.array_equal(fx, rf)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    density=st.sampled_from([1.0, 0.6, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_searched_cells_are_the_distinct_corners_in_order(m, n, density, seed):
    inst = random_feasible_instance(m, n, density, rng=np.random.default_rng(seed))
    problem = make_problem("planted", inst.A, inst.b, "x1")
    searched = []

    def recording(problem, lows, start, values, ahead=None):
        searched.append(lows.copy())
        return start, values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_pattern_search", recording)
        report = reference_optimum(problem, samples_per_cell=1)
    want = cells(problem)
    assert len(searched) == 1 and searched[0].shape == want.shape == (report.cells_examined, n)
    assert np.array_equal(searched[0], want)


def counted_search(monkeypatch, problem, lows, start, values):
    """``oracle._pattern_search`` and the batches it evaluated, in order."""
    batches = []

    def counting(expr, X):
        batches.append(X.copy())
        return evaluate_many(expr, X)

    monkeypatch.setattr(oracle, "evaluate_many", counting)
    return (*oracle._pattern_search(problem, lows, start, values), batches)


def test_a_search_that_never_moves_takes_one_round_and_one_window(monkeypatch):
    problem = builtin_problem(3)  # no move improves any of its 3 cells
    lows, start, values = corner_starts(problem)
    x, fx, batches = counted_search(monkeypatch, problem, lows, start, values)
    # two moves off the cells' points per level: levels 0 and 1 (the first
    # pass and its look-ahead), then, as no cell moved, one window for the other 18
    assert [len(b) for b in batches] == [2 * 2, 2 * 18]
    assert np.array_equal(x, start) and np.array_equal(fx, values)
    rx, rf = move_by_move(problem, lows, problem.xbar, start, values)
    assert np.array_equal(x, rx) and np.array_equal(fx, rf)


def test_a_window_skips_its_quiet_levels_and_keeps_the_first_that_moves(monkeypatch):
    # One cell, [0.2, 1], entered at xbar = 1 with step 0.4.  The moves to
    # 0.6 (step 0.4) and 0.8 (0.2) do not improve; the move to 0.9 (0.1) does.
    problem = make_problem("late", [[0.2]], [0.2], "abs(x1 - 0.93)")
    lows, start, values = corner_starts(problem)
    assert start.tolist() == [[1.0]]
    x, fx, batches = counted_search(monkeypatch, problem, lows, start, values)
    # level 0 and its look-ahead, level 1 (the moves up are clamped to 1, so
    # not evaluated), then, as no cell moved, a window of the other 18 levels'
    # moves down from 1
    assert batches[0].ravel().tolist() == [0.6, 0.8]
    assert batches[1].ravel().tolist() == pytest.approx(1 - 0.1 * 0.5 ** np.arange(18))
    # level 2 keeps the window's move to 0.9 and resumes after it, in one
    # round: its move 0.9 + 0.1, the next pass's move 0.9 - 0.1 (the pass's
    # later moves repeat points), then the look-ahead, level 3's first pass
    # from 0.9, where 0.9 + 0.05 improves.  0.9 is not evaluated again at step 0.1.
    assert batches[2].ravel().tolist() == pytest.approx([1.0, 0.8, 0.85, 0.95])
    assert batches[3].ravel().tolist() == pytest.approx([0.9, 1.0, 0.925, 0.975])
    assert len(batches) == 19  # 34 with a round per pass and levels in lockstep
    rx, rf = move_by_move(problem, lows, problem.xbar, start, values)
    assert np.array_equal(x, rx) and np.array_equal(fx, rf)


def test_only_the_moving_cell_is_evaluated_after_the_first_round(monkeypatch):
    # Forty cells [lows, 1] of x1 + x2.  Thirty-nine start at their lower corner,
    # the minimum, and rest after the first round; the fifth starts at xbar.
    problem = make_problem("boxes", [[0.5, 0.5]], [0.5], "x1 + x2")
    assert problem.xbar.tolist() == [1.0, 1.0]
    lows = np.array([[0.02 * k, 0.01 * k] for k in range(40)])
    start = lows.copy()
    start[4] = problem.xbar
    values = evaluate_many(problem.objective, start)
    # one level, so no look-ahead: every round after the first continues it
    monkeypatch.setattr(oracle, "REFINE_STEPS", 1)
    alone = counted_search(monkeypatch, problem, lows[4:5], start[4:5], values[4:5])
    x, fx, batches = counted_search(monkeypatch, problem, lows, start, values)
    assert len(batches) == len(alone[2]) > 2
    assert len(batches[0]) > len(alone[2][0])  # the first round tries every cell
    for batch, own in zip(batches[1:], alone[2][1:]):
        assert np.array_equal(batch, own)
    assert np.array_equal(x[4], alone[0][0]) and fx[4] == alone[1][0]
    assert np.array_equal(np.delete(x, 4, axis=0), np.delete(start, 4, axis=0))
    rx, rf = move_by_move(problem, lows, problem.xbar, start, values)
    assert np.array_equal(x, rx) and np.array_equal(fx, rf)


def test_a_quiet_cell_adds_its_own_points_to_a_moving_cell_s_rounds(monkeypatch):
    # Two cells of (x1 - 0.3)^2 + (x2 - 0.7)^2 under xbar = [1, 1].  The first
    # starts at its minimum, its lower corner [0.5, 0.8], so no move improves it
    # at any level; the second, [0, 1]^2, starts at xbar and moves at every level.
    problem = make_problem("pair", [[0.5, 0.5]], [0.5], "(x1 - 0.3)^2 + (x2 - 0.7)^2")
    lows = np.array([[0.5, 0.8], [0.0, 0.0]])
    start = np.array([[0.5, 0.8], [1.0, 1.0]])
    values = evaluate_many(problem.objective, start)
    *moving, alone = counted_search(monkeypatch, problem, lows[1:], start[1:], values[1:])
    x, fx, batches = counted_search(monkeypatch, problem, lows, start, values)
    assert len(batches) == len(alone)
    # each round: the quiet cell's points, then the moving cell's round alone
    heads = [b[: len(b) - len(own)] for b, own in zip(batches, alone)]
    for batch, own in zip(batches, alone):
        assert np.array_equal(batch[len(batch) - len(own) :], own)
    # the quiet cell's points are its first pass at every level, levels in order;
    # its moves down are clamped to its corner, so not evaluated
    steps = 0.25 * 0.5 ** np.arange(oracle.REFINE_STEPS)
    want = np.stack([[0.5 + s, 0.8, 0.5, min(0.8 + s, 1.0)] for s in steps]).reshape(-1, 2)
    assert np.array_equal(np.concatenate(heads), want)
    # two levels a round (its own and the look-ahead) while the other cell
    # moves, then the last ten in the window after the moving cell's first
    # round without a move
    assert [len(h) for h in heads] == [4] * 5 + [20] + [0] * (len(heads) - 6)
    assert np.array_equal(x[0], start[0]) and fx[0] == values[0]
    assert np.array_equal(x[1], moving[0][0]) and fx[1] == moving[1][0]
    rx, rf = move_by_move(problem, lows, problem.xbar, start, values)
    assert np.array_equal(x, rx) and np.array_equal(fx, rf)


# 67 and 92 when a round took at most one move per cell, never crossed a pass
# end and every cell waited at each level for the slowest of its block
@pytest.mark.parametrize("number, most", [(7, 28), (10, 32)])
def test_rounds_of_the_slowest_built_in_searches(monkeypatch, number, most):
    problem, seen = builtin_problem(number), []

    def recording(problem, lows, start, values):
        seen.append((lows, start, values))
        return start, values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_pattern_search", recording)
        reference_optimum(problem, rng=np.random.default_rng([1, 0]))
    *_, batches = counted_search(monkeypatch, problem, *seen[0])
    assert len(batches) <= most


# One cell, [0.2, 1] x [0, 1], entered at xbar.  At step 1/4 the search
# stands at [0.5, 1], where the move x1 - 1/4 improves; the same round's
# move x1 + 1/4 faults at [0.75, 1], where x1 + 1.2 x2 lies in the band
# (1.94, 2.0).  The move-by-move search makes that move from [0.25, 1].
SPECULATIVE_FAULT = (
    [[0.2, 0.0]],
    [0.2],
    "(abs(x1 + 1.2*x2 - 1.97) - 0.03)^0.5 + 2.9*(x1 - 0.21)^2 + 1.5*(x2 - 0.92)^2",
)

# The worked example with a band |x6 - 0.85| < 0.1: the move-by-move
# search faults in it, and a whole-pass round faults first at another point.
SEARCH_FAULT = (
    EX_A,
    EX_B,
    "(abs(x6 - 0.85) - 0.1)^0.5 - 0.37*x1 - 0.48*x2 + 0.96*x3 + 0.88*x4 - 0.32*x5 - 0.13*x6",
)


def test_cached_search_tables_follow_the_refine_steps(monkeypatch):
    # the tables are built once per key: one built for fewer step halvings
    # must not serve a search with more, which would read past its steps
    problem = builtin_problem(3)
    lows, start, values = corner_starts(problem)
    oracle._search_tables.cache_clear()
    fresh = oracle._pattern_search(problem, lows, start, values, ahead=1)
    oracle._search_tables.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "REFINE_STEPS", 1)
        oracle._pattern_search(problem, lows, start, values, ahead=1)
    x, fx = oracle._pattern_search(problem, lows, start, values, ahead=1)
    assert x.tobytes() == fresh[0].tobytes() and fx.tobytes() == fresh[1].tobytes()


def test_a_fault_of_a_speculative_move_alone_leaves_the_result():
    problem = make_problem("band", *SPECULATIVE_FAULT)
    lows, start, values = corner_starts(problem)
    with pytest.raises(EvalDomainError) as info:
        oracle._pattern_search(problem, lows, start, values)
    assert info.value.point.tolist() == [0.75, 1.0]
    rx, rf = move_by_move(problem, lows, problem.xbar, start, values)
    report = reference_optimum(problem, samples_per_cell=0)
    assert report.best_value == rf.min()
    assert np.array_equal(report.best_point, rx[rf.argmin()])


def test_a_fault_of_the_move_by_move_search_is_raised_as_it_raises():
    problem = make_problem("band", *SEARCH_FAULT)
    lows, start, values = corner_starts(problem)
    with pytest.raises(EvalDomainError) as reference:
        move_by_move(problem, lows, problem.xbar, start, values)
    assert reference.value.reason == "invalid value encountered in power"
    assert reference.value.point.tolist() == [1.0, 0.5, 0.04999999999999999, 0.0, 0.7, 0.75]
    with pytest.raises(EvalDomainError) as whole_pass:
        oracle._pattern_search(problem, lows, start, values)
    assert whole_pass.value.point.tolist() != reference.value.point.tolist()
    with pytest.raises(EvalDomainError) as info:
        reference_optimum(problem, samples_per_cell=0)
    assert info.value.reason == reference.value.reason
    assert np.array_equal(info.value.point, reference.value.point)


def test_the_one_move_rerun_keeps_the_cells_levels_in_lockstep():
    # Two cells of a band |x3 - 0.01| < 0.005 under xbar = [1, 0.2, 1].  Cell 0
    # reaches x3 = 0 by its first move, x3 - 1/2; cell 1 starts there.  Both
    # fault at level 6, on x3 = 1/128.  The move-by-move search meets both
    # faults in one call, cell 0's first; cell 1, which never moves, would get
    # there rounds earlier if it went on to its next level alone.
    problem = make_problem(
        "band", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.2, 0.5, 0.0]], [0.0, 0.0, 0.2], "(abs(x3 - 0.01) - 0.005)^0.5"
    )
    lows = cells(problem)
    assert lows.tolist() == [[0.0, 0.2, 0.0], [0.2, 0.0, 0.0]] and problem.xbar.tolist() == [1.0, 0.2, 1.0]
    start = np.array([[0.6, 0.2, 0.5], [0.9, 0.2, 0.0]])
    values = evaluate_many(problem.objective, start)
    with pytest.raises(EvalDomainError) as reference:
        move_by_move(problem, lows, problem.xbar, start, values)
    assert reference.value.point.tolist() == [0.6, 0.2, 0.0078125]
    with pytest.raises(EvalDomainError) as info:
        oracle._pattern_search(problem, lows, start, values, ahead=1)
    assert info.value.reason == reference.value.reason
    assert np.array_equal(info.value.point, reference.value.point)


# ---------------------------------------------------------------------------
# random instance generation


def test_generated_instances_always_feasible():
    rng = np.random.default_rng(73)
    for _ in range(50):
        inst = random_feasible_instance(4, 4, density=0.7, rng=rng)
        assert is_feasible(inst)


def test_one_by_one_generator_composes_min():
    inst = random_feasible_instance(1, 1, rng=np.random.default_rng(5))
    # replay the generator's stream: planted point first, then A
    replay = np.random.default_rng(5)
    planted = replay.random(1)
    a = replay.random((1, 1))
    assert inst.A[0, 0] == a[0, 0]
    assert inst.b[0] == min(a[0, 0], planted[0])


def test_candidates_of_generated_instances_solve_them():
    rng = np.random.default_rng(79)
    for _ in range(100):
        inst = random_feasible_instance(4, 4, rng=rng)
        sets = compute_candidate_sets(inst)
        for e in enumerate_paths(sets):
            lower = path_to_candidate(e, inst.b, inst.n)
            assert residual(inst, lower) <= EPS_EQ


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        random_feasible_instance(0, 3)
    with pytest.raises(ValueError, match="^m must be an integer"):
        random_feasible_instance(2.5, 3)
    for density in (0.0, 1.5, math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match=r"^density must lie in \(0, 1\]"):
            random_feasible_instance(2, 2, density=density)
    for density in (True, np.bool_(True), "0.5", None):
        with pytest.raises(ValueError, match="^density must be a number, got "):
            random_feasible_instance(2, 2, density=density)
    # numpy and integer densities are read as the float they hold
    for density in (np.float32(0.5), np.float64(0.5), 1, np.int64(1)):
        a = random_feasible_instance(3, 4, density, rng=np.random.default_rng(1))
        b = random_feasible_instance(3, 4, float(density), rng=np.random.default_rng(1))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
    for rng in (5, np.random.RandomState(5), "seed"):
        with pytest.raises(TypeError, match="^rng must be a numpy.random.Generator"):
            random_feasible_instance(3, 3, rng=rng)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"samples_per_cell": -1}, "samples_per_cell"),
        ({"cap": 0}, "cap"),
        ({"cap": -5}, "cap"),
        ({"samples_per_cell": 2.5}, "samples_per_cell"),
        ({"cap": 2.5}, "cap"),
    ],
)
def test_reference_optimum_rejects_nonsense_sizes(kwargs, name):
    # checked before enumerating: cap=1 alone would raise PathSpaceTooLargeError
    problem = builtin_problem(5)
    rule = ">= " if isinstance(kwargs[name], int) else "an integer"
    with pytest.raises(ValueError, match=f"^{name} must be {rule}"):
        reference_optimum(problem, **{"cap": 1, **kwargs})


@pytest.mark.parametrize("rng", [5, np.random.RandomState(5), "seed"])
def test_reference_optimum_rejects_an_rng_that_is_not_a_generator(rng):
    # checked before enumerating: cap=1 alone would raise PathSpaceTooLargeError
    with pytest.raises(TypeError, match="^rng must be a numpy.random.Generator"):
        reference_optimum(builtin_problem(5), rng=rng, cap=1)


def test_report_with_numpy_sample_count_is_json():
    report = reference_optimum(builtin_problem(1), samples_per_cell=np.int64(5))
    assert type(report.samples_per_cell) is int
    assert json.loads(json.dumps(report.to_dict()))["samples_per_cell"] == 5
