"""Brute-force verification machinery, independent of the solver.

Exhaustively enumerates paths, searches every distinct cell by uniform
sampling plus coordinate pattern search, and generates random feasible
instances by planting a solution.  Intended for desk-scale cross-checks
of solver output, not for production optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PathSpaceTooLargeError, whole
from .expr import evaluate_many
from .fre import Instance, Record, path_space_size, path_to_candidate
from .problems import Problem

DEFAULT_PATH_CAP = 10**6
DEFAULT_SAMPLES_PER_CELL = 200

#: Step halvings of the per-cell pattern search.
REFINE_STEPS = 20

#: Pattern-search passes allowed per step size before forcing a halving.
MAX_PASSES_PER_LEVEL = 200

#: Sample coordinates drawn and evaluated at once: whole cells when one
#: fits, else one cell in pieces of at most this many sample coordinates.
SAMPLE_BLOCK = 2**13


@dataclass(frozen=True, eq=False)
class OracleReport(Record):
    """The oracle's result; ``freaco verify`` writes these fields in this order."""

    problem: str
    path_count: int
    best_value: float
    best_point: np.ndarray
    cells_examined: int
    samples_per_cell: int

    def to_dict(self) -> dict:
        return {**vars(self), "best_point": self.best_point.tolist()}


def enumerate_paths(sets: list[np.ndarray], cap: int = DEFAULT_PATH_CAP) -> np.ndarray:
    """All paths in lexicographic order as an (|E|, m) int array.

    Raises :class:`ValueError` unless ``cap`` is an integer >= 1, and
    :class:`PathSpaceTooLargeError` (carrying the exact count) when the
    product of candidate-set sizes exceeds ``cap``.
    """
    cap = whole("cap", cap, 1)
    size = path_space_size(sets)
    if size > cap:
        raise PathSpaceTooLargeError(size, cap)
    paths = np.empty((size, len(sets)), dtype=np.int64)
    outer = 1  # paths per value of the rows before row i
    for i, cols in enumerate(sets):
        inner = size // (outer * len(cols))  # repeats of each of row i's values
        paths.reshape(outer, len(cols), inner, len(sets))[..., i] = np.reshape(cols, (-1, 1))
        outer *= len(cols)
    return paths


def _pattern_search(
    problem: Problem, lows: np.ndarray, upper: np.ndarray, start: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate pattern search inside each cell, run on all cells at once.

    Starts from ``start`` (one point per cell, objective ``values``),
    with an initial step of half the largest cell edge.  At each step
    size, coordinate passes repeat until none improves, then the step
    halves; ``REFINE_STEPS`` halvings total.  Iterates never leave their
    cell, so every visited point stays feasible.
    """
    n = lows.shape[1]
    x = start.copy()
    fx = values.copy()
    step = 0.5 * (upper - lows).max(axis=1)
    step = np.maximum(step, 1e-16)  # degenerate cells: harmless no-op moves
    for _ in range(REFINE_STEPS):
        for _ in range(MAX_PASSES_PER_LEVEL):
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


def reference_optimum(
    problem: Problem,
    samples_per_cell: int = DEFAULT_SAMPLES_PER_CELL,
    rng: np.random.Generator | None = None,
    cap: int = DEFAULT_PATH_CAP,
) -> OracleReport:
    """Dense search of the whole feasible region, cell by cell.

    Enumerates every path of the problem's candidate sets
    (``problem.sets``, within ``cap``), deduplicates the cells they span,
    draws ``samples_per_cell`` uniform points per cell (plus both corners),
    cell after cell in blocks of whole cells (a cell larger than
    ``SAMPLE_BLOCK`` coordinates in pieces, each led by the cell's best so
    far), and refines each cell's best sample by clamped coordinate pattern
    search over ``REFINE_STEPS`` step halvings.  A cell's best sample is
    the first minimum over its lower corner, ``xbar``, then its samples in
    order, so the block size changes neither the draws nor the result.  The
    returned best is the minimum over cells; on exact ties the cell with
    the lexicographically smallest lower corner wins.

    ``samples_per_cell`` and ``cap`` accept Python and numpy integers;
    a non-integer, ``samples_per_cell < 0`` or ``cap < 1`` raises
    :class:`ValueError` naming the argument, before enumerating anything.
    """
    samples_per_cell = whole("samples_per_cell", samples_per_cell, 0)
    if rng is None:
        rng = np.random.default_rng(0)
    inst, xbar = problem.instance, problem.xbar
    paths = enumerate_paths(problem.sets, cap)
    lows = np.unique(path_to_candidate(paths, inst.b, inst.n), axis=0)
    K, n = lows.shape

    best_x, best_f = np.empty((K, n)), np.empty(K)
    step = max(1, SAMPLE_BLOCK // ((samples_per_cell + 2) * n))  # cells per block
    piece = max(1, samples_per_cell if step > 1 else SAMPLE_BLOCK // n)  # samples per draw
    for lo in range(0, K, step):
        low = lows[lo : lo + step]
        cells = np.arange(len(low))
        X = np.stack([low, np.broadcast_to(xbar, low.shape)], axis=1)  # the corners lead
        for s in range(0, max(samples_per_cell, 1), piece):
            draw = rng.random((len(low), min(piece, samples_per_cell - s), n))
            X = np.concatenate([X, low[:, None] + draw * (xbar - low)[:, None]], axis=1)
            vals = evaluate_many(problem.objective, X.reshape(-1, n)).reshape(len(low), -1)
            i = vals.argmin(axis=1)
            X = X[cells, i][:, None]  # each cell's best so far leads its next piece
        best_x[lo : lo + step], best_f[lo : lo + step] = X[:, 0], vals[cells, i]

    best_x, best_f = _pattern_search(problem, lows, xbar, best_x, best_f)
    winner = int(np.argmin(best_f))  # first minimum = lexicographically least cell
    return OracleReport(
        problem=problem.name,
        path_count=int(paths.shape[0]),
        best_value=float(best_f[winner]),
        best_point=best_x[winner].copy(),
        cells_examined=K,
        samples_per_cell=samples_per_cell,
    )


def random_feasible_instance(
    m: int, n: int, density: float = 1.0, rng: np.random.Generator | None = None
) -> Instance:
    """Instance that is feasible by construction.

    Plants a uniform point, draws A uniformly (dropping entries to zero
    with probability 1 - density) and sets b to the composition of A
    with the planted point.
    """
    m, n = whole("m", m, 1), whole("n", n, 1)
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if rng is None:
        rng = np.random.default_rng()
    planted = rng.random(n)
    A = rng.random((m, n))
    if density < 1.0:
        A[rng.random((m, n)) >= density] = 0.0
    b = np.minimum(A, planted).max(axis=1)
    return Instance(A, b)
