"""Brute-force verification machinery, independent of the solver.

Exhaustively enumerates paths, searches every distinct cell by uniform
sampling plus coordinate pattern search, and generates random feasible
instances by planting a solution.  Intended for desk-scale cross-checks
of solver output, not for production optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, PathSpaceTooLargeError, real, whole
from .expr import evaluate_many
from .fre import Instance, Record, _capped_corners, path_space_size
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

#: Candidate coordinates (cells x moves x n) one pattern-search round may
#: hold: the search runs over blocks of cells that fit.
SEARCH_BLOCK = 2**19


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


def _generator(rng, seed: int | None) -> np.random.Generator:
    """``rng``, or ``default_rng(seed)`` when it is ``None``; anything else
    raises :class:`TypeError` naming ``rng``."""
    if rng is None:
        return np.random.default_rng(seed)
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator or None, got {rng!r}")
    return rng


def _pattern_search(
    problem: Problem,
    lows: np.ndarray,
    start: np.ndarray,
    values: np.ndarray,
    ahead: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate pattern search inside each cell ``[lows, problem.xbar]`` (Hooke & Jeeves).

    Starts from ``start`` (one point per cell, objective ``values``),
    with an initial step of half the cell's largest edge.  A pass tries
    the 2n moves x_j - h, x_j + h in order, each clamped to the cell, and
    keeps every move that lowers the value; passes repeat until one
    improves nothing (at most ``MAX_PASSES_PER_LEVEL``), then the step
    halves; ``REFINE_STEPS`` halvings total.  Iterates never leave their
    cell, so every visited point stays feasible.

    Cells are independent, so the search runs them in rounds:

    * **Live cells.**  A cell whose pass improves nothing would see the
      same point and moves in its next pass; it rests until the step
      halves.  A round runs over the block's rows of the points and
      reads each cell's moves from tables built once per block (the
      lower bound of each move) and once per level (its signed step); a
      resting cell stands past its last move, where a move has no step
      and no bounds, so it yields no point.  The level ends once every
      cell of the block rests.
    * **Whole-pass rounds.**  One :func:`evaluate_many` call evaluates
      the next ``ahead`` moves (default: the rest of the pass) of every
      live cell, all from its current point.  A cell keeps its first
      improving move and resumes after it in the next round, which is
      the move-by-move trajectory, bit for bit.
    * **Search blocks.**  Cells run in blocks that hold at most
      ``SEARCH_BLOCK`` candidate coordinates (cells x moves x n).  With
      ``ahead=1`` a round holds one point per cell, so all cells run as
      one block and every point is evaluated in the move-by-move order.
    * **Quiet levels.**  A level that follows one where no cell of the
      block moved opens, when ``ahead`` is ``None``, with one round that
      evaluates every cell's whole pass at this level and at each
      following level, all from its current point: the points the
      level-by-level search evaluates while no cell moves.  It spans as
      many levels as remain and as fit in ``SEARCH_BLOCK``, and opens
      only for two or more.  The levels before the first where a cell
      improves are done, and that level's part of the window is its
      first round: its cells continue from those values.

    A move beyond the first improving one, or at a level beyond the first
    that moves a cell, may fault on a point the move-by-move search never
    visits; :func:`reference_optimum` then reruns the search with
    ``ahead=1``.
    """
    K, n = lows.shape
    moves = 2 * n  # move 2j is x_j - h, move 2j + 1 is x_j + h
    width = moves if ahead is None else min(ahead, moves)
    window = np.arange(width)
    past = np.arange(moves + width)  # a window may run past the last move; a resting cell's starts there
    real = past < moves
    coord = np.minimum(past, moves - 1) // 2
    # past the last move no step and no bounds: the candidate is its point, which is not evaluated
    sign = np.where(real, np.where(past % 2 == 1, 1.0, -1.0), 0.0)
    top = np.where(real, problem.xbar[coord], np.inf)
    x, fx = start.copy(), values.copy()
    h = np.maximum(0.5 * (problem.xbar - lows).max(axis=1), 1e-16)  # step; degenerate cells: no-op moves
    per = K if width == 1 else max(1, SEARCH_BLOCK // (width * n))  # cells per block
    for lo in range(0, K, per):
        B = min(per, K - lo)
        floor = np.where(real, lows[lo : lo + B, coord], -np.inf)  # each cell's lower bound per move
        floor_rows = np.arange(0, B * len(past), len(past))[:, None]  # flat index of each row of floor, steps
        x_rows = np.arange(0, B * n, n)[:, None]  # and of each row of x
        hb = h[lo : lo + B]
        level, quiet = 0, False  # quiet: the block's last level moved no cell
        while level < REFINE_STEPS:
            span = 1  # levels the first round covers: a window of several after a quiet level
            if quiet and ahead is None:
                span = min(REFINE_STEPS - level, SEARCH_BLOCK // (B * moves * n))
            xw, fw, steps = x[lo : lo + B], fx[lo : lo + B], sign * hb[:, None]  # views: writes reach x, fx
            at = np.zeros(B, dtype=np.int64)  # each cell's next move in its pass; moves: resting
            passes = np.ones(B, dtype=np.int64)
            improved = np.zeros(B, dtype=bool)  # in the current pass
            quiet = True
            while True:
                move = at[:, None] + window
                mi = move + floor_rows
                j = coord.take(move)
                xi = j + x_rows
                old = xw.take(xi)
                step = steps.take(mi)
                if span > 1:  # a window: levels x cells x moves, level l's step h * 0.5**l (exact)
                    step = step * 0.5 ** np.arange(span)[:, None, None]
                # np.clip's result, bit for bit on these NaN-free points, at about half its cost
                new = old + step
                np.maximum(new, floor.take(mi), out=new)
                np.minimum(new, top.take(move), out=new)
                flat = (new != old).reshape(-1).nonzero()[0]  # ([level,] cell, move), flat
                g = flat % (B * width) if span > 1 else flat  # (cell, move) of each
                cand = xw.take(g // width, axis=0)
                cand[np.arange(len(g)), j.reshape(-1).take(g)] = new.reshape(-1).take(flat)
                fc = np.full(new.shape, np.inf)
                fc.reshape(-1)[flat] = evaluate_many(problem.objective, cand)
                better = fc < fw[:, None]
                if span > 1:  # levels before the first that moves a cell are done
                    moving = np.flatnonzero(better.reshape(span, -1).any(axis=1))
                    skip = int(moving[0]) if moving.size else span - 1
                    hb *= 0.5**skip  # exact: a power of two
                    level += skip
                    if not moving.size:  # the block stays quiet through the last level
                        break
                    new, fc, better = new[skip], fc[skip], better[skip]  # that level's first round
                    steps = sign * hb[:, None]
                    span = 1
                first = better.argmax(axis=1)
                r = better.any(axis=1).nonzero()[0]
                at += width
                if r.size:
                    quiet = False
                    fr = first[r]
                    xw.reshape(-1)[xi[r, fr]] = new[r, fr]
                    fw[r] = fc[r, fr]
                    improved[r] = True
                    at[r] = move[r, fr] + 1
                again = (at >= moves) & improved & (passes < MAX_PASSES_PER_LEVEL)
                passes += again
                improved ^= again
                at = np.where(again, 0, np.minimum(at, moves))  # a resting cell waits at moves
                if at.min() == moves:  # every cell rests
                    break
            hb *= 0.5
            level += 1
    return x, fx


def reference_optimum(
    problem: Problem,
    samples_per_cell: int = DEFAULT_SAMPLES_PER_CELL,
    rng: np.random.Generator | None = None,
    cap: int = DEFAULT_PATH_CAP,
) -> OracleReport:
    """Dense search of the whole feasible region, cell by cell.

    Enumerates every path of the problem's candidate sets
    (``problem.sets``, within ``cap``), lists the distinct lower corners
    of the cells they span, capped at ``xbar`` as the engine's are
    (:func:`~freaco.engine.cell_points`), in lexicographic order (one ``np.lexsort`` of
    the corners and a comparison of adjacent rows: the rows of
    ``np.unique(..., axis=0)``), draws ``samples_per_cell`` uniform
    points per cell (plus both corners), cell after cell in blocks of
    whole cells (a cell larger than ``SAMPLE_BLOCK`` coordinates in
    pieces, each led by the cell's best so far), and refines each cell's
    best sample by the clamped coordinate pattern search of
    :func:`_pattern_search` over ``REFINE_STEPS`` step halvings, in
    whole-pass rounds of one batched evaluation each.
    When a round faults, the search reruns with one move per round, which
    evaluates exactly the points of a move-by-move search in its order: it
    returns that search's result or raises its :class:`EvalDomainError`,
    with the same ``reason`` and ``point``.  A cell's best sample is
    the first minimum over its lower corner, ``xbar``, then its samples in
    order, so the block size changes neither the draws nor the result.  The
    returned best is the minimum over cells; on exact ties the cell with
    the lexicographically smallest lower corner wins.

    ``samples_per_cell`` and ``cap`` accept Python and numpy integers;
    a non-integer, ``samples_per_cell < 0`` or ``cap < 1`` raises
    :class:`ValueError` naming the argument, before enumerating anything,
    and an ``rng`` that is not a :class:`numpy.random.Generator` (or
    ``None``, for ``default_rng(0)``) raises :class:`TypeError`.
    """
    samples_per_cell = whole("samples_per_cell", samples_per_cell, 0)
    rng = _generator(rng, 0)
    inst, xbar = problem.instance, problem.xbar
    paths = enumerate_paths(problem.sets, cap)
    corners = np.zeros((len(paths), inst.n))
    _capped_corners(corners, paths, inst.b, xbar)  # the paths come from the candidate sets
    corners = corners[np.lexsort(corners.T[::-1])]  # rows in lexicographic order
    first = np.ones(len(corners), dtype=bool)  # of its run of equal rows
    np.any(corners[1:] != corners[:-1], axis=1, out=first[1:])
    lows = corners[first]
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

    try:
        best_x, best_f = _pattern_search(problem, lows, best_x, best_f)
    except EvalDomainError:  # maybe a move the move-by-move search never makes
        best_x, best_f = _pattern_search(problem, lows, best_x, best_f, ahead=1)
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
    with the planted point.  ``rng`` is a :class:`numpy.random.Generator`
    or ``None`` (a fresh unseeded one); anything else raises
    :class:`TypeError`.
    """
    m, n, density = whole("m", m, 1), whole("n", n, 1), real("density", density)
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = _generator(rng, None)
    planted = rng.random(n)
    A = rng.random((m, n))
    if density < 1.0:
        A[rng.random((m, n)) >= density] = 0.0
    b = np.minimum(A, planted).max(axis=1)
    return Instance(A, b)
