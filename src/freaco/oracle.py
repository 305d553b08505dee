"""Brute-force verification machinery, independent of the solver.

Exhaustively enumerates paths, searches every distinct cell by uniform
sampling plus coordinate pattern search, and generates random feasible
instances by planting a solution.  Intended for desk-scale cross-checks
of solver output, not for production optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=64)
def _search_tables(n: int, width: int, levels: int, refine: int) -> tuple:
    """The tables of :func:`_pattern_search` that depend only on the
    dimension ``n``, the own-level moves per window ``width``, the
    levels a window may reach and the step halvings ``refine``
    (``REFINE_STEPS`` at the call), built once per key and held read-only:

    * ``slot``, ``lof``, ``pos``: slot s of a window is the own level's
      move at + s (s < width), else move ``pos[s]`` of the first pass
      ``lof[s]`` levels on;
    * ``after``, ``base``: a mover's next move is ``after + base * at``;
    * ``move_coord``, ``move_sign``: move 2j is x_j - h, move 2j + 1 is
      x_j + h;
    * ``coord``, ``sign``: each slot's coordinate and sign, by
      ``at % moves``, for a window of one or two levels;
    * ``scale``: the exact steps of each level, powers of two, and none
      past the last level.
    """
    moves = 2 * n
    slot = np.arange(width + (levels - 1) * moves)
    lof, pos = slot // moves, slot % moves
    after, base = pos + 1, lof == 0
    move = np.arange(moves)
    move_coord, move_sign = move >> 1, np.where(move & 1, 1.0, -1.0)
    near = min(len(slot), 2 * moves)  # the slots of a window of one or two levels
    mv = (move[:, None] + slot[:near]) % moves  # each slot's move, by at % moves
    mv[:, width:] = pos[width:near]
    coord, sign = move_coord.take(mv), move_sign.take(mv)
    scale = np.zeros(2 * refine)
    scale[:refine] = 0.5 ** np.arange(refine)
    tables = (slot, lof, pos, after, base, move_coord, move_sign, coord, sign, scale)
    for table in tables:
        table.flags.writeable = False
    return tables


def _pattern_search(
    problem: Problem,
    lows: np.ndarray,
    start: np.ndarray,
    values: np.ndarray,
    ahead: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate pattern search inside each cell ``[lows, problem.xbar]`` (Hooke & Jeeves).

    Starts from ``start`` (one point per cell, inside it, objective
    ``values``), with an initial step of half the cell's largest edge.
    A pass tries the 2n moves x_j - h, x_j + h in order, each clamped to
    the cell, and keeps every move that lowers the value; passes repeat
    until one improves nothing (at most ``MAX_PASSES_PER_LEVEL``), then
    the step halves; ``REFINE_STEPS`` halvings total.  Iterates never
    leave their cell, so every visited point stays feasible.

    Cells are independent, so the search runs them in rounds, and each
    round takes every cell to its next improving move, wherever it lies:
    the cell's trajectory is the move-by-move search's, bit for bit.

    * **Windows.**  One :func:`evaluate_many` call evaluates each cell's
      window, all from its current point, and the cell keeps the
      window's first improving move.  After a move at q the moves still
      unknown are the rest of the pass and the next pass's moves up to
      q; the next pass's later moves repeat points already evaluated, so
      they can neither improve nor fault.  So the window runs from
      q + 1 through the next pass's move q, or, in the level's last
      pass, to the pass's end.  A cell counts its moves from its level's
      start: ``at`` is its next, ``end`` the first it does not try.  A
      window that keeps no move ends the cell's level.
    * **Per-cell levels.**  Each cell has its own level and step
      ``h * 0.5**level`` (exact: powers of two).  A cell done with a
      level starts the next one in the next round; a block ends once
      every cell is done with level ``REFINE_STEPS - 1``.
    * **Look-ahead.**  A window goes on with the first pass of the
      cell's next level, from the same point at half the step; when the
      own level's part keeps no move, that pass is the next level's
      first round.  After a round that moved no cell, every cell stands
      at a level's start, and the window holds the first pass of every
      level left; a cell keeps the first level where it improves.
    * **Search blocks.**  Cells run in blocks that hold at most
      ``SEARCH_BLOCK`` candidate coordinates (cells x moves x n) of one
      pass per cell; the further levels of a window use only what the
      block leaves.

    With ``ahead`` given, a window holds the next ``ahead`` moves of the
    cell's own level and nothing further, and the levels run in
    lockstep: a cell done with its level waits until the whole block
    is.  With ``ahead=1`` all cells run as one block, so every point of
    the move-by-move search that can fault is evaluated in that search's
    order; the only points skipped are repeats, which have already
    returned a finite value.  A move beyond the first improving one, or
    at a later level, may fault on a point the move-by-move search never
    visits; :func:`reference_optimum` then reruns the search with
    ``ahead=1``.
    """
    K, n = lows.shape
    moves = 2 * n  # move 2j is x_j - h, move 2j + 1 is x_j + h
    width = moves if ahead is None else min(ahead, moves)  # own-level moves per window
    levels = REFINE_STEPS if ahead is None else 1  # a window's levels, at most
    slot, lof, pos, after, base, move_coord, move_sign, coord, sign, scale = _search_tables(
        n, width, levels, REFINE_STEPS)
    h = np.maximum(0.5 * (problem.xbar - lows).max(axis=1), 1e-16)  # step; degenerate cells: no-op moves
    steps = h[:, None] * scale  # each cell's step at each level
    cap = MAX_PASSES_PER_LEVEL * moves  # a level's moves end with its last pass
    x, fx = start.copy(), values.copy()
    per = K if width == 1 else max(1, SEARCH_BLOCK // (width * n))  # cells per block
    for lo in range(0, K, per):
        B = min(per, K - lo)
        wide = min(levels, max(1, SEARCH_BLOCK // (B * moves * n)))  # levels a window may reach
        xw, fw, lw = x[lo : lo + B], fx[lo : lo + B], lows[lo : lo + B]  # views: writes reach x, fx
        sb = steps[lo : lo + B].reshape(-1)  # the block's steps, flat
        s_rows = np.arange(0, B * len(scale), len(scale))  # flat index of each row of sb
        x_rows = np.arange(0, B * n, n)[:, None]  # and of x
        level = np.zeros(B, dtype=np.int64)
        at = np.zeros(B, dtype=np.int64)  # each cell's next move, counted from its level's start
        end = np.full(B, moves)  # and the first it does not try
        span = min(wide, 2)  # levels a window reaches: its own and one look-ahead
        while True:
            W = width + (span - 1) * moves
            if span > 2:  # after a round without a move every cell stands at a level's start
                j, sg = np.broadcast_to(move_coord.take(pos[:W]), (B, W)), move_sign.take(pos[:W])
            else:
                ph = at % moves
                j, sg = coord[ph, :W], sign[ph, :W]
            xi = j + x_rows
            old = xw.take(xi)
            # a slot past the cell's end or last level has no step: its candidate is its point
            new = sg * sb.take((level + s_rows)[:, None] + lof[:W])  # the step
            if ahead is not None or cap - at.max() < moves:  # a window cut short by its end
                new[:, :width] *= slot[:width] < (end - at)[:, None]
            new += old
            # np.clip's result, bit for bit on these NaN-free points inside their cells
            np.maximum(new, lw.take(xi), out=new)
            np.minimum(new, problem.xbar.take(j), out=new)
            flat = (new != old).reshape(-1).nonzero()[0]  # (cell, slot), flat
            cand = xw.take(flat // W, axis=0)
            cand[np.arange(len(flat)), j.reshape(-1).take(flat)] = new.reshape(-1).take(flat)
            fc = np.full(new.shape, np.inf)
            fc.reshape(-1)[flat] = evaluate_many(problem.objective, cand)
            better = fc < fw[:, None]
            first = better.argmax(axis=1)
            moved = better.any(axis=1)
            r = moved.nonzero()[0]
            if r.size:
                fr = first[r]
                xw.reshape(-1)[xi[r, fr]] = new[r, fr]
                fw[r] = fc[r, fr]
            nxt = after.take(first) + base.take(first) * at  # a mover's next move
            if ahead is None:  # a cell without a move is done with every level its window reached
                level += np.where(moved, lof.take(first), span)
                np.minimum(level, REFINE_STEPS, out=level)  # done: past the last level
                at = nxt * moved
                end = np.minimum(at + moves, cap)
            else:
                at = np.where(moved, nxt, at + width)
                end = np.where(moved, np.minimum(nxt + moves, cap), end)
                if (at >= end).all():  # lockstep: the block is done with its level
                    level += 1
                    at[:] = 0
                    end[:] = moves
            low = level.min()
            if low == REFINE_STEPS:
                break
            span = min(wide, 2 if r.size else REFINE_STEPS - low)
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
    (:func:`~freaco.engine.run_many`), in lexicographic order (one ``np.lexsort`` of
    the corners and a comparison of adjacent rows: the rows of
    ``np.unique(..., axis=0)``), draws ``samples_per_cell`` uniform
    points per cell (plus both corners), cell after cell in blocks of
    whole cells (a cell larger than ``SAMPLE_BLOCK`` coordinates in
    pieces, each led by the cell's best so far), and refines each cell's
    best sample by the clamped coordinate pattern search of
    :func:`_pattern_search` over ``REFINE_STEPS`` step halvings, in
    rounds of one batched evaluation each that take every cell to its
    next improving move.  When a round faults, the search reruns with one
    move per round and the levels in lockstep.  That evaluates every point
    of a move-by-move search that can fault, in its order (the only points
    it skips are repeats, which have already returned a finite value): it
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
