"""Structure theory of max-min fuzzy relational equation systems.

An instance couples a coefficient matrix ``A`` (m x n, entries in [0, 1])
with a right-hand side ``b`` (length m, entries in [0, 1]).  A point
``x`` in [0, 1]^n solves the system when every row satisfies

    max_j min(a_ij, x_j) = b_i.

The solution set, when nonempty, has a single greatest element ``xbar``
and decomposes into finitely many axis-aligned boxes ("cells"), each
spanned by ``xbar`` above and by one candidate lower corner below.  The
lower corners are indexed by paths: per-row choices of one column from
that row's candidate set.  Everything in this module is deterministic
and pure; instances and cells are immutable after construction.

All row/column indices are 0-based throughout the library.  The
command-line layer converts to 1-based indices for display so that
columns line up with the objective-language variables ``x1..xn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidPathError,
)

#: Tolerance for every equality test against b (feasibility, candidate
#: membership, cell containment).  Instance data carries at most four
#: decimal digits, so this sits far below data resolution.
EPS_EQ = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Instance:
    """A max-min relational constraint system ``A phi x = b``."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or A.size == 0:
            raise InvalidInstanceError("A must be a non-empty 2-D matrix")
        if b.ndim != 1 or b.size == 0:
            raise InvalidInstanceError("b must be a non-empty vector")
        if A.shape[0] != b.shape[0]:
            raise InvalidInstanceError(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        if not np.isfinite(A).all() or not np.isfinite(b).all():
            raise InvalidInstanceError("A and b must be finite")
        if A.min() < 0.0 or A.max() > 1.0:
            raise InvalidInstanceError("entries of A must lie in [0, 1]")
        if b.min() < 0.0 or b.max() > 1.0:
            raise InvalidInstanceError("entries of b must lie in [0, 1]")
        object.__setattr__(self, "A", _readonly(A.copy()))
        object.__setattr__(self, "b", _readonly(b.copy()))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class Cell:
    """Closed box ``[lower, upper]`` inside [0, 1]^n.

    Every point of a cell produced by :func:`cell_of` solves the instance
    it came from.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise InvalidInstanceError("cell bounds must be matching vectors")
        if np.any(lower > upper):
            raise InvalidInstanceError("cell lower bound exceeds upper bound")
        object.__setattr__(self, "lower", _readonly(lower.copy()))
        object.__setattr__(self, "upper", _readonly(upper.copy()))

    def contains(self, x, eps: float = EPS_EQ) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.lower - eps) and np.all(x <= self.upper + eps)
        )


def max_min_compose(inst: Instance, x) -> np.ndarray:
    """Row-wise ``max_j min(a_ij, x_j)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise DimensionMismatchError("x", inst.n, x.shape[0] if x.ndim == 1 else -1)
    return np.minimum(inst.A, x).max(axis=1)


def compose_many(inst: Instance, X) -> np.ndarray:
    """Vectorized :func:`max_min_compose` over rows of ``X`` (N x n -> N x m)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != inst.n:
        raise DimensionMismatchError("X columns", inst.n, X.shape[-1])
    # (N, 1, n) vs (m, n) -> (N, m, n)
    return np.minimum(X[:, None, :], inst.A).max(axis=2)


def residual(inst: Instance, x) -> float:
    """Sup-norm distance between ``A phi x`` and ``b``."""
    return float(np.abs(max_min_compose(inst, x) - inst.b).max())


def compute_max_solution(inst: Instance) -> np.ndarray:
    """Greatest candidate solution ``xbar``.

    Component j is the least b_i over rows with a_ij > b_i, or 1 when no
    row exceeds b there.  If the system is solvable at all, this point
    solves it and dominates every other solution.
    """
    capped = np.where(inst.A > inst.b[:, None], inst.b[:, None], np.inf)
    return np.minimum(capped.min(axis=0), 1.0)


def violated_rows(inst: Instance, x, eps: float = EPS_EQ) -> np.ndarray:
    """0-based rows where ``A phi x`` misses ``b`` by more than ``eps``."""
    gap = np.abs(max_min_compose(inst, x) - inst.b)
    return np.flatnonzero(gap > eps)


def is_feasible(inst: Instance, eps: float = EPS_EQ) -> bool:
    """True iff the system is solvable: ``xbar`` must solve it."""
    return residual(inst, compute_max_solution(inst)) <= eps


def compute_candidate_sets(
    inst: Instance, xbar: np.ndarray | None = None, eps: float = EPS_EQ
) -> list[np.ndarray]:
    """Per-row candidate columns: ``{j : min(a_ij, xbar_j) = b_i}``.

    Raises :class:`InfeasibleInstanceError` when some row has no
    candidate, which happens exactly when the system is unsolvable.
    """
    if xbar is None:
        xbar = compute_max_solution(inst)
    hits = np.abs(np.minimum(inst.A, xbar) - inst.b[:, None]) <= eps
    sets = [np.flatnonzero(hits[i]) for i in range(inst.m)]
    empty = [i for i, s in enumerate(sets) if s.size == 0]
    if empty:
        raise InfeasibleInstanceError(xbar, np.asarray(empty))
    return sets


def candidate_matrix(sets: list[np.ndarray], b, n: int | None = None) -> np.ndarray:
    """Matrix with b_i on row i's candidate columns and 0 elsewhere.

    ``n`` defaults to the highest candidate column plus one; pass the
    instance's column count when trailing columns may be candidate-free.
    """
    b = np.asarray(b, dtype=float)
    if n is None:
        n = int(max(s.max() for s in sets)) + 1
    M = np.zeros((len(sets), n))
    for i, cols in enumerate(sets):
        M[i, cols] = b[i]
    return M


def path_space_size(sets: list[np.ndarray]) -> int:
    """Number of paths, ``prod_i |candidate set of row i|`` (exact integer)."""
    return math.prod(int(s.size) for s in sets)


def path_to_candidate(path, b, n: int) -> np.ndarray:
    """Lower corner generated by a path.

    Component j is the largest b_i among rows whose path choice is column
    j, or 0 when no row chose j.
    """
    path = np.asarray(path, dtype=np.int64)
    b = np.asarray(b, dtype=float)
    if path.shape != b.shape:
        raise DimensionMismatchError("path", b.shape[0], path.shape[0])
    if path.size and (path.min() < 0 or path.max() >= n):
        raise InvalidPathError(
            f"path indices must lie in [0, {n}), got {path.tolist()}"
        )
    lower = np.zeros(n)
    np.maximum.at(lower, path, b)
    return lower


def cell_of(path, inst: Instance, xbar: np.ndarray) -> Cell:
    """The cell spanned by a path's lower corner and ``xbar``.

    For any valid path the corner sits below ``xbar``; a violation beyond
    EPS_EQ means the path was not drawn from this instance's candidate
    sets, and raises :class:`InvalidPathError`.
    """
    lower = path_to_candidate(path, inst.b, inst.n)
    if np.any(lower > xbar + EPS_EQ):
        raise InvalidPathError(
            f"path {np.asarray(path).tolist()} has a lower corner above xbar"
        )
    return Cell(np.minimum(lower, xbar), xbar)


def clamp_to_cell(x, cell: Cell) -> np.ndarray:
    """Componentwise projection of ``x`` onto the cell's box."""
    x = np.asarray(x, dtype=float)
    return np.minimum(np.maximum(x, cell.lower), cell.upper)
