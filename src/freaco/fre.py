"""Structure theory of max-min fuzzy relational equation systems.

An instance couples a coefficient matrix ``A`` (m x n, entries in [0, 1])
with a right-hand side ``b`` (length m, entries in [0, 1]).  A point
``x`` in [0, 1]^n solves the system when every row satisfies

    max_j min(a_ij, x_j) = b_i.

The solution set, when nonempty, has a single greatest element ``xbar``
and decomposes into finitely many axis-aligned boxes ("cells"), each
spanned by ``xbar`` above and by one candidate lower corner below.  The
lower corners are indexed by paths: per-row choices of one column from
that row's candidate set (:func:`path_to_candidate`).  Everything in this
module is deterministic and pure; instances are immutable after
construction.

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


def _readonly_view(value):
    """``value`` with each ndarray, itself or an item of a tuple, as a read-only view."""
    if type(value) is tuple:
        return tuple(map(_readonly_view, value))
    if isinstance(value, np.ndarray):
        value = value.view()
        value.setflags(write=False)
    return value


class Record:
    """Base of the package's immutable results: ``@dataclass(frozen=True, eq=False)``
    subclasses, which compare and hash by identity.  Every ndarray field, also in a
    tuple field, is held as a read-only view, so the caller's array stays writeable
    and an unpickled record is read-only too."""

    def __post_init__(self):
        self.__setstate__(self.__dict__)

    def __setstate__(self, state):  # numpy unpickles arrays writeable
        self.__dict__.update({key: _readonly_view(value) for key, value in state.items()})


@dataclass(frozen=True, eq=False)
class Instance(Record):
    """A max-min relational constraint system ``A phi x = b``."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        try:
            A = np.asarray(self.A, dtype=float)
            b = np.asarray(self.b, dtype=float)
        except (TypeError, ValueError) as exc:  # a non-numeric entry or a ragged row
            raise InvalidInstanceError(f"A and b must be arrays of numbers ({exc})") from None
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
        self.__setstate__({"A": A.copy(), "b": b.copy()})

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def compose_many(inst: Instance, X) -> np.ndarray:
    """Row-wise ``max_j min(a_ij, x_j)`` for every point ``x`` in the rows
    of ``X`` (N x n -> N x m)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != inst.n:
        raise DimensionMismatchError("X columns", inst.n, X.shape[-1])
    # (N, 1, n) vs (m, n) -> (N, m, n)
    return np.minimum(X[:, None, :], inst.A).max(axis=2)


def residual(inst: Instance, x) -> float:
    """Sup-norm distance between ``A phi x`` and ``b`` for one point ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise DimensionMismatchError("x", inst.n, x.shape[0] if x.ndim == 1 else -1)
    return float(np.abs(compose_many(inst, x[None])[0] - inst.b).max())


def compute_max_solution(inst: Instance) -> np.ndarray:
    """Greatest candidate solution ``xbar``.

    Component j is the least b_i over rows with a_ij > b_i, or 1 when no
    row exceeds b there.  If the system is solvable at all, this point
    solves it and dominates every other solution.
    """
    capped = np.where(inst.A > inst.b[:, None], inst.b[:, None], np.inf)
    return np.minimum(capped.min(axis=0), 1.0)


def is_feasible(inst: Instance, eps: float = EPS_EQ) -> bool:
    """True iff the system is solvable: ``xbar`` must solve it."""
    return residual(inst, compute_max_solution(inst)) <= eps


def compute_candidate_sets(inst: Instance, xbar: np.ndarray | None = None) -> list[np.ndarray]:
    """Per-row candidate columns: ``{j : min(a_ij, xbar_j) = b_i}`` within ``EPS_EQ``.

    Raises :class:`InfeasibleInstanceError` when some row has no
    candidate, which happens exactly when the system is unsolvable.  A
    row has no candidate exactly when ``A phi xbar`` misses its ``b_i``
    by more than ``EPS_EQ``, so the error names the rows ``xbar`` violates.
    """
    if xbar is None:
        xbar = compute_max_solution(inst)
    gap = np.minimum(inst.A, xbar)
    gap -= inst.b[:, None]  # in place: one m x n temporary, not two
    hits = np.abs(gap, out=gap) <= EPS_EQ
    sets = [np.flatnonzero(hits[i]) for i in range(inst.m)]
    empty = [i for i, s in enumerate(sets) if s.size == 0]
    if empty:
        raise InfeasibleInstanceError(xbar, np.asarray(empty))
    return sets


def path_space_size(sets: list[np.ndarray]) -> int:
    """Number of paths, ``prod_i |candidate set of row i|`` (exact integer)."""
    return math.prod(int(s.size) for s in sets)


def path_to_candidate(paths, b, n: int) -> np.ndarray:
    """Lower corner of one path's cell (m -> n), or of every path in a batch (k x m -> k x n).

    Component j is the largest b_i among rows whose path choice is column
    j, or 0 when no row chose j.  The cell itself is the box from this
    corner up to ``xbar``.
    """
    paths = np.asarray(paths, dtype=np.int64)
    b = np.asarray(b, dtype=float)
    if paths.ndim not in (1, 2) or paths.shape[-1] != b.shape[0]:
        raise DimensionMismatchError("path", b.shape[0], paths.shape[-1] if paths.ndim else -1)
    E = paths if paths.ndim == 2 else paths[None, :]
    # checked before indexing, where a negative index would wrap silently
    if E.size and (E.min() < 0 or E.max() >= n):
        bad = E[((E < 0) | (E >= n)).any(axis=1)][0]
        raise InvalidPathError(f"path indices must lie in [0, {n}), got {bad.tolist()}")
    lower = np.zeros((len(E), n))
    np.maximum.at(lower, (np.arange(len(E))[:, None], E), b)
    return lower if paths.ndim == 2 else lower[0]
