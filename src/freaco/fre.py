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
    real_entries,
    whole,
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


def _unit_entries(key: str, value) -> np.ndarray:
    """``value`` as a new float array of finite reals in [0, 1], with no
    signed zero: the rule for the entries of an :class:`Instance`'s ``A``
    and ``b`` and of the ``b`` that :func:`path_to_candidate` takes.
    Anything else raises :class:`InvalidInstanceError`; so does a string,
    boolean or complex entry, which numpy would read as real
    (:func:`~freaco.errors.real_entries`)."""
    real_entries(key, value, InvalidInstanceError)
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # non-numeric, ragged or huge integer
        raise InvalidInstanceError(f"A and b must be arrays of numbers ({exc})") from None
    if not np.isfinite(array).all():
        raise InvalidInstanceError("A and b must be finite")
    if array.size and (array.min() < 0.0 or array.max() > 1.0):
        raise InvalidInstanceError(f"entries of {key} must lie in [0, 1]")
    return np.add(array, 0.0, order="C")  # a C-ordered copy, in which -0.0 + 0.0 is 0.0


@dataclass(frozen=True, eq=False)
class Instance(Record):
    """A max-min relational constraint system ``A phi x = b``, its entries real numbers in [0, 1].
    Any other entry, also a string, boolean or complex one, raises :class:`InvalidInstanceError`."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A, b = _unit_entries("A", self.A), _unit_entries("b", self.b)
        if A.ndim != 2 or A.size == 0:
            raise InvalidInstanceError("A must be a non-empty 2-D matrix")
        if b.ndim != 1 or b.size == 0:
            raise InvalidInstanceError("b must be a non-empty vector")
        if A.shape[0] != b.shape[0]:
            raise InvalidInstanceError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
        self.__setstate__({"A": A, "b": b})

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def compose_many(inst: Instance, X) -> np.ndarray:
    """Row-wise ``max_j min(a_ij, x_j)`` for every point ``x`` in the rows
    of ``X`` (N x n -> N x m).  A string, boolean or complex coordinate,
    which numpy would read as real, raises :class:`ValueError` naming ``X``."""
    real_entries("X", X)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != inst.n:
        raise DimensionMismatchError("X columns", inst.n, X.shape[1] if X.ndim == 2 else -1)
    # (N, 1, n) vs (m, n) -> (N, m, n)
    return np.minimum(X[:, None, :], inst.A).max(axis=2)


def residual(inst: Instance, x) -> float:
    """Sup-norm distance between ``A phi x`` and ``b`` for one point ``x``.

    ``x``'s coordinates follow the rule of :func:`~freaco.expr.evaluate`:
    a string, boolean or complex one raises :class:`ValueError` naming
    ``x``, and a point of another length :class:`DimensionMismatchError`."""
    real_entries("x", x)
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


def _max_scatter(
    lower: np.ndarray, paths: np.ndarray, b: np.ndarray, at: np.ndarray | None = None,
) -> None:
    """Raise ``lower[r, paths[r, i]]`` to at least ``b[i]`` for every path r
    and row i, in place: ``lower`` k x n, integer ``paths`` k x m inside
    ``[0, n)``.  Paths may also come in any ... x m shape of k paths,
    with ``at`` (... x 1) the row of ``lower`` each one raises;
    ``at`` defaults to ``arange(k)[:, None]``.  Unchecked:
    :func:`path_to_candidate` checks library input, the engine's paths
    come from its candidate table and the oracle's from the candidate
    sets.  ``max`` is exact and order-free, so any number of rows may
    share a column."""
    np.maximum.at(lower, (np.arange(len(paths))[:, None] if at is None else at, paths), b)


def _capped_corners(
    lower: np.ndarray, paths: np.ndarray, b: np.ndarray, xbar: np.ndarray, at: np.ndarray | None = None,
) -> None:
    """The lower corners of the engine's and the oracle's cells, in place:
    :func:`_max_scatter`, then every corner capped at ``xbar``.  A candidate
    that entered its set within ``EPS_EQ`` of a ``b_i`` above ``xbar_j``
    raises its corner above ``xbar`` by as much; capped, every cell is a
    box ``[corner, xbar]``.  Unchecked, as :func:`_max_scatter` is."""
    _max_scatter(lower, paths, b, at)
    np.minimum(lower, xbar, out=lower)


def path_to_candidate(paths, b, n: int) -> np.ndarray:
    """Lower corner of one path's cell (m -> n), or of every path in a batch (k x m -> k x n).

    Component j is the largest b_i among rows whose path choice is column
    j, or 0 when no row chose j.  The cell itself is the box from this
    corner up to ``xbar``.  The corner is the raw one, not capped at
    ``xbar``: a candidate that entered its set within ``EPS_EQ`` of a
    ``b_i`` above ``xbar_j`` gives a corner above ``xbar`` by as much,
    where the engine's and the oracle's cells cap it (``freaco
    enumerate`` lists the raw corners too).  Every check lives here, at the public
    boundary: paths must be integer arrays (a float or bool path raises
    :class:`InvalidPathError` rather than being truncated) with columns
    in ``[0, n)``, ``b`` must be a vector as long as a path (anything else
    raises :class:`DimensionMismatchError`) whose entries follow the rule of
    an :class:`Instance`'s ``b`` (else :class:`InvalidInstanceError`), and
    an ``n`` that is not an integer >= 1 raises :class:`ValueError`.  The
    engine, whose paths come from the candidate table, and the oracle,
    whose paths come from :func:`~freaco.oracle.enumerate_paths`, share
    the unchecked kernel behind it.
    """
    n = whole("n", n, 1)
    paths = np.asarray(paths)
    if paths.dtype.kind not in "iu":
        raise InvalidPathError(f"path indices must be integers, got dtype {paths.dtype}")
    paths = paths.astype(np.int64, copy=False)
    b = _unit_entries("b", b)
    rows = paths.shape[-1] if paths.ndim in (1, 2) else -1  # -1: neither a path nor a batch
    if b.ndim != 1:  # a column b would give each path one entry for all its rows
        raise DimensionMismatchError("b", rows, -1)
    if rows != b.shape[0]:
        raise DimensionMismatchError("path", b.shape[0], rows)
    E = paths if paths.ndim == 2 else paths[None, :]
    # checked before indexing, where a negative index would wrap silently
    if E.size and (E.min() < 0 or E.max() >= n):
        bad = E[((E < 0) | (E >= n)).any(axis=1)][0]
        raise InvalidPathError(f"path indices must lie in [0, {n}), got {bad.tolist()}")
    lower = np.zeros((len(E), n))
    _max_scatter(lower, E, b)
    return lower if paths.ndim == 2 else lower[0]
