"""Two-phase ant colony solver.

Each iteration couples a combinatorial phase with a continuous phase:

* Phase one picks one candidate column per matrix row with probabilities
  proportional to pheromone, which yields a path and hence a feasible box
  (cell) of the solution set.  All rows of a path are drawn at once, by
  inverse CDF over the candidates' cumulative probabilities, padded with
  zeros to the longest candidate set.
* Phase two keeps a ranked archive of feasible points as four arrays:
  points ``X`` (s_pop x n), values ``f``, cell lower corners ``LB``
  (s_pop x n) and paths ``E`` (s_pop x m), ascending in ``f``.  It
  refreshes the archive with one fresh uniform draw from the phase-one
  cell, then samples around archived points with per-coordinate
  Gaussians whose spread is the mean coordinate distance across the
  archive, clamping every draw back into the originating cell so
  feasibility never needs re-checking.  After each insertion round a
  stable argsort reorders the rows and truncates them to ``s_pop``.
* The archive then reinforces the pheromone of the paths its members
  came from (deposit ``Q * exp(-f)`` per member, followed by one
  multiplicative evaporation).  One ``np.add.at`` makes every deposit,
  adding member by member in rank order, as a loop over members would.

Reproducibility: a run owns a single ``numpy.random.default_rng(seed)``
(PCG64) and consumes it in a fixed order.  Iteration 1 draws
``random((s_pop, m))`` (one uniform per row of each path), then
``random((s_pop, n))`` (one point per cell).  Every later iteration
draws ``random((1, m))`` (one path) and ``random((1, n))`` (its cell
point), evaluates and ranks that point, and only then draws the Gaussian
samples, each as one uniform (rank selection) followed by ``n`` normal
variates via ``Generator.normal``.  A batch ``random(shape)`` yields the
same stream as that many single draws, so identical configurations give
bit-identical results, equal to those of a row-by-row loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expr import evaluate, evaluate_many
from .fre import compute_candidate_sets, compute_max_solution, path_to_candidate
from .problems import Problem

#: Exponent clamp for pheromone deposits; keeps exp() inside double range.
DEPOSIT_EXP_LIMIT = 700.0

#: Row sums of pheromone below this are reset to the initial uniform row.
ROW_SUM_FLOOR = 1e-12

@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters.  Defaults reproduce the benchmark protocol."""

    s_pop: int = 50  # archive size, also the number of first-iteration ants
    q: float = 0.0125  # locality of rank selection (small = greedy)
    xi: float = 1.0  # scales Gaussian spread; larger = slower convergence
    rho: float = 0.5  # pheromone evaporation rate, in [0, 1)
    big_q: float = 1.0  # pheromone deposit constant
    t_max: int = 100  # iteration budget
    seed: int = 0
    samples_per_iter: int = 2  # Gaussian samples per iteration after the first

    def __post_init__(self):
        if self.s_pop < 2:
            raise ValueError("s_pop must be >= 2")
        if self.q <= 0:
            raise ValueError("q must be positive")
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        if self.big_q <= 0:
            raise ValueError("big_q must be positive")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.samples_per_iter < 0:
            raise ValueError("samples_per_iter must be >= 0")


@dataclass(frozen=True)
class ArchiveSolution:
    """A feasible point plus the cell (lower bound and path) it came from."""

    x: np.ndarray
    lb: np.ndarray
    e: np.ndarray
    f: float

    def __post_init__(self):
        for name in ("x", "lb", "e"):
            arr = getattr(self, name)
            arr = np.asarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass
class PheromoneMatrix:
    """Nonnegative weights on candidate-matrix entries.

    ``support`` is the fixed candidate pattern; entries off the support
    stay exactly zero forever.
    """

    values: np.ndarray
    support: np.ndarray


@dataclass(frozen=True)
class RunResult:
    best: ArchiveSolution
    trace: np.ndarray  # best-so-far objective value after each iteration
    eval_count: int
    seed: int
    config: SolverConfig

    def __post_init__(self):
        trace = np.asarray(self.trace, dtype=float)
        trace.setflags(write=False)
        object.__setattr__(self, "trace", trace)


class Archive(NamedTuple):
    """Archive rows, ascending in ``f``: points, values, lower corners, paths."""

    X: np.ndarray
    f: np.ndarray
    LB: np.ndarray
    E: np.ndarray


def init_pheromone(sets: list[np.ndarray], n: int) -> PheromoneMatrix:
    """Unit pheromone on every candidate entry, zero elsewhere."""
    support = np.zeros((len(sets), n), dtype=bool)
    for i, cols in enumerate(sets):
        support[i, cols] = True
    return PheromoneMatrix(values=support.astype(float), support=support)


def probability_matrix(tau: PheromoneMatrix) -> np.ndarray:
    """Row-normalized pheromone: each row sums to 1 over its candidates."""
    return tau.values / tau.values.sum(axis=1, keepdims=True)


def candidate_table(sets: list[np.ndarray]) -> np.ndarray:
    """Candidate columns per row, padded with -1 to the longest set (m x kmax)."""
    table = np.full((len(sets), max(len(cols) for cols in sets)), -1, dtype=np.int64)
    for i, cols in enumerate(sets):
        table[i, : len(cols)] = cols
    return table


def construct_paths(
    tau: PheromoneMatrix, table: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``k`` paths (k x m), one categorical column choice per row.

    Row i picks its ``c``-th candidate, where ``c`` counts the cumulative
    probabilities at or below ``u * total`` for a uniform ``u``, capped
    at the last candidate: ``searchsorted(side="right")`` and a clamp.
    The cumulative matrix is padded with zeros, which leaves each row's
    partial sums exact and puts its total in the last column.
    """
    rows = np.arange(len(table))
    p = tau.values[rows[:, None], table] / tau.values.sum(axis=1)[:, None]
    cum = np.where(table >= 0, p, 0.0).cumsum(axis=1)
    # Never counting a row's last partial sum (or its padding) is the clamp.
    inner = np.where(table[:, 1:] >= 0, cum[:, :-1], np.inf)
    target = rng.random((k, len(table))) * cum[:, -1]
    picks = np.empty((k, len(table)), dtype=np.int64)
    for r in range(k):  # one path at a time keeps temporaries at m x kmax
        picks[r] = (inner <= target[r, :, None]).sum(axis=1)
    return table[rows, picks]


def cell_points(E: np.ndarray, b: np.ndarray, xbar: np.ndarray, rng: np.random.Generator):
    """One uniform point per path from the path's cell, and the cell's lower corner."""
    LB = path_to_candidate(E, b, len(xbar))
    return LB + rng.random(LB.shape) * (xbar - LB), LB


def weights(s_pop: int, q: float) -> np.ndarray:
    """Rank weights: Gaussian in the rank with mean 1 and spread q*s_pop."""
    ranks = np.arange(1, s_pop + 1, dtype=float)
    scale = q * s_pop
    return np.exp(-0.5 * ((ranks - 1.0) / scale) ** 2) / (math.sqrt(2 * math.pi) * scale)


def select_rank(cw: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw over ranks given cumulative weights; 0-based index."""
    return min(int(cw.searchsorted(rng.random() * cw[-1], side="right")), len(cw) - 1)


def sigma_vector(X: np.ndarray, rank: int, xi: float) -> np.ndarray:
    """Per-coordinate Gaussian spread around archive point ``X[rank]``.

    Coordinate j gets xi times the mean |X_kj - X_rank,j| over the other
    archive points.
    """
    return xi * np.abs(X - X[rank]).sum(axis=0) / (len(X) - 1)


def gaussian_samples(
    archive: Archive, cw: np.ndarray, k: int, xi: float, xbar: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``k`` Gaussian draws around rank-selected archive points (k x n), and their ranks.

    Each draw picks a rank with :func:`select_rank`, then one normal
    variate per coordinate around that point with spread
    :func:`sigma_vector`.  Clamping into ``[LB[rank], xbar]`` keeps the
    draw in the selected point's cell, so it stays feasible by
    construction.  A zero spread returns the point itself.
    """
    X = archive.X
    ranks = np.empty(k, dtype=np.int64)
    Xs = np.empty((k, X.shape[1]))
    for s in range(k):
        ranks[s] = r = select_rank(cw, rng)
        Xs[s] = rng.normal(loc=X[r], scale=sigma_vector(X, r, xi))
    return np.minimum(np.maximum(Xs, archive.LB[ranks]), xbar), ranks


def update_pheromone(
    tau: PheromoneMatrix, f: np.ndarray, E: np.ndarray, big_q: float, rho: float
):
    """Deposit ``big_q * exp(-f_r)`` on every entry of path ``E[r]``, then evaporate.

    The deposits are added member by member in the order given.  The
    exponent is clamped to +-700 so extreme objective values degrade to
    zero (or the double ceiling) instead of overflowing.  Rows whose sum
    underflows below ROW_SUM_FLOOR (possible when every deposit is
    ~exp(-700) and evaporation keeps halving) are reset to the initial
    uniform row so the selection probabilities stay well defined.
    """
    exponents = (-f.clip(-DEPOSIT_EXP_LIMIT, DEPOSIT_EXP_LIMIT)).tolist()
    amounts = big_q * np.fromiter(map(math.exp, exponents), float, len(exponents))
    np.add.at(tau.values, (np.arange(tau.values.shape[0]), E), amounts[:, None])
    tau.values *= 1.0 - rho
    dead = tau.values.sum(axis=1) < ROW_SUM_FLOOR
    if dead.any():
        tau.values[dead] = tau.support[dead].astype(float)


def ranked(archive: Archive, s_pop: int) -> Archive:
    """The ``s_pop`` rows lowest in ``f``, ascending; on ties earlier rows first."""
    keep = np.argsort(archive.f, kind="stable")[:s_pop]
    return Archive(*(a[keep] for a in archive))


def keep_best(archive: Archive, new: Archive, s_pop: int) -> Archive:
    """:func:`ranked` of the ranked ``archive`` followed by ``new``.

    New rows no better than a full archive's worst would rank after all
    of it, so then the archive comes back as it is.
    """
    if len(archive.f) == s_pop and not (new.f < archive.f[-1]).any():
        return archive
    return ranked(Archive(*map(np.concatenate, zip(archive, new))), s_pop)


def _views(archive: Archive) -> tuple[ArchiveSolution, ...]:
    return tuple(ArchiveSolution(x, lb, e, float(v)) for x, v, lb, e in zip(*archive))


def run(problem: Problem, config: SolverConfig, observer=None) -> RunResult:
    """Solve ``problem`` under ``config``; deterministic given the seed.

    Iteration 1 builds ``s_pop`` paths, fills the archive with one
    uniform draw per cell and updates the pheromone from that archive
    directly.  Every later iteration builds one path, refreshes the
    archive with one uniform draw from its cell, performs
    ``samples_per_iter`` Gaussian samples against the archive as it
    stood after that refresh, and updates the pheromone; each insertion
    round keeps the ``s_pop`` best, so the best value never regresses.

    ``observer(t, archive, tau)``, when given, is called after each
    iteration with the archive as a tuple of read-only
    :class:`ArchiveSolution` views, best first.

    Raises :class:`InfeasibleInstanceError` (carrying the maximum point
    and the violated rows) when the constraint system has no solution.
    """
    inst, objective, s_pop = problem.instance, problem.objective, config.s_pop
    rng = np.random.default_rng(config.seed)
    xbar = compute_max_solution(inst)
    sets = compute_candidate_sets(inst, xbar)  # raises when infeasible
    table = candidate_table(sets)
    tau = init_pheromone(sets, inst.n)
    cw = np.cumsum(weights(s_pop, config.q))
    trace = np.empty(config.t_max)

    E = construct_paths(tau, table, s_pop, rng)
    X, LB = cell_points(E, inst.b, xbar, rng)
    archive = ranked(Archive(X, evaluate_many(objective, X), LB, E), s_pop)
    evals = s_pop
    for t in range(1, config.t_max + 1):
        if t > 1:
            e = construct_paths(tau, table, 1, rng)
            x, lb = cell_points(e, inst.b, xbar, rng)
            f = np.array([evaluate(objective, x[0])])
            archive = keep_best(archive, Archive(x, f, lb, e), s_pop)  # before sampling
            Xs, ranks = gaussian_samples(archive, cw, config.samples_per_iter, config.xi, xbar, rng)
            samples = Archive(Xs, evaluate_many(objective, Xs), archive.LB[ranks], archive.E[ranks])
            archive = keep_best(archive, samples, s_pop)
            evals += 1 + len(ranks)
        update_pheromone(tau, archive.f, archive.E, config.big_q, config.rho)
        trace[t - 1] = archive.f[0]
        if observer is not None:
            observer(t, _views(archive), tau)

    best = ArchiveSolution(archive.X[0], archive.LB[0], archive.E[0], float(archive.f[0]))
    return RunResult(best=best, trace=trace, eval_count=evals, seed=config.seed, config=config)
