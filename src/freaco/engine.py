"""Two-phase ant colony solver.

Each iteration couples a combinatorial phase with a continuous phase:

* Phase one walks the candidate matrix row by row, picking one candidate
  column per row with probabilities proportional to pheromone, which
  yields a path and hence a feasible box (cell) of the solution set.
* Phase two keeps a ranked archive of feasible points.  It refreshes the
  archive with one fresh uniform draw from the phase-one cell, then
  samples around archived points with per-coordinate Gaussians whose
  spread is the mean coordinate distance across the archive, clamping
  every draw back into the originating cell so feasibility never needs
  re-checking.
* The archive then reinforces the pheromone of the paths its members
  came from (deposit ``Q * exp(-f)`` per member, followed by one
  multiplicative evaporation), steering phase one toward cells that
  contained good points.

Reproducibility: a run owns a single ``numpy.random.default_rng(seed)``
(PCG64) and consumes it in a fixed order - iteration 1 draws one uniform
per matrix row for each of the ``s_pop`` paths, then ``n`` uniforms per
initial archive entry; every later iteration draws one uniform per row
(one path), ``n`` uniforms (cell refresh), then per Gaussian sample one
uniform (rank selection) and ``n`` normal variates via
``Generator.normal``.  Identical configurations therefore produce
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleInstanceError
from .expr import evaluate
from .fre import (
    EPS_EQ,
    Instance,
    compute_candidate_sets,
    compute_max_solution,
    path_to_candidate,
    violated_rows,
)
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


def init_pheromone(sets: list[np.ndarray], n: int) -> PheromoneMatrix:
    """Unit pheromone on every candidate entry, zero elsewhere."""
    support = np.zeros((len(sets), n), dtype=bool)
    for i, cols in enumerate(sets):
        support[i, cols] = True
    return PheromoneMatrix(values=support.astype(float), support=support)


def probability_matrix(tau: PheromoneMatrix) -> np.ndarray:
    """Row-normalized pheromone: each row sums to 1 over its candidates."""
    return tau.values / tau.values.sum(axis=1, keepdims=True)


def construct_paths(
    p: np.ndarray, sets: list[np.ndarray], m1: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Draw ``m1`` paths, one categorical column choice per row per path."""
    m = len(sets)
    cums = [np.cumsum(p[i, cols]) for i, cols in enumerate(sets)]
    paths = []
    for _ in range(m1):
        e = np.empty(m, dtype=np.int64)
        for i in range(m):
            c = cums[i]
            k = int(np.searchsorted(c, rng.random() * c[-1], side="right"))
            e[i] = sets[i][min(k, len(c) - 1)]
        paths.append(e)
    return paths


def _fresh_solution(
    e: np.ndarray,
    inst: Instance,
    xbar: np.ndarray,
    objective,
    rng: np.random.Generator,
) -> ArchiveSolution:
    """Uniform draw from the cell of ``e``, evaluated once."""
    lb = path_to_candidate(e, inst.b, inst.n)
    x = lb + rng.random(inst.n) * (xbar - lb)
    return ArchiveSolution(x=x, lb=lb, e=e, f=objective(x))


def init_archive(
    paths: list[np.ndarray],
    inst: Instance,
    xbar: np.ndarray,
    objective,
    rng: np.random.Generator,
) -> list[ArchiveSolution]:
    """One uniform cell sample per path, sorted ascending by value.

    The sort is stable, so on exact ties earlier draws keep lower rank.
    """
    entries = [_fresh_solution(e, inst, xbar, objective, rng) for e in paths]
    entries.sort(key=lambda s: s.f)
    return entries


def weights(s_pop: int, q: float) -> np.ndarray:
    """Rank weights: Gaussian in the rank with mean 1 and spread q*s_pop."""
    ranks = np.arange(1, s_pop + 1, dtype=float)
    scale = q * s_pop
    return np.exp(-0.5 * ((ranks - 1.0) / scale) ** 2) / (math.sqrt(2 * math.pi) * scale)


def select_rank(w: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw over ranks; returns a 0-based archive index."""
    c = np.cumsum(w)
    k = int(np.searchsorted(c, rng.random() * c[-1], side="right"))
    return min(k, len(w) - 1)


def sigma_vector(archive: list[ArchiveSolution], rank: int, xi: float) -> np.ndarray:
    """Per-coordinate Gaussian spread around the rank-th archive point.

    Coordinate j gets xi times the mean |x_kj - x_rank,j| over the other
    archive members.
    """
    X = np.array([s.x for s in archive])
    return xi * np.abs(X - X[rank]).sum(axis=0) / (len(archive) - 1)


def sample_solution(
    archive: list[ArchiveSolution],
    rank: int,
    xi: float,
    xbar: np.ndarray,
    objective,
    rng: np.random.Generator,
) -> ArchiveSolution:
    """Gaussian draw around an archive point, clamped into its cell.

    The new solution inherits the selected entry's lower bound and path,
    so it stays feasible by construction.  A zero spread returns the
    coordinate mean exactly.
    """
    sel = archive[rank]
    x = rng.normal(loc=sel.x, scale=sigma_vector(archive, rank, xi))
    x = np.minimum(np.maximum(x, sel.lb), xbar)
    return ArchiveSolution(x=x, lb=sel.lb, e=sel.e, f=objective(x))


def deposit(tau: PheromoneMatrix, sol: ArchiveSolution, big_q: float):
    """Reinforce the solution's path entries by ``big_q * exp(-f)``.

    The exponent is clamped to +-700 so extreme objective values degrade
    to zero (or the double ceiling) instead of overflowing.
    """
    amount = big_q * math.exp(-min(max(sol.f, -DEPOSIT_EXP_LIMIT), DEPOSIT_EXP_LIMIT))
    tau.values[np.arange(tau.values.shape[0]), sol.e] += amount


def evaporate(tau: PheromoneMatrix, rho: float):
    tau.values *= 1.0 - rho


def update_pheromone(
    tau: PheromoneMatrix, archive: list[ArchiveSolution], big_q: float, rho: float
):
    """One deposit per archive member, then one evaporation.

    Rows whose sum underflows below ROW_SUM_FLOOR (possible when every
    deposit is ~exp(-700) and evaporation keeps halving) are reset to the
    initial uniform row so the selection probabilities stay well defined.
    """
    for sol in archive:
        deposit(tau, sol, big_q)
    evaporate(tau, rho)
    dead = tau.values.sum(axis=1) < ROW_SUM_FLOOR
    if dead.any():
        tau.values[dead] = tau.support[dead].astype(float)


def run(problem: Problem, config: SolverConfig, observer=None) -> RunResult:
    """Solve ``problem`` under ``config``; deterministic given the seed.

    Iteration 1 builds ``s_pop`` paths, fills the archive with one
    uniform draw per cell and updates the pheromone from that archive
    directly.  Every later iteration builds one path, refreshes the
    archive with one uniform draw from its cell, performs
    ``samples_per_iter`` Gaussian samples against the archive as it
    stood at the start of the round, and updates the pheromone; after
    each insertion round the archive is re-sorted and truncated back to
    the ``s_pop`` best, so the best value can never regress.

    ``observer(t, archive, tau)``, when given, is called read-only after
    each iteration.

    Raises :class:`InfeasibleInstanceError` (carrying the maximum point
    and the violated rows) when the constraint system has no solution.
    """
    inst = problem.instance
    rng = np.random.default_rng(config.seed)
    xbar = compute_max_solution(inst)
    bad = violated_rows(inst, xbar, EPS_EQ)
    if bad.size:
        raise InfeasibleInstanceError(xbar, bad)
    sets = compute_candidate_sets(inst, xbar)

    evals = 0

    def objective(x) -> float:
        nonlocal evals
        evals += 1
        return evaluate(problem.objective, x)

    tau = init_pheromone(sets, inst.n)
    trace = np.empty(config.t_max)

    paths = construct_paths(probability_matrix(tau), sets, config.s_pop, rng)
    archive = init_archive(paths, inst, xbar, objective, rng)
    update_pheromone(tau, archive, config.big_q, config.rho)
    trace[0] = archive[0].f
    if observer is not None:
        observer(1, archive, tau)

    w = weights(config.s_pop, config.q)
    for t in range(2, config.t_max + 1):
        (e,) = construct_paths(probability_matrix(tau), sets, 1, rng)
        archive.append(_fresh_solution(e, inst, xbar, objective, rng))
        archive.sort(key=lambda s: s.f)
        del archive[config.s_pop :]

        if config.samples_per_iter > 0:
            pool = list(archive)  # selection pool frozen for the round
            fresh = [
                sample_solution(pool, select_rank(w, rng), config.xi, xbar, objective, rng)
                for _ in range(config.samples_per_iter)
            ]
            archive.extend(fresh)
            archive.sort(key=lambda s: s.f)
            del archive[config.s_pop :]

        update_pheromone(tau, archive, config.big_q, config.rho)
        trace[t - 1] = archive[0].f
        if observer is not None:
            observer(t, archive, tau)

    return RunResult(
        best=archive[0],
        trace=trace,
        eval_count=evals,
        seed=config.seed,
        config=config,
    )
