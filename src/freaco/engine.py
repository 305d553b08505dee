"""Two-phase ant colony solver, run for one seed or for a batch of seeds in lockstep.

Each iteration couples a combinatorial phase with a continuous phase:

* Phase one picks one candidate column per matrix row with probabilities
  proportional to pheromone, which yields a path and hence a feasible box
  (cell) of the solution set.  All rows of a path are drawn at once, by
  inverse CDF over the candidates' cumulative probabilities, padded with
  zeros to the longest candidate set.
* Phase two keeps a ranked archive of feasible points as four arrays:
  points ``X``, values ``f``, cell lower corners ``LB`` and paths ``E``,
  ascending in ``f``.  It refreshes the archive with one fresh uniform
  draw from the phase-one cell, then samples around archived points with
  per-coordinate Gaussians whose spread is the mean coordinate distance
  across the archive, clamping every draw back into the originating cell
  so feasibility never needs re-checking.  After each insertion round a
  stable argsort reorders the rows and truncates them to ``s_pop``.
* The archive then reinforces the pheromone of the paths its members
  came from (deposit ``Q * exp(-f)`` per member, followed by one
  multiplicative evaporation).  One ``np.add.at`` makes every deposit,
  adding member by member in rank order, as a loop over members would.

Lockstep: :func:`run_many` advances R runs of one problem together.  Their
state is stacked on a leading run axis: pheromone R x m x n, archive
``X`` and ``LB`` R x s_pop x n, ``f`` R x s_pop and ``E`` R x s_pop x m.
Every step of an iteration works on all R runs at once, except the
random draws, which each run makes from its own Generator.
:func:`run` is :func:`run_many` with one seed.

Reproducibility: a run owns a single ``numpy.random.default_rng(seed)``
(PCG64) and consumes it in a fixed order that does not depend on the
other runs of its batch.  Iteration 1 draws ``s_pop * (m + n)``
uniforms: one per row of each of the ``s_pop`` paths, then one point per
cell (the stream of ``random((s_pop, m))`` followed by
``random((s_pop, n))``).  Every later iteration draws ``m + n`` uniforms
(one path and its cell point), then, per Gaussian sample, one uniform
(rank selection) followed by ``standard_normal(n)``, used as
``loc + scale * z``: exactly what ``Generator.normal(loc, scale)``
computes.  No draw depends on the archive, so an iteration makes all of
its draws before it evaluates, ranks and samples.  A batch
``random(shape)`` yields the same stream as that many single draws, so
identical configurations give bit-identical results, whatever batch a
seed runs in and equal to those of a row-by-row loop.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .expr import evaluate_many
from .fre import Record, path_to_candidate
from .problems import Problem

#: Exponent clamp for pheromone deposits; keeps exp() inside double range.
#: :func:`run_many` lowers the upper clamp where the configuration needs it.
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
        for name in ("s_pop", "t_max", "samples_per_iter", "seed"):
            try:  # numpy integers pass, stored as int so summaries stay JSON
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.s_pop < 2:
            raise ValueError("s_pop must be >= 2")
        for name, value in (("q", self.q), ("xi", self.xi), ("big_q", self.big_q)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if self.q * self.s_pop < sys.float_info.min:  # the rank weights' scale
            raise ValueError(f"q * s_pop must be >= {sys.float_info.min:g}")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.samples_per_iter < 0:
            raise ValueError("samples_per_iter must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class ArchiveSolution(Record):
    """A feasible point plus the cell (lower bound and path) it came from."""

    x: np.ndarray
    lb: np.ndarray
    e: np.ndarray
    f: float


@dataclass
class PheromoneMatrix:
    """Nonnegative weights on candidate-matrix entries.

    ``values`` is m x n for one run, or R x m x n stacked over runs.
    ``support`` (m x n) is the fixed candidate pattern; entries off the
    support stay exactly zero forever.
    """

    values: np.ndarray
    support: np.ndarray


@dataclass(frozen=True, eq=False)
class RunResult(Record):
    best: ArchiveSolution
    trace: np.ndarray  # best-so-far objective value after each iteration
    eval_count: int
    seed: int
    config: SolverConfig


class Archive(NamedTuple):
    """R runs' archive rows, each run's ascending in ``f``: points (R x s x n),
    values (R x s), lower corners (R x s x n) and paths (R x s x m)."""

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
    values: np.ndarray, sums: np.ndarray, table: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Paths (... x k x m) from uniforms ``u`` (... x k x m), one categorical
    column choice per row, under pheromone ``values`` (... x m x n) whose
    row sums are ``sums`` (... x m).

    Row i picks its ``c``-th candidate, where ``c`` counts the cumulative
    probabilities at or below ``u * total``, capped at the last candidate:
    ``searchsorted(side="right")`` and a clamp.  The cumulative matrix is
    padded with zeros, which leaves each row's partial sums exact and puts
    its total in the last column.
    """
    rows = np.arange(len(table))
    p = values[..., rows[:, None], table] / sums[..., None]
    cum = np.where(table >= 0, p, 0.0).cumsum(axis=-1)
    # Never counting a row's last partial sum (or its padding) is the clamp.
    inner = np.where(table[:, 1:] >= 0, cum[..., :-1], np.inf)
    target = u * cum[..., None, :, -1]
    picks = np.empty(u.shape, dtype=np.int64)
    for s in range(u.shape[-2]):  # one path per run at a time keeps temporaries small
        picks[..., s, :] = (inner <= target[..., s, :, None]).sum(axis=-1)
    return table[rows, picks]


def cell_points(E: np.ndarray, b: np.ndarray, xbar: np.ndarray, u: np.ndarray):
    """The point uniforms ``u`` place in each path's cell, and the cell's
    lower corner: paths ... x m give points and corners ... x n."""
    n = len(xbar)
    LB = path_to_candidate(E.reshape(-1, E.shape[-1]), b, n).reshape(*E.shape[:-1], n)
    return LB + u * (xbar - LB), LB


def weights(s_pop: int, q: float) -> np.ndarray:
    """Rank weights: Gaussian in the rank with mean 1 and spread q*s_pop."""
    ranks = np.arange(1, s_pop + 1, dtype=float)
    scale = q * s_pop
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the exact weight
        exponent = -0.5 * ((ranks - 1.0) / scale) ** 2
    return np.exp(exponent) / (math.sqrt(2 * math.pi) * scale)


def select_rank(cw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """0-based ranks drawn by uniforms ``u`` (any shape) from cumulative weights."""
    return np.minimum(cw.searchsorted(u * cw[-1], side="right"), len(cw) - 1)


def sigma_vector(X: np.ndarray, loc: np.ndarray, xi: float) -> np.ndarray:
    """Per-coordinate Gaussian spread (R x k x n) around each run's points
    ``loc`` (R x k x n), taken from its archive points ``X`` (R x s x n).

    Coordinate j gets xi times the sum of |X_j - loc_j| over the archive,
    divided by s - 1: the mean over the other points, since loc is one of
    the archive's points.
    """
    return xi * np.abs(X[:, None] - loc[:, :, None]).sum(axis=2) / (X.shape[1] - 1)


def gaussian_samples(
    archive: Archive, ranks: np.ndarray, z: np.ndarray, xi: float, xbar: np.ndarray
) -> np.ndarray:
    """Gaussian draws (R x k x n) around the archive points at ``ranks`` (R x k).

    Each draw is ``loc + scale * z`` for standard normals ``z``, with
    spread :func:`sigma_vector`.  Clamping into ``[LB, xbar]`` keeps the
    draw in the selected point's cell, so it stays feasible by
    construction.  A zero spread returns the point itself.
    """
    ri = np.arange(len(ranks))[:, None]
    loc = archive.X[ri, ranks]
    Xs = loc + sigma_vector(archive.X, loc, xi) * z
    return np.minimum(np.maximum(Xs, archive.LB[ri, ranks]), xbar)


def update_pheromone(
    tau: PheromoneMatrix,
    f: np.ndarray,
    E: np.ndarray,
    big_q: float,
    rho: float,
    limit: float = DEPOSIT_EXP_LIMIT,
) -> np.ndarray:
    """Deposit ``big_q * exp(-f[r, s])`` on every entry of path ``E[r, s]``,
    then evaporate; return the row sums (R x m) that the next path draw uses.

    ``tau.values`` is stacked over runs (R x m x n) and C-contiguous, so
    one flat index reaches every entry.  Each run's deposits are added
    member by member in the order given.  The exponent ``-f`` is clamped
    to ``[-DEPOSIT_EXP_LIMIT, limit]`` so extreme objective values degrade
    to a zero (or a bounded) deposit instead of overflowing.  Rows whose
    sum underflows below ROW_SUM_FLOOR (possible when every deposit is
    ~exp(-700) and evaporation keeps halving) are reset to the initial
    uniform row so the selection probabilities stay well defined.
    """
    values = tau.values
    if not values.flags.c_contiguous:  # a flat reshape would be a copy
        raise ValueError("pheromone values must be C-contiguous")
    runs, m, n = values.shape
    exponents = (-f).clip(-DEPOSIT_EXP_LIMIT, limit).ravel().tolist()
    amounts = big_q * np.fromiter(map(math.exp, exponents), float, len(exponents))
    entries = E + np.arange(0, runs * m * n, n).reshape(runs, 1, m)  # (r, i, E[r, s, i])
    np.add.at(values.reshape(-1), entries.ravel(), amounts.repeat(m))
    values *= 1.0 - rho
    sums = values.sum(axis=2)
    dead = sums < ROW_SUM_FLOOR
    if dead.any():
        values[dead] = np.broadcast_to(tau.support, values.shape)[dead]
        sums[dead] = values[dead].sum(axis=1)
    return sums


def ranked(archive: Archive, s_pop: int) -> Archive:
    """Each run's ``s_pop`` rows lowest in ``f``, ascending; on ties earlier rows first."""
    keep = np.argsort(archive.f, axis=1, kind="stable")[:, :s_pop]
    ri = np.arange(len(keep))[:, None]
    return Archive(*(a[ri, keep] for a in archive))


def keep_best(archive: Archive, new: Archive, s_pop: int) -> Archive:
    """:func:`ranked` of each run's ranked ``archive`` rows followed by its ``new`` rows.

    New rows no better than a full archive's worst would rank after all
    of it, so when that holds in every run the archive comes back as it is.
    """
    if archive.f.shape[1] == s_pop and not (new.f < archive.f[:, -1:]).any():
        return archive
    return ranked(Archive(*(np.concatenate(pair, axis=1) for pair in zip(archive, new))), s_pop)


def _views(archive: Archive, r: int) -> tuple[ArchiveSolution, ...]:
    rows = zip(archive.X[r], archive.f[r], archive.LB[r], archive.E[r])
    return tuple(ArchiveSolution(x, lb, e, float(v)) for x, v, lb, e in rows)


def run_many(problem: Problem, config: SolverConfig, seeds, observer=None) -> list[RunResult]:
    """Solve ``problem`` once per seed in ``seeds`` under ``config``, in lockstep.

    Result r equals ``run(problem, replace(config, seed=seeds[r]))`` bit
    for bit; ``config.seed`` itself is not used.

    Iteration 1 builds ``s_pop`` paths, fills the archive with one
    uniform draw per cell and updates the pheromone from that archive
    directly.  Every later iteration builds one path, refreshes the
    archive with one uniform draw from its cell, performs
    ``samples_per_iter`` Gaussian samples against the archive as it
    stood after that refresh, and updates the pheromone; each insertion
    round keeps the ``s_pop`` best, so the best value never regresses.

    ``observer(t, r, archive, tau)``, when given, is called after each
    iteration for each run r in order, with that run's archive as a tuple
    of read-only :class:`ArchiveSolution` views, best first, and its
    pheromone (m x n).

    The cells come from the structure the problem carries
    (``problem.xbar`` and ``problem.sets``).  The deposit exponent's upper
    clamp is the lesser of ``DEPOSIT_EXP_LIMIT`` and the largest value
    for which ``4 * s_pop * H * big_q * exp(clamp)`` fits in a double,
    where ``H`` is ``t_max``, or ``min(t_max, 1 / rho)`` with evaporation:
    a row gains at most ``s_pop`` deposits per iteration and keeps at most
    ``H`` iterations' worth, so every pheromone entry and row sum stays at
    or below a quarter of the double ceiling plus its start value, and
    every probability is finite.  The default configuration keeps 700.
    """
    seeds = list(seeds)
    inst, objective = problem.instance, problem.objective
    m, n, s_pop, k = inst.m, inst.n, config.s_pop, config.samples_per_iter
    gens = [np.random.default_rng(seed) for seed in seeds]
    runs = len(gens)
    xbar, sets = problem.xbar, problem.sets
    table = candidate_table(sets)
    support = init_pheromone(sets, n).support
    tau = PheromoneMatrix(np.repeat(support[None].astype(float), runs, axis=0), support)
    per_run = [PheromoneMatrix(values, support) for values in tau.values]
    sums = tau.values.sum(axis=2)
    cw = np.cumsum(weights(s_pop, config.q))
    horizon = config.t_max if config.rho == 0 else min(config.t_max, 1 / config.rho)
    # in log space: the bound itself overflows near big_q = DBL_MAX
    limit = min(
        DEPOSIT_EXP_LIMIT,
        math.log(sys.float_info.max) - math.log(4 * s_pop * horizon) - math.log(config.big_q),
    )
    trace = np.empty((runs, config.t_max))

    first = np.empty((runs, s_pop * (m + n)))
    for g, u in zip(gens, first):
        g.random(out=u)
    E = construct_paths(tau.values, sums, table, first[:, : s_pop * m].reshape(runs, s_pop, m))
    X, LB = cell_points(E, inst.b, xbar, first[:, s_pop * m :].reshape(runs, s_pop, n))
    f = evaluate_many(objective, X.reshape(-1, n)).reshape(runs, s_pop)
    archive = ranked(Archive(X, f, LB, E), s_pop)
    fresh, pick, z = np.empty((runs, m + n)), np.empty((runs, k)), np.empty((runs, k, n))
    ri = np.arange(runs)[:, None]
    for t in range(1, config.t_max + 1):
        if t > 1:
            for g, u, v, w in zip(gens, fresh, pick, z):
                g.random(out=u)
                for s in range(k):
                    v[s] = g.random()
                    g.standard_normal(out=w[s])
            e = construct_paths(tau.values, sums, table, fresh[:, None, :m])
            x, lb = cell_points(e, inst.b, xbar, fresh[:, None, m:])
            f = evaluate_many(objective, x.reshape(runs, n)).reshape(runs, 1)
            archive = keep_best(archive, Archive(x, f, lb, e), s_pop)  # before sampling
            ranks = select_rank(cw, pick)
            Xs = gaussian_samples(archive, ranks, z, config.xi, xbar)
            f = evaluate_many(objective, Xs.reshape(-1, n)).reshape(runs, k)
            samples = Archive(Xs, f, archive.LB[ri, ranks], archive.E[ri, ranks])
            archive = keep_best(archive, samples, s_pop)
        sums = update_pheromone(tau, archive.f, archive.E, config.big_q, config.rho, limit)
        trace[:, t - 1] = archive.f[:, 0]
        if observer is not None:
            for r in range(runs):
                observer(t, r, _views(archive, r), per_run[r])

    evals = s_pop + (config.t_max - 1) * (1 + k)
    X, f, LB, E = archive
    return [
        RunResult(
            best=ArchiveSolution(X[r, 0], LB[r, 0], E[r, 0], float(f[r, 0])),
            trace=trace[r],
            eval_count=evals,
            seed=seed,
            config=replace(config, seed=seed),
        )
        for r, seed in enumerate(seeds)
    ]


def run(problem: Problem, config: SolverConfig, observer=None) -> RunResult:
    """Solve ``problem`` under ``config``; deterministic given the seed.

    This is :func:`run_many` with the single seed ``config.seed``.
    ``observer(t, archive, tau)``, when given, is called after each
    iteration with the archive as a tuple of read-only
    :class:`ArchiveSolution` views, best first, and the pheromone.
    """
    each = None if observer is None else lambda t, r, archive, tau: observer(t, archive, tau)
    return run_many(problem, config, [config.seed], each)[0]
