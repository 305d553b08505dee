"""Two-phase ant colony solver, run for one seed or for a batch of seeds in lockstep.

Each iteration couples a combinatorial phase with a continuous phase:

* Phase one picks one candidate column per matrix row with probabilities
  proportional to pheromone, which yields a path and hence a feasible box
  (cell) of the solution set.  All the paths an iteration builds, every
  row of every path of every run, are drawn in one comparison, by
  inverse CDF over the candidates' cumulative probabilities, padded with
  zeros to the longest candidate set.
* Phase two keeps the ``s_pop`` best feasible points as ACO_R does, in
  one table ascending in value (see :func:`insert`).  It refreshes the
  table with one fresh uniform draw from the phase-one cell, then
  samples around archived points with per-coordinate Gaussians whose
  spread is the mean coordinate distance across the archive, clamping
  every draw back into the originating cell so feasibility never needs
  re-checking.  Each new row goes in at its rank, pushing out the worst.
* The archive then reinforces the pheromone of the paths its members
  came from (deposit ``Q * exp(-f)`` per member, computed once when the
  row is made, followed by one multiplicative evaporation).  One
  ``np.add.at`` makes every deposit, adding member by member in rank
  order, as a loop over members would.

Layout: pheromone lives on the candidate entries only, the solution
components of the model.  Row i's candidate columns, ascending, fill
the slots of a ``candidate_table`` row (m x kmax, kmax the largest set),
and a run's pheromone is an array over those slots, zero in the padding,
whose row sums are plain sums over the slots.  Only rows with a choice
have a pheromone row of their own.  A row with one candidate always
picks slot 0, so every archive path deposits on that slot and all such
rows hold the same value: one shared row stands for them.  The kept
rows, every row with two or more candidates and then the first row with
one, are the rows of ``table[keep]``, still kmax wide; archive paths
``E`` are slots of the kept rows only.  A cell's lower corner is the
maximum of the kept rows' corner and ``base``, the corner the
one-candidate rows fix.  Full m-row paths of columns are rebuilt only
for results and observers, and observers alone see a dense m x n copy
of the pheromone.

Lockstep: :func:`run_many` advances R runs of one problem together.  Their
state is stacked on a leading run axis: pheromone R x m' x kmax (m' the
number of kept rows) and archive R x s_pop x (2 + 2n + m'), whose
float columns hold the path slots exactly.  Every step of an iteration
works on all R runs at once, except the random draws, which each run
makes from its own Generator.  :func:`run` is :func:`run_many` with one
seed.

Once per call, :func:`run_many` builds what its iteration loop only
reads: the kept rows' table, their ``b`` and ``base`` (the one checked
:func:`~freaco.fre.path_to_candidate` call), the flat offsets of the
pheromone rows that :func:`update_pheromone` deposits through, the run
index of the Gaussian phase's gather, the cumulative rank weights, the
deposit clamp, and the buffers of the iterations after the first, whose
shapes never change: uniforms with their path and point views, rank
uniforms, normals and fresh rows, each overwritten in full every
iteration.  The loop does not check its own paths, which come from the
candidate table: :func:`cell_points` starts each corner from ``base``
and raises it through the unchecked max-scatter kernel of
:mod:`freaco.fre`.

Reproducibility: a run owns a single ``numpy.random.default_rng(seed)``
(PCG64) and consumes it in a fixed order that does not depend on the
other runs of its batch.  Iteration t draws ``a * (m + n)`` uniforms,
where a is ``s_pop`` at t = 1 and 1 after that: one per row of each of
the a paths, then one point per cell (the stream of ``random((a, m))``
followed by ``random((a, n))``).  Then, per Gaussian sample (none at
t = 1), it draws one uniform (rank selection) followed by
``standard_normal(n)``, used as ``loc + scale * z``: exactly what
``Generator.normal(loc, scale)`` computes.  A one-candidate row's path
uniforms are drawn but never read.  No draw depends on the archive, so
an iteration makes all of its draws before it evaluates, ranks and
samples.  A batch ``random(shape)`` yields the same stream as that many
single draws, so identical configurations give bit-identical results,
whatever batch a seed runs in and equal to those of a row-by-row loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import real, whole
from .expr import evaluate_many
from .fre import Record, _max_scatter, path_to_candidate
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
        for name, low in (("s_pop", 2), ("t_max", 1), ("samples_per_iter", 0), ("seed", 0)):
            object.__setattr__(self, name, whole(name, getattr(self, name), low))
        for name in ("q", "xi", "big_q", "rho"):
            object.__setattr__(self, name, value := real(name, getattr(self, name)))
            if name != "rho" and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(self.xi * (self.s_pop - 1)):  # sigma_vector's largest sum, times xi
            raise ValueError("xi * (s_pop - 1) must be a finite double")
        if self.q * self.s_pop < sys.float_info.min:  # the rank weights' scale
            raise ValueError(f"q * s_pop must be >= {sys.float_info.min:g}")
        if 1 / (math.sqrt(2 * math.pi) * (self.q * self.s_pop)) < sys.float_info.min:  # weights()[0]
            raise ValueError("q * s_pop is too large: the largest rank weight is not a normal double")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class ArchiveSolution(Record):
    """A feasible point plus the cell (lower bound and path) it came from."""

    x: np.ndarray
    lb: np.ndarray
    e: np.ndarray
    f: float


@dataclass(frozen=True, eq=False)
class PheromoneMatrix(Record):
    """Dense pheromone of one run, as observers receive it.

    ``values`` (m x n) holds each candidate entry's weight and zero
    elsewhere; ``support`` (m x n) is the fixed candidate pattern.  The
    engine itself keeps only the candidate entries (see :func:`run_many`)
    and builds this view, a fresh copy, only for an observer; like every
    :class:`~freaco.fre.Record`, it holds both arrays read-only.
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
    values: np.ndarray, sums: np.ndarray, last: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Paths as candidate slots (... x k x m) from uniforms ``u`` (... x k x m),
    one categorical choice per row, under compact pheromone ``values``
    (... x m x kmax, zero past each row's candidates) whose row sums are
    ``sums`` (... x m); ``last[i]`` is row i's last candidate slot.

    Row i picks its ``c``-th candidate, where ``c`` counts the cumulative
    probabilities at or below ``u * total``, capped at the last candidate:
    ``searchsorted(side="right")`` and a clamp.  The zero padding leaves
    each row's partial sums exact and puts its total in the last column.
    """
    cum = (values / sums[..., None]).cumsum(axis=-1)
    target = u * cum[..., None, :, -1]
    picks = (cum[..., None, :, :-1] <= target[..., None]).sum(axis=-1)
    # a partial sum in the padding is the total, counted only when the target reaches it: the clamp
    return np.minimum(picks, last, out=picks)


def cell_points(
    E: np.ndarray, b: np.ndarray, xbar: np.ndarray, u: np.ndarray,
    base: np.ndarray | float = 0.0, out: np.ndarray | None = None,
):
    """The point uniforms ``u`` place in each path's cell, and the cell's
    lower corner: paths ... x m' of columns, for the rows whose right-hand
    sides are ``b``, give points and corners ... x n.  ``base`` is the
    corner the rows outside the paths fix: each corner starts from it,
    the paths' ``b`` are scattered in by maximum and the result is capped
    at ``xbar``, so every point lies in ``[corner, xbar]``.  Points and corners are
    the two halves of ``out`` (... x 2n, new if not given), whose leading
    axes must merge into one without a copy, as the rows of a C-contiguous
    table do.  The paths are not checked (see :func:`~freaco.fre.path_to_candidate`)."""
    n = len(xbar)
    out = np.empty((*E.shape[:-1], 2 * n)) if out is None else out
    x, LB = out[..., :n], out[..., n:]
    LB[...] = base
    lower = LB.reshape(-1, n)
    if lower.size and not np.may_share_memory(lower, LB):  # a copy: the corners would be lost
        raise ValueError("out's leading axes must merge into one without a copy")
    _max_scatter(lower, E.reshape(-1, E.shape[-1]), b)
    np.minimum(LB, xbar, out=LB)  # a near-tie candidate's b_i may exceed xbar_j by up to EPS_EQ
    np.multiply(u, xbar - LB, out=x)
    x += LB
    return x, LB


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
    gaps = X[:, None] - loc[:, :, None]
    # abs in place: one R x k x s x n block, not two
    return xi * np.abs(gaps, out=gaps).sum(axis=2) / (X.shape[1] - 1)


def gaussian_samples(
    archive: np.ndarray, ranks: np.ndarray, z: np.ndarray, xi: float, xbar: np.ndarray,
    runs: np.ndarray | None = None,
) -> np.ndarray:
    """New rows (R x k x width): each run's ``archive`` rows (see
    :func:`insert`) at ``ranks`` (R x k) with their points redrawn, and
    ``f`` and ``d`` left for the caller to write.  ``runs`` is the run
    index ``arange(R)[:, None]``, built here when not given.

    Each draw is ``loc + scale * z`` for standard normals ``z``, with
    spread :func:`sigma_vector`, computed on the first point alone
    (R x 1 x n, broadcast over the samples) when every rank is the same.
    Clamping into ``[LB, xbar]`` keeps the draw in the selected point's
    cell, so it stays feasible by construction.  A zero spread returns
    the point itself; a draw that overflows to ±inf lands on the cell's
    face (σ itself stays finite, see :class:`SolverConfig`).
    """
    n = len(xbar)
    new = archive[np.arange(len(ranks))[:, None] if runs is None else runs, ranks]
    loc, LB = new[..., 2 : 2 + n], new[..., 2 + n : 2 + 2 * n]
    raw = ranks.tobytes()  # one rank everywhere: its bytes repeat
    one = raw == raw[: ranks.itemsize] * ranks.size
    scale = sigma_vector(archive[..., 2 : 2 + n], loc[:, :1] if one else loc, xi)
    if xi > 1:  # a draw may pass the double range: +-inf, which the clamp puts on a face
        with np.errstate(over="ignore"):
            Xs = loc + scale * z
    else:  # a spread is xi times a mean gap of at most 1, so at most 1: the draw stays finite
        Xs = loc + scale * z
    np.minimum(np.maximum(Xs, LB, out=Xs), xbar, out=loc)
    return new


def deposit(f: np.ndarray, big_q: float, limit: float = DEPOSIT_EXP_LIMIT) -> np.ndarray:
    """Deposit amounts ``big_q * exp(-f)``, one per objective value.

    The exponent ``-f`` is clamped to ``[-DEPOSIT_EXP_LIMIT, limit]`` so
    extreme objective values degrade to a zero (or a bounded) deposit
    instead of overflowing.
    """
    low = -DEPOSIT_EXP_LIMIT
    exponents = (-f).ravel().tolist()
    amounts = [big_q * math.exp(low if x < low else limit if x > limit else x) for x in exponents]
    return np.array(amounts).reshape(f.shape)


def _flat_offsets(runs: int, m: int, kmax: int) -> np.ndarray:
    """Flat start (runs x 1 x m) of each run's pheromone row in a C-contiguous
    runs x m x kmax array: slot s of run r's row i sits at the offset plus s."""
    return np.arange(0, runs * m * kmax, m * kmax)[:, None, None] + np.arange(0, m * kmax, kmax)


def update_pheromone(
    values: np.ndarray, table: np.ndarray, d: np.ndarray, E: np.ndarray, rho: float,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Deposit ``d[r, s]`` on every candidate slot of path ``E[r, s]``, then
    evaporate; return the row sums (R x m) that the next path draw uses.

    ``values`` (R x m x kmax, see ``table``) is each run's compact
    pheromone, updated in place, and is C-contiguous, so one flat index
    reaches every entry.  Each run's deposits are added member by member
    in the order given.  ``offsets`` (R x 1 x m) hold the flat start of
    each pheromone row, ``(r * m + i) * kmax`` for run r's row i, and are
    built here when not given.  Rows whose sum underflows below
    ROW_SUM_FLOOR (possible when every deposit is ~exp(-700) and
    evaporation keeps halving) are reset to the initial uniform row so the
    selection probabilities stay well defined.
    """
    if not values.flags.c_contiguous:  # a flat reshape would be a copy
        raise ValueError("pheromone values must be C-contiguous")
    if offsets is None:
        offsets = _flat_offsets(*values.shape)
    entries = E + offsets
    np.add.at(values.reshape(-1), entries.ravel(), d.repeat(values.shape[1]))
    values *= 1.0 - rho
    sums = values.sum(axis=2)
    dead = sums < ROW_SUM_FLOOR
    if dead.any():
        values[dead] = np.broadcast_to(table >= 0, values.shape)[dead]
        sums[dead] = values[dead].sum(axis=1)
    return sums


def insert(archive: np.ndarray, new: np.ndarray) -> None:
    """Enter each run's ``new`` rows (R x k x width) into its ``archive``
    (R x s x width) in place, keeping the s rows lowest in value.

    A row holds its value ``f``, its deposit ``d``, then the point, its
    cell's lower corner and its path; each run's rows ascend in ``f``.
    New rows enter in order, each after every row at or below its value,
    pushing the worst row out.  So ties keep older rows first, as a
    stable sort of the archive and then the new rows, cut to s, would.
    """
    f, s = archive[..., 0], archive.shape[1]
    runs, rows = (new[..., 0] < f[:, -1:]).nonzero()  # the worst only falls
    for r, i in zip(runs.tolist(), rows.tolist()):
        p = f[r].searchsorted(new[r, i, 0], side="right")
        if p < s:
            archive[r, p + 1 :] = archive[r, p:-1]
            archive[r, p] = new[r, i]


def run_many(problem: Problem, config: SolverConfig, seeds, observer=None) -> list[RunResult]:
    """Solve ``problem`` once per seed in ``seeds`` under ``config``, in lockstep.

    Result r equals ``run(problem, replace(config, seed=seeds[r]))`` bit
    for bit; ``config.seed`` itself is not used.  A seed that is not an
    integer >= 0 raises :class:`ValueError` before any work.

    Iteration t builds a paths, a being ``s_pop`` at t = 1 and 1 after
    that, and enters one uniform draw from each path's cell into the
    archive.  After iteration 1 it then performs ``samples_per_iter``
    Gaussian samples against the archive as those rows left it.  Every
    iteration ends by updating the pheromone; each insertion round keeps
    the ``s_pop`` best, so the best value never regresses.  The draws
    follow the module's Reproducibility rule.

    ``observer(t, r, archive, tau)``, when given, is called after each
    iteration for each run r in order, with that run's archive as a tuple
    of read-only :class:`ArchiveSolution` views, best first, and a copy of
    its pheromone as a dense :class:`PheromoneMatrix` (m x n).

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
    seeds = [whole("seed", seed, 0) for seed in seeds]
    inst, objective = problem.instance, problem.objective
    m, n, s_pop, k = inst.m, inst.n, config.s_pop, config.samples_per_iter
    gens = [np.random.default_rng(seed) for seed in seeds]
    runs = len(gens)
    xbar, sets = problem.xbar, problem.sets
    table = candidate_table(sets)
    last = (table[:, 1:] >= 0).sum(axis=1)  # each row's last candidate slot
    multi = last > 0  # rows with a choice
    # kept rows: every row with a choice, then the first without one,
    # which stands for them all; home[i] is the kept row of row i
    keep = np.concatenate([np.flatnonzero(multi), np.flatnonzero(~multi)[:1]])
    home = np.full(m, len(keep) - 1)
    home[keep] = np.arange(len(keep))
    kept, kb, rows, last = table[keep], inst.b[keep], np.arange(len(keep)), last[keep]
    base = path_to_candidate(table[~multi, 0], inst.b[~multi], n)
    # archive columns after f and d: point, lower corner, path slots
    X, LB, E = slice(2, 2 + n), slice(2 + n, 2 + 2 * n), slice(2 + 2 * n, None)

    def columns(slots):
        """Full paths of columns (... x m) from kept-row ``slots``."""
        return table[np.arange(m), slots[..., home]]

    values = np.repeat((kept >= 0)[None].astype(float), runs, axis=0)  # compact pheromone
    sums = values.sum(axis=2)
    if observer is not None:
        support, live = init_pheromone(sets, n).support, table >= 0
    cw = np.cumsum(weights(s_pop, config.q))
    horizon = config.t_max if config.rho == 0 else min(config.t_max, 1 / config.rho)
    # in log space: the bound itself overflows near big_q = DBL_MAX
    limit = min(
        DEPOSIT_EXP_LIMIT,
        math.log(sys.float_info.max) - math.log(4 * s_pop * horizon) - math.log(config.big_q),
    )
    trace = np.empty((runs, config.t_max))
    run_index = np.arange(runs)[:, None]  # of the Gaussian phase's gather
    offsets = _flat_offsets(*values.shape)  # each pheromone row's flat start

    def buffers(ants, samples):
        """An iteration's buffers for ``ants`` paths and ``samples`` Gaussian
        samples: rank uniforms, normals, fresh rows, the path and point
        views of the uniforms, and per run its Generator and its rows of
        uniforms, rank uniforms and normals.  Each iteration overwrites
        every entry."""
        u = np.empty((runs, ants * (m + n)))
        pick, z = np.empty((runs, samples)), np.empty((runs, samples, n))
        return (pick, z, np.empty((runs, ants, E.start + len(keep))),
                u[:, : ants * m].reshape(runs, ants, m), u[:, ants * m :].reshape(runs, ants, n),
                [(g, a, v, list(w)) for g, a, v, w in zip(gens, u, pick, z)])

    later = buffers(1, k)  # the shapes of every iteration after the first

    def score(new):
        """Write the value and the deposit of each ``new`` row's point."""
        new[..., 0] = evaluate_many(objective, new[..., X].reshape(-1, n)).reshape(new.shape[:2])
        new[..., 1] = deposit(new[..., 0], config.big_q, limit)

    for t in range(1, config.t_max + 1):
        pick, z, new, up, ux, draws = buffers(s_pop, 0) if t == 1 else later
        for g, a, v, w in draws:
            g.random(out=a)
            for s, normals in enumerate(w):
                v[s] = g.random()
                g.standard_normal(out=normals)
        e = new[..., E] = construct_paths(values, sums, last, up[..., keep])
        cell_points(kept[rows, e], kb, xbar, ux, base, new[..., 2 : E.start])
        score(new)
        if t == 1:
            archive = np.take_along_axis(new, new[..., :1].argsort(axis=1, kind="stable"), axis=1)
        else:
            insert(archive, new)
        if t > 1 and k:
            new = gaussian_samples(archive, select_rank(cw, pick), z, config.xi, xbar, run_index)
            score(new)
            insert(archive, new)
        slots = archive[..., E].astype(np.int64)
        sums = update_pheromone(values, kept, archive[..., 1], slots, config.rho, offsets)
        trace[:, t - 1] = archive[:, 0, 0]
        if observer is not None:
            dense = np.zeros((runs, m, n))
            dense[:, support] = values[:, home][:, live]  # slots ascend with columns
            own, paths = archive.copy(), columns(slots)  # views of the archive would change
            for r in range(runs):
                views = tuple(ArchiveSolution(a[X], a[LB], e, float(a[0]))
                              for a, e in zip(own[r], paths[r]))
                observer(t, r, views, PheromoneMatrix(dense[r], support))

    evals = s_pop + (config.t_max - 1) * (1 + k)
    best, paths = archive[:, 0].copy(), columns(slots[:, 0])
    return [
        RunResult(
            best=ArchiveSolution(best[r, X], best[r, LB], paths[r], float(best[r, 0])),
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
