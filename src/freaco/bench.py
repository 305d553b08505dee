"""Multi-run experiment harness with deterministic aggregation.

Runs each problem ``runs`` times (run r gets seed ``base_seed + r``),
collects the final best values and the full per-iteration traces, and
summarizes them as average / median / sample standard deviation / best,
mean evaluation count and the error averaged over every run and
iteration (best-so-far minus the recorded optimum).

Runs are independent.  Each problem's runs go in blocks of consecutive
seeds to :func:`freaco.engine.run_many`, which solves a block in
lockstep with results bit-identical to solo runs; when FREACO_THREADS
allows it the blocks execute in one process pool, and results are merged
by (problem, run index) so the summary does not depend on the number of
workers or on completion order.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .engine import RunResult, SolverConfig, run_many
from .errors import ExperimentError
from .fre import Record
from .problems import Problem


@dataclass(frozen=True)
class ExperimentSpec:
    problems: tuple[Problem, ...]
    runs: int = 30
    config: SolverConfig = SolverConfig()
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


@dataclass(frozen=True, eq=False)
class ProblemSummary(Record):
    name: str
    known_optimum: float | None
    avg_best: float
    median_best: float
    sd_best: float
    f_best: float
    mean_eval_count: float
    mean_error: float | None  # None when no optimum is recorded
    trace: np.ndarray  # runs x t_max, row r = run with seed base_seed + r


@dataclass(frozen=True)
class ExperimentSummary:
    problems: tuple[ProblemSummary, ...]
    runs: int
    base_seed: int
    config: SolverConfig


def _solve_block(args) -> list[RunResult]:
    problem, config, seeds = args
    return run_many(problem, config, seeds)


def thread_budget() -> int:
    """Worker cap for parallel runs, from FREACO_THREADS (default: all cores)."""
    raw = os.environ.get("FREACO_THREADS", "")
    if raw.strip():
        budget = int(raw)
        if budget < 1:
            raise ValueError("FREACO_THREADS must be >= 1")
        return budget
    return os.cpu_count() or 1


def summarize_runs(problem: Problem, results: list[RunResult]) -> ProblemSummary:
    finals = np.array([r.trace[-1] for r in results])
    trace = np.vstack([r.trace for r in results])
    optimum = problem.known_optimum
    return ProblemSummary(
        name=problem.name,
        known_optimum=optimum,
        avg_best=float(finals.mean()),
        median_best=float(np.median(finals)),
        sd_best=float(finals.std(ddof=1)) if len(results) > 1 else 0.0,
        f_best=float(finals.min()),
        mean_eval_count=float(np.mean([r.eval_count for r in results])),
        mean_error=None if optimum is None else float(np.mean(trace - optimum)),
        trace=trace,
    )


def _blocks(runs: int, count: int) -> list[range]:
    """``runs`` run indices cut into ``count`` consecutive near-equal blocks."""
    count = min(runs, count)
    return [range(b * runs // count, (b + 1) * runs // count) for b in range(count)]


def _first_failure(spec: ExperimentSpec, problem: Problem, block: range, error: Exception):
    """The :class:`ExperimentError` of the first run of ``block`` that fails alone.

    A block reports only that one of its runs failed, so each run is
    repeated by itself until one fails.  A lost worker, or a block whose
    runs all pass alone, is charged to its first run.
    """
    if not isinstance(error, BrokenExecutor):
        for r in block:
            try:
                run_many(problem, spec.config, [spec.base_seed + r])
            except Exception as exc:  # the run's own failure, reported with its index
                return _experiment_error(problem, r, exc)
    return _experiment_error(problem, block[0], error)


def _experiment_error(problem: Problem, run_index: int, cause: Exception) -> ExperimentError:
    error = ExperimentError(problem.name, run_index)
    error.__cause__ = cause
    return error


def run_problems(spec: ExperimentSpec) -> list[ProblemSummary | ExperimentError]:
    """Per problem, its summary or the :class:`ExperimentError` of its
    first failing run (chained to the failure).

    Each problem's runs are cut into ``ceil(workers / problems)`` blocks
    of consecutive seeds, so that even one problem keeps every worker
    busy, and each block is solved by one :func:`run_many` call.  The
    blocks go to one process pool when FREACO_THREADS allows more than
    one worker; results are merged by (problem, run), so they do not
    depend on the number of workers.
    """
    budget = thread_budget()
    blocks = _blocks(spec.runs, -(-budget // max(len(spec.problems), 1)))
    jobs = [
        (problem, spec.config, [spec.base_seed + r for r in block])
        for problem in spec.problems
        for block in blocks
    ]
    workers = min(budget, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_solve_block, job) for job in jobs]
            # a job's failure, or a lost worker, is kept to be reported by job
            done = [f.exception() or f.result() for f in futures]
    else:
        done = []
        for job in jobs:
            try:
                done.append(_solve_block(job))
            except Exception as exc:  # reported below as the job's ExperimentError
                done.append(exc)
    outcomes = []
    for p, problem in enumerate(spec.problems):
        results = []
        for block, res in zip(blocks, done[p * len(blocks) : (p + 1) * len(blocks)]):
            if isinstance(res, Exception):
                outcomes.append(_first_failure(spec, problem, block, res))
                break
            results += res
        else:
            outcomes.append(summarize_runs(problem, results))
    return outcomes


def run_experiment(spec: ExperimentSpec) -> ExperimentSummary:
    """Summarize every problem of ``spec``; the first problem with a
    failing run raises its :class:`ExperimentError`."""
    summaries = run_problems(spec)
    for outcome in summaries:
        if isinstance(outcome, ExperimentError):
            raise outcome
    return ExperimentSummary(
        problems=tuple(summaries),
        runs=spec.runs,
        base_seed=spec.base_seed,
        config=spec.config,
    )


# ---------------------------------------------------------------------------
# Export

SUMMARY_COLUMNS = ("name", "avg", "mdn", "sd", "fbest", "evals", "mean_error")
TRACE_COLUMNS = ("problem", "run", "iter", "best_so_far")


def _summary_rows(summary: ExperimentSummary):
    for p in summary.problems:
        yield (
            p.name,
            repr(p.avg_best),
            repr(p.median_best),
            repr(p.sd_best),
            repr(p.f_best),
            repr(p.mean_eval_count),
            "" if p.mean_error is None else repr(p.mean_error),
        )


def summary_csv_text(summary: ExperimentSummary) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(_summary_rows(summary))
    return buf.getvalue()


def _summary_dict(summary: ExperimentSummary) -> dict:
    return {
        "runs": summary.runs,
        "base_seed": summary.base_seed,
        "config": asdict(summary.config),
        "problems": [
            {
                "name": p.name,
                "known_optimum": p.known_optimum,
                "avg_best": p.avg_best,
                "median_best": p.median_best,
                "sd_best": p.sd_best,
                "f_best": p.f_best,
                "mean_eval_count": p.mean_eval_count,
                "mean_error": p.mean_error,
                "trace": p.trace.tolist(),
            }
            for p in summary.problems
        ],
    }


def export(summary: ExperimentSummary, format: str, path):
    """Write the summary to ``path`` as 'csv', 'json' or 'trace-csv'.

    CSV columns: name, avg, mdn, sd, fbest, evals, mean_error (one row
    per problem).  JSON holds everything including the trace matrices.
    The trace CSV has one row per (problem, run, iteration).  All files
    are UTF-8 with '.' as the decimal point.
    """
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(summary_csv_text(summary))
    elif format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_summary_dict(summary), fh, indent=2)
            fh.write("\n")
    elif format == "trace-csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            for p in summary.problems:
                for r, row in enumerate(p.trace):
                    for t, value in enumerate(row, start=1):
                        writer.writerow((p.name, r, t, repr(float(value))))
    else:
        raise ValueError(f"unknown export format {format!r}")
