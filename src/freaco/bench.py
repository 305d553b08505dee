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
import io
import json
import math
import os
# at module level, although only the pool path needs it: perfbench's tracer counts pools by
# rebinding bench.ProcessPoolExecutor, and tests/test_bench.py monkeypatches that name
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .engine import RunResult, SolverConfig, run_many
from .errors import ExperimentError, whole
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
        if not self.problems:
            raise ValueError("problems must name at least one problem")
        names = set()  # output rows are keyed by name: a repeat could not be told apart
        for problem in self.problems:
            if not isinstance(problem, Problem):
                raise TypeError(f"problems must hold Problem instances, got {problem!r}")
            if problem.name in names:
                raise ValueError(f"problems must have distinct names, got {problem.name!r} twice")
            names.add(problem.name)
        if not isinstance(self.config, SolverConfig):
            raise TypeError(f"config must be a SolverConfig, got {self.config!r}")
        if self.config.seed != 0:  # it would go unused, yet summary.json would write it
            raise ValueError(f"config.seed must be 0, got {self.config.seed}: run r uses seed base_seed + r")
        for name, low in (("runs", 1), ("base_seed", 0)):
            object.__setattr__(self, name, whole(name, getattr(self, name), low))


@dataclass(frozen=True, eq=False)
class ProblemSummary(Record):
    """One problem's statistics; ``summary.json`` writes these fields in this order."""

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
        try:
            raw = int(raw)
        except ValueError:
            pass  # whole refuses the text by name
        return whole("FREACO_THREADS", raw, 1)
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


def run_problems(spec: ExperimentSpec) -> tuple[ExperimentSummary, list[ExperimentError]]:
    """The summary of the problems whose runs all pass, and per other
    problem the :class:`ExperimentError` of its first failing run (chained
    to the failure), both in problem order.

    Each problem's runs are cut into ``ceil(workers / problems)`` blocks
    of consecutive seeds, so that even one problem keeps every worker
    busy, and each block is solved by one :func:`run_many` call.  The
    blocks go to one process pool when FREACO_THREADS allows more than
    one worker; results are merged by (problem, run), so they do not
    depend on the number of workers.
    """
    budget = thread_budget()
    blocks = _blocks(spec.runs, -(-budget // len(spec.problems)))
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
    summaries, failures = [], []
    for p, problem in enumerate(spec.problems):
        results = []
        for block, res in zip(blocks, done[p * len(blocks) : (p + 1) * len(blocks)]):
            if isinstance(res, Exception):
                failures.append(_first_failure(spec, problem, block, res))
                break
            results += res
        else:
            summaries.append(summarize_runs(problem, results))
    summary = ExperimentSummary(tuple(summaries), spec.runs, spec.base_seed, spec.config)
    return summary, failures


def run_experiment(spec: ExperimentSpec) -> ExperimentSummary:
    """Summarize every problem of ``spec``; the first problem with a
    failing run raises its :class:`ExperimentError`."""
    summary, failures = run_problems(spec)
    if failures:
        raise failures[0]
    return summary


# ---------------------------------------------------------------------------
# Export

SUMMARY_COLUMNS = ("name", "avg", "mdn", "sd", "fbest", "evals", "mean_error")
TRACE_COLUMNS = ("problem", "run", "iter", "best_so_far")

#: The files ``freaco bench --out DIR`` writes, each with its :func:`export` format.
OUT_FILES = (("summary.csv", "csv"), ("summary.json", "json"), ("traces.csv", "trace-csv"))


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(_summary_rows(summary))
    return buf.getvalue()


def _value_texts(trace, render) -> list[str]:
    """``render(v)`` of every value of ``trace``, flattened, called once per
    run of equal values: best-so-far traces are plateaus.  Runs are found on
    the bits, so 0.0 and -0.0 (and NaNs of different payloads) stay apart."""
    bits = np.ascontiguousarray(trace, dtype=float).reshape(-1).view(np.int64)
    first = np.empty(len(bits), dtype=bool)  # of its run
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    texts = np.array([render(v) for v in bits[starts].view(float).tolist()], dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(bits))).tolist()


def _json_float(value: float) -> str:
    """``value`` as :mod:`json` writes a float."""
    if math.isfinite(value):
        return repr(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _json_rows(trace: np.ndarray, indent: str):
    """``json.dumps(trace.tolist(), indent=2)`` for a list opened at
    ``indent``, in pieces of at most one row."""
    if trace.ndim != 2 or trace.dtype != float or not trace.size:
        yield json.dumps(trace.tolist(), indent=2).replace("\n", "\n" + indent)
        return
    runs, width = trace.shape
    inner, leaf = indent + "  ", indent + "    "
    texts = _value_texts(trace, _json_float)
    for r in range(runs):
        yield f"[\n{inner}[\n{leaf}" if r == 0 else f"\n{inner}],\n{inner}[\n{leaf}"
        yield (",\n" + leaf).join(texts[r * width : (r + 1) * width])
    yield f"\n{inner}]\n{indent}]"


def _summary_json(summary: ExperimentSummary):
    """``summary.json`` in pieces: ``json.dump(..., indent=2)`` of the summary with
    every trace matrix as nested lists, each trace written by :func:`_json_rows`."""
    text = json.dumps(
        {
            "runs": summary.runs,
            "base_seed": summary.base_seed,
            "config": asdict(summary.config),
            "problems": [{**vars(p), "trace": 0} for p in summary.problems],
        },
        indent=2,
    )
    head, *tails = text.split('"trace": 0')  # the one key "trace", its value a placeholder
    for p, tail in zip(summary.problems, tails):
        yield head + '"trace": '
        yield from _json_rows(p.trace, head[head.rindex("\n") + 1 :])
        head = tail
    yield head + "\n"


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
            fh.writelines(_summary_json(summary))
    elif format == "trace-csv":
        write_trace_csv(path, ((p.name, p.trace) for p in summary.problems))
    else:
        raise ValueError(f"unknown export format {format!r}")


def write_trace_csv(path, traces):
    """Write ``(name, trace)`` pairs, each trace runs x iterations of
    best-so-far values, as the trace CSV described under :func:`export`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for name, trace in traces:
            trace = np.asarray(trace, dtype=float)
            runs, width = trace.shape
            steps = [f"{t}," for t in range(1, width + 1)]
            texts = _value_texts(trace, repr)
            for r in range(runs if width else 0):  # a run without iterations has no rows
                buf.seek(0)
                buf.truncate()
                writer.writerow((name, r))  # quoted as csv quotes the row's first two fields
                lead = buf.getvalue()[:-1] + ","
                lines = map(str.__add__, steps, texts[r * width : (r + 1) * width])
                fh.write(lead + ("\n" + lead).join(lines) + "\n")
