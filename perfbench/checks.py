"""Output checks applied to every job the benchmark runs.

A job that fails any check counts once in ``failed``; the messages of the
first few failures are kept for the report.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from freaco import fre

EXPECTED_EVALS = 347  # 50 + 3 * 99 at the default SolverConfig
MAX_MESSAGES = 10


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, job: str, problems: list[str], jobs: int = 1):
        """Count ``jobs`` attempted jobs, all failed when ``problems`` is non-empty."""
        self.attempted += jobs
        if problems:
            self.failed += jobs
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{job}: {'; '.join(problems)}")


def check_trace(trace, evals: float) -> list[str]:
    problems = []
    if evals != EXPECTED_EVALS:
        problems.append(f"eval_count {evals} != {EXPECTED_EVALS}")
    trace = np.asarray(trace, dtype=float)
    if not np.isfinite(trace).all():
        problems.append("trace holds a non-finite value")
    elif np.any(np.diff(trace) > 0):
        problems.append("trace increases")
    return problems


def check_run(problem, result, xbar: np.ndarray) -> list[str]:
    """Feasibility, cell membership, budget and monotone trace of one run."""
    best = result.best
    problems = check_trace(result.trace, result.eval_count)
    res = fre.residual(problem.instance, best.x)
    if not res <= fre.EPS_EQ:
        problems.append(f"best.x residual {res!r} > EPS_EQ")
    if np.any(best.x < best.lb - fre.EPS_EQ) or np.any(best.x > xbar + fre.EPS_EQ):
        problems.append("best.x outside [best.lb, xbar]")
    if result.trace[-1] != best.f:
        problems.append("trace[-1] != best.f")
    return problems


def check_oracle(problem, report) -> list[str]:
    problems = []
    x = report.best_point
    res = fre.residual(problem.instance, x)
    if not res <= fre.EPS_EQ:
        problems.append(f"best_point residual {res!r} > EPS_EQ")
    if not np.isfinite(report.best_value):
        problems.append("best_value is not finite")
    if not 0 < report.cells_examined <= report.path_count:
        problems.append(f"{report.cells_examined} cells from {report.path_count} paths")
    return problems


def check_bench_call(
    status: int, stdout: str, outdir: str, names: list[str], runs: int
) -> tuple[dict[str, list[str]], dict]:
    """Check one ``freaco bench`` call's exit status, stdout and three files.

    Returns per-problem failure lists and the parsed summary.json (or
    ``{}`` when it could not be read).
    """
    common = []
    if status != 0:
        common.append(f"exit status {status}")
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if [r["name"] for r in rows] != names:
        common.append("summary CSV on stdout does not list every problem")
    for fname in ("summary.csv", "summary.json", "traces.csv"):
        if not os.path.isfile(os.path.join(outdir, fname)):
            common.append(f"{fname} missing")
    summary = {}
    if not common:
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(outdir, "traces.csv"), encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        expected = 1 + sum(len(p["trace"]) * len(p["trace"][0]) for p in summary["problems"])
        if lines != expected:
            common.append(f"traces.csv has {lines} lines, expected {expected}")
    per_problem = {name: list(common) for name in names}
    for p in summary.get("problems", []):
        found = per_problem.setdefault(p["name"], [])
        if len(p["trace"]) != runs:
            found.append(f"{len(p['trace'])} trace rows, expected {runs}")
        for r, row in enumerate(p["trace"]):
            found.extend(f"run {r}: {msg}" for msg in check_trace(row, p["mean_eval_count"]))
    return per_problem, summary
