"""Tests of the benchmark's own checks.  Run: python3 -m pytest perfbench"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from freaco import SolverConfig, builtin_problem, fre, run  # noqa: E402

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_checker_counts_infeasible_point_and_wrong_eval_count():
    problem = builtin_problem(1)
    xbar = fre.compute_max_solution(problem.instance)
    good = run(problem, SolverConfig(seed=3))
    infeasible = dataclasses.replace(
        good, best=dataclasses.replace(good.best, x=np.zeros(problem.n)))
    miscounted = dataclasses.replace(good, eval_count=good.eval_count - 1)

    tally = checks.Tally()
    for name, result in [("good", good), ("infeasible", infeasible), ("miscounted", miscounted)]:
        tally.record(name, checks.check_run(problem, result, xbar))

    assert (tally.attempted, tally.failed) == (3, 2)
    assert "residual" in tally.messages[0] and tally.messages[0].startswith("infeasible")
    assert "eval_count" in tally.messages[1] and tally.messages[1].startswith("miscounted")


def test_trace_check_rejects_an_increase():
    assert checks.check_trace([3.0, 2.0, 2.0], 347) == []
    assert checks.check_trace([3.0, 2.0, 2.5], 347) == ["trace increases"]


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)]
    tracer.fold()
    assert tracer.totals["outer"] == {"calls": 1, "incl": 10.0, "self": 6.0}
    assert tracer.totals["inner"] == {"calls": 2, "incl": 4.0, "self": 4.0}


def test_exact_repeat_guard_reports_drift(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "LEDGER", tmp_path / "ledger.json")
    assert bench_run.check_ledger("k", {"best_f.mean": 1.5}) == []
    assert bench_run.check_ledger("k", {"best_f.mean": 1.5}) == []
    assert bench_run.check_ledger("k", {"best_f.mean": 1.25}) == ["best_f.mean was 1.5, now 1.25"]
