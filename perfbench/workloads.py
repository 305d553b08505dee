"""The benchmark's workloads, run in a fresh child process by run.py.

Usage: python3 perfbench/workloads.py --workload NAME --seed N --seconds S
       --trace 0|1 --workdir DIR [--instance PATH]

Prints one JSON object on its last stdout line.  With ``--trace 0`` it holds
the timed units of the closed loop (one caller, the next job starts when the
previous one returned), the quality value and the process's peak memory;
with ``--trace 1`` the per-layer figures from an outside-in trace.  Both
modes run the output checks on every job.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from freaco import bench, cli, engine, fre, oracle, problems  # noqa: E402
from calib import ScaledTimer, scale_factor  # noqa: E402
from checks import Tally, check_bench_call, check_oracle, check_run  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Solver seeds of workload seed s are s * SEED_STRIDE + 0, 1, 2, ...
SEED_STRIDE = 1_000_000
#: Rounds over the ten built-in problems whose finals give best_f.mean.
#: bench-pool runs the same jobs as one `bench --runs 4` call.
FIXED_ROUNDS = 4
#: Calibration period inside long timed units (see calib.ScaledTimer).
SAMPLE_EVERY_S = 0.1
#: Calibration loops after each unit where one factor scales the whole run.
RUN_SCALING_GAP_SAMPLES = 10


class Workload:
    """A stream of timed units; a unit runs ``size(unit)`` solver jobs."""

    warmup = True  # run the first unit once, untimed, before measuring
    #: How times are scaled to reference speed (see calib.py): per timed
    #: unit, or by one factor for the whole run where the work runs in
    #: worker processes.
    per_unit_scaling = True
    min_units = 1
    fixed_units = 1  # leading units whose results give best_f.mean
    trace_units = 1  # units per traced (and untraced) pass in trace mode

    def __init__(self, seed: int, instance: str | None, workdir: str):
        self.seed = seed
        self.instance_path = instance
        self.workdir = workdir

    def size(self, unit) -> int:
        return 1

    def prepare(self, timer: ScaledTimer, tally: Tally):
        """Untimed work after loading and before the first timed unit."""

    def job_name(self, unit) -> str:
        return str(unit)

    def describe(self) -> list[dict]:
        out = []
        for p in self.problems:
            sets = fre.compute_candidate_sets(p.instance)
            out.append({
                "problem": p.name,
                "m": p.instance.m,
                "n": p.instance.n,
                "mean_candidates": float(np.mean([s.size for s in sets])),
                "log10_paths": math.log10(fre.path_space_size(sets)),
            })
        return out


class BuiltinProtocol(Workload):
    """Ten built-in problems x consecutive seeds, one engine.run per job."""

    min_units = 10 * FIXED_ROUNDS
    fixed_units = 10 * FIXED_ROUNDS
    trace_units = 10

    def load(self):
        self.problems = problems.builtin_problems()
        self.xbars = [fre.compute_max_solution(p.instance) for p in self.problems]

    def units(self):
        r = 0
        while True:
            for i in range(len(self.problems)):
                yield i, self.seed * SEED_STRIDE + r
            r += 1

    def job_name(self, unit):
        i, s = unit
        return f"{self.problems[i].name} seed {s}"

    def do(self, unit):
        i, s = unit
        return engine.run(self.problems[i], engine.SolverConfig(seed=s))

    def check(self, unit, result, tally: Tally) -> list[float]:
        """Record the job's output checks; return its final best value(s)."""
        i, _ = unit
        tally.record(self.job_name(unit), check_run(self.problems[i], result, self.xbars[i]))
        return [result.best.f]


class PlantedLarge(BuiltinProtocol):
    """One planted 500x1000 instance read from its JSON file, seeds 0, 1, ..."""

    warmup = False
    min_units = 3
    fixed_units = 3
    trace_units = 1

    def load(self):
        self.problems = [problems.load_problem_file(self.instance_path)]
        self.xbars = [fre.compute_max_solution(self.problems[0].instance)]

    def units(self):
        k = 0
        while True:
            yield 0, self.seed * SEED_STRIDE + k
            k += 1


class OracleVerify(Workload):
    """oracle.reference_optimum with default settings, one job per problem."""

    min_units = 10
    fixed_units = 10
    trace_units = 10

    def load(self):
        self.problems = problems.builtin_problems()

    def units(self):
        r = 0
        while True:
            for i in range(len(self.problems)):
                yield i, r
            r += 1

    def job_name(self, unit):
        i, r = unit
        return f"oracle {self.problems[i].name} pass {r}"

    def do(self, unit):
        i, r = unit
        rng = np.random.default_rng([self.seed, r])
        return oracle.reference_optimum(self.problems[i], rng=rng)

    def check(self, unit, result, tally: Tally) -> list[float]:
        tally.record(self.job_name(unit), check_oracle(self.problems[unit[0]], result))
        return [result.best_value]


class BenchPool(Workload):
    """`freaco bench --problems all --runs 4` calls through cli.main.

    Call k covers the same (problem, seed) jobs as rounds 4k..4k+3 of
    builtin-protocol.  The parent cannot time single jobs inside the pool
    workers, so a unit is one call and a job's time is the call's time
    divided by its 40 jobs.  Before timing, the first call's jobs run here
    through engine.run; every call over those seeds must reproduce their
    traces bit for bit.
    """

    warmup = False
    per_unit_scaling = False
    min_units = 2

    def load(self):
        self.problems = problems.builtin_problems()
        self.xbars = [fre.compute_max_solution(p.instance) for p in self.problems]

    def prepare(self, timer: ScaledTimer, tally: Tally):
        self.first = next(self.units())
        self.expected, self.serial_s, _ = timer.time(self._serial, self.first, tally)

    def _serial(self, unit, tally: Tally) -> dict:
        out = {}
        for i, p in enumerate(self.problems):
            for r in range(FIXED_ROUNDS):
                result = engine.run(p, engine.SolverConfig(seed=unit + r))
                tally.record(f"engine.run {p.name} seed {unit + r}",
                             check_run(p, result, self.xbars[i]))
                out[p.name, r] = result.trace.tolist()
        return out

    def size(self, unit) -> int:
        return len(self.problems) * FIXED_ROUNDS

    def units(self):
        k = 0
        while True:
            yield self.seed * SEED_STRIDE + k * FIXED_ROUNDS
            k += 1

    def job_name(self, unit):
        return f"bench call seed {unit}"

    def do(self, unit):
        outdir = tempfile.mkdtemp(prefix="bench-", dir=self.workdir)
        argv = ["bench", "--problems", "all", "--runs", str(FIXED_ROUNDS),
                "--seed", str(unit), "--out", outdir]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue(), outdir

    def check(self, unit, result, tally: Tally) -> list[float]:
        status, stdout, outdir = result
        names = [p.name for p in self.problems]
        try:
            found, summary = check_bench_call(status, stdout, outdir, names, FIXED_ROUNDS)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        traces = {p["name"]: p["trace"] for p in summary.get("problems", [])}
        if unit == self.first:
            for (name, r), want in self.expected.items():
                got = traces.get(name, [])
                if len(got) <= r or got[r] != want:
                    found[name].append(f"run {r} differs from engine.run")
        for name in names:
            tally.record(f"{self.job_name(unit)} {name}", found[name], FIXED_ROUNDS)
        return [row[-1] for name in names for row in traces.get(name, [])]


WORKLOADS = {
    "builtin-protocol": BuiltinProtocol,
    "planted-large": PlantedLarge,
    "oracle-verify": OracleVerify,
    "bench-pool": BenchPool,
}


def _timer(w: Workload, sample_inside: bool) -> ScaledTimer:
    if not w.per_unit_scaling:
        return ScaledTimer(gap_samples=RUN_SCALING_GAP_SAMPLES)
    return ScaledTimer(sample_every=SAMPLE_EVERY_S if sample_inside else None)


def measure(w: Workload, seconds: float) -> dict:
    """Closed loop: time units back to back for ``seconds`` (and min_units)."""
    w.load()
    tally = Tally()
    timer = _timer(w, sample_inside=True)
    w.prepare(timer, tally)
    if w.warmup:
        first = next(w.units())
        w.check(first, w.do(first), Tally())
    units, finals = [], []
    start = time.perf_counter()
    for index, unit in enumerate(w.units()):
        result, raw, scaled = timer.time(w.do, unit)
        units.append([raw, scaled, w.size(unit)])
        values = w.check(unit, result, tally)
        if index < w.fixed_units:
            finals.extend(values)
        if index + 1 >= w.min_units and time.perf_counter() - start >= seconds:
            break
    if not w.per_unit_scaling:
        factor = timer.run_factor()
        for u in units:
            u[1] = u[0] * factor
    usage = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "units": units,
        "best_f_mean": float(np.mean(finals)) if finals else float("nan"),
        "fixed_jobs": len(finals),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "workers_peak_rss_mb": workers.ru_maxrss / 1024.0,
        "calib_median_s": float(np.median(timer.calib_samples)),
        "tally": tally,
        "inputs": w.describe(),
    }


def _run_pass(w: Workload, units: list, timer: ScaledTimer) -> tuple[float, list]:
    total, results = 0.0, []
    for unit in units:
        result, raw, scaled = timer.time(w.do, unit)
        total += scaled if w.per_unit_scaling else raw
        results.append(result)
    return total, results


def trace(w: Workload, seconds: float, trace_csv: str) -> dict:
    """Alternate untraced and traced passes over the same units.

    Spans of the loading step and of the first traced pass are written to
    ``trace_csv``; later passes only add to the totals.
    """
    if os.path.exists(trace_csv):
        os.remove(trace_csv)
    tracer = Tracer()
    tracer.install()
    try:
        w.load()
    finally:
        tracer.uninstall()
    tracer.fold(trace_csv, "load")
    load = dict(tracer.totals)
    tracer.reset()

    tally = Tally()
    timer = _timer(w, sample_inside=False)  # a sample would land inside spans
    w.prepare(timer, tally)
    units = list(itertools.islice(w.units(), w.trace_units))
    if w.warmup:
        w.check(units[0], w.do(units[0]), Tally())
    plain = traced = 0.0
    passes = 0
    pass_calib: list[float] = []
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        spent, untraced_results = _run_pass(w, units, timer)
        plain += spent
        mark = len(timer.calib_samples)
        tracer.install()
        try:
            spent, traced_results = _run_pass(w, units, timer)
        finally:
            tracer.uninstall()
        traced += spent
        pass_calib.extend(timer.calib_samples[mark:])
        for unit, a, b in zip(units, untraced_results, traced_results):
            w.check(unit, a, tally)
            w.check(unit, b, tally)
        tracer.fold(trace_csv if passes == 0 else None, "jobs")
        passes += 1

    jobs = passes * sum(w.size(u) for u in units)
    calls = passes * len(units)
    scale = scale_factor(pass_calib)
    if not w.per_unit_scaling:
        plain *= timer.run_factor()
        traced *= timer.run_factor()
    efficiency = 0.0
    if isinstance(w, BenchPool):
        workers = min(bench.thread_budget(), FIXED_ROUNDS)
        serial = w.serial_s * timer.run_factor()
        efficiency = (jobs / plain) / (workers * w.size(w.first) / serial)
    return {
        "per_layer": per_layer(
            tracer, load, jobs, calls, scale, traced / plain - 1.0, efficiency),
        "self_time": self_time_table(tracer.totals, jobs, scale),
        "tally": tally,
        "traced_jobs": jobs,
        "passes": passes,
        "inputs": w.describe(),
    }


def self_time_table(totals: dict, jobs: int, scale: float) -> list[dict]:
    """Every traced function by falling self time: calls and ms per job, share."""
    whole = sum(row["self"] for row in totals.values()) or 1.0
    rows = [{"name": name, "calls": row["calls"] / jobs,
             "self_ms": 1e3 * scale * row["self"] / jobs, "share": row["self"] / whole}
            for name, row in totals.items()]
    return sorted(rows, key=lambda r: -r["self_ms"])


def per_layer(tracer: Tracer, load: dict, jobs: int, calls: int, scale: float,
              overhead: float, parallel_efficiency: float) -> dict[str, float]:
    """Per-layer figures, per job (bench.* and cli.* per CLI call).

    Loading figures (problems.load.ms, expr.parse.ms) are per load of the
    workload's problems.  Times are scaled to reference speed by ``scale``.
    """
    tot = tracer.totals

    def get(name, key):
        return tot.get(name, {}).get(key, 0.0)

    def ms(name, key="self", per=jobs):
        return 1e3 * scale * get(name, key) / per

    def ratio(num, den):
        return num / den if den else 0.0

    rows = tracer.work["engine.construct_paths"]
    points = tracer.work["expr.evaluate_many"]
    paths = tracer.work["oracle.reference_optimum"]
    cells = tracer.work["oracle.reference_optimum.cells"]
    evals = get("expr.evaluate", "calls")
    return {
        "engine.run.self_ms": ms("engine.run"),
        "engine.deposit.calls": get("engine.deposit", "calls") / jobs,
        "engine.deposit.self_ms": ms("engine.deposit"),
        "engine.update_pheromone.self_ms": ms("engine.update_pheromone"),
        "engine.sample_solution.self_ms": ms("engine.sample_solution"),
        "engine.sigma_vector.self_ms": ms("engine.sigma_vector"),
        "engine.select_rank.self_ms": ms("engine.select_rank"),
        "engine.construct_paths.self_ms": ms("engine.construct_paths"),
        "engine.construct_paths.us_per_row": 1e6 * scale * ratio(get("engine.construct_paths", "self"), rows),
        "engine.probability_matrix.self_ms": ms("engine.probability_matrix"),
        "expr.evaluate.calls": evals / jobs,
        "expr.evaluate.self_ms": ms("expr.evaluate"),
        "expr.evaluate.us_per_call": 1e6 * scale * ratio(get("expr.evaluate", "self"), evals),
        "expr.evaluate_many.calls": get("expr.evaluate_many", "calls") / jobs,
        "expr.evaluate_many.points": points / jobs,
        "expr.evaluate_many.ns_per_point": 1e9 * scale * ratio(get("expr.evaluate_many", "self"), points),
        "expr.parse.ms": 1e3 * scale * load.get("expr.parse", {}).get("incl", 0.0),
        "expr.errors": sum(v for k, v in tracer.errors.items() if k.startswith("expr.")) / jobs,
        "fre.path_to_candidate.calls": get("fre.path_to_candidate", "calls") / jobs,
        "fre.path_to_candidate.self_ms": ms("fre.path_to_candidate"),
        "fre.structure.ms": 1e3 * scale * tracer.structure_s / jobs,
        "oracle.self_ms": ms("oracle.reference_optimum"),
        "oracle.enumerate_paths.ms": ms("oracle.enumerate_paths", "incl"),
        "oracle.paths": paths / jobs,
        "oracle.cells": cells / jobs,
        "oracle.cell_yield": ratio(cells, paths),
        "problems.load.ms": 1e3 * scale * sum(
            row["self"] for name, row in load.items() if name.startswith("problems.")),
        "bench.pools_started": tracer.pools / calls,
        "bench.run_experiment.ms": ms("bench.run_experiment", "incl", calls),
        "bench.summarize.ms": ms("bench.summarize_runs", "incl", calls),
        "bench.export.ms": ms("bench.export", "incl", calls),
        "bench.export.bytes": tracer.work["bench.export"] / calls,
        "bench.parallel_efficiency": parallel_efficiency,
        "cli.self_ms": 1e3 * scale * sum(
            row["self"] for name, row in tot.items() if name.startswith("cli.")) / calls,
        "trace.overhead": overhead,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--instance")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload](args.seed, args.instance, args.workdir)
    if args.trace:
        out = trace(w, args.seconds, os.path.join(args.workdir, f"trace-{args.workload}.csv"))
    else:
        out = measure(w, args.seconds)
    tally = out.pop("tally")
    out.update(attempted=tally.attempted, failed=tally.failed, messages=tally.messages,
               numpy=np.__version__, freaco_file=problems.__file__,
               freaco_threads=os.environ.get("FREACO_THREADS"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
