"""Command-line interface.

Subcommands: solve, bench, verify, enumerate, problems.  stdout carries
machine-parseable JSON or CSV only; diagnostics go to stderr.  Exit
codes: 0 success, 1 usage/IO/parse errors, 2 infeasible instance,
3 path-space cap exceeded.  Row/column indices in output are 1-based to
match the objective-language variables x1..xn.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import bench as bench_mod
from .engine import SolverConfig, run
from .errors import (
    ExperimentError,
    FreacoError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    PathSpaceTooLargeError,
)
from .fre import path_space_size, path_to_candidate
from .oracle import DEFAULT_PATH_CAP, DEFAULT_SAMPLES_PER_CELL, reference_optimum
from .problems import Problem, builtin_problem, builtin_problems, load_problem_file

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_CAP = 3

#: Paths per lower-corner batch in ``enumerate``, so a large ``--max`` streams
#: in bounded memory.
_ENUMERATE_CHUNK = 1024


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; argparse's default of 2 is reserved for
    # infeasible instances
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _diag(message: str):
    print(message, file=sys.stderr)


def _load(args) -> Problem:
    if args.builtin is not None:
        return builtin_problem(args.builtin)
    return load_problem_file(args.file)


def _add_source_flags(sub, required: bool = True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--file", help="instance JSON file")
    group.add_argument("--builtin", type=int, help="built-in problem number (1-10)")


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freaco", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    defaults = SolverConfig()
    solve = subs.add_parser("solve", help="run the solver on one instance")
    _add_source_flags(solve)
    solve.add_argument("--seed", type=_seed, default=defaults.seed)
    solve.add_argument("--iters", type=int, default=defaults.t_max, help="iteration budget")
    solve.add_argument("--pop", type=int, default=defaults.s_pop, help="archive size")
    solve.add_argument("--q", type=float, default=defaults.q, help="rank-selection locality")
    solve.add_argument("--xi", type=float, default=defaults.xi, help="Gaussian spread factor")
    solve.add_argument("--rho", type=float, default=defaults.rho, help="evaporation rate")
    solve.add_argument(
        "--deposit", type=float, default=defaults.big_q, help="pheromone deposit constant"
    )
    solve.add_argument("--trace", help="write per-iteration best-so-far CSV here")
    solve.add_argument("--out", help="also write the result JSON here")

    bench = subs.add_parser("bench", help="multi-run benchmark over built-in problems")
    bench.add_argument("--problems", default="all", help="'all' or comma list like 1,2,5")
    bench.add_argument("--runs", type=int, default=30)
    bench.add_argument("--seed", type=_seed, default=0, help="base seed; run r uses seed+r")
    bench.add_argument("--out", default=".", help="directory for summary.csv/summary.json/traces.csv")

    verify = subs.add_parser("verify", help="brute-force reference optimum")
    _add_source_flags(verify)
    verify.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES_PER_CELL, help="uniform samples per cell"
    )
    verify.add_argument("--cap", type=int, default=DEFAULT_PATH_CAP, help="path enumeration cap")

    enum = subs.add_parser("enumerate", help="list paths and candidate lower corners")
    _add_source_flags(enum)
    enum.add_argument("--max", type=int, default=10, help="path lines to print (0: header only)")

    subs.add_parser("problems", help="list the built-in problems")
    return parser


def _cmd_solve(args) -> int:
    problem = _load(args)
    config = SolverConfig(
        s_pop=args.pop,
        q=args.q,
        xi=args.xi,
        rho=args.rho,
        big_q=args.deposit,
        t_max=args.iters,
        seed=args.seed,
    )
    result = run(problem, config)
    payload = {
        "problem": problem.name,
        "best_f": result.best.f,
        "best_x": [float(v) for v in result.best.x],
        "eval_count": result.eval_count,
        "iterations": config.t_max,
        "seed": result.seed,
    }
    print(json.dumps(payload))
    if args.trace:
        summary = bench_mod.ExperimentSummary(
            problems=(bench_mod.summarize_runs(problem, [result]),),
            runs=1,
            base_seed=config.seed,
            config=config,
        )
        bench_mod.export(summary, "trace-csv", args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _parse_problem_list(text: str) -> list[Problem]:
    if text.strip().lower() == "all":
        return builtin_problems()
    try:
        indices = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidInstanceError(f"bad --problems list: {text!r}") from None
    if not indices:
        return []
    return [builtin_problem(i) for i in indices]


def _cmd_bench(args) -> int:
    problems = _parse_problem_list(args.problems)
    os.makedirs(args.out, exist_ok=True)
    spec = bench_mod.ExperimentSpec(problems=problems, runs=args.runs, base_seed=args.seed)
    summaries = []
    failures = 0
    for outcome in bench_mod.run_problems(spec):
        if isinstance(outcome, ExperimentError):
            failures += 1
            _diag(f"error: {outcome} ({outcome.__cause__})")
        else:
            summaries.append(outcome)
    summary = bench_mod.ExperimentSummary(
        problems=tuple(summaries),
        runs=spec.runs,
        base_seed=spec.base_seed,
        config=spec.config,
    )
    bench_mod.export(summary, "csv", os.path.join(args.out, "summary.csv"))
    bench_mod.export(summary, "json", os.path.join(args.out, "summary.json"))
    bench_mod.export(summary, "trace-csv", os.path.join(args.out, "traces.csv"))
    sys.stdout.write(bench_mod.summary_csv_text(summary))
    return EXIT_ERROR if failures else EXIT_OK


def _cmd_verify(args) -> int:
    problem = _load(args)
    report = reference_optimum(problem, samples_per_cell=args.samples, cap=args.cap)
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    problem = _load(args)
    inst, sets = problem.instance, problem.sets
    header = {
        "problem": problem.name,
        "xbar": [float(v) for v in problem.xbar],
        "jbar": [[int(j) + 1 for j in cols] for cols in sets],
        "path_count": path_space_size(sets),
    }
    print(json.dumps(header))
    paths = itertools.islice(itertools.product(*sets), max(args.max, 0))
    while chunk := list(itertools.islice(paths, _ENUMERATE_CHUNK)):
        E = np.array(chunk, dtype=np.int64)
        for path, lower in zip(E.tolist(), path_to_candidate(E, inst.b, inst.n).tolist()):
            print(json.dumps({"path": [j + 1 for j in path], "candidate": lower}))
    return EXIT_OK


def _cmd_problems(args) -> int:
    listing = [
        {
            "index": i,
            "name": p.name,
            "rows": p.instance.m,
            "cols": p.instance.n,
            "known_optimum": p.known_optimum,
            "objective": p.objective_src,
        }
        for i, p in enumerate(builtin_problems(), start=1)
    ]
    print(json.dumps(listing, indent=2))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "problems": _cmd_problems,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleInstanceError as exc:
        _diag(f"error: {exc}")
        _diag(f"maximum point: {[float(v) for v in exc.xbar]}")
        _diag(f"violated rows (1-based): {[int(i) + 1 for i in exc.rows]}")
        return EXIT_INFEASIBLE
    except PathSpaceTooLargeError as exc:
        print(json.dumps({"path_count": exc.path_count, "cap": exc.cap, "waived": True}))
        _diag(f"error: {exc}")
        return EXIT_CAP
    except (FreacoError, OSError, ValueError) as exc:
        _diag(f"error: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
