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
    FreacoError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    PathSpaceTooLargeError,
    whole,
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


def _add_source_flags(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="instance JSON file")
    group.add_argument("--builtin", type=int, help="built-in problem number (1-10)")


#: ``solve``'s solver flags: (flag, :class:`SolverConfig` field, type, help).
_SOLVER_FLAGS = (
    ("seed", "seed", int, None),
    ("iters", "t_max", int, "iteration budget"),
    ("pop", "s_pop", int, "archive size"),
    ("q", "q", float, "rank-selection locality"),
    ("xi", "xi", float, "Gaussian spread factor"),
    ("rho", "rho", float, "evaporation rate"),
    ("deposit", "big_q", float, "pheromone deposit constant"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freaco", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    defaults = SolverConfig()
    solve = subs.add_parser("solve", help="run the solver on one instance")
    _add_source_flags(solve)
    for flag, field, kind, text in _SOLVER_FLAGS:
        solve.add_argument(f"--{flag}", type=kind, default=getattr(defaults, field), help=text)
    solve.add_argument("--trace", help="write per-iteration best-so-far CSV here")
    solve.add_argument("--out", help="also write the result JSON here")

    bench = subs.add_parser("bench", help="multi-run benchmark over built-in problems")
    bench.add_argument("--problems", default="all", help="'all' or comma list like 1,2,5")
    bench.add_argument("--runs", type=int, default=30)
    bench.add_argument("--seed", type=int, default=0, help="base seed; run r uses seed+r")
    files = "/".join(name for name, _ in bench_mod.OUT_FILES)
    bench.add_argument("--out", default=".", help=f"directory for {files}")

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
    config = SolverConfig(**{field: getattr(args, flag) for flag, field, _, _ in _SOLVER_FLAGS})
    result = run(problem, config)
    payload = {
        "problem": problem.name,
        "best_f": result.best.f,
        "best_x": [float(v) for v in result.best.x],
        "eval_count": result.eval_count,
        "iterations": config.t_max,
        "seed": result.seed,
    }
    if args.trace:
        bench_mod.write_trace_csv(args.trace, [(problem.name, [result.trace])])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(json.dumps(payload))  # after the files, so a failed write leaves stdout empty
    return EXIT_OK


def _parse_problem_list(text: str) -> list[Problem]:
    if text.strip().lower() == "all":
        return builtin_problems()
    try:
        indices = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidInstanceError(f"bad --problems list: {text!r}") from None
    return [builtin_problem(i) for i in indices]


def _cmd_bench(args) -> int:
    problems = _parse_problem_list(args.problems)
    spec = bench_mod.ExperimentSpec(problems=problems, runs=args.runs, base_seed=args.seed)
    summary, failures = bench_mod.run_problems(spec)
    for error in failures:
        _diag(f"error: {error} ({error.__cause__})")
    os.makedirs(args.out, exist_ok=True)  # after the runs, so a failed setting leaves no directory
    for name, format in bench_mod.OUT_FILES:
        bench_mod.export(summary, format, os.path.join(args.out, name))
    sys.stdout.write(bench_mod.summary_csv_text(summary))
    return EXIT_ERROR if failures else EXIT_OK


def _cmd_verify(args) -> int:
    problem = _load(args)
    report = reference_optimum(problem, samples_per_cell=args.samples, cap=args.cap)
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    count = whole("max", args.max, 0)
    problem = _load(args)
    inst, sets = problem.instance, problem.sets
    header = {
        "problem": problem.name,
        "xbar": [float(v) for v in problem.xbar],
        "jbar": [[int(j) + 1 for j in cols] for cols in sets],
        "path_count": path_space_size(sets),
    }
    print(json.dumps(header))
    paths = itertools.islice(itertools.product(*sets), count)
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
