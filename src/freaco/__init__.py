"""freaco: ant-colony optimization under max-min relational constraints.

Minimizes a nonlinear objective over the solution set of a fuzzy
relational equation system ``A phi x = b`` (max-min composition) by
pairing a combinatorial pheromone walk over the system's candidate
structure with Gaussian archive sampling inside the feasible boxes it
selects.  Includes a brute-force verification oracle, a benchmark
harness and a command-line interface (``freaco``).

``import freaco`` loads none of its layers.  Each public name lives in
one home module, listed in ``_EXPORTS``; the first access to the name
(``freaco.run``, ``from freaco import run``) imports that module and
binds the name here (PEP 562).  Building problems therefore loads only
``errors``, ``expr``, ``fre`` and ``problems``; ``engine``, ``oracle``
and ``bench`` (with its process-pool imports) load when a caller first
reaches them.  The home modules resolve as attributes too: reading
``freaco.engine`` imports that module.
"""

import sys

__version__ = "0.1.0"

#: Public names by home module: the one place each is declared.
_EXPORTS = {
    "bench": ("ExperimentSpec", "ExperimentSummary", "ProblemSummary", "export", "run_experiment"),
    "engine": ("ArchiveSolution", "PheromoneMatrix", "RunResult", "SolverConfig", "run", "run_many"),
    "errors": (
        "DimensionMismatchError",
        "EvalDomainError",
        "ExperimentError",
        "ExprParseError",
        "FreacoError",
        "InfeasibleInstanceError",
        "InvalidInstanceError",
        "InvalidPathError",
        "PathSpaceTooLargeError",
    ),
    "expr": ("Expr", "evaluate", "evaluate_many", "parse"),
    "fre": (
        "EPS_EQ",
        "Instance",
        "compose_many",
        "compute_candidate_sets",
        "compute_max_solution",
        "is_feasible",
        "path_space_size",
        "path_to_candidate",
        "residual",
    ),
    "oracle": ("OracleReport", "enumerate_paths", "random_feasible_instance", "reference_optimum"),
    "problems": (
        "Problem",
        "builtin_problem",
        "builtin_problems",
        "load_problem_file",
        "make_problem",
        "problem_from_dict",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _load(module):
    qualified = f"{__name__}.{module}"
    __import__(qualified)  # not importlib.import_module, whose imports -X importtime does not time
    return sys.modules[qualified]


def __getattr__(name):
    if name in _EXPORTS:
        return _load(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
