"""freaco: ant-colony optimization under max-min relational constraints.

Minimizes a nonlinear objective over the solution set of a fuzzy
relational equation system ``A phi x = b`` (max-min composition) by
pairing a combinatorial pheromone walk over the system's candidate
structure with Gaussian archive sampling inside the feasible boxes it
selects.  Includes a brute-force verification oracle, a benchmark
harness and a command-line interface (``freaco``).
"""

from .bench import (
    ExperimentSpec,
    ExperimentSummary,
    ProblemSummary,
    export,
    run_experiment,
)
from .engine import (
    ArchiveSolution,
    PheromoneMatrix,
    RunResult,
    SolverConfig,
    run,
    run_many,
)
from .errors import (
    DimensionMismatchError,
    EvalDomainError,
    ExperimentError,
    ExprParseError,
    FreacoError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidPathError,
    PathSpaceTooLargeError,
)
from .expr import Expr, evaluate, evaluate_many, parse
from .fre import (
    EPS_EQ,
    Instance,
    compose_many,
    compute_candidate_sets,
    compute_max_solution,
    is_feasible,
    path_space_size,
    path_to_candidate,
    residual,
)
from .oracle import (
    OracleReport,
    enumerate_paths,
    random_feasible_instance,
    reference_optimum,
)
from .problems import (
    Problem,
    builtin_problem,
    builtin_problems,
    load_problem_file,
    make_problem,
    problem_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "ArchiveSolution",
    "DimensionMismatchError",
    "EPS_EQ",
    "EvalDomainError",
    "ExperimentError",
    "ExperimentSpec",
    "ExperimentSummary",
    "Expr",
    "ExprParseError",
    "FreacoError",
    "InfeasibleInstanceError",
    "Instance",
    "InvalidInstanceError",
    "InvalidPathError",
    "OracleReport",
    "PathSpaceTooLargeError",
    "PheromoneMatrix",
    "Problem",
    "ProblemSummary",
    "RunResult",
    "SolverConfig",
    "builtin_problem",
    "builtin_problems",
    "compose_many",
    "compute_candidate_sets",
    "compute_max_solution",
    "enumerate_paths",
    "evaluate",
    "evaluate_many",
    "export",
    "is_feasible",
    "load_problem_file",
    "make_problem",
    "parse",
    "path_space_size",
    "path_to_candidate",
    "problem_from_dict",
    "random_feasible_instance",
    "reference_optimum",
    "residual",
    "run",
    "run_experiment",
    "run_many",
]
