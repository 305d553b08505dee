"""Problem bundles: a constraint instance plus a parsed objective.

Ships a registry of ten built-in benchmark problems and the JSON file
format consumed by the command line::

    {
      "name": "...",
      "A": [[...], ...],          # m x n, entries in [0, 1]
      "b": [...],                 # length m, entries in [0, 1]
      "objective": "x1*x4 - x2*x3*x5 + x6^2",
      "known_optimum": -0.0096019  # optional: a finite number or null
    }

Malformed data (an entry of ``A`` or ``b`` that is not a JSON number,
such as ``"0.5"`` or ``true``, a ragged row, a ``known_optimum`` that is
not a finite number) raises :class:`InvalidInstanceError`.

A :class:`Problem` is feasible by construction: building one computes the
system's greatest solution ``xbar`` and its per-row candidate sets once,
raising :class:`InfeasibleInstanceError` when some row has no candidate.
The solver, the oracle and the command line read that structure from the
problem instead of deriving it again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidInstanceError
from .expr import Expr, parse
from .fre import Instance, Record, compute_candidate_sets, compute_max_solution


@dataclass(frozen=True, eq=False)
class Problem(Record):
    """A named minimization problem over a constraint instance, feasible by type.

    ``xbar`` (the greatest solution, length n) and ``sets`` (one array of
    candidate columns per row) are computed once, when the problem is
    built, and are read-only.  Building a problem over an unsolvable
    system raises :class:`InfeasibleInstanceError`, carrying ``xbar`` and
    the rows it violates.
    """

    name: str
    instance: Instance
    objective: Expr
    objective_src: str
    known_optimum: float | None = None
    xbar: np.ndarray = field(init=False, repr=False)
    sets: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        xbar = compute_max_solution(self.instance)
        sets = compute_candidate_sets(self.instance, xbar)  # raises when infeasible
        self.__setstate__({"xbar": xbar, "sets": tuple(sets)})

    @property
    def n(self) -> int:
        return self.instance.n


def make_problem(
    name: str, A, b, objective_src: str, known_optimum: float | None = None
) -> Problem:
    """Validate data, parse the objective and build the (feasible) problem."""
    instance = Instance(A, b)
    return Problem(name, instance, parse(objective_src, instance.n), objective_src, known_optimum)


def problem_from_dict(data: dict, default_name: str = "instance") -> Problem:
    if not isinstance(data, dict):
        raise InvalidInstanceError("instance file must hold a JSON object")
    for key in ("A", "b", "objective"):
        if key not in data:
            raise InvalidInstanceError(f"instance file is missing key {key!r}")
    name = data.get("name", default_name)
    if not isinstance(name, str):
        raise InvalidInstanceError("'name' must be a string")
    if not isinstance(data["objective"], str):
        raise InvalidInstanceError("'objective' must be a string expression")
    for key in ("A", "b"):
        _check_numbers(key, data[key])
    return make_problem(
        name, data["A"], data["b"], data["objective"], _known_optimum(data.get("known_optimum"))
    )


def _check_numbers(key: str, value) -> None:
    """Refuse JSON strings and booleans in ``A`` or ``b``, which numpy
    would read as numbers ("0.5" as 0.5, true as 1.0)."""
    for row in value if isinstance(value, list) else [value]:
        if not {str, bool}.isdisjoint(map(type, row if isinstance(row, list) else [row])):
            raise InvalidInstanceError(
                f"entries of {key!r} must be numbers, not strings or booleans"
            )


def _known_optimum(value) -> float | None:
    """An instance file's ``known_optimum``: a finite JSON number, or null."""
    if value is None:
        return None
    # bool is a subclass of int, but JSON true is not a number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInstanceError("'known_optimum' must be a number or null")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise InvalidInstanceError("'known_optimum' must be finite")
    return value


def load_problem_file(path) -> Problem:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInstanceError(f"{path}: invalid JSON ({exc})") from exc
    return problem_from_dict(data, default_name=str(path))


# ---------------------------------------------------------------------------
# Built-in benchmark problems (4-decimal data).  Each optimum is the
# paper's recorded figure; it matches the cell minima of the stored data
# only to about 1e-3, and on problems 3 and 10 certified feasible points
# of the stored data reach below it (80.372260 and 55.788627; see
# tests/test_acceptance.py).  Problem 5 keeps its printed 8 x 10 system
# even though only x9*x10 of the tail variables appears in the objective;
# problem 10 keeps the (x7 - 1)^2 leading term verbatim.

_BUILTINS = [
    dict(
        name="problem-01",
        objective="ln(0.5 + x1^2*x2 + x3) - x4^2 + x5*x6",
        optimum=-0.0096019,
        A=[
            [0.1795, 0.9194, 0.6636, 0.2774, 0.1598, 0.8240],
            [0.6077, 0.4035, 0.7116, 0.7843, 0.2370, 0.6523],
            [0.9365, 0.3045, 0.2486, 0.3578, 0.7174, 0.5950],
            [0.1200, 0.1041, 0.0306, 0.1692, 0.0409, 0.2391],
        ],
        b=[0.8501, 0.5064, 0.3178, 0.1263],
    ),
    dict(
        name="problem-02",
        objective="sin(x1*x2) + (1 - cos(x1*x3)) + x4 + x5^2 + x6^3",
        optimum=0.8197,
        A=[
            [0.7515, 0.0275, 0.8476, 0.9867, 0.9788, 0.8664],
            [0.8268, 0.1254, 0.8037, 0.5647, 0.9216, 0.0806],
            [0.3641, 0.5033, 0.5515, 0.5515, 0.1354, 0.0200],
            [0.0826, 0.5188, 0.2551, 0.1630, 0.1430, 0.1882],
            [0.6395, 0.7118, 0.2717, 0.3305, 0.2062, 0.0968],
            [0.8624, 0.0310, 0.0027, 0.0939, 0.0637, 0.1416],
        ],
        b=[0.8629, 0.8629, 0.5515, 0.3789, 0.3789, 0.1846],
    ),
    dict(
        name="problem-03",
        objective=(
            "(x1 + 10*x2)^2 + 5*(x3 - x4)^2 + (x2 - 2*x3)^4"
            " + 10*(x1 - x4)^4 - x5 - x6 + (2*x7 + x8)^2"
        ),
        optimum=80.3752,
        A=[
            [0.7715, 0.1104, 0.8930, 0.2939, 0.9973, 0.8488, 0.7017, 0.7097],
            [0.7837, 0.9825, 0.6753, 0.7218, 0.3572, 0.1096, 0.0955, 0.2023],
            [0.2266, 0.5948, 0.9205, 0.1939, 0.0579, 0.2825, 0.8445, 0.8758],
            [0.2706, 0.2968, 0.3066, 0.5945, 0.3039, 0.9097, 0.1923, 0.7678],
            [0.8174, 0.3458, 0.8938, 0.6455, 0.1174, 0.1441, 0.4414, 0.5699],
            [0.0249, 0.0908, 0.2651, 0.6559, 0.3363, 0.2911, 0.8178, 0.3700],
            [0.4353, 0.2784, 0.2792, 0.9595, 0.0716, 0.2301, 0.7262, 0.2997],
            [0.8223, 0.1216, 0.1137, 0.2890, 0.0377, 0.0720, 0.0247, 0.0424],
        ],
        b=[0.9701, 0.8656, 0.836, 0.7911, 0.6082, 0.4634, 0.4634, 0.3614],
    ),
    dict(
        name="problem-04",
        objective="x1 - x2 - x3 - x1*x3*x5 + x1*x4*x6 + x2*x3*x7 - x2*x4*x8",
        optimum=-0.39657,
        A=[
            [0.4396, 0.2216, 0.1336, 0.4682, 0.2772, 0.8983, 0.0122, 0.9332],
            [0.9873, 0.4027, 0.3235, 0.7378, 0.1593, 0.2108, 0.9007, 0.5111],
            [0.8249, 0.8397, 0.0379, 0.5054, 0.5326, 0.0086, 0.5167, 0.5803],
            [0.6048, 0.3073, 0.2749, 0.8800, 0.9793, 0.8859, 0.0555, 0.4956],
            [0.3716, 0.9327, 0.4145, 0.9292, 0.9334, 0.8875, 0.1859, 0.4239],
            [0.2154, 0.6681, 0.8953, 0.9269, 0.9579, 0.6790, 0.0914, 0.4114],
            [0.1082, 0.2890, 0.0888, 0.0474, 0.1065, 0.1732, 0.0550, 0.0853],
            [0.0141, 0.0057, 0.0098, 0.0094, 0.0011, 0.8573, 0.0025, 0.0104],
        ],
        b=[0.8964, 0.788, 0.788, 0.6414, 0.6414, 0.6414, 0.1439, 0.0152],
    ),
    dict(
        name="problem-05",
        objective="x1*x2*x3*x4*x5 - x6*x7*x8 + x9*x10",
        optimum=-0.27162,
        A=[
            [0.0600, 0.2511, 0.9209, 0.2276, 0.9494, 0.2828, 0.3557, 0.7488, 0.2268, 0.8434],
            [0.7095, 0.4247, 0.7763, 0.3525, 0.1900, 0.8615, 0.8905, 0.5769, 0.6407, 0.9594],
            [0.7882, 0.9146, 0.9574, 0.8091, 0.7355, 0.7893, 0.2965, 0.2424, 0.4028, 0.3092],
            [0.7316, 0.9271, 0.1748, 0.5008, 0.2375, 0.0025, 0.2371, 0.9715, 0.6156, 0.7659],
            [0.6527, 0.6507, 0.0047, 0.2099, 0.2427, 0.7713, 0.2320, 0.6045, 0.9449, 0.2445],
            [0.4446, 0.7154, 0.9425, 0.5271, 0.3922, 0.5485, 0.1432, 0.3793, 0.3806, 0.0079],
            [0.4234, 0.7731, 0.7489, 0.2736, 0.3397, 0.6579, 0.2917, 0.7944, 0.0262, 0.3958],
            [0.1634, 0.6629, 0.6402, 0.3769, 0.4384, 0.6023, 0.2094, 0.0423, 0.5819, 0.5587],
        ],
        b=[0.9, 0.7898, 0.7898, 0.6392, 0.6392, 0.5864, 0.5864, 0.5864],
    ),
    dict(
        name="problem-06",
        objective="x1 + 2*x2 + 4*x5 + exp(x1*x4*x6) - x7*x8*exp(2*x9 - x10)",
        optimum=1.2612,
        A=[
            [0.3929, 0.9766, 0.6832, 0.5287, 0.3723, 0.8749, 0.0264, 0.9018, 0.6531, 0.9819],
            [0.3702, 0.1480, 0.8312, 0.4065, 0.1637, 0.4962, 0.9869, 0.0881, 0.621, 0.3531],
            [0.2097, 0.7964, 0.3923, 0.4738, 0.2785, 0.1016, 0.2955, 0.3064, 0.9609, 0.7242],
            [0.3012, 0.6326, 0.1887, 0.9143, 0.1486, 0.4006, 0.4166, 0.8941, 0.5663, 0.0352],
            [0.6560, 0.2583, 0.1, 0.8502, 0.9685, 0.8324, 0.959, 0.4153, 0.5783, 0.347],
            [0.6323, 0.3277, 0.3326, 0.2621, 0.9914, 0.6775, 0.3566, 0.6403, 0.3587, 0.1329],
            [0.0060, 0.9824, 0.0962, 0.1946, 0.7119, 0.4264, 0.0015, 0.2420, 0.1303, 0.0409],
            [0.0841, 0.8233, 0.0659, 0.1416, 0.1047, 0.3487, 0.1516, 0.0203, 0.0451, 0.0250],
            [0.0462, 0.4195, 0.0872, 0.0782, 0.3259, 0.4444, 0.0940, 0.3063, 0.0446, 0.0207],
        ],
        b=[0.9264, 0.7977, 0.7389, 0.5941, 0.5941, 0.4387, 0.2327, 0.2327, 0.2327],
    ),
    dict(
        name="problem-07",
        objective="sum(k, 1, 9, 100*(x(k+1) - x(k)^2)^2 + (1 - x(k))^2)",
        optimum=140.4693,
        A=[
            [0.812, 0.6281, 0.063, 0.9803, 0.5762, 0.0276, 0.7127, 0.7648, 0.8193, 0.6619],
            [0.2792, 0.8521, 0.3791, 0.2889, 0.7784, 0.9202, 0.2201, 0.3630, 0.7759, 0.5705],
            [0.5447, 0.4706, 0.8592, 0.0901, 0.1094, 0.3421, 0.2168, 0.6405, 0.9930, 0.8925],
            [0.1321, 0.817, 0.0413, 0.4569, 0.7193, 0.2761, 0.8406, 0.1417, 0.7484, 0.2615],
            [0.7253, 0.5051, 0.8847, 0.2749, 0.4410, 0.4622, 0.5527, 0.1059, 0.1547, 0.8351],
            [0.4919, 0.2471, 0.9033, 0.0069, 0.1081, 0.1483, 0.0753, 0.0198, 0.4540, 0.3356],
            [0.3794, 0.5373, 0.0599, 0.0794, 0.1231, 0.1716, 0.1662, 0.0796, 0.1595, 0.8758],
        ],
        b=[0.9303, 0.7619, 0.6297, 0.5097, 0.4705, 0.2733, 0.2619],
    ),
    dict(
        name="problem-08",
        objective=(
            "-0.5*(x1*x4 - x2*x3 + x2*x6 - x5*x6 + x4*x5 - x6*x7"
            " + x8*x10 - x9*x10)"
        ),
        optimum=-0.10108,
        A=[
            [0.2538, 0.9943, 0.5048, 0.5869, 0.1514, 0.5405, 0.1415, 0.5711, 0.4177, 0.1420],
            [0.2186, 0.6899, 0.1047, 0.8187, 0.7933, 0.9628, 0.7216, 0.0617, 0.1854, 0.1476],
            [0.4523, 0.6951, 0.8131, 0.8095, 0.1097, 0.0215, 0.7911, 0.3582, 0.635, 0.6447],
            [0.6647, 0.4005, 0.0798, 0.8146, 0.0883, 0.1039, 0.9671, 0.4607, 0.0305, 0.9200],
            [0.8746, 0.1981, 0.4623, 0.7306, 0.9437, 0.3698, 0.1068, 0.5779, 0.2977, 0.6884],
            [0.0370, 0.1628, 0.0232, 0.0991, 0.4626, 0.0690, 0.0706, 0.0941, 0.7398, 0.0947],
            [0.7203, 0.0123, 0.0470, 0.0132, 0.0576, 0.0886, 0.7022, 0.5164, 0.9357, 0.0713],
        ],
        b=[0.9718, 0.878, 0.7243, 0.568, 0.568, 0.1984, 0.1006],
    ),
    dict(
        name="problem-09",
        objective=(
            "exp(x1*x2 + x3*x6 + x7*x9)"
            " - 0.5*(x1^3 + x2^3 + x8^3 + x10^3 + 1)^2"
        ),
        optimum=1.277,
        A=[
            [0.8011, 0.4018, 0.7035, 0.9869, 0.1705, 0.9656, 0.9832, 0.8364, 0.7133, 0.7508],
            [0.2569, 0.4875, 0.222, 0.0709, 0.9384, 0.3757, 0.9174, 0.31, 0.9603, 0.408],
            [0.8807, 0.7017, 0.7196, 0.1238, 0.0061, 0.6642, 0.9998, 0.7438, 0.1750, 0.9458],
            [0.7750, 0.7051, 0.1353, 0.4416, 0.2704, 0.0217, 0.0532, 0.6864, 0.6955, 0.0207],
            [0.7518, 0.0550, 0.9604, 0.3945, 0.1807, 0.7580, 0.1978, 0.0644, 0.2631, 0.7684],
            [0.9177, 0.5041, 0.9828, 0.2669, 0.2915, 0.1256, 0.0094, 0.9482, 0.034, 0.6577],
            [0.8391, 0.2024, 0.6265, 0.2043, 0.3186, 0.0997, 0.0483, 0.0232, 0.3402, 0.1631],
            [0.543, 0.9321, 0.5742, 0.0956, 0.3085, 0.3283, 0.0358, 0.6781, 0.1433, 0.1817],
            [0.2430, 0.6933, 0.9497, 0.0620, 0.0937, 0.0165, 0.1313, 0.1493, 0.1676, 0.1608],
            [0.2594, 0.8109, 0.9014, 0.0829, 0.0854, 0.2434, 0.0184, 0.0365, 0.1109, 0.2225],
        ],
        b=[0.9758, 0.9288, 0.9288, 0.6185, 0.5077, 0.4076, 0.3434, 0.3434, 0.2977, 0.2977],
    ),
    dict(
        name="problem-10",
        objective=(
            "(x1 - 1)^2 + (x7 - 1)^2"
            " + 10*sum(k, 1, 11, (10 - k)*(x(k)^2 - x(k+1))^2)"
        ),
        optimum=55.7954,
        A=[
            [0.0702, 0.1745, 0.5925, 0.2656, 0.8812, 0.6833, 0.003, 0.5535, 0.7155, 0.8598, 0.4763, 0.9709],
            [0.963, 0.5863, 0.1001, 0.828, 0.2939, 0.5813, 0.2774, 0.5876, 0.5299, 0.9017, 0.6051, 0.8993],
            [0.7901, 0.5698, 0.8892, 0.5924, 0.4591, 0.1807, 0.3446, 0.5325, 0.9014, 0.4529, 0.7917, 0.345],
            [0.6321, 0.7162, 0.6132, 0.2433, 0.6247, 0.0607, 0.9719, 0.1374, 0.3581, 0.1596, 0.8537, 0.3707],
            [0.8638, 0.8306, 0.6024, 0.9979, 0.2076, 0.5049, 0.7025, 0.1535, 0.9984, 0.5087, 0.1401, 0.7828],
            [0.2246, 0.3024, 0.5784, 0.1239, 0.5353, 0.5777, 0.2191, 0.466, 0.2639, 0.1992, 0.8516, 0.0107],
            [0.6065, 0.5062, 0.5623, 0.1472, 0.0783, 0.9427, 0.2715, 0.4176, 0.2902, 0.1834, 0.9231, 0.0426],
            [0.9605, 0.0447, 0.794, 0.0357, 0.1938, 0.3113, 0.2229, 0.5738, 0.0477, 0.1005, 0.9174, 0.1864],
            [0.0254, 0.4711, 0.3339, 0.2237, 0.0934, 0.7857, 0.2072, 0.1740, 0.1953, 0.0672, 0.2243, 0.2333],
            [0.0444, 0.1702, 0.5993, 0.0805, 0.1675, 0.8279, 0.0647, 0.1368, 0.1043, 0.1891, 0.1084, 0.1822],
        ],
        b=[0.9615, 0.9002, 0.9002, 0.9002, 0.9002, 0.4477, 0.3132, 0.3132, 0.2893, 0.2256],
    ),
]


@lru_cache(maxsize=1)
def _builtin_tuple() -> tuple[Problem, ...]:
    return tuple(
        make_problem(d["name"], d["A"], d["b"], d["objective"], d["optimum"])
        for d in _BUILTINS
    )


def builtin_problems() -> list[Problem]:
    """The ten built-in benchmark problems, all feasible."""
    return list(_builtin_tuple())


def builtin_problem(index: int) -> Problem:
    """Fetch a built-in problem by 1-based index."""
    problems = _builtin_tuple()
    if not 1 <= index <= len(problems):
        raise ValueError(f"builtin index must be 1..{len(problems)}, got {index}")
    return problems[index - 1]
