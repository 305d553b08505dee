import numpy as np
import pytest

from freaco import Instance, path_to_candidate

# Worked 5x6 system used throughout: feasible, 72 paths, greatest point
# [1, 0.5, 0.3, 0.1, 0.7, 1].
EX_A = [
    [0.7, 0.3, 0.8, 0.4, 0.8, 0.7],
    [0.5, 0.9, 0.5, 0.4, 0.2, 0.2],
    [0.2, 0.2, 0.5, 0.3, 0.0, 0.3],
    [0.0, 0.1, 0.0, 0.6, 0.1, 0.0],
    [0.6, 0.5, 0.2, 0.5, 0.5, 0.6],
]
EX_B = [0.7, 0.5, 0.3, 0.1, 0.6]
EX_XBAR = np.array([1.0, 0.5, 0.3, 0.1, 0.7, 1.0])
EX_JBAR = [{0, 4, 5}, {0, 1}, {2, 5}, {1, 3, 4}, {0, 5}]  # 0-based
EX_PATH = np.array([4, 0, 5, 4, 0])  # the path written 1-based as [5,1,6,5,1]
EX_LOWER = np.array([0.6, 0.0, 0.0, 0.0, 0.7, 0.3])
EX_OBJECTIVE = "x1*x4 - x2*x3*x5 + x6^2"


def compact(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Dense pheromone ``values`` (m x n) on the candidate slots of ``table``
    (m x kmax, -1 padded), zero in the padding: the engine's layout."""
    return np.where(table >= 0, values[np.arange(len(table))[:, None], table], 0.0)


def cells(E, b, xbar, u):
    """The points uniforms ``u`` (k x n) place in the cells of full paths
    ``E`` (k x m) of columns, and the cells' lower corners, as the engine
    computes them: the corner capped at ``xbar``, then ``u * (xbar - LB) + LB``."""
    LB = np.minimum(path_to_candidate(E, b, len(xbar)), xbar)
    return u * (xbar - LB) + LB, LB


@pytest.fixture
def ex_instance() -> Instance:
    return Instance(EX_A, EX_B)


def grid_instance(m: int, n: int, rng: np.random.Generator) -> Instance:
    """Feasible instance whose data sits on the 0.01 grid (planted point)."""
    planted = np.round(rng.integers(0, 101, size=n) * 0.01, 2)
    A = np.round(rng.integers(0, 101, size=(m, n)) * 0.01, 2)
    b = np.minimum(A, planted).max(axis=1)
    return Instance(A, b)
