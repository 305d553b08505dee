"""Seeded runs at edge configurations reproduce stored fingerprints bit for bit.

The configurations insert at both ends of a two-row archive (``s_pop=2``
with three samples), stop after the first iteration (``t_max=1``), take
no Gaussian sample (``samples_per_iter=0``), or keep every deposit at the
top of its clamp (``rho=0`` with ``big_q=1e300``).  Each runs seeds 0
and 7 as one block on the worked example and on a planted 60x120
instance.  Fingerprints are those of ``golden_runs.json``: the best value
as ``float.hex``, a SHA-256 over the trace and the best point's ``x``,
``lb`` and ``e``, and one over the final pheromone, the last two cut to
their first 16 hex digits.

Regenerate (only when a change is meant to move seeded values, and say
so in CHANGES.md)::

    PYTHONPATH=src python tests/test_edge_runs.py
"""

import numpy as np
import pytest

from freaco import SolverConfig, make_problem, random_feasible_instance

from conftest import EX_A, EX_B, EX_OBJECTIVE
from test_run_many import block_fingerprints

CONFIGS = {
    "s_pop=2,samples=3": SolverConfig(s_pop=2, samples_per_iter=3, t_max=30),
    "t_max=1": SolverConfig(t_max=1),
    "samples=0": SolverConfig(samples_per_iter=0, t_max=30),
    "rho=0,big_q=1e300": SolverConfig(rho=0.0, big_q=1e300, t_max=30),
}
SEEDS = (0, 7)


def problems():
    inst = random_feasible_instance(60, 120, rng=np.random.default_rng(3))
    return {
        "example": make_problem("example-1", EX_A, EX_B, EX_OBJECTIVE),
        "planted-60x120": make_problem("planted-60x120", inst.A, inst.b,
                                       "sum(k, 1, 119, (x(k) - x(k+1))^2)"),
    }


def fingerprints(problem, config):
    """``f``, ``sha256`` and ``tau_sha256`` of each seed's run, as one string each."""
    return [" ".join((p["f"], p["sha256"][:16], p["tau_sha256"][:16]))
            for p in block_fingerprints(problem, config, SEEDS)]


STORED = {
    ("example", "s_pop=2,samples=3"): [
        "0x1.09b6279e7e696p-2 3cafbcad60ee1858 f3e9f9c46fc23004",
        "-0x1.367e2966ddef2p-5 c488c18f3bb1ce5f 1aee81dcf329fbe7",
    ],
    ("example", "t_max=1"): [
        "0x1.6628f004cbdb4p-4 b5b96edbd42419cc acff35cb97aff2d8",
        "0x1.bea3cfe395c4bp-5 325993d1689f9c7e 28a274625d06264e",
    ],
    ("example", "samples=0"): [
        "-0x1.0dbba7961a548p-4 ad4143f7cbc525a0 4495da4c9d0c57cc",
        "0x1.0d3e0391bfdbep-6 40ff5573782d97ca 603dcdf982d23a55",
    ],
    ("example", "rho=0,big_q=1e300"): [
        "-0x1.3e7346df47340p-4 8f60b048aeb69236 212ee8171a402310",
        "-0x1.ae147ae147ae1p-4 f82aad861043f254 f0738bde8ec00ed0",
    ],
    ("planted-60x120", "s_pop=2,samples=3"): [
        "0x1.d806a9b7fe208p+3 01d70bbc23292465 ee7ae8b2a678dd56",
        "0x1.0286a6b895425p+4 d496fbbe0ea5630e 477b1434f1e27940",
    ],
    ("planted-60x120", "t_max=1"): [
        "0x1.0b3f58e5c09c8p+4 f5b34ad5b297403f 577d642549232582",
        "0x1.f8931062cacf7p+3 acdc4a889888099d 082165787251362a",
    ],
    ("planted-60x120", "samples=0"): [
        "0x1.c23e5267772e3p+3 270f2050445533df 9267f1f5a650aacf",
        "0x1.f8931062cacf7p+3 9c6d69ae6527d605 f64b89d997a08c33",
    ],
    ("planted-60x120", "rho=0,big_q=1e300"): [
        "0x1.ee53765c9cc4ep+3 4f7ca89443621bcb 71e38ba2fd9b9ab3",
        "0x1.f8931062cacf7p+3 9c6d69ae6527d605 c1da00438202597c",
    ],
}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("problem", ["example", "planted-60x120"])
def test_edge_configurations_match_stored_fingerprints(problem, config):
    assert fingerprints(problems()[problem], CONFIGS[config]) == STORED[problem, config]


if __name__ == "__main__":
    for name, problem in problems().items():
        for config in CONFIGS:
            print(f"    ({name!r}, {config!r}): {fingerprints(problem, CONFIGS[config])!r},")
