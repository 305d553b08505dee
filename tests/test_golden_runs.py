"""Seeded runs must reproduce stored results bit for bit.

``golden_runs.json`` holds, per run, the best value as ``float.hex``, the
evaluation count, a SHA-256 over the raw bytes of the trace and of the
best point's ``x``, ``lb`` and ``e``, and one over the final pheromone
values (which steer every path draw, so a last-bit change in a deposit
shows here even when the paths it would flip are rare).  Covered: seeds 0..4 on all
ten built-in problems at the default configuration, and seeds 0..1 on a
planted 40x80 instance whose candidate sets differ in size from row to
row.

Regenerate (only when a change is meant to move seeded values, and say
so in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_runs.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from freaco import (
    SolverConfig,
    builtin_problems,
    compute_candidate_sets,
    make_problem,
    random_feasible_instance,
    run,
)

GOLDEN = Path(__file__).with_name("golden_runs.json")
PLANTED_OBJECTIVE = "sum(k, 1, 80, (x(k) - 0.5)^2)"


def planted_problem():
    inst = random_feasible_instance(40, 80, rng=np.random.default_rng(0))
    return make_problem("planted-40x80", inst.A, inst.b, PLANTED_OBJECTIVE)


def cases():
    for problem in builtin_problems():
        for seed in range(5):
            yield problem, seed
    planted = planted_problem()
    for seed in range(2):
        yield planted, seed


def fingerprint(problem, seed: int) -> dict:
    pheromone = []
    config = SolverConfig(seed=seed)

    def observer(t, archive, tau):
        if t == config.t_max:
            pheromone.append(tau.values.tobytes())

    result = run(problem, config, observer=observer)
    digest = hashlib.sha256()
    for arr in (result.trace, result.best.x, result.best.lb, result.best.e):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return {
        "f": float.hex(float(result.best.f)),
        "eval_count": result.eval_count,
        "sha256": digest.hexdigest(),
        "tau_sha256": hashlib.sha256(pheromone[0]).hexdigest(),
    }


def key(problem, seed: int) -> str:
    return f"{problem.name}/seed={seed}"


def test_planted_instance_has_uneven_candidate_sets():
    sizes = {len(s) for s in compute_candidate_sets(planted_problem().instance)}
    assert len(sizes) > 1


def test_seeded_runs_match_stored_fingerprints():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = {}
    for problem, seed in cases():
        seen[key(problem, seed)] = fingerprint(problem, seed)
    assert sorted(seen) == sorted(stored)
    moved = [k for k in stored if seen[k] != stored[k]]
    assert not moved, f"{len(moved)} runs moved, first: {moved[0]}: {seen[moved[0]]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_runs.py --write")
    table = {key(p, s): fingerprint(p, s) for p, s in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} runs to {GOLDEN}")
