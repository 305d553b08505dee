"""Lockstep runs: every run of a ``run_many`` block is bit-identical to its solo run."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freaco import (
    SolverConfig,
    builtin_problem,
    builtin_problems,
    engine,
    evaluate_many,
    make_problem,
    random_feasible_instance,
    run,
    run_many,
)

from test_golden_runs import GOLDEN, key, planted_problem


def final_pheromone(config, runs):
    """An observer for ``runs`` runs and the list that receives each run's
    pheromone bytes after the last iteration."""
    final = [None] * runs

    def observer(t, r, archive, tau):
        if t == config.t_max:
            final[r] = tau.values.tobytes()

    return observer, final


def block_fingerprints(problem, config, seeds):
    """The stored fingerprint (see test_golden_runs) of each run of one block."""
    observer, final = final_pheromone(config, len(seeds))
    prints = []
    for result, tau in zip(run_many(problem, config, seeds, observer), final):
        digest = hashlib.sha256()
        for arr in (result.trace, result.best.x, result.best.lb, result.best.e):
            digest.update(np.ascontiguousarray(arr).tobytes())
        prints.append({
            "f": float.hex(float(result.best.f)),
            "eval_count": result.eval_count,
            "sha256": digest.hexdigest(),
            "tau_sha256": hashlib.sha256(tau).hexdigest(),
        })
    return prints


def test_blocks_match_golden_runs():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    blocks = [(p, range(5)) for p in builtin_problems()] + [(planted_problem(), range(2))]
    for problem, seeds in blocks:
        for seed, got in zip(seeds, block_fingerprints(problem, SolverConfig(), seeds)):
            assert got == stored[key(problem, seed)], key(problem, seed)


@pytest.mark.parametrize("runs", [1, 3])
def test_every_evaluation_goes_through_the_public_batch_entry(monkeypatch, runs):
    # the benchmark's tracer times expr.evaluate_many where the engine binds it;
    # per block: the first archive, then each iteration's fresh paths and samples
    problem, config = builtin_problem(4), SolverConfig(t_max=6)
    batches = []

    def counting(expr, X):
        assert expr is problem.objective and X.shape[1:] == (problem.instance.n,)
        batches.append(len(X))
        return evaluate_many(expr, X)

    monkeypatch.setattr(engine, "evaluate_many", counting)
    results = run_many(problem, config, range(runs))
    later = [runs, runs * config.samples_per_iter] * (config.t_max - 1)  # fresh paths, then samples
    assert batches == [runs * config.s_pop] + later
    assert len(batches) == 1 + 2 * (config.t_max - 1)
    monkeypatch.undo()
    plain = run_many(problem, config, range(runs))
    assert [r.trace.tobytes() for r in results] == [r.trace.tobytes() for r in plain]


def test_no_seeds_no_runs():
    assert run_many(builtin_problem(1), SolverConfig(), []) == []


@pytest.mark.parametrize(
    "seeds, message",
    [([2.5], "seed must be an integer"), ([-1], "seed must be >= 0"), ([True], "seed must be an integer, got True")],
)
def test_seeds_must_be_non_negative_integers(seeds, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        run_many(builtin_problem(1), SolverConfig(t_max=1), seeds)


def test_numpy_seed_is_stored_as_int():
    config = SolverConfig(t_max=2)
    (result,) = run_many(builtin_problem(1), config, [np.int64(2)])
    assert type(result.seed) is int and type(result.config.seed) is int
    assert result.best.f == run(builtin_problem(1), replace(config, seed=2)).best.f


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    instance_seed=st.integers(0, 2**32 - 1),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5, unique=True),
    s_pop=st.integers(2, 8),
    samples=st.integers(0, 3),
    t_max=st.integers(1, 8),
)
def test_every_run_of_a_block_equals_its_solo_run(m, n, instance_seed, seeds, s_pop, samples, t_max):
    inst = random_feasible_instance(m, n, rng=np.random.default_rng(instance_seed))
    objective = f"sum(k, 1, {n}, (x(k) - 0.3)^2) + x1*x{n}"
    problem = make_problem("planted", inst.A, inst.b, objective)
    config = SolverConfig(s_pop=s_pop, t_max=t_max, samples_per_iter=samples, q=0.3)
    observer, block_tau = final_pheromone(config, len(seeds))
    block = run_many(problem, config, seeds, observer)
    assert len(block) == len(seeds)
    for r, seed in enumerate(seeds):
        solo_observer, solo_tau = final_pheromone(config, 1)
        solo = run(problem, replace(config, seed=seed), lambda t, a, tau: solo_observer(t, 0, a, tau))
        got = block[r]
        assert got.seed == solo.seed == seed and got.config == solo.config
        assert np.array_equal(got.trace, solo.trace)
        for name in ("x", "lb", "e"):
            assert np.array_equal(getattr(got.best, name), getattr(solo.best, name))
        assert float.hex(got.best.f) == float.hex(solo.best.f)
        assert got.eval_count == solo.eval_count
        assert block_tau[r] == solo_tau[0]


@pytest.mark.parametrize("seeds", [[5], [5, 6, 7]])
def test_observer_archives_keep_their_values(seeds):
    # the engine changes its archive in place: a view an observer keeps
    # must not see later iterations
    kept, seen = [], []

    def observer(t, r, archive, tau):
        kept.append(archive)
        seen.append([(sol.x.copy(), sol.f) for sol in archive])

    run_many(builtin_problem(4), SolverConfig(t_max=10), seeds, observer)
    assert len(kept) == 10 * len(seeds)
    for archive, values in zip(kept, seen):
        for sol, (x, f) in zip(archive, values, strict=True):
            assert np.array_equal(sol.x, x) and sol.f == f


def test_block_memory_stays_below_the_dense_pheromone(tmp_path):
    # 8 runs of a 2000 x 1000 instance: a dense pheromone stack alone
    # would be 8 * 2000 * 1000 doubles, 128 MB.  With numpy 2.4 on Linux
    # the engine that kept it dense grew by 179 MB, the compact one by 60 MB
    script = tmp_path / "peak.py"
    script.write_text(
        "import resource, numpy as np\n"
        "from freaco import SolverConfig, make_problem, random_feasible_instance, run_many\n"
        "inst = random_feasible_instance(2000, 1000, rng=np.random.default_rng(0))\n"
        "problem = make_problem('tall', inst.A, inst.b, 'sum(k, 1, 1000, (x(k) - 0.5)^2)')\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "run_many(problem, SolverConfig(t_max=2), range(8))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 96 * 1024  # KiB
