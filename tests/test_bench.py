import csv
import dataclasses
import json

import numpy as np
import pytest

from freaco import (
    EvalDomainError,
    ExperimentError,
    ExperimentSpec,
    ExperimentSummary,
    ProblemSummary,
    SolverConfig,
    builtin_problem,
    export,
    make_problem,
    run,
    run_experiment,
)
from freaco import bench
from freaco.bench import run_problems, summary_csv_text

from conftest import EX_A, EX_B, EX_OBJECTIVE

SMALL = SolverConfig(s_pop=10, t_max=12, samples_per_iter=2)


@pytest.fixture(autouse=True)
def sequential(monkeypatch):
    monkeypatch.setenv("FREACO_THREADS", "1")


def small_spec(problem_index=1, runs=4, base_seed=0):
    return ExperimentSpec(
        problems=(builtin_problem(problem_index),),
        runs=runs,
        config=SMALL,
        base_seed=base_seed,
    )


def test_single_run_statistics():
    summary = run_experiment(small_spec(runs=1))
    p = summary.problems[0]
    assert p.avg_best == p.median_best == p.f_best
    assert p.sd_best == 0.0
    assert p.trace.shape == (1, SMALL.t_max)


def test_statistics_match_recomputation():
    summary = run_experiment(small_spec(runs=6))
    p = summary.problems[0]
    finals = p.trace[:, -1]
    assert p.avg_best == pytest.approx(float(np.mean(finals)), abs=0)
    assert p.median_best == pytest.approx(float(np.median(finals)), abs=0)
    assert p.sd_best == pytest.approx(float(np.std(finals, ddof=1)), abs=0)
    assert p.f_best == float(np.min(finals))
    optimum = builtin_problem(1).known_optimum
    assert p.mean_error == pytest.approx(float(np.mean(p.trace - optimum)), abs=0)


def test_median_of_even_count_is_mean_of_central_pair():
    summary = run_experiment(small_spec(runs=4))
    finals = np.sort(summary.problems[0].trace[:, -1])
    assert summary.problems[0].median_best == pytest.approx(
        0.5 * (finals[1] + finals[2]), abs=0
    )


def test_runs_use_consecutive_seeds():
    summary = run_experiment(small_spec(runs=3, base_seed=11))
    for r in range(3):
        single = run(builtin_problem(1), SolverConfig(**{**SMALL.__dict__, "seed": 11 + r}))
        assert np.array_equal(summary.problems[0].trace[r], single.trace)


def test_summary_deterministic():
    a = run_experiment(small_spec(runs=3))
    b = run_experiment(small_spec(runs=3))
    assert summary_csv_text(a) == summary_csv_text(b)


def test_parallel_merge_equals_sequential(monkeypatch):
    monkeypatch.setenv("FREACO_THREADS", "1")
    seq = run_experiment(small_spec(runs=3))
    monkeypatch.setenv("FREACO_THREADS", "3")
    par = run_experiment(small_spec(runs=3))
    assert summary_csv_text(seq) == summary_csv_text(par)
    assert np.array_equal(seq.problems[0].trace, par.problems[0].trace)


def test_traces_non_increasing():
    summary = run_experiment(small_spec(runs=5))
    diffs = np.diff(summary.problems[0].trace, axis=1)
    assert np.all(diffs <= 0)


def test_statistic_ordering():
    summary = run_experiment(small_spec(runs=6))
    p = summary.problems[0]
    finals = p.trace[:, -1]
    assert p.f_best <= p.median_best <= float(finals.max())


def test_fbest_never_beats_certified_floor():
    # the certified floor is the exhaustive-search value; the recorded
    # optima for problems 3 and 10 sit slightly above it, so they are
    # not usable as exact floors
    from freaco import reference_optimum

    for index in (1, 3):
        problem = builtin_problem(index)
        floor = reference_optimum(problem, rng=np.random.default_rng(0)).best_value
        spec = ExperimentSpec(problems=(problem,), runs=5, config=SMALL, base_seed=0)
        summary = run_experiment(spec)
        assert summary.problems[0].f_best >= floor - 1e-6


def test_runs_and_thread_budget_must_be_positive(monkeypatch):
    with pytest.raises(ValueError, match="runs must be >= 1"):
        ExperimentSpec(problems=(builtin_problem(1),), runs=0)
    monkeypatch.setenv("FREACO_THREADS", "0")
    with pytest.raises(ValueError, match="FREACO_THREADS must be >= 1"):
        bench.thread_budget()
    monkeypatch.setenv("FREACO_THREADS", "abc")
    with pytest.raises(ValueError, match="^FREACO_THREADS must be an integer, got 'abc'$"):
        bench.thread_budget()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("runs", 2.5, "runs must be an integer"),
        ("base_seed", 1.0, "base_seed must be an integer"),
        ("base_seed", -1, "base_seed must be >= 0"),
        ("config", SolverConfig(t_max=3, seed=7), "^config.seed must be 0, got 7"),
        (
            "problems",
            (builtin_problem(1), builtin_problem(2), builtin_problem(1)),
            "^problems must have distinct names, got 'problem-01' twice$",
        ),
        ("problems", (), "^problems must name at least one problem$"),
    ],
)
def test_spec_rejects_bad_run_count_and_base_seed(field, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**{"problems": (builtin_problem(1),), field: value})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"problems": [5]}, "^problems must hold Problem instances, got 5$"),
        ({"problems": (builtin_problem(1), "problem-02")}, "^problems must hold Problem instances"),
        ({"problems": (builtin_problem(1),), "config": None}, "^config must be a SolverConfig, got None$"),
        ({"problems": (builtin_problem(1),), "config": {"t_max": 5}}, "^config must be a SolverConfig"),
    ],
    ids=["int-problem", "name-as-problem", "no-config", "dict-config"],
)
def test_spec_rejects_what_is_not_a_problem_or_config(fields, message):
    with pytest.raises(TypeError, match=message):
        ExperimentSpec(runs=1, **fields)


def test_spec_stores_numpy_integers_as_int(tmp_path):
    spec = ExperimentSpec(
        problems=(builtin_problem(1),), runs=np.int64(2), config=SMALL, base_seed=np.int32(3)
    )
    assert type(spec.runs) is int and type(spec.base_seed) is int
    path = tmp_path / "summary.json"
    export(run_experiment(spec), "json", path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert (loaded["runs"], loaded["base_seed"]) == (2, 3)


def test_run_error_carries_problem_and_index():
    # ln(x1 - 1) faults everywhere on [0, 1]; the first evaluation of
    # run 0 must surface as a wrapped experiment error
    problem = make_problem("faulty", EX_A, EX_B, "ln(x1 - 1)")
    spec = ExperimentSpec(problems=(problem,), runs=2, config=SMALL, base_seed=0)
    with pytest.raises(ExperimentError) as info:
        run_experiment(spec)
    assert info.value.problem == "faulty"
    assert info.value.run_index == 0


# ---------------------------------------------------------------------------
# export


def test_csv_round_trips_to_full_precision(tmp_path):
    summary = run_experiment(small_spec(runs=4))
    path = tmp_path / "summary.csv"
    export(summary, "csv", path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    p = summary.problems[0]
    assert abs(float(rows[0]["avg"]) - p.avg_best) <= 1e-12
    assert float(rows[0]["fbest"]) == p.f_best
    assert float(rows[0]["evals"]) == p.mean_eval_count


def test_empty_selection_gives_header_only_csv(tmp_path):
    from freaco import ExperimentSummary

    empty = ExperimentSummary(problems=(), runs=3, base_seed=0, config=SMALL)
    path = tmp_path / "empty.csv"
    export(empty, "csv", path)
    assert path.read_text(encoding="utf-8") == "name,avg,mdn,sd,fbest,evals,mean_error\n"


def test_json_round_trip(tmp_path):
    summary = run_experiment(small_spec(runs=3))
    path = tmp_path / "summary.json"
    export(summary, "json", path)
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded["runs"] == summary.runs
    assert loaded["base_seed"] == summary.base_seed
    assert SolverConfig(**loaded["config"]) == summary.config
    a, b = summary.problems[0], loaded["problems"][0]
    assert a.name == b["name"]
    assert a.known_optimum == b["known_optimum"]
    assert a.avg_best == b["avg_best"]
    assert a.median_best == b["median_best"]
    assert a.sd_best == b["sd_best"]
    assert a.f_best == b["f_best"]
    assert a.mean_eval_count == b["mean_eval_count"]
    assert a.mean_error == b["mean_error"]
    assert np.array_equal(a.trace, np.asarray(b["trace"], dtype=float))


def test_json_is_strict_for_a_numpy_float_setting(tmp_path):
    # a numpy float setting is stored as a float, so summary.json is JSON
    # without NaN or Infinity and config.q reads back as a number
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    config = SolverConfig(s_pop=10, t_max=12, q=np.float32(0.0125))
    summary = run_experiment(ExperimentSpec(problems=(builtin_problem(1),), runs=2, config=config))
    path = tmp_path / "summary.json"
    export(summary, "json", path)
    loaded = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
    assert type(loaded["config"]["q"]) is float and loaded["config"]["q"] == float(np.float32(0.0125))


def test_trace_csv_rows(tmp_path):
    summary = run_experiment(small_spec(runs=3))
    path = tmp_path / "traces.csv"
    export(summary, "trace-csv", path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * SMALL.t_max
    assert rows[0]["problem"] == "problem-01"
    assert rows[0]["run"] == "0" and rows[0]["iter"] == "1"
    assert rows[-1]["run"] == "2" and rows[-1]["iter"] == str(SMALL.t_max)
    value = float(rows[-1]["best_so_far"])
    assert value == summary.problems[0].trace[2, -1]


def reference_json(summary, path):
    """``summary.json`` as ``json.dump`` writes it, every trace value through its encoder."""
    payload = {
        "runs": summary.runs,
        "base_seed": summary.base_seed,
        "config": dataclasses.asdict(summary.config),
        "problems": [{**vars(p), "trace": p.trace.tolist()} for p in summary.problems],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def reference_trace_csv(summary, path):
    """``traces.csv`` written one ``csv.writer`` row and one ``repr`` per value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(bench.TRACE_COLUMNS)
        for p in summary.problems:
            for r, row in enumerate(p.trace):
                for t, value in enumerate(row, start=1):
                    writer.writerow((p.name, r, t, repr(float(value))))


def traced_summary(traces, names):
    problems = tuple(
        ProblemSummary(
            name=name, known_optimum=None if k % 2 else -0.5, avg_best=0.25, median_best=float("nan"),
            sd_best=float("inf"), f_best=-0.0, mean_eval_count=347.0, mean_error=None if k % 2 else 0.75,
            trace=np.asarray(trace, dtype=float),
        )
        for k, (name, trace) in enumerate(zip(names, traces))
    )
    return ExperimentSummary(problems=problems, runs=3, base_seed=0, config=SMALL)


NAN_PAYLOAD = np.int64(0x7FF8000000000001).view(float)  # a NaN whose bits differ from np.nan's

TRACE_CASES = {
    "plateaus": ([[3.0, 3.0, 2.5, 2.5, 1.0], [4.0, 4.0, 4.0, 4.0, 4.0], [2.5, 1.0, 1.0, 0.5, 0.5]],),
    "signed-zeros": ([[0.0, -0.0, -0.0, 0.0, 0.0, -0.0]],),
    "non-finite": ([[np.nan, np.nan, NAN_PAYLOAD, -np.nan, np.inf, np.inf, -np.inf, -np.inf, 5e-324, 1e300]],),
    "rows-share-a-value": ([[1.0, 0.5], [0.5, 0.5], [0.5, 1.0]], [[0.5]]),
    "empty": (np.zeros((2, 0)), np.zeros((0, 3)), [[0.1]]),
}
QUOTED_NAMES = ['a,b', 'say "hi"', "line\nbreak", "ü名\t\\", ""]


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_export_equals_the_per_value_writers(tmp_path, case):
    traces = TRACE_CASES[case]
    summary = traced_summary(traces, QUOTED_NAMES[: len(traces)])
    for format, reference in (("json", reference_json), ("trace-csv", reference_trace_csv)):
        export(summary, format, tmp_path / "new")
        reference(summary, tmp_path / "reference")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes(), format


def test_trace_export_equals_the_per_value_writers_on_a_bench_run(tmp_path):
    spec = ExperimentSpec(problems=(builtin_problem(2), builtin_problem(7)), runs=3, config=SMALL)
    summary = run_experiment(spec)
    renamed = traced_summary([p.trace for p in summary.problems], QUOTED_NAMES[:2])
    for s in (summary, renamed):
        for format, reference in (("json", reference_json), ("trace-csv", reference_trace_csv)):
            export(s, format, tmp_path / "new")
            reference(s, tmp_path / "reference")
            assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes(), format


def test_unknown_format_rejected(tmp_path):
    summary = run_experiment(small_spec(runs=1))
    with pytest.raises(ValueError):
        export(summary, "xml", tmp_path / "nope.xml")


def test_one_pool_for_all_problems_equals_sequential(monkeypatch):
    started, submitted = [], []

    class Pool(bench.ProcessPoolExecutor):
        def __init__(self, **kw):
            started.append(kw)
            super().__init__(**kw)

        def submit(self, fn, job):
            submitted.append(job[2])  # the job's seeds
            return super().submit(fn, job)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", Pool)
    many = (builtin_problem(1), builtin_problem(4), builtin_problem(7)), 3
    one = (builtin_problem(2),), 4
    for problems, runs in (many, one):
        spec = ExperimentSpec(problems=problems, runs=runs, config=SMALL, base_seed=5)
        monkeypatch.setenv("FREACO_THREADS", "1")
        seq = run_experiment(spec)
        monkeypatch.setenv("FREACO_THREADS", "2")
        started.clear()
        submitted.clear()
        par = run_experiment(spec)
        assert len(started) == 1
        assert summary_csv_text(seq) == summary_csv_text(par)
        for a, b in zip(seq.problems, par.problems):
            assert np.array_equal(a.trace, b.trace)
    # one problem still keeps both workers busy: two blocks of two seeds
    assert submitted == [[5, 6], [7, 8]]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pooled_error_names_problem_and_run(monkeypatch, threads):
    monkeypatch.setenv("FREACO_THREADS", threads)
    faulty = make_problem("faulty", EX_A, EX_B, "ln(x1 - 1)")
    spec = ExperimentSpec(problems=(builtin_problem(1), faulty), runs=2, config=SMALL)
    summary, (failure,) = run_problems(spec)
    assert summary.problems[0].name == "problem-01"
    assert isinstance(failure, ExperimentError)
    assert (failure.problem, failure.run_index) == ("faulty", 0)
    assert isinstance(failure.__cause__, EvalDomainError)
    with pytest.raises(ExperimentError) as info:
        run_experiment(spec)
    assert (info.value.problem, info.value.run_index) == ("faulty", 0)


def test_block_error_names_its_failing_seed(monkeypatch):
    # at FREACO_THREADS=1 the four runs form one block; only seed 2 fails,
    # so the block fails and its runs are repeated alone to name run 2
    real = bench.run_many

    def seed_keyed_fault(problem, config, seeds, observer=None):
        if 2 in seeds:
            raise EvalDomainError("seed-keyed fault", [0.0])
        return real(problem, config, seeds, observer)

    monkeypatch.setattr(bench, "run_many", seed_keyed_fault)
    _, (outcome,) = run_problems(small_spec(runs=4))
    assert isinstance(outcome, ExperimentError)
    assert (outcome.problem, outcome.run_index) == ("problem-01", 2)
    assert outcome.__cause__.reason == "seed-keyed fault"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_problems_splits_summary_and_failures_in_problem_order(monkeypatch, threads):
    monkeypatch.setenv("FREACO_THREADS", threads)
    faulty_a = make_problem("faulty-a", EX_A, EX_B, "ln(x1 - 1)")
    faulty_b = make_problem("faulty-b", EX_A, EX_B, "ln(x1 - 1)")
    spec = ExperimentSpec(problems=(faulty_a, builtin_problem(1), faulty_b), runs=2, config=SMALL)
    summary, failures = run_problems(spec)
    assert [p.name for p in summary.problems] == ["problem-01"]
    assert (summary.runs, summary.base_seed, summary.config) == (2, 0, SMALL)
    assert [(f.problem, f.run_index) for f in failures] == [("faulty-a", 0), ("faulty-b", 0)]
    assert all(isinstance(f.__cause__, EvalDomainError) for f in failures)
    with pytest.raises(ExperimentError) as info:
        run_experiment(spec)
    assert (info.value.problem, info.value.run_index) == ("faulty-a", 0)
