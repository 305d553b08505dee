import csv
import json

import pytest

from freaco import EPS_EQ, EvalDomainError, Instance, SolverConfig, residual
from freaco import bench, cli
from freaco.cli import build_parser, main
from freaco.oracle import DEFAULT_PATH_CAP, DEFAULT_SAMPLES_PER_CELL

from conftest import EX_A, EX_B, EX_OBJECTIVE


def call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    payload = {"name": "example-1", "A": EX_A, "b": EX_B, "objective": EX_OBJECTIVE}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# solve


def test_solve_builtin_prints_json(capsys):
    code, out, err = call(capsys, ["solve", "--builtin", "1", "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["problem"] == "problem-01"
    assert payload["best_f"] >= -0.0096019 - 1e-6
    assert len(payload["best_x"]) == 6
    assert payload["eval_count"] == 347
    assert payload["seed"] == 7


def test_flag_defaults_come_from_library_defaults():
    solve = build_parser().parse_args(["solve", "--builtin", "1"])
    flags = (solve.pop, solve.q, solve.xi, solve.rho, solve.deposit, solve.iters, solve.seed)
    d = SolverConfig()
    assert flags == (d.s_pop, d.q, d.xi, d.rho, d.big_q, d.t_max, d.seed)
    verify = build_parser().parse_args(["verify", "--builtin", "1"])
    assert (verify.samples, verify.cap) == (DEFAULT_SAMPLES_PER_CELL, DEFAULT_PATH_CAP)


def test_solve_missing_file_exits_one(capsys):
    code, out, err = call(capsys, ["solve", "--file", "does-not-exist.json"])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_solve_infeasible_instance_exits_two(capsys, tmp_path):
    payload = {
        "name": "bad",
        "A": EX_A,
        "b": [0.9, 0.5, 0.3, 0.1, 0.6],  # row 1 pushed above its row maximum
        "objective": EX_OBJECTIVE,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = call(capsys, ["solve", "--file", str(path)])
    assert code == 2
    assert "violated rows (1-based): [1]" in err


def test_solve_writes_trace_and_out(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    result = tmp_path / "result.json"
    code, out, err = call(
        capsys,
        ["solve", "--builtin", "2", "--seed", "3", "--iters", "20",
         "--trace", str(trace), "--out", str(result)],
    )
    assert code == 0
    payload = json.loads(out)
    assert json.loads(result.read_text()) == payload
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    assert [r["iter"] for r in rows] == [str(i) for i in range(1, 21)]
    best = [float(r["best_so_far"]) for r in rows]
    assert best[-1] == payload["best_f"]
    assert all(a >= b for a, b in zip(best, best[1:]))


def test_solve_failed_write_leaves_stdout_empty(capsys, tmp_path):
    missing = tmp_path / "missing" / "r.json"
    code, out, err = call(capsys, ["solve", "--builtin", "1", "--iters", "2", "--out", str(missing)])
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_solve_trace_quotes_problem_name(capsys, tmp_path):
    source = tmp_path / "instance.json"
    payload = {"name": "a,b", "A": EX_A, "b": EX_B, "objective": EX_OBJECTIVE}
    source.write_text(json.dumps(payload), encoding="utf-8")
    trace = tmp_path / "trace.csv"
    code, out, err = call(
        capsys, ["solve", "--file", str(source), "--iters", "3", "--trace", str(trace)]
    )
    assert code == 0
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["problem"], r["run"], r["iter"]) for r in rows] == [
        ("a,b", "0", "1"),
        ("a,b", "0", "2"),
        ("a,b", "0", "3"),
    ]
    assert float(rows[-1]["best_so_far"]) == json.loads(out)["best_f"]


@pytest.mark.parametrize(
    "key,value",
    [
        ("known_optimum", [1]),
        ("A", {"a": 1}),
        ("b", ["0.7", *EX_B[1:]]),
        # JSON integers beyond the double range
        ("A", [[10**400, *EX_A[0][1:]], *EX_A[1:]]),
        ("b", [10**400, *EX_B[1:]]),
    ],
)
def test_solve_malformed_instance_data_exits_one(capsys, tmp_path, key, value):
    path = tmp_path / "malformed.json"
    payload = {"name": "example-1", "A": EX_A, "b": EX_B, "objective": EX_OBJECTIVE}
    payload[key] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = call(capsys, ["solve", "--file", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "verify", "enumerate"])
def test_a_too_deeply_nested_instance_file_exits_one(capsys, tmp_path, command):
    path = tmp_path / "deep.json"  # 3000 levels: beyond the JSON decoder's recursion
    A = "[" * 3000 + "0.5" + "]" * 3000
    path.write_text(f'{{"A": {A}, "b": [0.5], "objective": "x1"}}', encoding="utf-8")
    code, out, err = call(capsys, [command, "--file", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_solve_non_finite_deposit_exits_one(capsys):
    code, out, err = call(capsys, ["solve", "--builtin", "1", "--deposit", "nan"])
    assert code == 1
    assert out == ""
    assert "error: big_q must be positive and finite" in err


def test_solve_q_too_large_for_the_rank_weights_exits_one(capsys):
    code, out, err = call(capsys, ["solve", "--builtin", "1", "--iters", "5", "--q", "1e307"])
    assert code == 1
    assert out == ""
    assert "error: q * s_pop is too large" in err


def test_solve_xi_too_large_for_the_spread_exits_one(capsys):
    code, out, err = call(capsys, ["solve", "--builtin", "1", "--xi", "1e308", "--iters", "5"])
    assert code == 1
    assert out == ""
    assert "error: xi * (s_pop - 1) must be a finite double" in err


def _ex1_with_objective(tmp_path, objective):
    path = tmp_path / "objective.json"
    payload = {"name": "example-1", "A": EX_A, "b": EX_B, "objective": objective}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_solve_overflowing_objective_exits_one(capsys, tmp_path):
    # 1e308*10 overflows; unchecked, inf - inf made best_f NaN (not JSON)
    path = _ex1_with_objective(
        tmp_path, "x1 + 1e308*10*(x2-0.25)*(x2-0.25) - 1e308*10*(x3-0.1)*(x3-0.1)"
    )
    code, out, err = call(capsys, ["solve", "--file", path, "--iters", "5"])
    assert code == 1
    assert out == ""
    assert "error: overflow" in err


def test_solve_objective_thousands_of_terms_deep(capsys, tmp_path):
    path = _ex1_with_objective(tmp_path, " + ".join(["x1"] * 3000))
    code, out, err = call(capsys, ["solve", "--file", path, "--iters", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["best_f"] == pytest.approx(3000 * payload["best_x"][0], rel=1e-12)


@pytest.mark.parametrize("objective", ["(" * 300 + "x1" + ")" * 300, "-" * 2000 + "x1"])
def test_solve_objective_nested_too_deep_exits_one(capsys, tmp_path, objective):
    code, out, err = call(capsys, ["solve", "--file", _ex1_with_objective(tmp_path, objective)])
    assert code == 1
    assert out == ""
    assert "nests deeper" in err


def test_solve_requires_exactly_one_source(capsys):
    code, out, err = call(capsys, ["solve"])
    assert code == 1
    code, out, err = call(capsys, ["solve", "--builtin", "1", "--file", "x.json"])
    assert code == 1


def test_solve_rejects_bad_builtin_index(capsys):
    code, out, err = call(capsys, ["solve", "--builtin", "11"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", [["solve", "--builtin", "1"], ["bench", "--problems", "1"]])
def test_negative_seed_exits_one_before_any_work(capsys, command):
    code, out, err = call(capsys, [*command, "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert "seed must be >= 0" in err


# ---------------------------------------------------------------------------
# bench


def test_bench_two_problems(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FREACO_THREADS", "2")
    out_dir = tmp_path / "bench"
    code, out, err = call(
        capsys,
        ["bench", "--problems", "1,2", "--runs", "3", "--out", str(out_dir)],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,avg,mdn,sd,fbest,evals,mean_error"
    assert len(lines) == 3
    assert (out_dir / "summary.csv").read_text(encoding="utf-8") == out
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert [p["name"] for p in payload["problems"]] == ["problem-01", "problem-02"]
    assert all(p["mean_eval_count"] == 347.0 for p in payload["problems"])
    with open(out_dir / "traces.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 100


def test_bench_reruns_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FREACO_THREADS", "1")
    first = tmp_path / "a"
    second = tmp_path / "b"
    args = ["bench", "--problems", "4", "--runs", "2", "--seed", "5"]
    code1, out1, _ = call(capsys, args + ["--out", str(first)])
    code2, out2, _ = call(capsys, args + ["--out", str(second)])
    assert code1 == code2 == 0
    assert out1 == out2
    assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
    assert (first / "traces.csv").read_bytes() == (second / "traces.csv").read_bytes()


@pytest.mark.parametrize(
    "problems, message",
    [
        ("x", "error: bad --problems list: 'x'"),
        ("1,1", "error: problems must have distinct names, got 'problem-01' twice"),
        (",", "error: problems must name at least one problem"),
    ],
    ids=["malformed", "repeated", "empty"],
)
def test_bench_rejects_a_malformed_problem_list(capsys, tmp_path, problems, message):
    out_dir = tmp_path / "bench"
    code, out, err = call(capsys, ["bench", "--problems", problems, "--runs", "1", "--out", str(out_dir)])
    assert code == 1
    assert out == ""
    assert message in err
    assert not out_dir.exists()


def test_bench_rejects_a_bad_run_count_before_making_the_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "bench"
    code, out, err = call(capsys, ["bench", "--problems", "1", "--runs", "0", "--out", str(out_dir)])
    assert code == 1
    assert out == ""
    assert "error: runs must be >= 1" in err
    assert not out_dir.exists()


def test_bench_rejects_a_bad_thread_budget_before_making_the_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FREACO_THREADS", "abc")
    out_dir = tmp_path / "out"
    code, out, err = call(capsys, ["bench", "--problems", "1", "--runs", "1", "--out", str(out_dir)])
    assert code == 1
    assert out == ""
    assert "FREACO_THREADS" in err
    assert not out_dir.exists()


def test_bench_out_beneath_a_regular_file_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FREACO_THREADS", "1")
    (tmp_path / "file").write_text("", encoding="utf-8")
    code, out, err = call(
        capsys, ["bench", "--problems", "1", "--runs", "1", "--out", str(tmp_path / "file" / "out")]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_bench_reports_a_failing_problem_and_writes_the_others(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FREACO_THREADS", "1")
    real = bench.run_many

    def problem_keyed_fault(problem, config, seeds, observer=None):
        if problem.name == "problem-02":
            raise EvalDomainError("problem-keyed fault", [0.0])
        return real(problem, config, seeds, observer)

    monkeypatch.setattr(bench, "run_many", problem_keyed_fault)
    out_dir = tmp_path / "bench"
    code, out, err = call(
        capsys, ["bench", "--problems", "1,2,3", "--runs", "2", "--out", str(out_dir)]
    )
    assert code == 1
    assert err.splitlines() == [
        "error: run 0 of problem 'problem-02' failed (problem-keyed fault at x = [0.0])"
    ]
    names = ["problem-01", "problem-03"]
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == names
    assert (out_dir / "summary.csv").read_text(encoding="utf-8") == out
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        assert [p["name"] for p in json.load(fh)["problems"]] == names
    with open(out_dir / "traces.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({r["problem"] for r in rows}) == names
    assert len(rows) == 2 * 2 * 100


# ---------------------------------------------------------------------------
# verify


def test_verify_builtin_two(capsys):
    code, out, err = call(capsys, ["verify", "--builtin", "2"])
    assert code == 0
    report = json.loads(out)
    assert abs(report["best_value"] - 0.8197) <= 1e-3
    assert report["path_count"] == 6
    assert report["samples_per_cell"] == 200


def test_verify_single_cell_instance(capsys, tmp_path):
    payload = {
        "name": "toy",
        "A": [[0.8, 0.3], [0.2, 0.3]],
        "b": [0.5, 0.3],
        "objective": "x1 + x2",
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = call(capsys, ["verify", "--file", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["cells_examined"] == 1
    assert report["best_value"] == 0.8


def test_verify_cap_exceeded_exits_three(capsys):
    code, out, err = call(capsys, ["verify", "--builtin", "5", "--cap", "1"])
    assert code == 3
    payload = json.loads(out)
    assert payload["path_count"] == 96
    assert payload["waived"] is True


@pytest.mark.parametrize(
    "flags, message",
    [(["--samples", "-1"], "samples_per_cell"), (["--cap", "-5"], "cap"), (["--cap", "0"], "cap")],
)
def test_verify_nonsense_sizes_exit_one(capsys, flags, message):
    code, out, err = call(capsys, ["verify", "--builtin", "3", *flags])
    assert code == 1
    assert out == ""
    assert f"error: {message} must be >= " in err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_worked_example(capsys, ex1_file, monkeypatch):
    code, out, err = call(capsys, ["enumerate", "--file", str(ex1_file), "--max", "80"])
    assert code == 0
    monkeypatch.setattr(cli, "_ENUMERATE_CHUNK", 7)  # 72 paths over 11 batches
    assert call(capsys, ["enumerate", "--file", str(ex1_file), "--max", "80"]) == (0, out, err)
    lines = [json.loads(line) for line in out.strip().splitlines()]
    header, paths = lines[0], lines[1:]
    assert header["xbar"] == [1.0, 0.5, 0.3, 0.1, 0.7, 1.0]
    assert header["jbar"] == [[1, 5, 6], [1, 2], [3, 6], [2, 4, 5], [1, 6]]
    assert header["path_count"] == 72
    assert len(paths) == 72
    inst = Instance(EX_A, EX_B)
    for line in paths:
        assert all(line["path"][i] in header["jbar"][i] for i in range(5))
        assert residual(inst, line["candidate"]) <= EPS_EQ


def test_enumerate_max_zero_prints_header_only(capsys, ex1_file):
    code, out, err = call(capsys, ["enumerate", "--file", str(ex1_file), "--max", "0"])
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_enumerate_negative_max_exits_one(capsys, ex1_file):
    code, out, err = call(capsys, ["enumerate", "--file", str(ex1_file), "--max", "-3"])
    assert code == 1
    assert out == ""
    assert "error: max must be >= 0, got -3" in err


# ---------------------------------------------------------------------------
# problems


def test_problems_listing(capsys):
    code, out, err = call(capsys, ["problems"])
    assert code == 0
    listing = json.loads(out)
    assert len(listing) == 10
    assert listing[0]["known_optimum"] == -0.0096019
    assert listing[4]["rows"] == 8 and listing[4]["cols"] == 10


def test_unknown_subcommand_exits_one(capsys):
    code, out, err = call(capsys, ["fnord"])
    assert code == 1
