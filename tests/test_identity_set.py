"""The standing identity set: seeded CLI output that a change must leave
byte-identical unless it says which values move and why.

It is the three files of ``bench --problems all --runs 4 --seed 0`` at
``FREACO_THREADS=1`` and 2, and the stdout of ``solve``, ``verify`` and
``enumerate --max 100`` on each built-in problem.  The digests pin bits
that depend on numpy's floating-point routines; a numpy build that
dispatches to other SIMD kernels can change them.
"""

import hashlib

import pytest

from freaco.cli import main

BENCH_FILES = {
    "summary.csv": "da3222b868fa5d7520b25dbaa75f8eb58a0cd9be1ce75da7cb07f4cd8e094230",
    "summary.json": "509e7d27c0c7dfcd12e28a1b5aae89d5258a826baaa9fb49abf110c637917c25",
    "traces.csv": "a8972aceccee9843f15f76ab7d26404fb8c245f2ae2d1eda8b0776b24344d3ad",
}
BUILTIN_STDOUT = "9df5e02a3eba989dc367f2917e1255a9b61f82829218dac3ed53ebee3c39d4af"


def run_cli(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bench_files_are_unchanged(threads, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("FREACO_THREADS", threads)
    run_cli(capsys, ["bench", "--problems", "all", "--runs", "4", "--seed", "0", "--out", str(tmp_path)])
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in BENCH_FILES}
    assert digests == BENCH_FILES


def test_builtin_stdout_is_unchanged(capsys):
    digest = hashlib.sha256()
    for i in range(1, 11):
        for argv in (["solve"], ["verify"], ["enumerate", "--max", "100"]):
            digest.update(run_cli(capsys, [*argv, "--builtin", str(i)]).encode())
    assert digest.hexdigest() == BUILTIN_STDOUT
