"""freaco benchmark: one command for every workload's end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload builtin-protocol --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics declared in BENCHMARK.json,
``--trace 1`` the per-layer ones; see perfbench/README.md.  The program is
taken from ``src/`` of the checkout this file sits in; without it the run
fails with exit status 2.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
LEDGER = WORKDIR / "ledger.json"
WORKLOADS = ("builtin-protocol", "planted-large", "oracle-verify", "bench-pool")
#: Set-up probes run before and again after the workload, so that the
#: median spans two moments of the run rather than one state of the host.
SETUP_PROBES = 4
#: Reference wall time of ``python3 -c "import numpy"``: its median on the
#: 2-vCPU host the baseline was recorded on.
REF_NUMPY_START_S = 0.16
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Values that must repeat exactly for one program source, benchmark source,
#: workload, seed and mode.
GUARDED = ("best_f.mean", "expr.evaluate.calls", "engine.deposit.calls",
           "oracle.paths", "oracle.cells", "bench.pools_started")


class BenchError(Exception):
    pass


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_script(script: str, *args: str, env=None, timeout: float = 120.0) -> str:
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                          capture_output=True, text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(instance: str | None) -> list[float]:
    """Set-up times of fresh interpreters that import freaco and build problems.

    Process start and the numpy import dominate set-up, and their speed
    drifts with the host's state over minutes, beyond what the calibration
    loop follows.  Each probe therefore runs between two bare numpy starts
    and is reported as REF_NUMPY_START_S times its wall time over theirs.
    """
    args = [instance] if instance else []

    def wall(cmd: list[str]) -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)
        return time.perf_counter() - t0

    bare = [sys.executable, "-c", "import numpy"]
    probe = [sys.executable, str(HERE / "probe.py"), *args]
    before, out = wall(bare), []
    for _ in range(SETUP_PROBES):
        took, after = wall(probe), wall(bare)
        out.append(REF_NUMPY_START_S * took / (0.5 * (before + after)))
        before = after
    return out


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten values beyond it."""
    arr = np.asarray(values)
    for p in reversed(TAIL_PERCENTILES):
        v = float(np.percentile(arr, p))
        if int((arr > v).sum()) >= 10:
            return p, v
    return None


def end_to_end(child: dict, setup: list[float]) -> tuple[dict, dict]:
    raw = [u[0] / u[2] * 1e3 for u in child["units"]]
    scaled = [u[1] / u[2] * 1e3 for u in child["units"]]
    jobs = sum(u[2] for u in child["units"])
    metrics = {
        "job_ms.p50": statistics.median(scaled),
        "jobs_per_s": jobs / sum(u[1] for u in child["units"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_mb"],
        "best_f.mean": child["best_f_mean"],
    }
    t = tail(scaled)
    extra = {
        "job_ms.tail": None if t is None else {"percentile": t[0], "value": t[1], "n": len(scaled)},
        "raw_job_ms.p50": statistics.median(raw),
        "raw_jobs_per_s": jobs / sum(u[0] for u in child["units"]),
        "jobs": jobs,
        "units": len(child["units"]),
        "setup_s.samples": setup,
        "workers_peak_rss_mb": child["workers_peak_rss_mb"],
        "calib_median_s": child["calib_median_s"],
        "best_f.jobs": child["fixed_jobs"],
    }
    return metrics, extra


def check_ledger(key: str, values: dict) -> list[str]:
    """Compare guarded values with earlier runs of the same key; record new ones."""
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    seen = ledger.setdefault(key, {})
    drift = [f"{name} was {seen[name]!r}, now {v!r}" for name, v in values.items()
             if name in seen and seen[name] != v]
    for name, v in values.items():
        seen.setdefault(name, v)
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, LEDGER)
    return drift


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    env = dict(os.environ)
    if name == "bench-pool":
        env["FREACO_THREADS"] = str(os.cpu_count() or 1)
    instance = None
    if name == "planted-large":
        instance = str(WORKDIR / f"planted-{seed}.json")
        run_script("make_instance.py", str(seed), instance)
    try:
        setup = [] if trace else setup_seconds(instance)
        args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--workdir", str(WORKDIR)]
        if instance:
            args += ["--instance", instance]
        out = run_script("workloads.py", *args, env=env, timeout=seconds + 120)
        if not trace:
            setup += setup_seconds(instance)
    finally:
        if instance and os.path.exists(instance):
            os.remove(instance)
    child = json.loads(out.strip().splitlines()[-1])
    if Path(child["freaco_file"]).resolve().parent != ROOT / "src" / "freaco":
        raise BenchError(f"freaco imported from {child['freaco_file']}, not this checkout")

    if trace:
        metrics = child["per_layer"]
        extra = {k: child[k] for k in ("traced_jobs", "passes", "self_time")}
    else:
        metrics, extra = end_to_end(child, setup)
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    errors = list(child["messages"])
    guarded = {k: metrics[k] for k in GUARDED if k in metrics}
    src_sha, bench_sha = digest(ROOT / "src" / "freaco"), digest(HERE)
    drift = check_ledger(f"{src_sha}|{bench_sha}|{name}|{seed}|trace{trace}", guarded)
    errors += [f"exact-repeat guard: {d}" for d in drift]
    bad = [k for k, v in metrics.items() if not np.isfinite(v)]
    errors += [f"{k} is not finite" for k in bad]
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": child["numpy"],
        "git_sha": git_sha(), "src_sha256": src_sha, "bench_sha256": bench_sha,
        "FREACO_THREADS": child["freaco_threads"], "inputs": child["inputs"],
    }
    return {
        "correct": child["failed"] == 0 and not drift and not bad,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "extra": extra,
        "errors": errors,
        "meta": meta,
    }


def report(result: dict, spec: dict, trace: int):
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    meta = result["meta"]
    print(f"== {meta['workload']} seed={meta['seed']} trace={trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for k, v in result["metrics"].items():
        print(f"  {k:40s} {v:16.6g} {units[k]}")
    if trace:
        print("  self time per job (traced):")
        for row in result["extra"]["self_time"][:12]:
            print(f"    {row['name']:38s} {row['self_ms']:12.4g} ms {row['share']:7.1%}"
                  f" {row['calls']:10.6g} calls")
    else:
        t = result["extra"]["job_ms.tail"]
        shown = "n/a (under ten jobs beyond p50)" if t is None else (
            f"{t['value']:.6g} ms (p{t['percentile']:g} of n={t['n']})")
        print(f"  {'job_ms.tail':40s} {shown}")
        print(f"  {'fail_ratio':40s} {result['failed'] / result['attempted']:16.6g}")
    for e in result["errors"]:
        print(f"  ERROR {e}", file=sys.stderr)
    print("detail " + json.dumps({"meta": meta, "extra": result["extra"]}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "freaco" / "__init__.py").is_file():
        print(f"error: no freaco sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    WORKDIR.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec)
            report(results[name], spec, args.trace)
    except (BenchError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    def with_units(metrics: dict) -> dict:
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    if len(names) == 1:
        metrics = with_units(results[names[0]]["metrics"])
    else:
        metrics = {n: with_units(r["metrics"]) for n, r in results.items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
