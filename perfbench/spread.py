"""Run-to-run spread of the end-to-end metrics.

Usage: python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 20]
       [--out FILE]

Runs run.py once per seed and prints, per metric, the median and the
quartile spread (q3 - q1) / median over the runs, computed with
statistics.quantiles(values, n=4), next to the metric's bound from
BENCHMARK.json.  ``--out`` also writes the per-run values and the summary
as JSON, which is how BASELINE.json was assembled.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in seed_range(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail "))[len("detail "):])
        runs.append({"seed": seed, "result": result, "extra": detail["extra"]})
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        summary[m["name"]] = summarize(values) | {"bound": m["bound"], "unit": m["unit"]}
        s = summary[m["name"]]
        print(f"{m['name']:14s} median {s['median']:.6g} {m['unit']:9s} "
              f"spread {s['spread']:.4f} (bound {m['bound']})")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs, "summary": summary},
            indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
