"""Repeat mode: run workloads several times and report each metric's spread.

    python3 bench/repeat.py --runs 10 --first-seed 1 [--workload NAME ...]

Each run is `bench/run.py` in its own process, one after another, with seeds
first-seed, first-seed + 1, ... For every workload and end-to-end metric it
prints the median, the first and third quartiles (`statistics.quantiles`
with n=4), and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. A spread below a third of the bound is marked steady;
`setup_s` is exempt from the spread rule. `--out` also writes every run's
result and the summary as JSON. The exit code is 1 when a run fails or
reports a fault.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write all results here as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    names = args.workload or [w["name"] for w in spec["workloads"]]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    report: dict = {}
    bad = False
    for name in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(name, seed, args.seconds, args.trace)
            results.append({"seed": seed, **result})
            bad |= not result["correct"] or result["failed"] > 0
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": rel,
                               "bound": bounds[metric], "values": values}
        report[name] = {"runs": results, "summary": summary}
        print(f"\n{name}: {args.runs} runs")
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
        for metric, s in summary.items():
            bound = s["bound"]
            mark = ""
            if bound is not None and metric != "setup_s":
                mark = "steady" if s["spread"] < bound / 3 else (
                    "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {metric:38s} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                  f"{s['spread']:8.4f} {bound if bound is not None else '-'} {mark}")
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
