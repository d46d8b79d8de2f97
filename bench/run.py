"""Run one dpdelta benchmark workload and print its metrics.

    python3 bench/run.py --workload catalog-verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in this one process, on
one thread, against the checkout's `src/dpdelta`. With `--trace 0` it
prints the end-to-end metrics; with `--trace 1` it alternates untraced and
traced units of work and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when a result was printed; a checkout without
`src/dpdelta` or a failed set-up exits 2 without a result.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
TRACE_DIR = BENCH_DIR / "out"

# Set-up is measured in this many fresh interpreters, one after another.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# Candidate tail percentiles; the highest one the workload's guaranteed
# sample count leaves at least TAIL_BEYOND samples beyond is reported.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def use_checkout_source() -> None:
    """Import dpdelta from this checkout's src/ and nowhere else."""
    if not (SOURCE / "dpdelta" / "__init__.py").is_file():
        raise SetupError(f"no dpdelta sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import dpdelta

    if Path(dpdelta.__file__).resolve().parent != (SOURCE / "dpdelta").resolve():
        raise SetupError(f"dpdelta was imported from {dpdelta.__file__}, not {SOURCE}")


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated p-th percentile of the values."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(guaranteed_samples: int) -> int:
    """Highest candidate percentile with TAIL_BEYOND samples beyond it."""
    for p in TAIL_PERCENTILES:
        if guaranteed_samples * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    raise SetupError(f"{guaranteed_samples} samples cannot give a tail percentile")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Import plus input preparation, raw and at reference speed (child side)."""

    def setup() -> None:
        use_checkout_source()
        import workloads

        workloads.WORKLOADS[workload](seed).prepare()

    _, raw, factor = speed.SpeedMeter().time(setup)
    return raw, raw * factor


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up times, raw and at reference speed, from fresh interpreters.

    The SETUP_SAMPLES interpreters run one after another.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr.strip()}")
        raw, scaled = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((raw, scaled))
    return samples


class Tally:
    """Operation latencies, raw and at reference speed, and check faults."""

    def __init__(self, meter: speed.SpeedMeter):
        self.meter = meter
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.factors: list[float] = []
        self.preparation_scaled = 0.0
        self.preparation_factors: list[float] = []
        self.faults: list[str] = []

    def prepare(self, wl):
        """The workload's inputs, timing their preparation at reference speed."""
        inputs, raw, factor = self.meter.time(wl.prepare)
        self.preparation_scaled += raw * factor
        self.preparation_factors.append(factor)
        return inputs

    def run_pass(self, wl, inputs, tracer=None) -> None:
        for label, check in wl.operations(inputs):
            if tracer is not None:
                tracer.op = len(self.latencies)
            fault, raw, factor = self.meter.time(lambda: _guarded(check))
            self.latencies.append(raw)
            self.scaled.append(raw * factor)
            self.factors.append(factor)
            if fault is not None:
                self.faults.append(f"{label}: {fault}")

    def factor(self, op: int) -> float:
        """Reference-speed factor of an operation or of a preparation_op."""
        return self.factors[op] if op >= 0 else self.preparation_factors[-1 - op]

    @property
    def total_scaled(self) -> float:
        return self.preparation_scaled + sum(self.scaled)


def _guarded(check) -> str | None:
    """Run one check; an exception is a fault of the operation, not the run."""
    try:
        return check()
    except Exception:
        return traceback.format_exc().strip().splitlines()[-1]


def measure(wl, inputs, seconds: float, meter: speed.SpeedMeter) -> tuple[Tally, int]:
    """Whole passes until both `seconds` and the workload's minimum are met."""
    tally = Tally(meter)
    passes = 0
    start = time.perf_counter()
    while passes < wl.min_passes or time.perf_counter() - start < seconds:
        if wl.fresh_per_pass and passes:
            inputs = wl.prepare()
        gc.collect()
        tally.run_pass(wl, inputs)
        passes += 1
    return tally, passes


def measure_traced(wl, seconds: float, meter: speed.SpeedMeter):
    """Alternate untraced and traced units, each preparation plus one pass.

    Returns the tracer, the untraced and traced tallies, and the unit count.
    """
    from instrument import Instrumentation
    from tracer import Tracer, preparation_op

    tracer = Tracer()
    plain, traced = Tally(meter), Tally(meter)
    units = 0
    start = time.perf_counter()
    while units < 1 or time.perf_counter() - start < seconds:
        gc.collect()
        plain.run_pass(wl, plain.prepare(wl))
        gc.collect()
        with Instrumentation(tracer):
            tracer.op = preparation_op(units)
            traced.run_pass(wl, traced.prepare(wl), tracer)
        units += 1
    return tracer, plain, traced, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe_setup:
            print(json.dumps(probe_setup(args.workload, args.seed)))
            return 0
        use_checkout_source()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        wl = workloads.WORKLOADS[args.workload](args.seed)
        inputs = wl.prepare()
        problems = wl.self_check(inputs)
        if problems:
            raise SetupError("generated inputs fail their checks: " + "; ".join(problems))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        metrics, tallies = run_traced(wl, args)
    else:
        metrics, tallies = run_untraced(wl, inputs, setup, args)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    faults = [fault for tally in tallies for fault in tally.faults]
    for fault in faults:
        print(f"FAILED {fault}", file=sys.stderr)
    attempted = sum(len(tally.latencies) for tally in tallies)
    failed = len(faults)
    print(f"error_rate {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_untraced(wl, inputs, setup: list[tuple[float, float]], args):
    meter = speed.SpeedMeter()
    tally, passes = measure(wl, inputs, args.seconds, meter)
    lat = tally.scaled
    tail = tail_percentile(len(lat) // passes * wl.min_passes)
    beyond = sum(x > percentile(lat, tail) for x in lat)
    raw = tally.latencies
    print(f"setup_s: median of {len(setup)} fresh interpreters; raw "
          + ", ".join(f"{r:.4f}" for r, _ in setup) + " s; at reference speed "
          + ", ".join(f"{x:.4f}" for _, x in setup) + " s")
    print(f"{passes} passes, {len(lat)} operations; latency_tail_ms is p{tail} "
          f"of {len(lat)} samples ({beyond} beyond it)")
    print(f"raw: {len(raw) / sum(raw):.4f} ops/s, p50 {percentile(raw, 50) * 1e3:.3f} ms, "
          f"p{tail} {percentile(raw, tail) * 1e3:.3f} ms; speed probe median "
          f"{statistics.median(meter.probes) * 1e3:.4f} ms "
          f"(reference {speed.REFERENCE_S * 1e3:g} ms)")
    metrics = {
        "setup_s": (statistics.median(x for _, x in setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, tail) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, [tally]


def run_traced(wl, args):
    from instrument import OVERHEAD_METRIC, layer_metrics
    from tracer import write_spans

    meter = speed.SpeedMeter()
    tracer, plain, traced, units = measure_traced(wl, args.seconds, meter)
    path = TRACE_DIR / f"spans-{wl.name}-seed{args.seed}.tsv"
    write_spans(tracer.spans, path)
    print(f"{units} traced units; {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}; per-layer values are per unit, and times are "
          f"at reference speed (median probe {statistics.median(meter.probes) * 1e3:.4f} ms)")
    metrics = layer_metrics(tracer, units, traced.factor)
    overhead = traced.total_scaled / plain.total_scaled
    metrics[OVERHEAD_METRIC[0]] = (overhead, OVERHEAD_METRIC[1])
    return metrics, [plain, traced]


if __name__ == "__main__":
    sys.exit(main())
