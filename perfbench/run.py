#!/usr/bin/env python3
"""Benchmark driver for akasim.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Runs one workload (fleet, rand_stats, bulk_traffic, golden_replay) built
from --seed against the library in ../src, for --seconds of timed
iterations after one untimed warm-up iteration.  Every output is checked
(golden bytes, oracle recomputation, repeatability) outside the timed region.

--trace 0 reports the end-to-end metrics, measured untraced.  Times are in
calibrated seconds (see calibrate.py): each iteration is bracketed by runs
of a fixed reference kernel, which cancels the drift of a shared machine's
speed.  ops_per_s is the median over iterations of operations per
calibrated second.

--trace 1 alternates untraced and traced iterations of the same input,
checks they render identical output, and reports the per-layer metrics plus
the tracing overhead, in wall time; the spans are written to perfbench/out/.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REQUIRED = (
    SRC / "akasim" / "__init__.py",
    ROOT / "tests" / "oracle.py",
    ROOT / "tests" / "aes_reference.py",
    ROOT / "configs",
    ROOT / "tests" / "golden",
)

# fresh-process imports per run; the first is discarded because it may
# compile bytecode, the median of the rest is setup_s.  Each child then runs
# the reference kernel (once to warm it up, once timed) to calibrate its own
# seconds.
SETUP_RUNS = 7
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import akasim, akasim.cli\n"
    "elapsed = time.perf_counter() - t0\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "from calibrate import reference_seconds\n"
    "reference_seconds()\n"
    "print(elapsed, reference_seconds(), akasim.__file__)\n"
)
# traced iterations stop once the next one would push the spans kept in
# memory past this many
SPAN_BUDGET = 1_500_000

clock = time.perf_counter


def measure_setup() -> tuple[float, float]:
    """Median fresh-process import time: (calibrated s, wall s)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    calibrated, wall = [], []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        elapsed, reference, path = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "akasim":
            raise RuntimeError(f"setup child imported akasim from {path}")
        wall.append(float(elapsed))
        calibrated.append(float(elapsed) * NOMINAL_S / float(reference))
    return statistics.median(calibrated[1:]), statistics.median(wall[1:])


def _failures(it, ref, ref_bad: int) -> int:
    """Failed operations of one iteration: all of them if its output differs
    from the checked reference, else those found in it or in the reference."""
    if it.output != ref.output:
        return it.ops
    return min(it.ops, it.failed + ref_bad)


def _reference(workload):
    """Untimed warm-up iteration, checked against the oracle."""
    ref = workload.iterate()
    bad = workload.check(ref)
    ref.detail = None
    return ref, bad


def untraced_run(workload, seconds: float) -> dict:
    ref, ref_bad = _reference(workload)
    times, walls, rates, samples = [], [], [], []
    attempted = failed = 0
    gc.collect()
    kernel_before = reference_seconds()
    deadline = clock() + seconds
    while True:
        t0 = clock()
        it = workload.iterate()
        wall = clock() - t0
        it.detail = None
        gc.collect()
        kernel_after = reference_seconds()
        # the reference kernel brackets the iteration on both sides
        scale = 2 * NOMINAL_S / (kernel_before + kernel_after)
        kernel_before = kernel_after
        times.append(wall * scale)
        walls.append(wall)
        rates.append(it.ops / (wall * scale))
        samples += [t * scale for t in it.samples]
        attempted += it.ops
        failed += _failures(it, ref, ref_bad)
        it = None  # release the output before the next iteration builds its own
        if clock() >= deadline:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "times": times,
        "walls": walls,
        "rates": rates,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, seconds: float, spans_path: Path) -> dict:
    from layers import LayerProbes, layer_metrics
    from spans import SpanTracer

    ref, ref_bad = _reference(workload)
    probes = LayerProbes()
    tracer = SpanTracer(probes=probes.probes())
    plain, traced = [], []
    attempted = failed = 0
    deadline = clock() + seconds
    while True:
        gc.collect()
        t0 = clock()
        it = workload.iterate()
        plain.append(clock() - t0)
        it.detail = None
        attempted += it.ops
        failed += _failures(it, ref, ref_bad)

        before = len(tracer)
        gc.collect()
        with tracer:
            t0 = clock()
            tit = workload.iterate()
            traced.append(clock() - t0)
        tit.detail = None
        attempted += tit.ops
        # the wrappers must not change behaviour: same bytes as untraced
        failed += tit.ops if tit.output != it.output else _failures(tit, ref, ref_bad)
        if clock() >= deadline or 2 * len(tracer) - before > SPAN_BUDGET:
            break
    if not tracer.restored():
        raise RuntimeError("span tracer left a wrapped attribute behind")
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics = layer_metrics(
        tracer.aggregate(),
        probes,
        iterations=len(traced),
        overhead_s=traced_s - plain_s,
        overhead_ratio=(traced_s - plain_s) / plain_s,
    )
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return {
        "attempted": attempted,
        "failed": failed,
        "iterations": len(traced),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "metrics": metrics,
    }


def _fmt(name: str, value: float, unit: str) -> str:
    return f"  {name:<44} {value:>14.6g} {unit}"


def main(argv=None) -> int:
    missing = [str(p) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: benchmark inputs missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s, setup_wall_s = measure_setup()
    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
        run = traced_run(workload, args.seconds, spans_path)
        metrics = run["metrics"]
        print(
            f"  {run['iterations']} traced iterations: {run['traced_s']:.6g} s each against "
            f"{run['untraced_s']:.6g} s untraced (wall); spans in {spans_path.relative_to(ROOT)}"
        )
    else:
        run = untraced_run(workload, args.seconds)
        times = run["times"]
        median_s = statistics.median(times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": statistics.median(run["rates"]), "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        print(
            f"  {len(times)} timed iterations, calibrated s: median {median_s:.6g}, "
            f"fastest {min(times):.6g}, slowest {max(times):.6g}; wall s: median "
            f"{statistics.median(run['walls']):.6g}; setup wall s {setup_wall_s:.6g}"
        )
        for name, value, unit in workload.report(median_s, run["samples"]):
            print(_fmt(name, value, unit))
    for name, m in metrics.items():
        print(_fmt(name, m["value"], m["unit"]))
    print(_fmt("error_rate", run["failed"] / run["attempted"], "ratio"))
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
