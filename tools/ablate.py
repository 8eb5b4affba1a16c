#!/usr/bin/env python3
"""Screen perf idioms by ablation: time a tree against the same tree with
one idiom removed.

    python3 tools/ablate.py rounds --bench BENCH_33.json --ablation NAME
    python3 tools/ablate.py pairs --base REF --change REF --workload fleet --seed 33201

Every ablation in the bench file is a unified diff (`"diff"`) against the
commit the file names as `"parent"`.  Both trees are exported with
`git archive` into a temporary directory; the ablated one gets the diff
with `git apply`.

`rounds` times the two trees in turn on each workload the ablation lists,
the one that goes first alternating from round to round.  Each round on
each side is a fresh worker process, so what one process happens to get
(its memory layout, its hash seed) does not bias every round the same
way.  The worker imports akasim from its own tree, builds the perfbench
workload from the seed, runs one untimed warm-up iteration and reports a
hash of its output (the two sides must match: an ablation may not change
an output), then times a fixed number of iterations in-process.  Each
iteration is timed alone, followed by an untimed `gc.collect()` and
perfbench's reference kernel, and its rate is in calibrated seconds, as
in perfbench/run.py.  A round's rate is the median of its iterations'
rates.  The verdict per workload: the ablated median rate against the
parent's median and interquartile range over the same rounds.  Each
round's ratio to the parent's round next to it in time is reported too.

`pairs` runs perfbench/run.py (end to end, --trace 0) from each of two
trees, the side that goes first alternating, and prints each result line.
`--change` may name an ablation instead of a ref, or `.` for the working
tree as it stands.

Results are printed as JSON, one object per line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet", "rand_stats", "bulk_traffic", "golden_replay")
# iterations per round: about 0.5-1.5 s each on a 2-core VM, kernel included
ROUND_ITERATIONS = {"fleet": 3, "rand_stats": 40, "bulk_traffic": 12, "golden_replay": 40}

WORKER = r"""
import gc, hashlib, statistics, sys, time
tree, name, seed, iterations = sys.argv[1:]
sys.path[:0] = [tree + "/src", tree + "/tests", tree + "/perfbench"]
from calibrate import NOMINAL_S, reference_seconds
from workloads import WORKLOADS
workload = WORKLOADS[name](int(seed))
ref = workload.iterate()
digest, failed = hashlib.sha256(repr(ref.output).encode()).hexdigest(), ref.failed
ref = None
clock = time.perf_counter
rates = []
gc.collect()
kernel_before = reference_seconds()
for _ in range(int(iterations)):
    t0 = clock()
    it = workload.iterate()
    wall = clock() - t0
    failed += it.failed
    ops, it = it.ops, None
    gc.collect()
    # calibrated as in perfbench/run.py: the kernel brackets each iteration
    kernel_after = reference_seconds()
    rates.append(ops / wall * (kernel_before + kernel_after) / (2 * NOMINAL_S))
    kernel_before = kernel_after
print(digest, failed, statistics.median(rates))
"""


def export(ref: str, into: Path) -> Path:
    """The committed files of `ref`, or the working tree for ".", under `into`."""
    into.mkdir(parents=True)
    if ref == ".":
        files = subprocess.run(
            ["git", "ls-files", "-co", "--exclude-standard", "-z"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout.decode().split("\0")
        with tarfile.open(into / "tree.tar", "w") as tar:
            for name in filter(None, files):
                if (ROOT / name).exists():
                    tar.add(ROOT / name, arcname=name)
    else:
        subprocess.run(
            ["git", "archive", "-o", str(into / "tree.tar"), ref], cwd=ROOT, check=True
        )
    with tarfile.open(into / "tree.tar") as tar:
        tar.extractall(into)
    (into / "tree.tar").unlink()
    return into


def ablated(bench: dict, name: str, into: Path) -> tuple[Path, dict]:
    """The parent with one ablation's diff applied, and the ablation's entry."""
    entry = next(a for a in bench["ablations"] if a["name"] == name)
    tree = export(bench["parent"], into)
    subprocess.run(["git", "apply", "-"], cwd=tree, input=entry["diff"].encode(), check=True)
    return tree, entry


def _round(tree: Path, workload: str, seed: int, iterations: int) -> tuple[str, float]:
    """(output hash, median calibrated rate) of one fresh worker."""
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(tree), workload, str(seed), str(iterations)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    digest, failed, rate = proc.stdout.split()
    if failed != "0":
        raise RuntimeError(f"{tree}: an iteration of {workload} failed")
    return digest, float(rate)


def _spread(rates: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(rates, n=4)
    return statistics.median(rates), q3 - q1


def screen(base: Path, change: Path, workload: str, rounds: int, seed: int) -> dict:
    """Alternating rounds of `workload` on the two trees, each in a fresh worker."""
    n = ROUND_ITERATIONS[workload]
    parent, ablated_rates = [], []
    for r in range(rounds):
        sides = [(base, parent), (change, ablated_rates)]
        digests = set()
        for tree, rates in sides if r % 2 == 0 else sides[::-1]:
            digest, rate = _round(tree, workload, seed, n)
            rates.append(rate)
            digests.add(digest)
        if len(digests) != 1:
            raise RuntimeError(f"{workload}: the ablated tree changes the output")
    pm, piqr = _spread(parent)
    am, aiqr = _spread(ablated_rates)
    ratios = [a / p for a, p in zip(ablated_rates, parent)]
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "iterations_per_round": n,
        "parent_ops_per_s": parent,
        "ablated_ops_per_s": ablated_rates,
        "parent_median": pm,
        "parent_iqr": piqr,
        "ablated_median": am,
        "ablated_iqr": aiqr,
        "ablated_vs_parent": am / pm - 1,
        "ablated_better_rounds": sum(r > 1 for r in ratios),
        # each round's ablated rate over the parent's rate next to it in time
        "paired_ratio_median": statistics.median(ratios),
        "paired_ratio_quartiles": statistics.quantiles(ratios, n=4)[::2],
        # removing the idiom costs no more than the parent's own spread
        "inside_parent_iqr": am >= pm - piqr,
    }


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rounds = sub.add_parser("rounds", help="in-process rounds, parent against one ablation")
    rounds.add_argument("--bench", type=Path, required=True)
    rounds.add_argument("--ablation", required=True)
    rounds.add_argument("--rounds", type=int, default=12)
    rounds.add_argument("--seed", type=int, default=33001)
    pairs = sub.add_parser("pairs", help="alternating perfbench/run.py pairs")
    pairs.add_argument("--base", required=True)
    pairs.add_argument("--change", required=True, help="a ref, '.', or ablation:NAME")
    pairs.add_argument("--bench", type=Path, help="the bench file an ablation:NAME comes from")
    pairs.add_argument("--workload", choices=WORKLOADS, required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--seed", type=int, required=True, help="pair i runs seed + i")
    pairs.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ablate-") as tmp:
        tmp = Path(tmp)
        if args.mode == "rounds":
            bench = json.loads(args.bench.read_text())
            base = export(bench["parent"], tmp / "parent")
            change, entry = ablated(bench, args.ablation, tmp / "ablated")
            for workload in entry["workloads"]:
                row = screen(base, change, workload, args.rounds, args.seed)
                print(json.dumps({"ablation": args.ablation, **row}), flush=True)
        else:
            base = export(args.base, tmp / "parent")
            if args.change.startswith("ablation:"):
                bench = json.loads(args.bench.read_text())
                change, _ = ablated(bench, args.change.partition(":")[2], tmp / "change")
            else:
                change = export(args.change, tmp / "change")
            for i in range(args.pairs):
                seed = args.seed + i
                sides = [("parent", base), ("change", change)]
                for ran, (side, tree) in enumerate(sides if i % 2 == 0 else sides[::-1]):
                    result = perfbench(tree, args.workload, seed, args.seconds)
                    print(json.dumps({"workload": args.workload, "pair": i, "seed": seed,
                                      "side": side, "ran": ran, "result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
