#!/usr/bin/env python3
"""Run the benchmark on every workload and seed and report each metric's spread.

    python3 cvbench/spread.py --seeds 1            # each workload once
    python3 cvbench/spread.py --workload headcount_t9 --seeds 1-10

Each run lasts ``run_seconds`` from BENCHMARK.json and reports the
end-to-end metrics. For each workload it prints the operations attempted
and failed and, per metric, the median over the runs with its unit. Given several seeds it
also prints the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json; a bound is steady when the spread
stays below a third of it. Runs go one after another, each workload through
all its seeds, and their result lines are appended to
``cvbench/out/spread.jsonl``.
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


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_seeds(spec: dict, workload: str, seed_list) -> list:
    results = []
    log = BENCH_DIR / "out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in seed_list:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with log.open("a") as fh:
            fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        results.append(result)
    return results


def report(workload: str, results: list, bounds: dict) -> None:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print(f"== {workload}: {len(results)} runs, attempted {attempted}, failed {failed} "
          f"(shares {shares}), correct {correct}")
    for name, metric in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        line = f"{name:26s} {med:12.6g} {metric['unit']:6s}"
        if len(vals) > 1 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of the bound"
            line += f"  spread {spread:.4f}  bound {bound}{flag}"
        print(line, flush=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in args.workload:
        try:
            results = run_seeds(spec, workload, args.seeds)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        report(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
