"""A/A check: run the same commit repeatedly and report its own noise.

    python3 eonbench/aa_check.py --runs 10 --seed0 1 --record eonbench/aa_record.json

For each workload it runs ``run.py`` once per seed ``seed0 .. seed0+runs-1``
and reports, per end-to-end metric, the distance between the first and
third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.  It then re-runs ``seed0`` untraced and twice traced, and
requires the deterministic numbers to be bit-identical: every simulated-
clock metric and count across the two untraced runs, the traced run's
sim metrics against the untraced ones, and every per-layer count across
the two traced runs.  Exits 1 if a run fails, a deterministic number
differs, or a spread (other than ``setup_s``'s) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result line plus its exact numbers."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    exact = next(line for line in out if line.startswith("# exact "))
    result["exact"] = json.loads(exact[len("# exact "):])
    result["seed"] = seed
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def check(workload: str, spec: dict, runs: int, seed0: int, seconds: int):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for i in range(runs):
        results.append(run(workload, seed0 + i, seconds, 0))
        print(f"  {workload} seed {seed0 + i}: "
              f"host_s={results[-1]['metrics']['host_s']['value']:.4f} "
              f"setup_s={results[-1]['metrics']['setup_s']['value']:.4f}",
              flush=True)
    repeat = run(workload, seed0, seconds, 0)
    traces = [run(workload, seed0, seconds, 1) for _ in range(2)]
    errors = [
        f"{workload}: run not correct (seed {r.get('seed')})"
        for r in results + [repeat] + traces
        if not r["correct"] or r["failed"]
    ]
    metrics = {}
    for name, bound in sorted(bounds.items()):
        median, share = spread([r["metrics"][name]["value"] for r in results])
        metrics[name] = {
            "median": median, "spread": share, "bound": bound,
            "under_third": share < bound / 3,
        }
        if share > bound and name != "setup_s":
            errors.append(f"{workload}: {name} spread {share:.3f} > bound {bound}")
    if repeat["exact"] != results[0]["exact"]:
        errors.append(f"{workload}: sim metrics differ between same-seed runs")
    for key, value in results[0]["exact"].items():
        if traces[0]["exact"].get(key) != value:
            errors.append(f"{workload}: traced {key} differs from untraced")
    if traces[0]["exact"] != traces[1]["exact"]:
        errors.append(f"{workload}: per-layer counts differ between traced runs")
    layer = {
        name: traces[0]["metrics"][name]["value"]
        for name in ("trace.overhead", "trace.unattributed_s", "trace.window_s")
    }
    return {"metrics": metrics, "traced": layer}, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--record", help="write the A/A record as JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    record, errors = {}, []
    for name in names:
        record[name], problems = check(
            name, spec, args.runs, args.seed0, spec["run_seconds"]
        )
        errors += problems
        for metric, row in record[name]["metrics"].items():
            print(f"{name:>15} {metric:<30} median {row['median']:<14.6g} "
                  f"spread {row['spread']:.4f} bound {row['bound']}"
                  f"{'' if row['under_third'] else '  (above a third)'}")
        print(f"{name:>15} traced: {record[name]['traced']}", flush=True)
    for error in errors:
        print(f"FAILED: {error}")
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"runs": args.runs, "seed0": args.seed0, "workloads": record,
             "errors": errors}, indent=1, sort_keys=True) + "\n")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
