"""Eon benchmark: four closed-loop workloads measured on two clocks.

    python3 eonbench/run.py --workload tpch-warm --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (``src/`` holds the ``repro`` package; it
is pure Python, so there is nothing to build).  Workloads: ``tpch-warm``,
``tpch-spill``, ``ingest-trickle``, ``sim-campaign``; see README.md.

``--trace 0`` prints the end-to-end metrics.  Host time is the sum over
units of each unit's median repetition, calibrated to a reference machine
speed (``calibrate.py``).  The deterministic window runs first, then
repetitions continue until ``--seconds`` have passed.

``--trace 1`` prints the per-layer metrics.  It runs the window three
times on fresh set-ups, untraced, with span wrappers installed, and
untraced again, and requires every simulated-clock metric and count to
match across the three.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value, unit).  Earlier lines are a
readable report; the line starting ``# exact`` holds the run's
deterministic numbers for ``aa_check.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics: name -> (unit, clock).
END_TO_END = {
    "setup_s": ("s", "host"),
    "host_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "sim_query_p50_ms": ("sim_ms", "sim"),
    "sim_query_p95_ms": ("sim_ms", "sim"),
    "sim_copy_p50_ms": ("sim_ms", "sim"),
    "sim_copy_p95_ms": ("sim_ms", "sim"),
    "s3_usd_per_1k_ops": ("usd/1k_ops", "sim"),
    "stored_bytes_per_input_byte": ("B/B", "count"),
}

#: Span self times reported per layer (host seconds, traced run).
SPAN_TIMES = (
    "sql.parse_s", "sql.bind_s", "planner.plan_s", "executor.execute_s",
    "operators.hash_join_s", "operators.aggregate_s", "operators.sort_limit_s",
    "operators.join_match_mask_s", "storage.decode_s", "storage.encode_s",
    "storage.write_container_s", "io.fetch_batch_s", "load.copy_s",
    "catalog.commit_s", "mergeout.run_s", "wm.admit_s", "obs.dc_record_s",
    "sim.next_action_s", "sim.apply_s", "sim.check_all_s", "sim.fingerprint_s",
    "recovery.rebalance_s", "recovery.recover_node_s",
)

#: Call counts of spans, under the layer's own count name.
SPAN_CALLS = {
    "planner.plans": "planner.plan_s",
    "executor.queries": "executor.execute_s",
    "operators.hash_join_calls": "operators.hash_join_s",
    "storage.decode_blocks": "storage.decode_s",
    "storage.encode_blocks": "storage.encode_s",
    "catalog.commits": "catalog.commit_s",
    "obs.dc_records": "obs.dc_record_s",
    "sim.steps": "sim.next_action_s",
}

#: Counts the wrappers add from arguments and results.
SPAN_WORK = (
    "sql.statements", "operators.join_build_rows", "operators.join_probe_rows",
    "load.rows", "load.containers_written", "mergeout.bytes_read",
    "mergeout.bytes_written",
)

#: Counts from cluster_metrics deltas over the window.
CLUSTER_COUNTS = (
    "depot.misses", "depot.evictions", "depot.prefetch_hits", "io.batches",
    "io.s3_gets", "io.coalesced_gets", "io.deduplicated", "io.pushdown_selects",
    "s3.get_requests", "s3.put_requests", "s3.bytes_read", "s3.bytes_written",
    "s3.retries", "recovery.failovers", "obs.spans_dropped",
)


def per_layer_units() -> dict:
    units = {name: "s" for name in SPAN_TIMES}
    units.update({name: "count" for name in SPAN_CALLS})
    units.update({name: "count" for name in SPAN_WORK + CLUSTER_COUNTS})
    units.update({
        "s3.bytes_read": "bytes", "s3.bytes_written": "bytes",
        "mergeout.bytes_read": "bytes", "mergeout.bytes_written": "bytes",
        "depot.hit_rate": "ratio", "depot.byte_hit_rate": "ratio",
        "mergeout.write_amp": "ratio", "s3.sim_s": "sim_s",
        "wm.queue_wait_sim_s": "sim_s", "trace.window_s": "s",
        "trace.unattributed_s": "s", "trace.overhead": "ratio",
    })
    return units


def clock_of(unit: str) -> str:
    if unit == "s":
        return "host"
    return "sim" if unit.startswith("sim") else "count"


def measure(workload, state, deadline=None):
    """Run the deterministic window, then repeat until ``deadline``.

    Returns (calibrated timer, total unit seconds in the window, attempted,
    failed, (window sim metrics, window counts))."""
    timer = calibrate.Timer()
    window_s, attempted, failed, rep = 0.0, 0, 0, 0
    window = None
    while rep < workload.window_reps or (
        deadline is not None and perf_counter() < deadline
    ):
        for unit in workload.units(state):
            start = perf_counter()
            result = workload.run_unit(state, unit)
            elapsed = perf_counter() - start
            timer.observe(workload.unit_key(unit), elapsed)
            if rep < workload.window_reps:
                window_s += elapsed
            tried, bad = workload.observe(state, unit, rep, result)
            attempted += tried
            failed += bad
            del result
        rep += 1
        if rep == workload.window_reps:
            window = workload.close_window(state)
    return timer, window_s, attempted, failed, window


def build_repeated(workload, repeats: int):
    """Time ``repeats`` identical set-ups; keep the last, return the timer."""
    timer, state = calibrate.Timer(), None
    for _ in range(repeats):
        state = None
        gc.collect()
        start = perf_counter()
        state = workload.build()
        timer.observe("setup", perf_counter() - start)
    return timer, state


def end_to_end(workload, seconds: float):
    setup, state = build_repeated(workload, workload.setup_repeats)
    checked, problems = workload.warm_up(state)
    deadline = perf_counter() + seconds
    timer, _, attempted, failed, (sim, _) = measure(workload, state, deadline)
    attempted += checked
    print(f"# uncalibrated setup_s {setup.total(raw=True):.6f} "
          f"host_s {timer.total(raw=True):.6f}")
    metrics = {
        "setup_s": setup.total(),
        "host_s": timer.total(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim,
    }
    return metrics, sim, attempted, failed, problems


def traced(workload):
    """Untraced, traced, untraced: three windows, each on a fresh set-up.

    The traced window's sim metrics and counts must equal both untraced
    ones.  Its overhead is taken against the mean of the two, which
    cancels the drift between earlier and later windows in one process."""
    import spans

    runs, attempted, failed, problems = [], 0, 0, []
    recorder = spans.SpanRecorder()
    for traced_window in (False, True, False):
        _, state = build_repeated(workload, 1)
        checked, found = workload.warm_up(state)
        if traced_window:
            spans.install(recorder)
        try:
            timer, window_s, tried, bad, (sim, counts) = measure(workload, state)
        finally:
            recorder.close()
        state = None
        runs.append((timer.total(), window_s, sim, counts))
        attempted += checked + tried
        failed += bad
        problems += found
    (host_a, _, sim_a, counts_a), (host_b, window_s, sim_b, counts_b), (
        host_c, _, sim_c, counts_c) = runs
    attempted += 1
    if not sim_a == sim_b == sim_c or not counts_a == counts_b == counts_c:
        problems.append("traced window differs from untraced windows")
    metrics = {name: recorder.self_s.get(name, 0.0) for name in SPAN_TIMES}
    metrics.update({k: recorder.counts[v] for k, v in SPAN_CALLS.items()})
    metrics.update({k: recorder.counts[k] for k in SPAN_WORK})
    metrics.update({k: counts_b[k] for k in CLUSTER_COUNTS})
    hits, misses = counts_b["depot.hits"], counts_b["depot.misses"]
    read, missed = counts_b["depot.bytes_read"], counts_b["depot.bytes_missed"]
    loaded = recorder.counts["load.bytes_written"]
    metrics.update({
        "depot.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "depot.byte_hit_rate": read / (read + missed) if read + missed else 0.0,
        "mergeout.write_amp": (
            metrics["mergeout.bytes_written"] / loaded if loaded else 0.0
        ),
        "s3.sim_s": counts_b["s3.sim_s"],
        "wm.queue_wait_sim_s": counts_b["wm.queue_wait_sim_s"],
        "trace.window_s": window_s,
        "trace.unattributed_s": window_s - recorder.attributed_s,
        "trace.overhead": host_b / ((host_a + host_c) / 2) - 1,
    })
    units = per_layer_units()
    exact = dict(sim_b)
    exact.update({
        k: v for k, v in metrics.items()
        if units[k] != "s" and k != "trace.overhead"
    })
    return metrics, exact, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.seed)
    workload.prepare()
    try:
        if args.trace:
            metrics, exact, attempted, failed, problems = traced(workload)
            units = per_layer_units()
        else:
            metrics, exact, attempted, failed, problems = end_to_end(
                workload, args.seconds
            )
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    finally:
        workload.close()
    for problem in problems:
        print(f"FAILED: {problem}")
    for name in sorted(metrics):
        clock = END_TO_END.get(name, (None, clock_of(units[name])))[1]
        print(f"{args.workload:>15} {name:<32} {metrics[name]:>16.6g} "
              f"{units[name]:<10} {clock}")
    print("# exact " + json.dumps(exact, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in sorted(metrics)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
