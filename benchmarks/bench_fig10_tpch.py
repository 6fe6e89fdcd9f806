"""Figure 10: TPC-H query runtime — Enterprise vs Eon-in-cache vs Eon-on-S3.

Paper setup: TPC-H SF200 on 4 c3.2xlarge; Enterprise on EBS, Eon cache on
instance storage.  Here: 4-node clusters over the simulated substrate; we
report simulated latency per query.  The shape to reproduce: Eon in-cache
matches or beats Enterprise on most queries; reading from S3 is clearly
slower but within small multiples.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_table, write_bench_json
from repro.obs.metrics import cluster_metrics
from repro.workloads.tpch import TPCH_QUERIES

from conftest import emit


def _sweep(eon, enterprise):
    rows = []
    wins = 0
    for query in TPCH_QUERIES:
        ent_ms = enterprise.query(query.sql).stats.latency_seconds * 1000
        eon.query(query.sql)  # warm the caches
        warm_ms = eon.query(query.sql).stats.latency_seconds * 1000
        cold_ms = eon.query(query.sql, use_cache=False).stats.latency_seconds * 1000
        if warm_ms <= ent_ms:
            wins += 1
        rows.append([f"Q{query.number}", ent_ms, warm_ms, cold_ms])
    return rows, wins


def test_fig10_tpch_three_ways(benchmark, eon_tpch, enterprise_tpch):
    rows_box = {}

    def run():
        rows_box["rows"], rows_box["wins"] = _sweep(eon_tpch, enterprise_tpch)
        return rows_box["wins"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = rows_box["rows"]
    emit(format_table(
        "Figure 10 — TPC-H query latency (simulated ms, 4 nodes)",
        ["query", "Enterprise", "Eon in-cache", "Eon from S3"],
        rows,
    ))
    emit(f"Eon-in-cache matches/beats Enterprise on {rows_box['wins']}/20 queries")
    write_bench_json(
        "fig10_tpch",
        {
            "figure": "fig10",
            "queries": {
                name: {"enterprise_ms": e, "eon_warm_ms": w, "eon_cold_ms": c}
                for name, e, w, c in rows
            },
            "eon_wins": rows_box["wins"],
        },
        metrics=cluster_metrics(eon_tpch),
    )
    # Acceptance: the paper's shape.
    assert rows_box["wins"] >= 16, "Eon in-cache should win on most queries"
    for name, ent_ms, warm_ms, cold_ms in rows:
        assert cold_ms > warm_ms, f"{name}: S3 read should cost more than cache"
        assert cold_ms < warm_ms * 200, f"{name}: S3 should stay within bounds"


def _cold_run(cluster, sql):
    """Clear every depot, run the query, return (latency_s, gets, dollars)."""
    for node in cluster.nodes.values():
        node.cache.clear()
    gets_before = cluster.shared.metrics.get_requests
    dollars_before = cluster.shared.metrics.dollars
    stats = cluster.query(sql).stats
    return (
        stats.latency_seconds,
        cluster.shared.metrics.get_requests - gets_before,
        cluster.shared.metrics.dollars - dollars_before,
    )


def test_fig10_io_scheduler_ablation(benchmark, eon_tpch_pair):
    """Cold-depot TPC-H with the parallel I/O scheduler on vs off.

    The scheduler's whole claim — lanes, dedup, coalescing, prefetch —
    must show up as simulated wall-clock AND as fewer (cheaper) S3 GETs,
    or it is just complexity."""
    on, off = eon_tpch_pair
    rows_box = {}

    def run():
        rows = []
        totals = {"on_s": 0.0, "off_s": 0.0, "on_gets": 0, "off_gets": 0}
        for query in TPCH_QUERIES:
            on_s, on_gets, _ = _cold_run(on, query.sql)
            off_s, off_gets, _ = _cold_run(off, query.sql)
            totals["on_s"] += on_s
            totals["off_s"] += off_s
            totals["on_gets"] += on_gets
            totals["off_gets"] += off_gets
            rows.append(
                [f"Q{query.number}", off_s * 1000, on_s * 1000,
                 off_gets, on_gets]
            )
        rows_box["rows"] = rows
        rows_box["totals"] = totals
        return totals["on_s"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    totals = rows_box["totals"]
    reduction = 1.0 - totals["on_s"] / totals["off_s"]
    emit(format_table(
        "I/O scheduler ablation — cold-depot TPC-H (simulated, 4 nodes)",
        ["query", "serial ms", "scheduler ms", "serial GETs", "sched GETs"],
        rows_box["rows"],
    ))
    emit(
        f"cold-depot wall-clock reduction: {reduction:.1%}; "
        f"S3 GETs {totals['off_gets']} -> {totals['on_gets']}"
    )
    io_stats = cluster_metrics(on)["io"]
    write_bench_json(
        "fig10_io_scheduler",
        {
            "figure": "fig10-ablation",
            "queries": {
                name: {
                    "serial_cold_ms": off_ms,
                    "scheduler_cold_ms": on_ms,
                    "serial_gets": off_gets,
                    "scheduler_gets": on_gets,
                }
                for name, off_ms, on_ms, off_gets, on_gets in rows_box["rows"]
            },
            "wall_clock_reduction": reduction,
            "total_gets": {"scheduler": totals["on_gets"],
                           "serial": totals["off_gets"]},
        },
        metrics=cluster_metrics(on),
    )
    # Acceptance: >= 25% simulated wall-clock reduction AND fewer GETs.
    assert reduction >= 0.25, f"only {reduction:.1%} faster"
    assert totals["on_gets"] < totals["off_gets"]
    # Scheduler bookkeeping stayed sane across the whole sweep.
    assert io_stats["double_fetches"] == 0
    assert io_stats["capacity_violations"] == 0
    assert io_stats["coalesced_gets"] > 0


def test_fig10_cache_hit_behavior(benchmark, eon_tpch):
    """Second run of a query must be fully cache-resident."""

    def run():
        eon_tpch.query(TPCH_QUERIES[0].sql)
        return eon_tpch.query(TPCH_QUERIES[0].sql).stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.total_bytes_from_shared == 0
    assert stats.total_bytes_from_cache > 0
