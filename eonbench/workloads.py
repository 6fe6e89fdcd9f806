"""The benchmark's four workloads.

Each workload is single-process, single-client and closed-loop: the next
operation starts when the previous one returns.  A workload splits its
work into *units* (a TPC-H query, an ingest round, a campaign seed) that
it repeats identically; the harness in ``run.py`` times each unit and
keeps its median repetition.  The first ``window_reps`` repetitions are
the deterministic window: every simulated-clock metric and count comes
from them, so those numbers do not depend on how many repetitions the
host had time for.

Interface used by the harness:

* ``prepare()`` — untimed, once: reference answers that must not come
  from the run being checked;
* ``build()`` — the timed set-up (``setup_s`` is its median repetition);
* ``warm_up(state)`` — untimed: warm caches, check the set-up's own
  answers, return ``(checked, failures)``;
* ``units(state)``, ``run_unit(state, unit)`` — the timed work;
* ``observe(state, unit, rep, result)`` — untimed checks and samples,
  returns ``(attempted, failed)``;
* ``close_window(state)`` — sim metrics and layer counts of the window.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import EonCluster
from repro.obs.metrics import cluster_metrics
from repro.storage.container import RowSet

NODES = ("n1", "n2", "n3", "n4")
SHARDS = 4
DIGESTS_FILE = Path(__file__).with_name("tpch_digests.json")


# -- shared helpers ----------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact, no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def row_digest(rows: RowSet) -> str:
    """Order-insensitive digest of a result (rows sorted by their repr)."""
    canonical = sorted(repr(row) for row in rows.to_pylist())
    return hashlib.sha256("\n".join(canonical).encode()).hexdigest()[:16]


def raw_bytes(rows: RowSet) -> int:
    """Bytes of user data: 8 per numeric value, UTF-8 length per string."""
    total = 0
    for name in rows.schema.names:
        column = rows.column(name)
        if column.dtype == object:
            total += sum(len(str(v).encode()) for v in column)
        else:
            total += column.nbytes
    return total


def latency_metrics(prefix: str, seconds: Sequence[float]) -> Dict[str, float]:
    return {
        f"sim_{prefix}_p50_ms": percentile(seconds, 0.50) * 1000,
        f"sim_{prefix}_p95_ms": percentile(seconds, 0.95) * 1000,
    }


def layer_counts(after: dict, before: dict) -> Dict[str, float]:
    """Per-layer counts: the change in ``cluster_metrics`` between two
    snapshots of one cluster (pass ``{}`` as ``before`` for a fresh one)."""

    def delta(path: Tuple[str, ...]) -> float:
        def get(m):
            for key in path:
                m = m.get(key, {}) if isinstance(m, dict) else {}
            return m if isinstance(m, (int, float)) else 0
        return get(after) - get(before)

    hits = delta(("depot", "hits"))
    misses = delta(("depot", "misses"))
    read = delta(("depot", "bytes_read"))
    missed = delta(("depot", "bytes_missed"))
    pools = set(after.get("wm", {}).get("pools", {}))
    ops = ("GET", "PUT", "LIST", "DELETE", "SELECT")
    return {
        "depot.hits": hits,
        "depot.misses": misses,
        "depot.bytes_read": read,
        "depot.bytes_missed": missed,
        "depot.evictions": delta(("depot", "evictions")),
        "depot.prefetch_hits": delta(("depot", "prefetch_hits")),
        "io.batches": delta(("io", "batches")),
        "io.s3_gets": delta(("io", "s3_gets")),
        "io.coalesced_gets": delta(("io", "coalesced_gets")),
        "io.deduplicated": delta(("io", "deduplicated")),
        "io.pushdown_selects": delta(("io", "pushdown_selects")),
        "s3.get_requests": delta(("s3", "totals", "get_requests")),
        "s3.put_requests": delta(("s3", "totals", "put_requests")),
        "s3.bytes_read": delta(("s3", "GET", "bytes")),
        "s3.bytes_written": delta(("s3", "PUT", "bytes")),
        "s3.sim_s": sum(delta(("s3", op, "sim_seconds")) for op in ops),
        "s3.retries": delta(("s3", "totals", "retries")),
        "recovery.failovers": delta(("recovery", "failovers")),
        "wm.queue_wait_sim_s": sum(
            delta(("wm", "pools", p, "queue_wait_seconds")) for p in sorted(pools)
        ),
    }


def add_counts(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def new_cluster(**options) -> EonCluster:
    """A 4-node, 4-shard cluster with default options, observability on
    as in production."""
    cluster = EonCluster(list(NODES), shard_count=SHARDS, **options)
    cluster.enable_observability()
    return cluster


# -- TPC-H: tpch-warm and tpch-spill -------------------------------------------


class Tpch:
    """The 20 ``TPCH_QUERIES`` over SF 0.01, repeated in passes."""

    scale = 0.01
    setup_repeats = 7
    window_reps = 10  # 200 query samples: ten beyond the p95
    tables = ("region", "nation", "supplier", "customer", "part",
              "partsupp", "orders", "lineitem")

    def __init__(self, seed: int, depot_bytes: int):
        from repro.workloads.tpch import TPCH_QUERIES

        self.seed = seed
        self.depot_bytes = depot_bytes
        self.queries = TPCH_QUERIES
        self.expected: Dict[str, str] = {}

    def _load(self, depot_bytes: int):
        from repro.workloads.tpch import TpchData, setup_tpch_schema

        data = TpchData.generate(scale=self.scale, seed=self.seed)
        cluster = new_cluster(cache_bytes=depot_bytes)
        setup_tpch_schema(cluster)
        copies = [cluster.load(t, data.tables[t]) for t in self.tables]
        return data, cluster, copies

    def _pass(self, cluster) -> Dict[str, str]:
        return {
            f"Q{q.number}": row_digest(cluster.query(q.sql).rows)
            for q in self.queries
        }

    def prepare(self) -> None:
        committed = json.loads(DIGESTS_FILE.read_text())
        self.committed = committed.get(str(self.seed), {})
        if self.depot_bytes < (256 << 20):
            # Answers must not depend on the depot: the reference comes
            # from the same data on a cluster whose depots hold it all.
            _, cluster, _ = self._load(256 << 20)
            self.expected = self._pass(cluster)

    def close(self) -> None:
        pass

    def build(self):
        data, cluster, copies = self._load(self.depot_bytes)
        return SimpleNamespace(
            data=data, cluster=cluster, copies=copies,
            stored=cluster.shared.total_bytes, latencies=[],
        )

    def warm_up(self, state) -> Tuple[int, List[str]]:
        """One pass to fill the depots; its answers become the reference
        for every later pass, after checking them against the committed
        digests and the warm-depot reference."""
        state.raw = sum(raw_bytes(state.data.tables[t]) for t in self.tables)
        del state.data
        state.warm = self._pass(state.cluster)
        state.before = cluster_metrics(state.cluster)
        checked, failures = 0, []
        for reference, label in ((self.committed, "committed"),
                                 (self.expected, "warm-depot reference")):
            for query, digest in sorted(reference.items()):
                checked += 1
                if state.warm.get(query) != digest:
                    failures.append(f"{query}: digest differs from {label}")
        return checked, failures

    def units(self, state):
        return self.queries

    def unit_key(self, query) -> str:
        return f"Q{query.number}"

    def run_unit(self, state, query):
        return state.cluster.query(query.sql)

    def observe(self, state, query, rep, result) -> Tuple[int, int]:
        if rep < self.window_reps:
            state.latencies.append(result.stats.latency_seconds)
        ok = row_digest(result.rows) == state.warm[f"Q{query.number}"]
        return 1, 0 if ok else 1

    def close_window(self, state):
        cluster = state.cluster
        ops = len(state.copies) + len(self.queries) * (1 + self.window_reps)
        sim = latency_metrics("query", state.latencies)
        sim.update(latency_metrics("copy", [c.io_seconds for c in state.copies]))
        sim["s3_usd_per_1k_ops"] = cluster.shared.metrics.dollars / ops * 1000
        sim["stored_bytes_per_input_byte"] = state.stored / state.raw
        counts = layer_counts(cluster_metrics(cluster), state.before)
        counts["obs.spans_dropped"] = cluster.obs.tracer.dropped
        return sim, counts


# -- ingest-trickle -------------------------------------------------------------


class Ingest:
    """Trickle COPYs into two IoT streams with reads and mergeout beside
    them; one unit is a whole round on a fresh cluster."""

    setup_repeats = 10
    window_reps = 3
    streams = 2
    copies = 64
    rows_per_copy = 2000
    query_every = 4
    mergeout_every = 16

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def build(self):
        """Generate the batches, the range queries and their answers.

        COPYs go to the streams in blocks of ``query_every``, so the range
        GROUP BY after each block reads the stream that block loaded.  The
        answers are computed here with numpy, not through the engine."""
        from repro.workloads.iot import METRICS_SCHEMA

        rng = np.random.default_rng(self.seed)
        n = self.rows_per_copy
        loaded: List[List[RowSet]] = [[] for _ in range(self.streams)]
        batches, queries = [], {}
        for i in range(1, self.copies + 1):
            stream = ((i - 1) // self.query_every) % self.streams
            sequence = len(loaded[stream])
            rows = RowSet(METRICS_SCHEMA, {
                "m_sensor": rng.integers(0, 10_000, n).astype(np.int64),
                "m_ts": (sequence * n + np.arange(n)).astype(np.int64),
                "m_value": rng.random(n),
                "m_flags": rng.integers(0, 4, n).astype(np.int64),
            })
            loaded[stream].append(rows)
            batches.append((f"metrics_{stream}", rows))
            if i % self.query_every == 0:
                # A fixed width keeps each query's work the same across
                # seeds; only where the range falls is drawn.
                width = 2 * n
                lo = int(rng.integers(0, len(loaded[stream]) * n - width))
                sql = (
                    "select m_flags, count(*) n, sum(m_sensor) s, "
                    "min(m_value) lo, max(m_value) hi "
                    f"from metrics_{stream} where m_ts >= {lo} "
                    f"and m_ts < {lo + width} group by m_flags order by m_flags"
                )
                queries[i] = (sql, _range_answer(loaded[stream], lo, lo + width))
        row_counts = [
            (f"metrics_{s}", [(sum(r.num_rows for r in loaded[s]),)])
            for s in range(self.streams)
        ]
        return SimpleNamespace(
            batches=batches, queries=queries, row_counts=row_counts,
            raw=sum(raw_bytes(rows) for _, rows in batches),
            first=None, layer={"obs.spans_dropped": 0},
        )

    def warm_up(self, state) -> Tuple[int, List[str]]:
        return 0, []

    def units(self, state):
        return ("round",)

    def unit_key(self, unit) -> str:
        return unit

    def run_unit(self, state, unit):
        from repro.tuple_mover.mergeout import MergeoutCoordinatorService
        from repro.workloads.iot import setup_iot_schema

        cluster = new_cluster()
        setup_iot_schema(cluster, streams=self.streams)
        mergeout = MergeoutCoordinatorService(cluster)
        out = SimpleNamespace(cluster=cluster, copy_s=[], query_s=[], answers=[])
        for i, (table, rows) in enumerate(state.batches, 1):
            out.copy_s.append(cluster.load(table, rows).io_seconds)
            if i in state.queries:
                result = cluster.query(state.queries[i][0])
                out.query_s.append(result.stats.latency_seconds)
                out.answers.append(result.rows.to_pylist())
            if i % self.mergeout_every == 0:
                mergeout.run_all()
        cluster.reaper.poll()
        out.stored = cluster.shared.total_bytes
        for table, _ in state.row_counts:
            result = cluster.query(f"select count(*) from {table}")
            out.query_s.append(result.stats.latency_seconds)
            out.answers.append(result.rows.to_pylist())
        return out

    def observe(self, state, unit, rep, out) -> Tuple[int, int]:
        expected = [answer for _, answer in state.queries.values()]
        expected += [answer for _, answer in state.row_counts]
        failed = sum(a != e for a, e in zip(out.answers, expected))
        failed += abs(len(out.answers) - len(expected))
        cluster = out.__dict__.pop("cluster")
        out.dollars = cluster.shared.metrics.dollars
        out.metrics = cluster_metrics(cluster)
        out.spans_dropped = cluster.obs.tracer.dropped
        if state.first is None:
            state.first = out
        elif vars(out) != vars(state.first):
            failed += 1  # a round must repeat exactly on the sim clock
        if rep < self.window_reps:
            add_counts(state.layer, layer_counts(out.metrics, {}))
            state.layer["obs.spans_dropped"] += out.spans_dropped
        return len(state.batches) + len(expected), failed

    def close_window(self, state):
        first = state.first
        ops = len(first.copy_s) + len(first.query_s)
        sim = latency_metrics("query", first.query_s)
        sim.update(latency_metrics("copy", first.copy_s))
        sim["s3_usd_per_1k_ops"] = first.dollars / ops * 1000
        sim["stored_bytes_per_input_byte"] = first.stored / state.raw
        return sim, state.layer


def _range_answer(batches: List[RowSet], lo: int, hi: int) -> List[tuple]:
    ts = np.concatenate([b.column("m_ts") for b in batches])
    keep = (ts >= lo) & (ts < hi)
    flags = np.concatenate([b.column("m_flags") for b in batches])[keep]
    sensor = np.concatenate([b.column("m_sensor") for b in batches])[keep]
    value = np.concatenate([b.column("m_value") for b in batches])[keep]
    answer = []
    for flag in np.unique(flags):
        sel = flags == flag
        answer.append((
            int(flag), int(sel.sum()), int(sensor[sel].sum()),
            float(value[sel].min()), float(value[sel].max()),
        ))
    return answer


# -- sim-campaign ---------------------------------------------------------------


class Campaign:
    """``run_campaign`` with the default generator over a seed set drawn
    from ``--seed``; one unit is one campaign seed."""

    setup_repeats = 5
    window_reps = 2
    steps = 60
    # Campaigns record 9-14 queries each: 30 seeds give 270-430 samples,
    # so the p95 keeps ten or more beyond it.
    seed_count = 30

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 31) for _ in range(self.seed_count)]
        self._copies: List[tuple] = []

    def _config(self):
        from repro.sim.harness import CampaignConfig

        return CampaignConfig(steps=self.steps)

    def prepare(self) -> None:
        """Record every COPY the campaigns make (their sim latency is not
        kept anywhere else).  Holds references only: no work is added."""
        import repro.load.copy as copy

        original = copy.copy_into
        log = self._copies

        def copy_into(cluster, table_name, rows, *args, **kwargs):
            report = original(cluster, table_name, rows, *args, **kwargs)
            log.append((id(cluster), report.io_seconds, rows))
            return report

        copy.copy_into = copy_into
        self._restore = lambda: setattr(copy, "copy_into", original)

    def build(self):
        from repro.sim.harness import SimWorld

        config = self._config()
        for seed in self.seeds:
            SimWorld(seed, config)
        return SimpleNamespace(
            digests={}, query_s=[], copy_s=[], dollars=0.0, steps=0,
            stored=0, raw=0, layer={"obs.spans_dropped": 0},
        )

    def warm_up(self, state) -> Tuple[int, List[str]]:
        return 0, []

    def units(self, state):
        return self.seeds

    def unit_key(self, seed) -> str:
        return str(seed)

    def run_unit(self, state, seed):
        from repro.sim.harness import run_campaign

        self._copies.clear()
        return run_campaign(seed, self._config())

    def observe(self, state, seed, rep, result) -> Tuple[int, int]:
        failed = 0 if result.ok else 1
        if not result.ok:
            print(f"FAILED: {result.report().splitlines()[0]}")
        digest = result.digest()
        if rep == 0:
            world = result.world
            oracle = id(world.oracle.cluster)
            copies = [c for c in self._copies if c[0] != oracle]
            state.digests[seed] = digest
            state.query_s += [r.duration_seconds for r in world.cluster.obs.requests]
            state.copy_s += [seconds for _, seconds, _ in copies]
            state.raw += sum(raw_bytes(rows) for _, _, rows in copies)
            state.stored += world.cluster.shared.total_bytes
            state.dollars += result.metrics["s3"]["totals"]["dollars"]
            state.steps += len(result.trace)
        elif digest != state.digests[seed]:
            failed += 1
        if rep < self.window_reps:
            add_counts(state.layer, layer_counts(result.metrics, {}))
            state.layer["obs.spans_dropped"] += result.world.cluster.obs.tracer.dropped
        self._copies.clear()
        return len(result.trace), failed

    def close_window(self, state):
        sim = latency_metrics("query", state.query_s)
        sim.update(latency_metrics("copy", state.copy_s))
        sim["s3_usd_per_1k_ops"] = state.dollars / state.steps * 1000
        sim["stored_bytes_per_input_byte"] = state.stored / state.raw
        return sim, state.layer

    def close(self) -> None:
        self._restore()


def make(name: str, seed: int):
    if name == "tpch-warm":
        return Tpch(seed, 256 << 20)
    if name == "tpch-spill":
        return Tpch(seed, 1536 << 10)
    if name == "ingest-trickle":
        return Ingest(seed)
    if name == "sim-campaign":
        return Campaign(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tpch-warm", "tpch-spill", "ingest-trickle", "sim-campaign")
