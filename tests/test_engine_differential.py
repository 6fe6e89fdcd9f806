"""Batched-vs-materializing differential wall (PR 6 tentpole proof).

The pipelined batch engine must be *bit-identical* to the materializing
volcano engine it replaced as the default oracle: same rows (digest) and
— with SIP off — the same depot demand statistics, cold and warm, across
the full TPC-H suite, a dashboard/IoT workload mix, every batch size in
{1, 3, 64, 4096}, and under cancellation and mid-query failover.

Demand-stat parity requires two pins:

* ``sip=False``: sideways IN-list pushdown is a deliberate demand
  *reduction* (it prunes probe-side containers), so it is excluded from
  the parity contract and asserted separately (fewer GETs, same rows).
* ``seed=<query number>`` on every session: participant (shard
  subscriber) selection is a per-session RNG draw, and warm-run demand
  depends on *which* node's depot holds the data.  Pinning the seed makes
  serial and batched runs pick identical participants.
"""

import hashlib
from typing import List

import numpy as np
import pytest

from repro import EonCluster
from repro.engine import executor
from repro.errors import QueryCancelled
from repro.obs.metrics import cluster_metrics
from repro.sql.parser import parse
from repro.workloads.dashboard import (
    dashboard_query,
    load_dashboard_data,
    setup_dashboard_schema,
)
from repro.workloads.iot import iot_batch, setup_iot_schema
from repro.workloads.tpch import TPCH_QUERIES, TpchData, load_tpch, setup_tpch_schema

pytestmark = pytest.mark.engine

BATCH_SIZES = (1, 3, 64, 4096)


def canon(rows: List[tuple]) -> List[tuple]:
    out = []
    for row in rows:
        out.append(tuple(
            round(v, 6) if isinstance(v, float) and not np.isnan(v) else
            ("nan" if isinstance(v, float) and np.isnan(v) else v)
            for v in row
        ))
    return out


def row_digest(rows: List[tuple]) -> str:
    return hashlib.sha256(
        repr(sorted(canon(rows), key=repr)).encode()
    ).hexdigest()


def s3_snapshot(cluster) -> tuple:
    m = cluster.shared.metrics
    return (m.get_requests, m.bytes_read)


def demand_sig(cluster, result, s3_before) -> tuple:
    """Everything the query demanded of the storage hierarchy: per-node
    scan/fetch accounting plus the *delta* of global S3 counters (the
    absolute counters are cluster-cumulative)."""
    per_node = tuple(
        (
            name,
            w.bytes_from_shared,
            w.bytes_from_cache,
            w.rows_scanned,
            w.containers_scanned,
            w.containers_pruned,
            w.blocks_pruned,
            w.prefetch_hits,
            w.peer_fetches,
            w.coalesced_gets,
        )
        for name, w in sorted(result.stats.per_node.items())
    )
    delta = tuple(
        now - before for now, before in zip(s3_snapshot(cluster), s3_before)
    )
    return per_node + (delta,)


def clear_depots(cluster) -> None:
    for node in cluster.nodes.values():
        node.cache.clear()


@pytest.fixture(scope="module")
def tpch_cluster(tpch_data):
    """One Eon TPC-H cluster, loaded in slices so each shard holds several
    containers — the shape that exercises dedup/coalescing/prefetch."""
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=11)
    setup_tpch_schema(cluster)
    load_tpch(cluster, tpch_data)
    rows = tpch_data.tables["lineitem"].to_pylist()
    for slice_no in range(3):
        chunk = rows[slice_no::7][:40]
        if chunk:
            cluster.load("lineitem", chunk)
    return cluster


class TestTpchBatchedDifferential:
    """Full-suite parity: the acceptance wall for the batch engine."""

    def _run(self, cluster, query, **options):
        return cluster.query(query.sql, seed=query.number, **options)

    def test_full_suite_cold_and_warm_parity(self, tpch_cluster):
        """Every TPC-H query, cold and warm depots: batched (sip off)
        produces bit-identical row digests AND demand statistics."""
        cluster = tpch_cluster
        failures = []
        for query in TPCH_QUERIES:
            runs = {}
            for label, options in (
                ("serial", {"batched": False}),
                ("batched", {"batched": True, "batch_size": 64, "sip": False}),
            ):
                clear_depots(cluster)
                before = s3_snapshot(cluster)
                cold = self._run(cluster, query, **options)
                cold_sig = demand_sig(cluster, cold, before)
                before = s3_snapshot(cluster)
                warm = self._run(cluster, query, **options)
                warm_sig = demand_sig(cluster, warm, before)
                runs[label] = (
                    row_digest(cold.rows.to_pylist()), cold_sig,
                    row_digest(warm.rows.to_pylist()), warm_sig,
                )
            for i, what in enumerate(
                ("cold digest", "cold demand", "warm digest", "warm demand")
            ):
                if runs["serial"][i] != runs["batched"][i]:
                    failures.append(f"Q{query.number}: {what} diverged")
        assert not failures, "; ".join(failures)

    def test_full_suite_every_batch_size(self, tpch_cluster):
        """Row digests are invariant across batch sizes 1, 3, 64, 4096 —
        including degenerate single-row batches and batches larger than
        every container — for the whole suite."""
        cluster = tpch_cluster
        failures = []
        for query in TPCH_QUERIES:
            clear_depots(cluster)
            expected = row_digest(
                self._run(cluster, query, batched=False).rows.to_pylist()
            )
            for batch_size in BATCH_SIZES:
                clear_depots(cluster)
                got = row_digest(
                    self._run(
                        cluster, query,
                        batched=True, batch_size=batch_size, sip=False,
                    ).rows.to_pylist()
                )
                if got != expected:
                    failures.append(f"Q{query.number} @ batch={batch_size}")
        assert not failures, f"digest diverged: {', '.join(failures)}"

    def test_join_index_built_once_per_fragment(self, tpch_cluster, monkeypatch):
        """A multi-batch, multi-join query builds exactly one JoinIndex per
        join fragment (join x participant) and probes every batch against
        it; its rows still equal the materializing run's."""
        fragments, builds, probes = [], [], []

        class CountingIndex(executor.JoinIndex):
            def __init__(self, build, keys):
                builds.append(build.num_rows)
                super().__init__(build, keys)

            def probe(self, left, left_keys):
                probes.append(left.num_rows)
                return super().probe(left, left_keys)

        stream_join = executor.Executor._stream_join

        def counting_stream_join(self, node, participant):
            fragments.append((id(node), participant))
            return stream_join(self, node, participant)

        monkeypatch.setattr(executor, "JoinIndex", CountingIndex)
        monkeypatch.setattr(executor.Executor, "_stream_join", counting_stream_join)
        query = next(q for q in TPCH_QUERIES if q.number == 5)  # five joins
        batched = self._run(tpch_cluster, query, batched=True, batch_size=16, sip=False)
        assert len(set(fragments)) == len(fragments) > 1
        assert len(builds) == len(fragments)
        assert len(probes) > 2 * len(builds)  # many batches per index
        serial = self._run(tpch_cluster, query, batched=False)
        assert row_digest(batched.rows.to_pylist()) == row_digest(serial.rows.to_pylist())

    def test_sip_prunes_probe_side_without_changing_rows(self, tpch_cluster):
        """With SIP *on* (the default), join-heavy queries still return
        identical rows but demand no more cold GETs than the serial run —
        and the engine reports that filters were actually built."""
        cluster = tpch_cluster
        join_queries = [q for q in TPCH_QUERIES if q.number in (3, 5, 10, 18)]
        assert join_queries, "TPC-H subset lost its join queries?"
        sip_total = 0
        for query in join_queries:
            clear_depots(cluster)
            before = cluster.shared.metrics.get_requests
            serial = self._run(cluster, query, batched=False)
            serial_gets = cluster.shared.metrics.get_requests - before
            clear_depots(cluster)
            before = cluster.shared.metrics.get_requests
            batched = self._run(cluster, query, batched=True, batch_size=64)
            batched_gets = cluster.shared.metrics.get_requests - before
            assert row_digest(batched.rows.to_pylist()) == row_digest(
                serial.rows.to_pylist()
            ), f"Q{query.number}: SIP changed rows"
            assert batched_gets <= serial_gets, (
                f"Q{query.number}: SIP run used {batched_gets} GETs "
                f"vs serial {serial_gets}"
            )
            sip_total += cluster.engine_stats.sip_filters
        assert sip_total > 0, "no SIP filter was ever built"


class TestWorkloadMixParity:
    """The dashboard short query and IoT metrics tables — the Figure-11
    workloads — through the batch engine."""

    @pytest.fixture(scope="class")
    def mix_cluster(self):
        cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=19)
        setup_dashboard_schema(cluster)
        load_dashboard_data(cluster, n_events=4000, n_devices=80, n_sites=6)
        setup_iot_schema(cluster, streams=2)
        for stream in range(2):
            for sequence in range(3):
                table, rowset = iot_batch(stream, sequence, rows=400)
                cluster.load(table, rowset)
        return cluster

    MIX_QUERIES = (
        dashboard_query(recent_after=500),
        "select m_flags, count(*) n, sum(m_value) s from metrics_0 "
        "group by m_flags order by m_flags",
        "select count(*), min(m_ts), max(m_ts) from metrics_1 "
        "where m_sensor < 5000",
        "select count(distinct m_flags) from metrics_0",
    )

    def test_mix_parity_cold_and_warm(self, mix_cluster):
        cluster = mix_cluster
        for i, sql in enumerate(self.MIX_QUERIES):
            runs = {}
            for label, options in (
                ("serial", {"batched": False}),
                ("batched", {"batched": True, "batch_size": 64, "sip": False}),
            ):
                clear_depots(cluster)
                before = s3_snapshot(cluster)
                cold = cluster.query(sql, seed=100 + i, **options)
                cold_sig = demand_sig(cluster, cold, before)
                before = s3_snapshot(cluster)
                warm = cluster.query(sql, seed=100 + i, **options)
                warm_sig = demand_sig(cluster, warm, before)
                runs[label] = (
                    row_digest(cold.rows.to_pylist()), cold_sig,
                    row_digest(warm.rows.to_pylist()), warm_sig,
                )
            assert runs["serial"] == runs["batched"], (
                f"workload-mix query {i} diverged"
            )


class TestBatchBoundaryInterrupts:
    """Cancellation and failover landing *between* batches must leave the
    parity contract intact: the interrupted query aborts cleanly, and a
    subsequent batched run still matches the serial digest."""

    SQL = "select g, sum(v) s, count(*) c from t group by g"

    def _loaded(self, **kw):
        cluster = EonCluster(
            ["n1", "n2", "n3", "n4"], shard_count=4, seed=5, **kw
        )
        cluster.execute("create table t (a int, g varchar, v int)")
        cluster.load(
            "t", [(i, f"g{i % 5}", (i * 3) % 97) for i in range(800)]
        )
        return cluster

    def test_cancel_mid_batch_then_clean_parity(self, monkeypatch):
        from repro.shared_storage.s3 import SimulatedS3

        cluster = self._loaded()
        expected = row_digest(
            cluster.query(self.SQL, batched=False).rows.to_pylist()
        )
        clear_depots(cluster)
        session = cluster.create_session(seed=1)
        calls = {"n": 0}
        original_read = SimulatedS3.read
        original_coalesced = SimulatedS3.read_coalesced

        def note_call():
            calls["n"] += 1
            if calls["n"] == 2:
                session.cancel()  # arrives between fetch units mid-stream

        def cancelling_read(fs, name):
            note_call()
            return original_read(fs, name)

        def cancelling_coalesced(fs, names):
            note_call()
            return original_coalesced(fs, names)

        monkeypatch.setattr(SimulatedS3, "read", cancelling_read)
        monkeypatch.setattr(SimulatedS3, "read_coalesced", cancelling_coalesced)
        with pytest.raises(QueryCancelled):
            cluster.query_statement(
                parse(self.SQL)[0], session=session,
                batched=True, batch_size=16,
            )
        session.release()
        monkeypatch.undo()
        clear_depots(cluster)
        got = cluster.query(
            self.SQL, batched=True, batch_size=16
        ).rows.to_pylist()
        assert row_digest(got) == expected

    def test_failover_mid_batch_digest_identity(self):
        cluster = self._loaded()
        expected = row_digest(
            cluster.query(self.SQL, batched=False).rows.to_pylist()
        )
        stmt = parse(self.SQL)[0]
        session = cluster.create_session()
        with session:
            victim = self._killable(cluster, session)
            cluster.kill_node(victim)
            result = cluster.query_statement(
                stmt, session=session, failover=True,
                batched=True, batch_size=16,
            )
        assert row_digest(result.rows.to_pylist()) == expected
        assert cluster.failovers >= 1

    @staticmethod
    def _killable(cluster, session):
        for name in session.participants():
            if name == session.initiator:
                continue
            up = cluster.up_nodes()
            if (len(up) - 1) * 2 <= len(cluster.nodes):
                continue
            if all(
                any(n != name for n in cluster.active_up_subscribers(shard))
                for shard in cluster.shard_map.all_shard_ids()
            ):
                return name
        raise AssertionError("no survivable participant to kill")


class TestEngineObservability:
    def test_cluster_metrics_expose_engine_section(self):
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=3)
        cluster.execute("create table t (a int, v int)")
        cluster.load("t", [(i, i * 2) for i in range(300)])
        cluster.query("select sum(v) from t", batched=True, batch_size=32)
        engine = cluster_metrics(cluster)["engine"]
        assert engine["batched_queries"] == 1
        assert engine["batches"] > 1
        assert engine["last_batch_size"] == 32
        assert engine["io_serial_seconds"] >= engine["io_pipelined_seconds"]
        cluster.query("select sum(v) from t")
        engine = cluster_metrics(cluster)["engine"]
        assert engine["materializing_queries"] == 1

    def test_pipeline_span_and_counters_recorded(self):
        from repro import Observability, SimClock

        clock = SimClock()
        cluster = EonCluster(
            ["n1", "n2"], shard_count=2, seed=3, clock=clock,
            observability=Observability(clock=clock),
        )
        cluster.execute("create table t (a int, v int)")
        cluster.load("t", [(i, i * 2) for i in range(300)])
        clear_depots(cluster)
        cluster.query("select sum(v) from t where a < 200",
                      batched=True, batch_size=32)
        assert cluster.obs.metrics.counter("engine.batches").value > 0
        spans = [s for s in cluster.obs.tracer.spans if s.name == "pipeline"]
        assert spans, "no pipeline span recorded"
        assert spans[-1].attrs["batches"] > 0
