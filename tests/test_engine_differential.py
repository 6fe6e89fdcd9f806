"""Execution-engine wall: join fragments, interrupts and metrics.

The executor evaluates every fragment materializing, and each join
fragment calls ``hash_join`` once, which builds one ``JoinIndex``.  The
tests here pin that, and check that a query cancelled or failed over
between fetch units aborts (or recovers) cleanly with the right rows.
"""

import hashlib
from typing import List

import numpy as np
import pytest

from repro import EonCluster
from repro.engine import executor, operators
from repro.errors import QueryCancelled
from repro.obs.metrics import cluster_metrics
from repro.sql.parser import parse
from repro.workloads.tpch import TPCH_QUERIES, load_tpch, setup_tpch_schema

pytestmark = pytest.mark.engine


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


class TestJoinFragments:
    def test_join_index_built_once_per_fragment(self, tpch_cluster, monkeypatch):
        """A multi-join query builds exactly one JoinIndex per join
        fragment (join x participant): one ``hash_join`` call each."""
        fragments, builds, joins = [], [], []

        class CountingIndex(operators.JoinIndex):
            def __init__(self, build, keys):
                builds.append(build.num_rows)
                super().__init__(build, keys)

        eval_join = executor.Executor._eval_join
        hash_join = executor.hash_join

        def counting_eval_join(self, node, participant):
            fragments.append((id(node), participant))
            return eval_join(self, node, participant)

        def counting_hash_join(*args, **kwargs):
            joins.append(1)
            return hash_join(*args, **kwargs)

        monkeypatch.setattr(operators, "JoinIndex", CountingIndex)
        monkeypatch.setattr(executor, "hash_join", counting_hash_join)
        monkeypatch.setattr(executor.Executor, "_eval_join", counting_eval_join)
        query = next(q for q in TPCH_QUERIES if q.number == 5)  # five joins
        result = tpch_cluster.query(query.sql, seed=query.number)
        assert result.rows.num_rows > 0
        assert len(set(fragments)) == len(fragments) > 1
        assert len(builds) == len(joins) == len(fragments)


class TestBatchBoundaryInterrupts:
    """Cancellation and failover landing between fetch units of a scan's
    fetch batch: the interrupted query aborts cleanly (or fails over), and
    the answer afterwards is the uninterrupted one."""

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
        expected = row_digest(cluster.query(self.SQL).rows.to_pylist())
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
            cluster.query_statement(parse(self.SQL)[0], session=session)
        session.release()
        monkeypatch.undo()
        clear_depots(cluster)
        got = cluster.query(self.SQL).rows.to_pylist()
        assert row_digest(got) == expected

    def test_failover_mid_batch_digest_identity(self):
        cluster = self._loaded()
        expected = row_digest(cluster.query(self.SQL).rows.to_pylist())
        stmt = parse(self.SQL)[0]
        session = cluster.create_session()
        with session:
            victim = self._killable(cluster, session)
            cluster.kill_node(victim)
            result = cluster.query_statement(
                stmt, session=session, failover=True,
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
        """The ``engine`` section reports cluster-lifetime pushdown counters:
        zero after a depot-served query, the query's own totals after a
        cold scan pushed down to shared storage."""
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=3)
        cluster.execute("create table t (a int, v int)")
        cluster.load("t", [(i, i * 2) for i in range(300)])
        cluster.query("select sum(v) from t where a < 100", pushdown="off")
        engine = cluster_metrics(cluster)["engine"]
        assert engine == {"pushdown_scans": 0, "bytes_scanned": 0}
        clear_depots(cluster)
        result = cluster.query("select sum(v) from t where a < 100", pushdown="on")
        engine = cluster_metrics(cluster)["engine"]
        assert engine["pushdown_scans"] == result.stats.total_pushdown_scans > 0
        assert engine["bytes_scanned"] == result.stats.total_bytes_scanned > 0
