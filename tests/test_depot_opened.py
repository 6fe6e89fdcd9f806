"""Opened depot files: memoized readers against fresh decoding.

A depot entry keeps its file's opened form (a ``ContainerReader`` whose
``ColumnReader``s keep the blocks they decoded).  These tests pin that
the memo is invisible: a memoized block equals a fresh ``decode_block``
over ``bytes``, and TPC-H answers, ``QueryStats`` and simulated latency
match a cluster that opens every file afresh, cold, warm and after the
memo is emptied.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EonCluster
from repro.cache.disk_cache import FileCache
from repro.cluster.session import EonStorageProvider
from repro.common.types import ColumnType, TableSchema
from repro.shared_storage.posix import MemoryFilesystem
from repro.storage import column
from repro.storage.container import RowSet, read_container, write_container
from repro.storage.encoding import Encoding, decode_block, encode_block
from repro.workloads.tpch import TPCH_QUERIES, load_tpch, setup_tpch_schema

_NAN = float("nan")

#: ctype -> (value strategy, encodings valid for it).
_KINDS = {
    ColumnType.INT: (
        st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, 1, -1, 7]),
        [Encoding.PLAIN, Encoding.RLE, Encoding.DICT, Encoding.DELTA],
    ),
    ColumnType.FLOAT: (
        st.floats(allow_nan=False) | st.sampled_from([_NAN, 0.0, -0.0, 2.5]),
        [Encoding.PLAIN, Encoding.RLE],
    ),
    ColumnType.BOOL: (st.booleans(), [Encoding.PLAIN, Encoding.RLE]),
    ColumnType.VARCHAR: (
        st.none() | st.sampled_from(["", "a", "日本", "é", "🙂x"]) | st.text(max_size=6),
        [Encoding.PLAIN, Encoding.RLE, Encoding.DICT],
    ),
}


@st.composite
def encoded_columns(draw):
    ctype = draw(st.sampled_from(sorted(_KINDS, key=lambda c: c.value)))
    values, encodings = _KINDS[ctype]
    rows = draw(st.lists(values, max_size=40))
    if ctype is ColumnType.INT and draw(st.booleans()):
        rows.sort()  # DELTA's sorted case
    return ctype, rows, draw(st.sampled_from(encodings)), draw(st.integers(1, 9))


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and len(got) == len(want)
    if want.dtype.kind == "O":
        assert list(got) == list(want)
    else:
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f")


class TestMemoizedBlocks:
    @given(encoded_columns())
    @settings(max_examples=200, deadline=None)
    def test_memoized_block_equals_fresh_decode(self, case):
        """Every block read through a depot-memoized reader equals a fresh
        ``decode_block`` over ``bytes``, is read-only, and is the same
        array on the second read."""
        ctype, values, encoding, block_rows = case
        arr = ctype.coerce(values)
        schema = TableSchema.of(("k", ColumnType.INT), ("c", ctype))
        rows = RowSet(schema, {"k": np.arange(len(arr), dtype=np.int64), "c": arr})
        with mock.patch.object(
            column, "encode_block", lambda a: encode_block(a, encoding)
        ):
            image = write_container(rows, block_rows=block_rows)
        cache = FileCache(MemoryFilesystem(), 1 << 20)
        assert cache.put("f", image)
        reader = cache.opened("f", cache.get("f"), read_container)
        assert cache.opened("f", cache.get("f"), read_container) is reader

        col = reader.column_reader("c")
        col_bytes = bytes(col._data)
        for i, info in enumerate(col.blocks):
            block = col_bytes[info.offset : info.offset + info.length]
            assert block[0] == int(encoding) or info.row_count == 0
            got = col.read_block(i)
            _same(got, decode_block(block))
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[:1] = got[:1]
            assert col.read_block(i) is got
        _same(reader.read_rowset(["c"]).column("c"), arr)

    @given(encoded_columns(), st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_memoryview_slice_decodes_like_bytes(self, case, pad):
        """``decode_block`` over a ``memoryview`` slice at any offset of a
        larger buffer equals decoding the same block as ``bytes``."""
        ctype, values, encoding, _ = case
        block = encode_block(ctype.coerce(values), encoding)
        view = memoryview(b"\xff" * pad + block + b"\xff" * 3)[pad : pad + len(block)]
        _same(decode_block(view), decode_block(block))


# -- TPC-H: the memo changes nothing the simulated clock sees ------------------


def _digest(rows: RowSet) -> str:
    return hashlib.sha256(repr(sorted(map(repr, rows.to_pylist()))).encode()).hexdigest()


def _cluster(tpch_data) -> EonCluster:
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
    setup_tpch_schema(cluster)
    load_tpch(cluster, tpch_data)
    return cluster


def _run_pass(cluster):
    out = []
    for q in TPCH_QUERIES:
        result = cluster.query(q.sql)
        out.append((q.number, _digest(result.rows), result.stats, result.stats.latency_seconds))
    return out


def _never_memoize(cluster) -> None:
    for node in cluster.nodes.values():
        node.cache.opened = lambda name, data, opener, use_cache=True: opener(data)


def _clear_depots(cluster) -> None:
    for node in cluster.nodes.values():
        node.cache.clear()


def _empty_memo(cluster) -> None:
    """Forget every opened file but keep the depot's files, stats and
    recency, as if each node had just started with a warm depot."""
    for node in cluster.nodes.values():
        node.cache._opened.clear()


@pytest.fixture(scope="module")
def memo_and_fresh(tpch_data):
    """Two identical clusters; the second opens every file afresh."""
    memo, fresh = _cluster(tpch_data), _cluster(tpch_data)
    _never_memoize(fresh)
    return memo, fresh


class TestTpchWithOpenedDepotFiles:
    def test_answers_and_sim_identical_cold_warm_and_emptied(self, memo_and_fresh):
        memo, fresh = memo_and_fresh
        passes = []
        for label in ("cold", "warm", "emptied"):
            if label == "cold":
                _clear_depots(memo)
                _clear_depots(fresh)
            if label == "emptied":
                _empty_memo(memo)
            got, want = _run_pass(memo), _run_pass(fresh)
            for g, w in zip(got, want):
                assert g[:2] == w[:2], f"{label} Q{g[0]}: digest"
                assert g[2] == w[2], f"{label} Q{g[0]}: QueryStats"
                assert g[3] == w[3], f"{label} Q{g[0]}: sim latency"
            passes.append(got)
        digests = [[q[:2] for q in p] for p in passes]
        assert digests[0] == digests[1] == digests[2]
        assert any(node.cache._opened for node in memo.nodes.values())

    def test_second_warm_pass_decodes_nothing_a_node_already_read(
        self, memo_and_fresh, monkeypatch
    ):
        """Decodes in a warm pass are only first touches: a (node, file,
        block) decoded in an earlier pass is never decoded again."""
        memo, _ = memo_and_fresh
        current = []
        decoded = []
        read_container_scan = EonStorageProvider._read_container
        decode = column.decode_block

        def scan(self, node, state, container, *args, **kwargs):
            current.append((node.name, container.location))
            try:
                return read_container_scan(self, node, state, container, *args, **kwargs)
            finally:
                current.pop()

        def counting_decode(data):
            decoded.append(tuple(current[-1:]) + (bytes(data),))
            return decode(data)

        monkeypatch.setattr(EonStorageProvider, "_read_container", scan)
        monkeypatch.setattr(column, "decode_block", counting_decode)
        _empty_memo(memo)
        _run_pass(memo)
        first = set(decoded)
        decoded.clear()
        _run_pass(memo)
        assert first and not first & set(decoded)
        assert len(decoded) * 5 < len(first)
