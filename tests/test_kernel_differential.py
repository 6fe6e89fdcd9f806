"""Vectorized join and decode kernels against their row-at-a-time oracles.

``tests/reference_kernels.py`` keeps the tuple-keyed dict join and the
one-varint-at-a-time decoders the engine used before.  The engine's
kernels must agree with them exactly: the same rows in the same order,
with the same dtypes, for every key kind the dict probe handled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import ColumnType, TableSchema
from repro.engine.operators import (
    JoinIndex,
    _first_occurrence_mask,
    hash_join,
    join_match_mask,
)
from repro.storage.container import RowSet
from repro.storage.encoding import (
    Encoding,
    _read_varints,
    _runs,
    _write_varint,
    decode_block,
    encode_block,
)
from tests import reference_kernels as ref

# -- joins -------------------------------------------------------------------

_NAN = float("nan")
_VALUES = {
    "int": (ColumnType.INT, st.sampled_from([0, 1, 2, -1, 2**53 + 1, -(2**63), 2**63 - 1])),
    "float": (ColumnType.FLOAT, st.sampled_from([0.0, -0.0, 1.0, 2.5, _NAN, 2.0**53, 2.0**63, float("inf")])),
    "bool": (ColumnType.BOOL, st.booleans()),
    "varchar": (ColumnType.VARCHAR, st.sampled_from([None, "a", "b", "日本", ""])),
    # Object columns holding numbers, strings, None and NaN objects: the
    # dict code path, where Python equality decides (1 == 1.0 == True).
    "mixed": (ColumnType.VARCHAR, st.sampled_from([None, "1", 1, 2.0, True, _NAN, np.int64(2)])),
}


def _column(kind, values):
    if kind in ("varchar", "mixed"):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    return np.array(values, dtype=_VALUES[kind][0].dtype)


@st.composite
def join_sides(draw):
    n_keys = draw(st.integers(1, 3))
    left_kinds = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=n_keys, max_size=n_keys))
    right_kinds = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=n_keys, max_size=n_keys))

    def side(prefix, kinds, payload_type):
        n = draw(st.integers(0, 12))
        cols = {}
        schema = []
        for i, kind in enumerate(kinds):
            values = draw(st.lists(_VALUES[kind][1], min_size=n, max_size=n))
            cols[f"{prefix}{i}"] = _column(kind, values)
            schema.append((f"{prefix}{i}", _VALUES[kind][0]))
        cols[f"{prefix}v"] = np.arange(n, dtype=payload_type.dtype)
        schema.append((f"{prefix}v", payload_type))
        return RowSet(TableSchema.of(*schema), cols)

    left = side("l", left_kinds, ColumnType.INT)
    right = side("r", right_kinds, ColumnType.FLOAT)
    keys = ([f"l{i}" for i in range(n_keys)], [f"r{i}" for i in range(n_keys)])
    return left, right, keys


def _same_rowset(got: RowSet, want: RowSet) -> None:
    assert got.schema.names == want.schema.names
    assert [got.column(n).dtype for n in got.schema.names] == [
        want.column(n).dtype for n in want.schema.names
    ]
    # repr keeps NaN comparable and tells 1 from 1.0 from True.
    assert repr(got.to_pylist()) == repr(want.to_pylist())


class TestJoinAgainstDictOracle:
    @given(join_sides(), st.sampled_from(["inner", "left"]))
    @settings(max_examples=300, deadline=None)
    def test_hash_join_equals_dict_join(self, sides, how):
        left, right, (left_keys, right_keys) = sides
        _same_rowset(
            hash_join(left, right, left_keys, right_keys, how),
            ref.hash_join(left, right, left_keys, right_keys, how),
        )

    @given(join_sides())
    @settings(max_examples=150, deadline=None)
    def test_match_mask_equals_dict_mask(self, sides):
        left, right, (left_keys, right_keys) = sides
        assert (
            join_match_mask(left, right, left_keys, right_keys).tolist()
            == ref.join_match_mask(left, right, left_keys, right_keys).tolist()
        )

    @given(join_sides(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_one_index_serves_every_batch(self, sides, batch_size):
        """Probing one index batch by batch concatenates to the one-shot
        join: a probe is row-local, so one build serves any split of the
        probe side."""
        left, right, (left_keys, right_keys) = sides
        index = JoinIndex(right, right_keys)
        parts = [
            index.gather(left.slice(i, i + batch_size),
                         index.probe(left.slice(i, i + batch_size), left_keys), "inner")
            for i in range(0, left.num_rows, batch_size)
        ]
        want = ref.hash_join(left, right, left_keys, right_keys)
        got = RowSet.concat(parts) if parts else want
        _same_rowset(got, want)

    def test_int_float_bool_keys_compare_as_numbers(self):
        left = RowSet(TableSchema.of(("k", ColumnType.INT)), {"k": np.array([1, 2, 3])})
        right = RowSet(TableSchema.of(("f", ColumnType.FLOAT)), {"f": np.array([1.0, 2.5, _NAN, 3.0])})
        assert hash_join(left, right, ["k"], ["f"]).to_pylist() == [(1, 1.0), (3, 3.0)]
        flags = RowSet(TableSchema.of(("b", ColumnType.BOOL)), {"b": np.array([True, False])})
        assert hash_join(left, flags, ["k"], ["b"]).to_pylist() == [(1, True)]

    def test_nan_never_matches(self):
        side = RowSet(TableSchema.of(("f", ColumnType.FLOAT)), {"f": np.array([_NAN, 1.0])})
        other = RowSet(TableSchema.of(("g", ColumnType.FLOAT)), {"g": np.array([_NAN])})
        assert hash_join(side, other, ["f"], ["g"]).num_rows == 0
        assert join_match_mask(side, other, ["f"], ["g"]).tolist() == [False, False]

    def test_large_ints_match_floats_only_exactly(self):
        # 2**53 + 1 rounds to 2.0**53 as a float; the dict probe keeps them apart.
        left = RowSet(TableSchema.of(("k", ColumnType.INT)),
                      {"k": np.array([2**53, 2**53 + 1, 2**63 - 1])})
        right = RowSet(TableSchema.of(("f", ColumnType.FLOAT)),
                       {"f": np.array([2.0**53, 2.0**63])})
        assert hash_join(left, right, ["k"], ["f"]).to_pylist() == [(2**53, 2.0**53)]

    def test_matches_in_probe_order_then_build_order(self):
        left = RowSet(TableSchema.of(("k", ColumnType.INT)), {"k": np.array([2, 1, 2, 7])})
        right = RowSet(TableSchema.of(("r", ColumnType.INT), ("p", ColumnType.INT)),
                       {"r": np.array([2, 1, 2, 2]), "p": np.array([10, 11, 12, 13])})
        out = hash_join(left, right, ["k"], ["r"], how="left")
        assert [row[2] for row in out.to_pylist()] == [10, 12, 13, 11, 10, 12, 13, 0]


# -- decoding -----------------------------------------------------------------

_INT_EXTREMES = st.sampled_from([0, 1, -1, 63, -64, 2**31, 2**62, -(2**62), 2**63 - 1, -(2**63)])
_INTS = st.one_of(_INT_EXTREMES, st.integers(-(2**63), 2**63 - 1))
_STRINGS = st.one_of(st.none(), st.sampled_from(["", "a", "é", "日本語", "🙂x"]), st.text(max_size=12))


def _roundtrip_all(arr: np.ndarray, encodings) -> None:
    for encoding in encodings:
        block = encode_block(arr, encoding)
        got = decode_block(block)
        with np.errstate(over="ignore"):
            want = ref.decode_block(block)
        assert got.dtype == want.dtype == arr.dtype, encoding
        assert repr(got.tolist()) == repr(want.tolist()) == repr(arr.tolist()), encoding


class TestDecodeAgainstLoopOracle:
    @given(st.lists(_INTS, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_int_blocks(self, values):
        arr = np.array(values, dtype=np.int64)
        _roundtrip_all(arr, (None, Encoding.PLAIN, Encoding.RLE, Encoding.DICT))
        _roundtrip_all(np.sort(arr), (Encoding.DELTA,))

    @given(st.lists(_STRINGS, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_string_blocks(self, values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        _roundtrip_all(arr, (None, Encoding.PLAIN, Encoding.RLE, Encoding.DICT))

    @given(st.lists(st.one_of(st.floats(allow_nan=False), st.just(_NAN)), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_float_blocks(self, values):
        _roundtrip_all(np.array(values, dtype=np.float64), (None, Encoding.PLAIN, Encoding.RLE))

    @given(st.lists(st.booleans(), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_bool_blocks(self, values):
        _roundtrip_all(np.array(values, dtype=np.bool_), (None, Encoding.PLAIN, Encoding.RLE))

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.bool_, object])
    def test_empty_blocks(self, dtype):
        arr = np.array([], dtype=dtype)
        encodings = [None, Encoding.PLAIN, Encoding.RLE]
        if dtype in (np.int64, object):
            encodings.append(Encoding.DICT)
        if dtype is np.int64:
            encodings.append(Encoding.DELTA)
        _roundtrip_all(arr, encodings)

    def test_ten_byte_varints(self):
        # Zigzagged int64 extremes need all ten varint bytes.
        arr = np.array([-(2**63), 2**63 - 1, -(2**63), 0], dtype=np.int64)
        _roundtrip_all(arr, (Encoding.RLE, Encoding.DICT))
        _roundtrip_all(np.sort(arr), (Encoding.DELTA,))
        out = bytearray()
        _write_varint(out, 2**64 - 1)
        assert len(out) == 10
        values, end = _read_varints(bytes(out), 0, 1)
        assert values.tolist() == [2**64 - 1] and end == 10

    def test_read_varints_stops_after_count(self):
        out = bytearray()
        for n in (0, 127, 128, 300, 2**35):
            _write_varint(out, n)
        values, end = _read_varints(bytes(out) + b"\xff\x01", 0, 5)
        assert values.tolist() == [0, 127, 128, 300, 2**35]
        assert end == len(out)
        with pytest.raises(ValueError):
            _read_varints(bytes(out), 0, 6)


# -- per-row loops that became array operations --------------------------------


def _first_occurrence_loop(codes):
    seen, keep = set(), []
    for c in codes.tolist():
        keep.append(c not in seen)
        seen.add(c)
    return keep


def _runs_loop(arr):
    return [i for i in range(len(arr)) if i == 0 or arr[i] != arr[i - 1]]


class TestVectorizedLoops:
    @given(st.lists(st.integers(0, 20), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_first_occurrence_mask(self, codes):
        arr = np.array(codes, dtype=np.int64)
        assert _first_occurrence_mask(arr).tolist() == _first_occurrence_loop(arr)

    @given(st.lists(st.sampled_from([None, "a", "b", 1, 1.0, True, _NAN]), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_object_runs(self, values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        starts, run_values = _runs(arr)
        assert starts.tolist() == _runs_loop(arr)
        assert [v is arr[s] for v, s in zip(run_values, starts)] == [True] * len(starts)
