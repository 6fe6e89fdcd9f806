"""Reference kernels: the row-at-a-time join and decode loops the engine
used before its vectorized kernels.

They are kept here only as oracles.  The differential tests run the
engine's kernels and these side by side and require identical output,
row for row and in order, so every equality quirk of the tuple-keyed
dict probe (``1 == 1.0 == True``, ``None`` matching ``None``, NaN never
matching) stays pinned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.types import SchemaColumn, TableSchema
from repro.storage.container import RowSet
from repro.storage.encoding import _HEADER, Encoding, _DT_BOOL, _DT_FLOAT, _DT_INT, _DT_OBJ, _NUMPY_BY_DT

# ---------------------------------------------------------------------------
# joins: a tuple-keyed dict built and probed row by row


def hash_join(
    left: RowSet,
    right: RowSet,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> RowSet:
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type {how!r}")
    if len(left_keys) != len(right_keys):
        raise ValueError("join key lists differ in length")

    build: Dict[tuple, List[int]] = {}
    right_key_cols = [right.column(k) for k in right_keys]
    for i in range(right.num_rows):
        key = tuple(c[i] for c in right_key_cols)
        build.setdefault(key, []).append(i)

    left_key_cols = [left.column(k) for k in left_keys]
    left_idx: List[int] = []
    right_idx: List[int] = []
    unmatched: List[int] = []
    for i in range(left.num_rows):
        key = tuple(c[i] for c in left_key_cols)
        matches = build.get(key)
        if matches:
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
        elif how == "left":
            unmatched.append(i)

    left_indices = np.asarray(left_idx + unmatched, dtype=np.int64)
    right_indices = np.asarray(right_idx, dtype=np.int64)

    out_cols: Dict[str, np.ndarray] = {}
    schema_cols: List[SchemaColumn] = []
    for c in left.schema.columns:
        out_cols[c.name] = left.column(c.name)[left_indices]
        schema_cols.append(c)

    n_matched = len(right_idx)
    n_out = len(left_indices)
    for c in right.schema.columns:
        name = c.name if c.name not in out_cols else c.name + "_r"
        values = right.column(c.name)[right_indices]
        if n_out > n_matched:
            if values.dtype.kind == "O":
                pad = np.full(n_out - n_matched, None, dtype=object)
            elif values.dtype.kind == "f":
                pad = np.full(n_out - n_matched, np.nan)
            else:
                pad = np.zeros(n_out - n_matched, dtype=values.dtype)
            values = np.concatenate([values, pad])
        out_cols[name] = values
        schema_cols.append(SchemaColumn(name, c.ctype))
    return RowSet(TableSchema(schema_cols), out_cols)


def join_match_mask(
    left: RowSet,
    right: RowSet,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> np.ndarray:
    if len(left_keys) != len(right_keys):
        raise ValueError("join key lists differ in length")
    build: Dict[tuple, bool] = {}
    right_key_cols = [right.column(k) for k in right_keys]
    for i in range(right.num_rows):
        build[tuple(c[i] for c in right_key_cols)] = True
    left_key_cols = [left.column(k) for k in left_keys]
    mask = np.zeros(left.num_rows, dtype=bool)
    for i in range(left.num_rows):
        if build.get(tuple(c[i] for c in left_key_cols)):
            mask[i] = True
    return mask


# ---------------------------------------------------------------------------
# decoding: one varint read per value


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def _decode_strings(data: bytes, pos: int = 0) -> Tuple[List[Optional[str]], int]:
    count, pos = _read_varint(data, pos)
    values: List[Optional[str]] = []
    for _ in range(count):
        n, pos = _read_varint(data, pos)
        if n == 0:
            values.append(None)
        else:
            values.append(data[pos : pos + n - 1].decode("utf-8"))
            pos += n - 1
    return values, pos


def _decode_plain(data: bytes, dt: int, count: int) -> np.ndarray:
    if dt == _DT_OBJ:
        values, _ = _decode_strings(data)
        return np.array(values, dtype=object)
    if dt == _DT_BOOL:
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
        return bits.astype(np.bool_)
    return np.frombuffer(data, dtype=_NUMPY_BY_DT[dt]).copy()


def _decode_rle(data: bytes, dt: int, count: int) -> np.ndarray:
    nruns, pos = _read_varint(data, 0)
    lengths = np.empty(nruns, dtype=np.int64)
    for i in range(nruns):
        lengths[i], pos = _read_varint(data, pos)
    if dt == _DT_OBJ:
        str_values, _ = _decode_strings(data, pos)
        values = np.array(str_values, dtype=object)
    elif dt == _DT_INT:
        values = np.empty(nruns, dtype=np.int64)
        for i in range(nruns):
            z, pos = _read_varint(data, pos)
            values[i] = _unzigzag(z)
    elif dt == _DT_FLOAT:
        values = np.frombuffer(data, dtype=np.float64, count=nruns, offset=pos)
    else:
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, offset=pos), count=nruns
        )
        values = bits.astype(np.bool_)
    return np.repeat(values, lengths)


def _decode_dict(data: bytes, dt: int, count: int) -> np.ndarray:
    if dt == _DT_OBJ:
        dictionary, pos = _decode_strings(data)
        codes = np.empty(count, dtype=np.int64)
        for i in range(count):
            codes[i], pos = _read_varint(data, pos)
        return np.array([dictionary[c] for c in codes], dtype=object)
    size, pos = _read_varint(data, 0)
    dictionary_arr = np.empty(size, dtype=np.int64)
    for i in range(size):
        z, pos = _read_varint(data, pos)
        dictionary_arr[i] = _unzigzag(z)
    codes = np.empty(count, dtype=np.int64)
    for i in range(count):
        codes[i], pos = _read_varint(data, pos)
    return dictionary_arr[codes]


def _decode_delta(data: bytes, dt: int, count: int) -> np.ndarray:
    values = np.empty(count, dtype=np.int64)
    if count == 0:
        return values
    pos = 0
    z, pos = _read_varint(data, pos)
    values[0] = _unzigzag(z)
    for i in range(1, count):
        z, pos = _read_varint(data, pos)
        with np.errstate(over="ignore"):
            values[i] = values[i - 1] + _unzigzag(z)
    return values


_DECODERS = {
    Encoding.PLAIN: _decode_plain,
    Encoding.RLE: _decode_rle,
    Encoding.DICT: _decode_dict,
    Encoding.DELTA: _decode_delta,
}


def decode_block(data: bytes) -> np.ndarray:
    enc_id, dt, count = _HEADER.unpack_from(data, 0)
    return _DECODERS[Encoding(enc_id)](data[_HEADER.size :], dt, count)
