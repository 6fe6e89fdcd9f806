"""Block encodings for column data.

Vertica stores sorted column data with lightweight compression so the
execution engine can "operate directly on encoded data" (section 2.1).  We
implement four block encodings:

* ``PLAIN`` — raw values (numpy buffer for fixed-width, length-prefixed
  UTF-8 for strings).
* ``RLE`` — run-length encoding; wins on sorted/low-run-count data.
* ``DICT`` — dictionary encoding; wins on low-cardinality strings.
* ``DELTA`` — frame-of-reference + varint deltas; wins on sorted integers.

:func:`choose_encoding` picks the cheapest encoding for a block the same way
a real column store would: by estimating encoded size from block statistics.

Every block round-trips exactly: ``decode_block(encode_block(x)) == x``.
NULLs are supported in string columns as ``None``.
"""

from __future__ import annotations

import enum
import struct
from typing import List, Optional, Tuple

import numpy as np


class Encoding(enum.IntEnum):
    PLAIN = 0
    RLE = 1
    DICT = 2
    DELTA = 3


_HEADER = struct.Struct("<BBI")  # encoding, dtype-kind code, row count

# dtype codes used in block headers
_DT_INT = 0
_DT_FLOAT = 1
_DT_OBJ = 2
_DT_BOOL = 3

_DT_BY_KIND = {"i": _DT_INT, "u": _DT_INT, "f": _DT_FLOAT, "O": _DT_OBJ, "b": _DT_BOOL}
_NUMPY_BY_DT = {_DT_INT: np.int64, _DT_FLOAT: np.float64, _DT_BOOL: np.bool_}


def _dtype_code(arr: np.ndarray) -> int:
    try:
        return _DT_BY_KIND[arr.dtype.kind]
    except KeyError:
        raise TypeError(f"unsupported column dtype: {arr.dtype}") from None


# ---------------------------------------------------------------------------
# varint helpers (zig-zag for signed values)


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if n < 0 else n << 1


def _unzigzag(z: np.ndarray) -> np.ndarray:
    """Vectorized inverse of :func:`_zigzag` over uint64 varint values."""
    return (z >> np.uint64(1)).astype(np.int64) ^ -(z & np.uint64(1)).astype(np.int64)


def _write_varint(out: bytearray, n: int) -> None:
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


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


def _read_varints(data: bytes, pos: int, count: int) -> Tuple[np.ndarray, int]:
    """``count`` consecutive varints from ``pos`` as uint64, plus the end
    position: find the terminator bytes, shift each byte's 7 payload bits
    by its place in its varint, and sum each varint's bytes."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64), pos
    raw = np.frombuffer(data, dtype=np.uint8, count=min(len(data) - pos, 10 * count), offset=pos)
    ends = np.flatnonzero(raw < 0x80)[:count]
    if len(ends) < count:
        raise ValueError("truncated varint stream")
    size = int(ends[-1]) + 1
    starts = np.concatenate(([0], ends[:-1] + 1))
    place = np.arange(size, dtype=np.int64) - np.repeat(starts, ends - starts + 1)
    payload = (raw[:size] & 0x7F).astype(np.uint64) << (7 * place).astype(np.uint64)
    return np.add.reduceat(payload, starts), pos + size


# ---------------------------------------------------------------------------
# string payloads


def _encode_strings(values: List[Optional[str]]) -> bytes:
    """Length-prefixed UTF-8; length 0 marks NULL, real lengths are +1."""
    out = bytearray()
    _write_varint(out, len(values))
    for v in values:
        if v is None:
            _write_varint(out, 0)
        else:
            raw = v.encode("utf-8")
            _write_varint(out, len(raw) + 1)
            out.extend(raw)
    return bytes(out)


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


# ---------------------------------------------------------------------------
# per-encoding encode/decode


def _encode_plain(arr: np.ndarray, dt: int) -> bytes:
    if dt == _DT_OBJ:
        return _encode_strings(list(arr))
    if dt == _DT_INT:
        return arr.astype(np.int64).tobytes()
    if dt == _DT_FLOAT:
        return arr.astype(np.float64).tobytes()
    return np.packbits(arr.astype(np.bool_)).tobytes()


def _decode_plain(data: bytes, dt: int, count: int) -> np.ndarray:
    if dt == _DT_OBJ:
        values, _ = _decode_strings(data)
        return np.array(values, dtype=object)
    if dt == _DT_BOOL:
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
        return bits.astype(np.bool_)
    # A read-only view of the file's bytes, not a copy: a block kept with
    # its depot entry then costs no memory beyond the file itself.
    return np.frombuffer(data, dtype=_NUMPY_BY_DT[dt])


def _runs(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run starts (indices) and run values of ``arr``."""
    if len(arr) == 0:
        return np.array([], dtype=np.int64), arr
    change = np.empty(len(arr), dtype=bool)
    change[0] = True
    # Object arrays compare elementwise with Python ``!=`` (no identity
    # shortcut, so a NaN object starts a new run, as it always did).
    np.not_equal(arr[1:], arr[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return starts, arr[starts]


def _encode_rle(arr: np.ndarray, dt: int) -> bytes:
    starts, values = _runs(arr)
    lengths = np.diff(np.append(starts, len(arr)))
    out = bytearray()
    _write_varint(out, len(values))
    for length in lengths:
        _write_varint(out, int(length))
    if dt == _DT_OBJ:
        out.extend(_encode_strings(list(values)))
    elif dt == _DT_INT:
        for v in values.astype(np.int64):
            _write_varint(out, _zigzag(int(v)))
    elif dt == _DT_FLOAT:
        out.extend(values.astype(np.float64).tobytes())
    else:
        out.extend(np.packbits(values.astype(np.bool_)).tobytes())
    return bytes(out)


def _decode_rle(data: bytes, dt: int, count: int) -> np.ndarray:
    nruns, pos = _read_varint(data, 0)
    lengths, pos = _read_varints(data, pos, nruns)
    if dt == _DT_OBJ:
        str_values, _ = _decode_strings(data, pos)
        values = np.array(str_values, dtype=object)
    elif dt == _DT_INT:
        values = _unzigzag(_read_varints(data, pos, nruns)[0])
    elif dt == _DT_FLOAT:
        values = np.frombuffer(data, dtype=np.float64, count=nruns, offset=pos)
    else:
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, offset=pos), count=nruns
        )
        values = bits.astype(np.bool_)
    return np.repeat(values, lengths.astype(np.int64))


def _encode_dict(arr: np.ndarray, dt: int) -> bytes:
    # Dictionary of distinct values + per-row codes.  None sorts first.
    distinct = sorted({v for v in arr if v is not None}, key=lambda v: (v is None, v))
    has_null = any(v is None for v in arr)
    dictionary: List[Optional[str]] = ([None] if has_null else []) + list(distinct)
    code_of = {v: i for i, v in enumerate(dictionary)}
    out = bytearray()
    if dt == _DT_OBJ:
        out.extend(_encode_strings(dictionary))
    elif dt == _DT_INT:
        _write_varint(out, len(dictionary))
        for v in dictionary:
            _write_varint(out, _zigzag(int(v)))
    else:
        raise TypeError("DICT encoding supports int and varchar columns only")
    for v in arr:
        _write_varint(out, code_of[v])
    return bytes(out)


def _decode_dict(data: bytes, dt: int, count: int) -> np.ndarray:
    if dt == _DT_OBJ:
        strings, pos = _decode_strings(data)
        dictionary = np.array(strings, dtype=object)
    else:
        size, pos = _read_varint(data, 0)
        zigzags, pos = _read_varints(data, pos, size)
        dictionary = _unzigzag(zigzags)
    codes, _ = _read_varints(data, pos, count)
    return dictionary[codes.astype(np.int64)]


def _encode_delta(arr: np.ndarray, dt: int) -> bytes:
    if dt != _DT_INT:
        raise TypeError("DELTA encoding supports integer columns only")
    v = arr.astype(np.int64)
    out = bytearray()
    if len(v) == 0:
        return bytes(out)
    _write_varint(out, _zigzag(int(v[0])))
    deltas = np.diff(v)
    for d in deltas:
        _write_varint(out, _zigzag(int(d)))
    return bytes(out)


def _decode_delta(data: bytes, dt: int, count: int) -> np.ndarray:
    # int64 cumsum wraps exactly like the encoder's np.diff did.
    return np.cumsum(_unzigzag(_read_varints(data, 0, count)[0]), dtype=np.int64)


_ENCODERS = {
    Encoding.PLAIN: _encode_plain,
    Encoding.RLE: _encode_rle,
    Encoding.DICT: _encode_dict,
    Encoding.DELTA: _encode_delta,
}
_DECODERS = {
    Encoding.PLAIN: _decode_plain,
    Encoding.RLE: _decode_rle,
    Encoding.DICT: _decode_dict,
    Encoding.DELTA: _decode_delta,
}


def choose_encoding(arr: np.ndarray) -> Encoding:
    """Pick the encoding expected to be smallest for this block."""
    n = len(arr)
    if n == 0:
        return Encoding.PLAIN
    dt = _dtype_code(arr)
    starts, _ = _runs(arr)
    run_ratio = len(starts) / n
    if run_ratio <= 0.5:
        return Encoding.RLE
    if dt == _DT_OBJ:
        distinct = len({v for v in arr})
        if distinct <= max(16, n // 8):
            return Encoding.DICT
        return Encoding.PLAIN
    if dt == _DT_INT:
        v = arr.astype(np.int64)
        if n > 1 and np.all(v[1:] >= v[:-1]):
            return Encoding.DELTA
    return Encoding.PLAIN


def encode_block(arr: np.ndarray, encoding: Optional[Encoding] = None) -> bytes:
    """Encode one block of column values to bytes (header included)."""
    dt = _dtype_code(arr)
    if encoding is None:
        encoding = choose_encoding(arr)
    payload = _ENCODERS[encoding](arr, dt)
    return _HEADER.pack(int(encoding), dt, len(arr)) + payload


def decode_block(data) -> np.ndarray:
    """Inverse of :func:`encode_block`.

    ``data`` is ``bytes`` or a ``memoryview`` slice of a column file; the
    payload is sliced without copying, except that string payloads are
    materialized once so each value decodes from ``bytes``.  PLAIN INT
    and FLOAT blocks decode to read-only views of ``data``.
    """
    enc_id, dt, count = _HEADER.unpack_from(data, 0)
    payload = memoryview(data)[_HEADER.size :]
    if dt == _DT_OBJ:
        payload = payload.tobytes()
    return _DECODERS[Encoding(enc_id)](payload, dt, count)
