"""Physical operators over columnar batches: join, aggregate, sort/limit.

These are the building blocks the distributed executor composes.  Each is a
pure function from :class:`RowSet` inputs to a :class:`RowSet` output.

Aggregation supports the three distributed modes the planner needs:

* ``complete`` — one-shot aggregation (used when data is co-segmented on
  the group keys, so every group lives wholly on one node);
* ``partial`` — per-node pre-aggregation producing mergeable state;
* ``final`` — merging partial states on the initiator.

COUNT(DISTINCT x) merges by shipping deduplicated (group, x) pairs in the
partial phase unless the planner proves co-segmentation — the reason the
paper calls segmentation "particularly effective for the computation of
high-cardinality distinct aggregates" (section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine.expressions import ColumnRef, Expr
from repro.errors import ExecutionError
from repro.storage.container import RowSet

_AGG_FUNCS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output column."""

    func: str
    argument: Optional[Expr]  # None only for count(*)
    output: str
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise ValueError(f"unknown aggregate {self.func!r}")
        if self.argument is None and self.func != "count":
            raise ValueError(f"{self.func} requires an argument")
        if self.distinct and self.func not in ("count",):
            # sum/min/max distinct are rare; count distinct is the headline.
            raise ValueError("DISTINCT supported for count only")


# ---------------------------------------------------------------------------
# grouping machinery


def _factorize(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(codes, uniques): codes[i] indexes uniques; order of uniques sorted."""
    if arr.dtype.kind == "O":
        try:
            uniques_list = sorted({v for v in arr}, key=lambda v: (v is None, v))
        except TypeError:
            # Mixed-type object columns (e.g. a VARCHAR column fed ints by
            # an expression) are not mutually comparable; fall back to a
            # stable first-occurrence factorization.
            uniques_list = list(dict.fromkeys(arr.tolist()))
        index = {v: i for i, v in enumerate(uniques_list)}
        codes = np.fromiter((index[v] for v in arr), dtype=np.int64, count=len(arr))
        return codes, np.array(uniques_list, dtype=object)
    uniques, codes = np.unique(arr, return_inverse=True)
    return codes.astype(np.int64), uniques


def _group_codes(rows: RowSet, group_names: Sequence[str]) -> Tuple[np.ndarray, List[np.ndarray], int]:
    """Combined group code per row plus per-column unique arrays."""
    if not group_names:
        # Global aggregation always has exactly one group, even over an
        # empty input (SQL semantics: one output row).
        return np.zeros(rows.num_rows, dtype=np.int64), [], 1
    if rows.num_rows == 0:
        return np.zeros(0, dtype=np.int64), [], 0
    codes = np.zeros(rows.num_rows, dtype=np.int64)
    uniques: List[np.ndarray] = []
    for name in group_names:
        c, u = _factorize(rows.column(name))
        codes = codes * len(u) + c
        uniques.append(u)
    # Re-factorize the combined codes so they are dense.
    dense_uniques, dense = np.unique(codes, return_inverse=True)
    return dense.astype(np.int64), uniques, len(dense_uniques)


def _group_key_columns(
    rows: RowSet, group_names: Sequence[str], codes: np.ndarray, n_groups: int
) -> Dict[str, np.ndarray]:
    """Representative group-key values, one row per group."""
    if not group_names:
        return {}
    if len(codes) == 0:
        return {name: rows.column(name)[:0] for name in group_names}
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    is_first = np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1]))
    first_rows = order[is_first]  # one row per group, ordered by group code
    return {name: rows.column(name)[first_rows] for name in group_names}


def _output_type(func: str, arg: Optional[np.ndarray]) -> ColumnType:
    if func == "count":
        return ColumnType.INT
    if func == "avg":
        return ColumnType.FLOAT
    if arg is None:
        return ColumnType.INT
    kind = arg.dtype.kind
    if kind == "f":
        return ColumnType.FLOAT
    if kind == "O":
        return ColumnType.VARCHAR
    if kind == "b":
        return ColumnType.BOOL
    return ColumnType.INT


def _agg_array(
    func: str, values: Optional[np.ndarray], codes: np.ndarray, n: int
) -> np.ndarray:
    """One aggregate over dense group ``codes``, NULL-aware.

    NULL is ``None`` in object columns and ``NaN`` in float columns; int
    and bool columns cannot hold NULL (no sentinel).  NULLs are masked
    before the kernels run, so they never contribute to ``count(col)``,
    ``sum``, ``min``, or ``max``.
    """
    if len(codes) == 0:
        # Only the global-aggregate case reaches here with n == 1; grouped
        # aggregation over empty input produces zero groups.
        if func == "count":
            return np.zeros(n, dtype=np.int64)
        if func == "sum":
            if values is not None and values.dtype.kind == "f":
                return np.zeros(n, dtype=np.float64)
            return np.zeros(n, dtype=np.int64)
        # min/max of an empty input: NULL in SQL; we use the type's zero
        # (numeric) or None (string) — documented deviation.
        if values is not None and values.dtype.kind == "O":
            return np.full(n, None, dtype=object)
        if values is not None and values.dtype.kind == "f":
            return np.full(n, np.nan)
        return np.zeros(n, dtype=np.int64 if values is None else values.dtype)
    if func == "count":
        # count(*) (values is None) counts rows; count(col) skips NULLs.
        if values is not None:
            codes = codes[_valid_mask(values)]
        return np.bincount(codes, minlength=n).astype(np.int64)
    if func == "sum":
        if values.dtype.kind == "f":
            # NaN is the float NULL sentinel: mask it before bincount so a
            # single NULL does not poison its group.  An all-NULL group
            # sums to 0.0 rather than SQL's NULL — documented deviation.
            valid = _valid_mask(values)
            return np.bincount(codes[valid], weights=values[valid], minlength=n)
        return np.bincount(codes, weights=values.astype(np.float64), minlength=n).astype(np.int64)
    if func in ("min", "max"):
        if values.dtype.kind == "f":
            # Mask NULLs up front; a group whose values are all NULL then
            # vanishes from ``codes`` and stays NaN in the scatter below.
            valid = _valid_mask(values)
            codes = codes[valid]
            values = values[valid]
            if len(codes) == 0:
                return np.full(n, np.nan)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        sorted_values = values[order]
        starts = np.concatenate(([0], np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1))
        if values.dtype.kind == "O":
            out = np.full(n, None, dtype=object)
            ends = np.concatenate((starts[1:], [len(sorted_values)]))
            for g, (s, e) in enumerate(zip(starts, ends)):
                chunk = [v for v in sorted_values[s:e] if v is not None and v == v]
                out[sorted_codes[s]] = (min(chunk) if func == "min" else max(chunk)) if chunk else None
            return out
        reducer = np.minimum if func == "min" else np.maximum
        if values.dtype.kind == "f":
            out = np.full(n, np.nan)
            out[sorted_codes[starts]] = reducer.reduceat(sorted_values, starts)
            return out
        return reducer.reduceat(sorted_values, starts)
    raise ExecutionError(f"unsupported aggregate {func!r}")


def aggregate(
    rows: RowSet,
    group_names: Sequence[str],
    specs: Sequence[AggregateSpec],
    mode: str = "complete",
) -> RowSet:
    """Group-by aggregation in one of the three distributed modes."""
    if mode not in ("complete", "partial", "final"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if mode == "complete":
        if any(s.func == "avg" for s in specs):
            return _aggregate_complete_with_avg(rows, group_names, specs)
        return _aggregate_complete(rows, group_names, specs)
    if mode == "partial":
        return _aggregate_complete(rows, group_names, partial_specs(specs), partial=True, original=specs)
    return _aggregate_final(rows, group_names, specs)


def _aggregate_complete_with_avg(
    rows: RowSet, group_names: Sequence[str], specs: Sequence[AggregateSpec]
) -> RowSet:
    """One-shot aggregation with avg decomposed into sum/count locally."""
    decomposed: List[AggregateSpec] = []
    avg_outputs: List[str] = []
    for spec in specs:
        if spec.func == "avg":
            decomposed.append(replace(spec, func="sum", output=spec.output + "__psum"))
            decomposed.append(replace(spec, func="count", output=spec.output + "__pcount"))
            avg_outputs.append(spec.output)
        else:
            decomposed.append(spec)
    out = _aggregate_complete(rows, group_names, decomposed)
    cols = dict(out.columns)
    schema_cols = list(out.schema.columns)
    order = [c.name for c in schema_cols]
    for output in avg_outputs:
        psum = cols.pop(output + "__psum")
        pcount = cols.pop(output + "__pcount")
        with np.errstate(divide="ignore", invalid="ignore"):
            cols[output] = np.where(
                pcount > 0, psum / np.maximum(pcount, 1), np.nan
            )
        # Place the avg where its sum component sat, preserving spec order.
        index = order.index(output + "__psum")
        order[index] = output
        order.remove(output + "__pcount")
        schema_cols = [c for c in schema_cols
                       if c.name not in (output + "__psum", output + "__pcount")]
        schema_cols.insert(index, SchemaColumn(output, ColumnType.FLOAT))
    schema_cols.sort(key=lambda c: order.index(c.name))
    return RowSet(TableSchema(schema_cols), cols)


def _aggregate_complete(
    rows: RowSet,
    group_names: Sequence[str],
    specs: Sequence[AggregateSpec],
    partial: bool = False,
    original: Optional[Sequence[AggregateSpec]] = None,
) -> RowSet:
    if partial and rows.num_rows == 0 and not group_names:
        # A node with no matching rows contributes NO partial state:
        # emitting the zero-placeholder row would poison min/max merging
        # (min(0, real_min) is wrong).  The schema is derived from the
        # zero-row placeholder, then emptied.
        placeholder = _aggregate_complete(rows, group_names, specs)
        return placeholder.slice(0, 0)
    codes, _, n_groups = _group_codes(rows, group_names)
    key_cols = _group_key_columns(rows, group_names, codes, n_groups)

    out_cols: Dict[str, np.ndarray] = dict(key_cols)
    out_schema_cols: List[SchemaColumn] = [rows.schema.column(g) for g in group_names]

    # count-distinct in partial mode ships dedup'd (group, value) pairs
    # instead of counts, so the final phase can merge across nodes.
    if partial and any(spec.distinct for spec in specs):
        if len(specs) > 1:
            raise ExecutionError(
                "partial count-distinct cannot be combined with other "
                "aggregates in one operator; plan them separately"
            )
        spec = specs[0]
        values = spec.argument.evaluate(rows)
        pair_codes, _ = _factorize_pairs(codes, values)
        keep = _first_occurrence_mask(pair_codes)
        dedup = rows.filter(keep)
        out = {name: dedup.column(name) for name in group_names}
        out[spec.output] = spec.argument.evaluate(dedup)
        schema = TableSchema(
            [dedup.schema.column(g) for g in group_names]
            + [SchemaColumn(spec.output, _output_type("min", out[spec.output]))]
        )
        return RowSet(schema, out)

    for spec in specs:
        if spec.func == "avg":
            raise ExecutionError("avg must be decomposed before aggregation")
        if spec.argument is None:
            values = None
        else:
            values = spec.argument.evaluate(rows)
        if spec.distinct:
            if values is not None:
                keep_valid = _valid_mask(values)
                codes_d = codes[keep_valid]
                values_d = values[keep_valid]
            else:
                codes_d, values_d = codes, None
            pair_codes, _ = _factorize_pairs(codes_d, values_d)
            keep = _first_occurrence_mask(pair_codes)
            out_cols[spec.output] = _agg_array(
                "count", None, codes_d[keep], n_groups
            )
        else:
            out_cols[spec.output] = _agg_array(spec.func, values, codes, n_groups)
        out_schema_cols.append(SchemaColumn(spec.output, _output_type(spec.func, values)))

    return RowSet(TableSchema(out_schema_cols), out_cols)


def _factorize_pairs(codes: np.ndarray, values: Optional[np.ndarray]) -> Tuple[np.ndarray, int]:
    if len(codes) == 0:
        return codes, 0
    if values is None:
        return codes, int(codes.max()) + 1
    vcodes, vuniq = _factorize(values)
    combined = codes * max(len(vuniq), 1) + vcodes
    dense_uniq, dense = np.unique(combined, return_inverse=True)
    return dense.astype(np.int64), len(dense_uniq)


def _first_occurrence_mask(codes: np.ndarray) -> np.ndarray:
    keep = np.zeros(len(codes), dtype=bool)
    keep[np.unique(codes, return_index=True)[1]] = True
    return keep


def _valid_mask(values: np.ndarray) -> np.ndarray:
    """True where the value is non-NULL (``None`` objects, float ``NaN``)."""
    if values.dtype.kind == "O":
        return np.fromiter(
            (v is not None and v == v for v in values), dtype=bool, count=len(values)
        )
    if values.dtype.kind == "f":
        return ~np.isnan(values)
    return np.ones(len(values), dtype=bool)


# ---------------------------------------------------------------------------
# partial / final decomposition


def partial_specs(specs: Sequence[AggregateSpec]) -> List[AggregateSpec]:
    """Decompose aggregates into mergeable partial state columns."""
    out: List[AggregateSpec] = []
    for spec in specs:
        if spec.distinct:
            out.append(spec)
        elif spec.func == "avg":
            out.append(replace(spec, func="sum", output=spec.output + "__psum"))
            out.append(replace(spec, func="count", output=spec.output + "__pcount"))
        elif spec.func == "count":
            out.append(replace(spec, output=spec.output))
        else:
            out.append(spec)
    return out


def _aggregate_final(
    rows: RowSet, group_names: Sequence[str], specs: Sequence[AggregateSpec]
) -> RowSet:
    """Merge partial-state rows (concatenated from all nodes)."""
    merge_specs: List[AggregateSpec] = []
    avg_fixups: List[str] = []
    for spec in specs:
        if spec.distinct:
            merge_specs.append(
                AggregateSpec("count", ColumnRef(spec.output), spec.output, distinct=True)
            )
        elif spec.func == "avg":
            merge_specs.append(
                AggregateSpec("sum", ColumnRef(spec.output + "__psum"), spec.output + "__psum")
            )
            merge_specs.append(
                AggregateSpec("sum", ColumnRef(spec.output + "__pcount"), spec.output + "__pcount")
            )
            avg_fixups.append(spec.output)
        elif spec.func == "count":
            merge_specs.append(AggregateSpec("sum", ColumnRef(spec.output), spec.output))
        else:
            merge_specs.append(AggregateSpec(spec.func, ColumnRef(spec.output), spec.output))
    merged = _aggregate_complete(rows, group_names, merge_specs)
    if not avg_fixups:
        return merged
    cols = dict(merged.columns)
    schema_cols = list(merged.schema.columns)
    for output in avg_fixups:
        psum = cols.pop(output + "__psum")
        pcount = cols.pop(output + "__pcount")
        with np.errstate(divide="ignore", invalid="ignore"):
            cols[output] = np.where(pcount > 0, psum / np.maximum(pcount, 1), np.nan)
        schema_cols = [c for c in schema_cols if c.name not in (output + "__psum", output + "__pcount")]
        schema_cols.append(SchemaColumn(output, ColumnType.FLOAT))
    return RowSet(TableSchema(schema_cols), cols)


def final_count_sum(specs: Sequence[AggregateSpec]) -> List[AggregateSpec]:
    """Final-phase spec rewrite (exposed for the planner's tests)."""
    return [
        replace(s, func="sum") if s.func == "count" and not s.distinct else s
        for s in specs
    ]


# ---------------------------------------------------------------------------
# joins


class JoinIndex:
    """Sort-based join index over a build side's key columns, built once
    and probed by any number of probe batches.

    Every build row gets one comparable key: the key column's own values
    (int64 or float64), or codes from a dict for an object column; several
    key columns combine their dense ranks mixed-radix.  A stable sort
    groups the build rows by key, keeping build-row order inside each
    group.  A probe computes the same keys and finds each row's group in
    the sorted distinct keys with ``searchsorted``.

    Equality is the tuple-keyed dict probe's: ``1 == 1.0 == True``,
    ``None`` matches ``None``, float NaN never matches, and a key pair
    that involves an object column compares by Python equality through a
    dict.
    """

    def __init__(self, build: RowSet, keys: Sequence[str]) -> None:
        self.build = build
        self._names = list(keys)
        # Per key column: "i" or "f" (numeric compare domain), or the
        # object column's value -> code dict.
        self._domains: List[object] = []
        for name in keys:
            values = build.column(name)
            if values.dtype.kind in "iubf":
                self._domains.append("f" if values.dtype.kind == "f" else "i")
            else:
                distinct = dict.fromkeys(values.tolist())
                self._domains.append({v: i for i, v in enumerate(distinct)})
        self._stages: List[np.ndarray] = []  # multi-key ranks, see _rank
        key, ok = self._keys(build, keys)
        rows = np.flatnonzero(ok)
        self.order = rows[_stable_argsort(key[rows])]
        sorted_keys = key[self.order]
        first = np.ones(len(sorted_keys), dtype=bool)
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        self._uniques = sorted_keys[starts]
        # A trailing empty group answers every probe key that is absent.
        self._starts = np.append(starts, 0)
        self._counts = np.append(np.diff(np.append(starts, len(sorted_keys))), 0)

    def probe(self, left: RowSet, left_keys: Sequence[str]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, lo, counts)``: probe row ``i`` matches the build rows
        ``order[lo[i]:lo[i] + counts[i]]``, in build-row order."""
        if len(left_keys) != len(self._names):
            raise ValueError("join key lists differ in length")
        key, ok = self._keys(left, left_keys)
        group = np.where(ok, _lookup(self._uniques, key), -1)
        return self.order, self._starts[group], self._counts[group]

    def _keys(self, rows: RowSet, names: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """One comparable key per row, and the mask of rows that can match."""
        columns = [
            _column_keys(rows.column(name), domain, self.build.column(build_name))
            for name, domain, build_name in zip(names, self._domains, self._names)
        ]
        if not columns:  # no keys: a cross join
            return np.zeros(rows.num_rows, dtype=np.int64), np.ones(rows.num_rows, dtype=bool)
        if len(columns) == 1:
            return columns[0]
        # Stage 0 ranks the first column; stages 2j-1 and 2j rank column j
        # and then the composite, which keeps it below the build's row count.
        key = self._rank(0, *columns[0])
        for j, (values, ok) in enumerate(columns[1:], 1):
            rank = self._rank(2 * j - 1, values, ok)
            radix = len(self._stages[2 * j - 1])
            combined = np.where((key >= 0) & (rank >= 0), key * radix + rank, -1)
            key = self._rank(2 * j, combined, combined >= 0)
        return key, key >= 0

    def _rank(self, stage: int, values: np.ndarray, ok: np.ndarray) -> np.ndarray:
        """Dense rank of each value among the build's values at this stage
        of the multi-key combination, -1 where absent; the build pass
        records each stage's distinct values for the probes."""
        if stage == len(self._stages):
            self._stages.append(np.unique(values[ok]))
        return np.where(ok, _lookup(self._stages[stage], values), -1)

    def gather(
        self, left: RowSet, probe: Tuple[np.ndarray, np.ndarray, np.ndarray], how: str
    ) -> RowSet:
        """Join output for a :meth:`probe` result: matches in probe order,
        then build-row order; a LEFT join appends the unmatched probe rows
        padded with NULL/zero.

        Output columns: all left columns then all right columns (duplicated
        names get a ``_r`` suffix).  Right key columns are retained: later
        plan stages may reference them, and for matched rows their values
        equal the left keys by definition.
        """
        order, lo, counts = probe
        left_indices = np.repeat(np.arange(left.num_rows, dtype=np.int64), counts)
        n_matched = len(left_indices)
        run_offset = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        right_indices = order[run_offset + np.arange(n_matched, dtype=np.int64)]
        if how == "left":
            left_indices = np.concatenate([left_indices, np.flatnonzero(counts == 0)])

        out_cols: Dict[str, np.ndarray] = {}
        schema_cols: List[SchemaColumn] = []
        for c in left.schema.columns:
            out_cols[c.name] = left.column(c.name)[left_indices]
            schema_cols.append(c)
        n_out = len(left_indices)
        for c in self.build.schema.columns:
            name = c.name if c.name not in out_cols else c.name + "_r"
            values = self.build.column(c.name)[right_indices]
            if n_out > n_matched:  # left join padding with NULL/zero
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


def _column_keys(
    values: np.ndarray, domain: object, build_values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keys of one join key column in its build column's domain, and the
    mask of rows that can match at all."""
    if isinstance(domain, dict):
        codes = np.fromiter((domain.get(v, -1) for v in values.tolist()),
                            dtype=np.int64, count=len(values))
        return codes, codes >= 0
    if values.dtype.kind not in "iubf":
        # Object probe column, numeric build column: Python equality
        # through a dict of the build's own values.
        same = {w: w for w in build_values.tolist()}
        items = values.tolist()
        ok = np.fromiter((v in same for v in items), dtype=bool, count=len(items))
        keys = np.array([same.get(v, 0) for v in items],
                        dtype=np.float64 if domain == "f" else np.int64)
        return keys, ok
    return _to_domain(values, domain)


def _to_domain(values: np.ndarray, domain: str) -> Tuple[np.ndarray, np.ndarray]:
    """``values`` as int64 (domain ``"i"``) or float64 (``"f"``), plus a
    mask of the rows that can match at all: a float matches an int only
    when it is that exact integer, and NaN matches nothing."""
    if domain == "f":
        out = values.astype(np.float64)
        if values.dtype.kind == "f":
            return out, ~np.isnan(out)
        # An int matches a float only when the float holds it exactly.
        exact = np.where(out < 2.0**63, out, 0).astype(np.int64) == values
        return out, exact
    if values.dtype.kind != "f":
        return values.astype(np.int64), np.ones(len(values), dtype=bool)
    with np.errstate(invalid="ignore"):
        ok = (np.floor(values) == values) & (values >= -(2.0**63)) & (values < 2.0**63)
    return np.where(ok, values, 0).astype(np.int64), ok


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort.  Integer keys with a small enough span sort as
    packed ``(key, row)`` integers, which numpy's fast unstable sort then
    orders stably."""
    n = len(keys)
    if n and keys.dtype.kind == "i":
        low = int(keys.min())
        if (int(keys.max()) - low + 1) * n < 2**63:
            packed = (keys - low) * n + np.arange(n)
            packed.sort()
            return packed % n
    return np.argsort(keys, kind="stable")


def _lookup(uniques: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each value in sorted ``uniques``, or -1 when absent."""
    idx = np.searchsorted(uniques, values)
    found = idx < len(uniques)
    found[found] = uniques[idx[found]] == values[found]
    return np.where(found, idx, -1)


def hash_join(
    left: RowSet,
    right: RowSet,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> RowSet:
    """Equi-join ``left`` (probe side) with ``right`` (build side) through
    a :class:`JoinIndex` over ``right``; see :meth:`JoinIndex.gather` for
    the output layout and row order."""
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type {how!r}")
    if len(left_keys) != len(right_keys):
        raise ValueError("join key lists differ in length")
    index = JoinIndex(right, right_keys)
    return index.gather(left, index.probe(left, left_keys), how)


def join_match_mask(
    left: RowSet,
    right: RowSet,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> np.ndarray:
    """Boolean mask over ``left``: which probe rows have a build match,
    with :func:`hash_join`'s equality (including ``None`` matching
    ``None``)."""
    if len(left_keys) != len(right_keys):
        raise ValueError("join key lists differ in length")
    return JoinIndex(right, right_keys).probe(left, left_keys)[2] > 0


# ---------------------------------------------------------------------------
# sort / limit


def sort_limit(
    rows: RowSet,
    order: Sequence[Tuple[str, bool]],
    limit: Optional[int] = None,
) -> RowSet:
    """ORDER BY (name, ascending) pairs, then optional LIMIT."""
    indices = np.arange(rows.num_rows)
    for name, ascending in reversed(list(order)):
        column = rows.column(name)[indices]
        if column.dtype.kind == "O":
            # Python's sort is stable in both directions.
            sorter = sorted(
                range(len(column)),
                key=lambda i: (column[i] is None, column[i] if column[i] is not None else ""),
                reverse=not ascending,
            )
            sorter = np.asarray(sorter, dtype=np.int64)
        elif ascending:
            sorter = np.argsort(column, kind="stable")
        else:
            # Stable descending: negate (bools promote to int first).
            sorter = np.argsort(-column.astype(np.float64), kind="stable")
        indices = indices[sorter]
    if limit is not None:
        indices = indices[:limit]
    return rows.take(indices)
