"""Distributed plan executor.

Executes a :class:`~repro.engine.planner.PhysicalPlan` against a
:class:`StorageProvider` (implemented by the Eon and Enterprise clusters).
Subtrees without aggregation run as per-participant *fragments* whose
results are gathered to the initiator; aggregation marks the fragment
boundary (one-phase, two-phase partial/final, or gather-and-aggregate),
and everything above it runs on the initiator.  Every operator evaluates
its whole input before the next starts, and each join fragment builds one
:class:`~repro.engine.operators.JoinIndex` (inside :func:`hash_join`).

The provider tells the executor whether the session's data placement still
preserves the segmentation property (it does not under container-split
crunch scaling — section 4.4); if not, local joins are downgraded to
broadcast and one-phase aggregation to two-phase, exactly the "data must be
shuffled" consequence the paper describes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.types import SchemaColumn, TableSchema
from repro.engine.cost import CostModel, QueryStats
from repro.engine.expressions import Expr
# The executor calls operators through these module-level names, which
# eonbench/spans.py wraps to time each layer; join_match_mask stays
# importable here for that wrapper although the executor does not call it.
from repro.engine.operators import (  # noqa: F401
    aggregate,
    hash_join,
    join_match_mask,
    sort_limit,
)
from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.engine.planner import PhysicalPlan
from repro.errors import ExecutionError
from repro.storage.container import RowSet


@dataclass
class ScanResult:
    """What a storage provider returns for one fragment scan."""

    rows: RowSet
    io_seconds: float = 0.0
    bytes_from_cache: int = 0
    bytes_from_shared: int = 0
    containers_scanned: int = 0
    containers_pruned: int = 0
    blocks_pruned: int = 0
    # Depot/S3 accounting (per-file events; providers without a depot
    # leave these at zero).
    depot_hits: int = 0
    depot_misses: int = 0
    s3_requests: int = 0
    s3_dollars: float = 0.0
    # Parallel I/O scheduler accounting (zero when the scheduler is off
    # or the provider has no depot).
    prefetch_hits: int = 0
    peer_fetches: int = 0
    coalesced_gets: int = 0
    # Server-side pushdown accounting: containers answered by select_scan,
    # stored bytes those selects touched, and the scan's strategy label
    # ("depot" | "get" | "pushdown"; "" for providers without the notion).
    pushdown_scans: int = 0
    bytes_scanned: int = 0
    scan_strategy: str = ""
    #: Rows the server-side predicate removed before the wire; added back
    #: into ``rows_scanned`` so scan accounting is strategy-invariant.
    pushdown_rows_filtered: int = 0


class StorageProvider(abc.ABC):
    """The cluster-facing interface the executor runs against."""

    @abc.abstractmethod
    def participants(self) -> List[str]:
        """Nodes executing fragments for this session."""

    @abc.abstractmethod
    def initiator(self) -> str:
        """The session's initiator node (also a participant)."""

    @abc.abstractmethod
    def scan(
        self,
        node: str,
        projection: str,
        columns: Sequence[str],
        predicate: Optional[Expr],
        replicated: bool,
    ) -> ScanResult:
        """Scan the projection data this node serves in this session."""

    @property
    def preserves_segmentation(self) -> bool:
        """False when the session splits shards in a way that breaks the
        co-location property (container-split crunch scaling)."""
        return True

    def set_pushdown(self, mode: str) -> None:
        """Accept the session's pushdown mode (off | auto | on).

        Default: ignore — providers without server-side compute (the
        Enterprise cluster, test fakes) scan exactly as before.
        """
        return None


@dataclass
class QueryResult:
    rows: RowSet
    stats: QueryStats
    plan: PhysicalPlan


def rowset_bytes(rows: RowSet) -> int:
    """Approximate wire size of a batch."""
    total = 0
    for name in rows.schema.names:
        column = rows.column(name)
        if column.dtype.kind == "O":
            total += sum(4 + (len(v) if isinstance(v, str) else 0) for v in column)
        else:
            total += column.dtype.itemsize * len(column)
    return total


class Executor:
    def __init__(
        self,
        provider: StorageProvider,
        cost_model: Optional[CostModel] = None,
        obs=None,
        pushdown: str = "auto",
    ):
        self.provider = provider
        self.cost = cost_model or CostModel()
        if pushdown not in ("auto", "on", "off"):
            raise ExecutionError(
                f"pushdown must be auto|on|off, got {pushdown!r}"
            )
        self.pushdown = pushdown
        self.provider.set_pushdown(pushdown)
        self.stats = QueryStats()
        self._broadcast_cache: Dict[int, RowSet] = {}
        # Observability is opt-in; ``None`` keeps every hot path at a
        # single attribute check (the zero-overhead-when-disabled contract).
        self._obs = obs if (obs is not None and obs.enabled) else None
        self.op_profiles: List = []

    # -- public ------------------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> QueryResult:
        self.stats = QueryStats()
        self.stats.dispatch_seconds = self.cost.dispatch_seconds
        self._broadcast_cache = {}
        self.op_profiles = []
        if plan.single_node:
            self._participants = [self.provider.initiator()]
        else:
            self._participants = self.provider.participants()
        if not self._participants:
            raise ExecutionError("no participating nodes")
        rows = self._eval_top(plan.root)
        if self._obs is not None and self.stats.total_pushdown_scans:
            self._obs.metrics.counter("engine.pushdown_scans").inc(
                self.stats.total_pushdown_scans
            )
            self._obs.metrics.counter("s3.bytes_scanned").inc(
                self.stats.total_bytes_scanned
            )
        return QueryResult(rows=rows, stats=self.stats, plan=plan)

    # -- initiator-side evaluation ----------------------------------------------

    def _eval_top(self, node: PlanNode) -> RowSet:
        if self._is_fragment_safe(node):
            return self._gather(node)
        if isinstance(node, AggregateNode):
            return self._eval_aggregate(node)
        if isinstance(node, FilterNode):
            rows = self._eval_top(node.child)
            self._charge_initiator(rows.num_rows)
            out = rows.filter(node.predicate.evaluate(rows).astype(bool))
            self._note_op("Filter", self.provider.initiator(), out.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return out
        if isinstance(node, ProjectNode):
            rows = self._eval_top(node.child)
            self._charge_initiator(rows.num_rows)
            self._note_op("Project", self.provider.initiator(), rows.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return _project(rows, node.outputs)
        if isinstance(node, SortNode):
            rows = self._eval_top(node.child)
            self._charge_initiator(rows.num_rows)
            self._note_op("Sort", self.provider.initiator(), rows.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return sort_limit(rows, node.order)
        if isinstance(node, LimitNode):
            stop = None if node.limit is None else node.offset + node.limit
            rows = self._eval_top(node.child)
            return rows.slice(node.offset, stop)
        raise ExecutionError(
            f"unsupported node above aggregation: {type(node).__name__}"
        )

    @staticmethod
    def _is_fragment_safe(node: PlanNode) -> bool:
        """True when the whole subtree can run per-participant and be
        gathered (no aggregation/sort/limit anywhere inside)."""
        from repro.engine.plan import walk

        return not any(
            isinstance(n, (AggregateNode, SortNode, LimitNode)) for n in walk(node)
        )

    def _eval_aggregate(self, node: AggregateNode) -> RowSet:
        strategy = self._effective_strategy(node)
        group = list(node.group_names)
        specs = list(node.specs)
        if strategy == "one_phase":
            parts = [
                aggregate(self._run_fragment(node.child, p), group, specs, "complete")
                for p in self._participants
            ]
            for p, part in zip(self._participants, parts):
                self.stats.node(p).cpu_seconds += part.num_rows * self.cost.row_cpu_seconds
                self._note_op("Aggregate", p, part.num_rows,
                              part.num_rows * self.cost.row_cpu_seconds,
                              detail="one_phase")
            return self._collect(parts)
        if strategy == "two_phase":
            parts = []
            for p in self._participants:
                fragment = self._run_fragment(node.child, p)
                self.stats.node(p).cpu_seconds += (
                    fragment.num_rows * self.cost.row_cpu_seconds
                )
                self._note_op("Aggregate", p, fragment.num_rows,
                              fragment.num_rows * self.cost.row_cpu_seconds,
                              detail="partial")
                parts.append(aggregate(fragment, group, specs, "partial"))
            merged = self._collect(parts)
            self._charge_initiator(merged.num_rows)
            self._note_op("Aggregate", self.provider.initiator(), merged.num_rows,
                          merged.num_rows * self.cost.row_cpu_seconds,
                          detail="final")
            return aggregate(merged, group, specs, "final")
        # gather_complete
        fragments = [self._run_fragment(node.child, p) for p in self._participants]
        gathered = self._collect(fragments)
        self._charge_initiator(gathered.num_rows)
        self._note_op("Aggregate", self.provider.initiator(), gathered.num_rows,
                      gathered.num_rows * self.cost.row_cpu_seconds,
                      detail="gather_complete")
        return aggregate(gathered, group, specs, "complete")

    def _effective_strategy(self, node: AggregateNode) -> str:
        strategy = node.strategy
        if len(self._participants) == 1:
            return "one_phase"  # complete aggregation is exact on one node
        if strategy == "one_phase" and not self.provider.preserves_segmentation:
            has_distinct = any(s.distinct for s in node.specs)
            strategy = (
                "gather_complete" if has_distinct and len(node.specs) > 1 else "two_phase"
            )
        if strategy == "two_phase" and any(s.distinct for s in node.specs) and len(node.specs) > 1:
            strategy = "gather_complete"
        return strategy

    def _gather(self, node: PlanNode) -> RowSet:
        fragments = [self._run_fragment(node, p) for p in self._participants]
        return self._collect(fragments)

    def _collect(self, parts: List[RowSet]) -> RowSet:
        """Concatenate per-node results, charging network for shipping."""
        initiator = self.provider.initiator()
        for participant, part in zip(self._participants, parts):
            if participant != initiator and part.num_rows:
                nbytes = rowset_bytes(part)
                self.stats.network_bytes += nbytes
                self.stats.network_seconds += self.cost.network_seconds(nbytes)
        return RowSet.concat(parts) if parts else RowSet.empty(TableSchema([]))

    def _charge_initiator(self, rows: int) -> None:
        self.stats.initiator_cpu_seconds += rows * self.cost.row_cpu_seconds

    # -- observability hooks -------------------------------------------------------

    def _hint_pushdown(self, node: ScanNode) -> None:
        """Hand the planner's eligibility verdict to providers that care
        (getattr-based so bare test providers need no new surface)."""
        note = getattr(self.provider, "note_scan_eligibility", None)
        if note is not None:
            note(node.pushdown_eligible)

    def _note_op(self, operator: str, node_name: str, rows: int, seconds: float,
                 *, bytes_from_cache: int = 0, bytes_from_shared: int = 0,
                 depot_hits: int = 0, depot_misses: int = 0,
                 s3_requests: int = 0, s3_dollars: float = 0.0,
                 detail: str = "", scan_strategy: str = "") -> None:
        if self._obs is None:
            return
        from repro.obs.profile import OperatorProfile

        self.op_profiles.append(
            OperatorProfile(
                path_id=len(self.op_profiles),
                operator=operator,
                node=node_name,
                rows=rows,
                sim_seconds=seconds,
                bytes_from_cache=bytes_from_cache,
                bytes_from_shared=bytes_from_shared,
                depot_hits=depot_hits,
                depot_misses=depot_misses,
                s3_requests=s3_requests,
                s3_dollars=s3_dollars,
                detail=detail,
                scan_strategy=scan_strategy,
            )
        )

    # -- fragment (per-participant) evaluation -------------------------------------

    def _run_fragment(self, node: PlanNode, participant: str) -> RowSet:
        """Top-level fragment invocation: one traced span per participant.

        The span's duration is the participant's busy-seconds delta, the
        same quantity the cost model folds into query latency — so the
        trace's fragment durations reconcile with ``QueryStats``.
        """
        if self._obs is None:
            return self._eval_fragment(node, participant)
        busy_before = self.stats.node(participant).busy_seconds
        with self._obs.tracer.span("fragment", node=participant) as span:
            rows = self._eval_fragment(node, participant)
            span.duration = self.stats.node(participant).busy_seconds - busy_before
            span.annotate(rows=rows.num_rows)
        return rows

    def _eval_fragment(self, node: PlanNode, participant: str) -> RowSet:
        work = self.stats.node(participant)
        if isinstance(node, ScanNode):
            self._hint_pushdown(node)
            result = self.provider.scan(
                participant,
                node.projection,
                node.columns,
                node.predicate,
                node.replicated,
            )
            work.io_seconds += result.io_seconds
            work.bytes_from_cache += result.bytes_from_cache
            work.bytes_from_shared += result.bytes_from_shared
            work.rows_scanned += result.rows.num_rows + result.pushdown_rows_filtered
            work.containers_scanned += result.containers_scanned
            work.containers_pruned += result.containers_pruned
            work.blocks_pruned += result.blocks_pruned
            work.prefetch_hits += result.prefetch_hits
            work.peer_fetches += result.peer_fetches
            work.coalesced_gets += result.coalesced_gets
            work.pushdown_scans += result.pushdown_scans
            work.bytes_scanned += result.bytes_scanned
            decode_cpu = (
                result.rows.num_rows * len(node.columns) * self.cost.cell_cpu_seconds
            )
            work.cpu_seconds += decode_cpu
            op_seconds = result.io_seconds + decode_cpu
            rows = result.rows
            if node.predicate is not None:
                predicate_cpu = rows.num_rows * self.cost.row_cpu_seconds
                work.cpu_seconds += predicate_cpu
                op_seconds += predicate_cpu
                rows = rows.filter(node.predicate.evaluate(rows).astype(bool))
                work.rows_processed += rows.num_rows
            self._note_op(
                "Scan", participant, rows.num_rows, op_seconds,
                bytes_from_cache=result.bytes_from_cache,
                bytes_from_shared=result.bytes_from_shared,
                depot_hits=result.depot_hits,
                depot_misses=result.depot_misses,
                s3_requests=result.s3_requests,
                s3_dollars=result.s3_dollars,
                detail=node.projection,
                scan_strategy=result.scan_strategy,
            )
            return rows
        if isinstance(node, FilterNode):
            rows = self._eval_fragment(node.child, participant)
            work.cpu_seconds += rows.num_rows * self.cost.row_cpu_seconds
            out = rows.filter(node.predicate.evaluate(rows).astype(bool))
            self._note_op("Filter", participant, out.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return out
        if isinstance(node, ProjectNode):
            rows = self._eval_fragment(node.child, participant)
            work.cpu_seconds += rows.num_rows * self.cost.row_cpu_seconds
            self._note_op("Project", participant, rows.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return _project(rows, node.outputs)
        if isinstance(node, JoinNode):
            return self._eval_join(node, participant)
        raise ExecutionError(
            f"node type {type(node).__name__} cannot appear inside a fragment"
        )

    def _eval_join(self, node: JoinNode, participant: str) -> RowSet:
        work = self.stats.node(participant)
        left = self._eval_fragment(node.left, participant)
        locality = node.locality
        if locality == "local" and not self.provider.preserves_segmentation:
            # Container-split crunch broke co-location; replicated build
            # sides are still safe, segmented ones must be broadcast.
            if not (isinstance(node.right, ScanNode) and node.right.replicated):
                locality = "broadcast"
        if locality == "local":
            right = self._eval_fragment(node.right, participant)
        else:
            right = self._broadcast(node.right, participant)
        out = hash_join(
            left, right, list(node.left_keys), list(node.right_keys), node.how
        )
        join_cpu = (
            (left.num_rows + right.num_rows + out.num_rows) * self.cost.row_cpu_seconds
        )
        work.cpu_seconds += join_cpu
        work.rows_processed += out.num_rows
        self._note_op("Join", participant, out.num_rows, join_cpu,
                      detail=f"{locality} {node.how}")
        return out

    def _broadcast(self, node: PlanNode, participant: str) -> RowSet:
        """Gather a build side once, ship it to every participant."""
        key = id(node)
        if key not in self._broadcast_cache:
            fragments = [self._eval_fragment(node, p) for p in self._participants]
            full = RowSet.concat(fragments)
            nbytes = rowset_bytes(full)
            fanout = max(len(self._participants) - 1, 1)
            self.stats.network_bytes += nbytes * fanout
            self.stats.network_seconds += self.cost.network_seconds(
                nbytes * fanout, messages=fanout
            )
            self._broadcast_cache[key] = full
        return self._broadcast_cache[key]


def _project(rows: RowSet, outputs: Tuple[Tuple[str, Expr], ...]) -> RowSet:
    columns: Dict[str, np.ndarray] = {}
    schema_cols: List[SchemaColumn] = []
    for name, expr in outputs:
        values = expr.evaluate(rows)
        columns[name] = values
        schema_cols.append(SchemaColumn(name, _ctype_of(values)))
    return RowSet(TableSchema(schema_cols), columns)


def _ctype_of(values: np.ndarray):
    from repro.common.types import ColumnType

    kind = values.dtype.kind
    if kind == "O":
        return ColumnType.VARCHAR
    if kind == "f":
        return ColumnType.FLOAT
    if kind == "b":
        return ColumnType.BOOL
    return ColumnType.INT
