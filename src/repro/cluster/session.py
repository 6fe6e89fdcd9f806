"""Query sessions and the Eon storage provider.

A session (section 4.1) selects, via max flow, a *participating
subscription* per shard: which node serves which shard for this session's
queries.  Sessions also carry the crunch-scaling configuration (section
4.4) when a query should use more nodes than there are shards, and the
subcluster priority (section 4.3) when workload isolation applies.

:class:`EonStorageProvider` adapts a session to the executor's
:class:`StorageProvider` interface: scans fetch this node's shards'
containers through its cache, apply delete vectors, and prune containers
from min/max statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cache.disk_cache import ObjectInfo
from repro.catalog.catalog import CatalogSnapshot
from repro.engine.cost import (
    choose_scan_strategy,
    estimate_pushdown_bytes,
    estimate_selectivity,
)
from repro.engine.executor import ScanResult, StorageProvider
from repro.engine.expressions import Expr, extract_column_bounds
from repro.engine.pruning import prune_containers
from repro.errors import ExecutionError, QueryCancelled
from repro.io.scheduler import FetchRequest
from repro.sharding.shard import REPLICA_SHARD_ID, ShardMap
from repro.storage.container import ROSContainer, RowSet, read_container
from repro.storage.delete_vector import (
    combine_positions,
    mask_from_positions,
    read_delete_vector,
)


@dataclass
class EonSession:
    """One client session's layout over the cluster."""

    cluster: object
    initiator: str
    #: shard -> node chosen by the max-flow selection (ETS subset).
    assignment: Dict[int, str]
    #: shard -> ordered nodes sharing the shard (crunch scaling); length 1
    #: lists are the common, non-crunch case.
    sharing: Dict[int, List[str]]
    crunch: Optional[str]  # None | "hash" | "container"
    snapshots: Dict[str, CatalogSnapshot]
    use_cache: bool = True
    seed: int = 0
    cancelled: bool = False

    def cancel(self) -> None:
        """Request cancellation; scans abort at the next file boundary
        ("users expect their queries to be cancelable, so Vertica cannot
        hang waiting for S3 to respond" — section 5.3)."""
        self.cancelled = True

    def participants(self) -> List[str]:
        seen: List[str] = []
        for nodes in self.sharing.values():
            for node in nodes:
                if node not in seen:
                    seen.append(node)
        if self.initiator not in seen:
            seen.append(self.initiator)
        return seen

    def shards_of(self, node: str) -> List[Tuple[int, int, int]]:
        """(shard, sub_index, share_count) triples this node serves."""
        out = []
        for shard, nodes in self.sharing.items():
            for index, name in enumerate(nodes):
                if name == node:
                    out.append((shard, index, len(nodes)))
        return out

    def release(self) -> None:
        for snapshot in self.snapshots.values():
            snapshot.release()

    def __enter__(self) -> "EonSession":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class EonStorageProvider(StorageProvider):
    """Executor-facing scan interface over an Eon session."""

    def __init__(self, session: EonSession):
        self.session = session
        self.cluster = session.cluster
        cost = getattr(self.cluster.shared, "cost", None)
        #: Dollars per GET on the shared backend (0 for cost-free backends).
        self._get_dollars = cost.get_cost() if cost is not None else 0.0
        #: Pushdown mode (off | auto | on), set by the executor from the
        #: session option; and the planner's per-scan eligibility hint.
        self._pushdown = "off"
        self._scan_eligible = False

    def set_pushdown(self, mode: str) -> None:
        self._pushdown = mode

    def note_scan_eligibility(self, eligible: bool) -> None:
        self._scan_eligible = bool(eligible)

    def participants(self) -> List[str]:
        return self.session.participants()

    def initiator(self) -> str:
        return self.session.initiator

    @property
    def preserves_segmentation(self) -> bool:
        # Hash-filter crunch re-segments by the same columns, preserving
        # co-location; container split does not (section 4.4).
        if self.session.crunch == "container":
            return False
        return True

    def scan(
        self,
        node_name: str,
        projection: str,
        columns: Sequence[str],
        predicate: Optional[Expr],
        replicated: bool,
    ) -> ScanResult:
        session = self.session
        snapshot = session.snapshots[node_name]
        state = snapshot.state
        node = self.cluster.nodes[node_name]
        node.ensure_up()
        shard_map: ShardMap = self.cluster.shard_map

        result = ScanResult(rows=RowSet.empty(_projection_schema(state, projection, columns)))
        parts: List[RowSet] = []
        predicate_bounds = extract_column_bounds(predicate)

        if replicated:
            assignments: List[Tuple[Optional[int], int, int]] = [(REPLICA_SHARD_ID, 0, 1)]
        else:
            assignments = session.shards_of(node_name)

        # Pass 1: resolve each assignment's post-pruning container list and
        # collect the full storage-file set the scan will read.  Handing
        # the whole batch to the I/O scheduler up front is what lets it
        # dedupe, coalesce, and overlap the fetches (see repro.io).  Each
        # container also gets its scan strategy here; pushdown-chosen
        # containers STAY in the fetch batch (as background hydration) so
        # the depot's demand ledger — misses, puts, LRU order, GET
        # requests, fault draws — is bit-identical to a pushdown-off run.
        scheduler = getattr(self.cluster, "io_scheduler", None)
        scan_units: List[tuple] = []
        fetch_requests: List[FetchRequest] = []
        pushdown_keys: Set[str] = set()
        pushdown_items: List[tuple] = []
        ordinal = 0
        for shard_id, sub_index, share_count in assignments:
            containers = state.containers_of(projection, shard_id)
            containers.sort(key=lambda c: str(c.sid))
            kept, pruned = prune_containers(containers, predicate)
            result.containers_pruned += pruned
            if session.crunch == "container" and share_count > 1:
                kept = [c for i, c in enumerate(kept) if i % share_count == sub_index]
            hash_crunch = session.crunch == "hash" and share_count > 1
            read_columns = list(columns)
            seg_cols: Tuple[str, ...] = ()
            if hash_crunch:
                # The secondary hash predicate needs the segmentation
                # columns even when the query does not read them.
                seg_cols = self._segmentation_columns(state, projection)
                read_columns += [c for c in seg_cols if c not in read_columns]
            scan_units.append(
                (kept, hash_crunch, read_columns, seg_cols, share_count, sub_index)
            )
            for container in kept:
                info = self._object_info(state, container)
                dvs = state.delete_vectors_for(str(container.sid))
                strategy = self._container_strategy(
                    node, state, projection, container, read_columns,
                    predicate, predicate_bounds, bool(dvs), scheduler,
                    hash_crunch,
                )
                if strategy == "pushdown":
                    pushdown_keys.add(container.location)
                    pushdown_items.append(
                        (container.location, list(read_columns), predicate)
                    )
                fetch_requests.append(
                    FetchRequest(
                        container.location, container.size_bytes, ordinal, info
                    )
                )
                for dv in dvs:
                    fetch_requests.append(
                        FetchRequest(dv.location, dv.size_bytes, ordinal, info)
                    )
                ordinal += 1

        batch = None
        if scheduler is not None and fetch_requests:
            batch = scheduler.fetch_batch(
                node, fetch_requests, session.use_cache, result,
                cancelled=lambda: session.cancelled,
                background_keys=pushdown_keys or None,
            )
        # Selects run after the batch so the GET request (and fault-draw)
        # sequence is the off-run's sequence, with SELECTs appended.
        selects: Dict[str, object] = {}
        if scheduler is not None and pushdown_items:
            selects = scheduler.pushdown_batch(
                node, pushdown_items, result,
                cancelled=lambda: session.cancelled,
            )

        # Pass 2: scan the containers (bytes come out of the batch; any
        # file the batch does not cover takes the serial fetch path).
        # Pushdown containers take their rows from the select results —
        # already filtered and projected server-side; the executor's
        # post-scan predicate re-application is a no-op on them — but
        # still consume their hydration bytes for prefetch-credit parity.
        for kept, hash_crunch, read_columns, seg_cols, share_count, sub_index in scan_units:
            for container in kept:
                if session.cancelled:
                    raise QueryCancelled(
                        f"session cancelled while scanning {projection!r}"
                    )
                select = selects.get(container.location)
                if select is not None:
                    scheduler.consume(batch, node, container.location, result)
                    rows = select.rows
                    # Parity counters: what the depot path would have booked
                    # for this container (same pruning logic server-side).
                    result.blocks_pruned += select.blocks_pruned
                    result.pushdown_rows_filtered += (
                        select.rows_examined - rows.num_rows
                    )
                else:
                    rows = self._read_container(
                        node, state, container, read_columns, result,
                        predicate_bounds, batch,
                    )
                if hash_crunch and rows.num_rows:
                    hashes = shard_map.hash_rowset(rows, seg_cols)
                    rows = rows.filter(
                        hashes % np.uint64(share_count) == np.uint64(sub_index)
                    )
                if hash_crunch:
                    rows = rows.select(list(columns))
                if rows.num_rows:
                    parts.append(rows)
                result.containers_scanned += 1
        if parts:
            result.rows = RowSet.concat(parts)
        if not session.use_cache:
            result.scan_strategy = "get"
        elif selects:
            result.scan_strategy = "pushdown"
        else:
            result.scan_strategy = "depot"
        return result

    def _container_strategy(
        self,
        node,
        state,
        projection: str,
        container: ROSContainer,
        read_columns: Sequence[str],
        predicate: Optional[Expr],
        predicate_bounds: Optional[dict],
        has_delete_vectors: bool,
        scheduler,
        hash_crunch: bool = False,
    ) -> str:
        """Pick depot / get / pushdown for one container (see
        :func:`repro.engine.cost.choose_scan_strategy` for the table).

        Estimates are only computed on the ``auto`` break-even path:
        scanned bytes from the touched-column fraction of the container,
        returned bytes from interval-overlap selectivity against the
        container's min/max stats.  Serial scans (no I/O scheduler) never
        push down — pushdown rides the scheduler's own lane — and neither
        do hash-crunch shares (the secondary hash split would hide the
        raw row count the parity accounting needs).
        """
        session = self.session
        shared = self.cluster.shared_data
        supports = bool(getattr(shared, "supports_select", False))
        eligible = (
            self._scan_eligible
            and predicate is not None
            and scheduler is not None
            and not hash_crunch
        )
        resident = session.use_cache and node.cache.contains(container.location)
        fetch_seconds = pushdown_seconds = 0.0
        if (
            self._pushdown == "auto"
            and eligible
            and supports
            and not resident
            and session.use_cache
            and not has_delete_vectors
        ):
            proj = state.projections.get(projection)
            if proj is None or not proj.columns:
                # Live-aggregate containers: no base-table column map to
                # estimate against, and their scans carry no predicate.
                return "depot"
            touched = list(dict.fromkeys(read_columns))
            scanned_est = int(
                container.size_bytes * len(touched) / max(1, len(proj.columns))
            )
            selectivity = estimate_selectivity(predicate_bounds or {}, container)
            returned_est = estimate_pushdown_bytes(scanned_est, selectivity)
            pushdown_seconds = shared.estimate_select_seconds(
                scanned_est, returned_est
            )
            fetch_seconds = shared.estimate_read_seconds(container.size_bytes)
        return choose_scan_strategy(
            self._pushdown,
            resident=resident,
            use_cache=session.use_cache,
            has_delete_vectors=has_delete_vectors,
            eligible=eligible,
            supports_select=supports,
            fetch_seconds=fetch_seconds,
            pushdown_seconds=pushdown_seconds,
        )

    # -- internals ---------------------------------------------------------------

    def _segmentation_columns(self, state, projection_name: str) -> Tuple[str, ...]:
        projection = state.projections.get(projection_name)
        if projection is not None:
            return tuple(projection.segmentation.columns)
        lap = state.live_aggs.get(projection_name)
        if lap is not None:
            return tuple(lap.segmentation.columns)
        raise ExecutionError(f"unknown projection {projection_name!r}")

    def _object_info(self, state, container: ROSContainer) -> ObjectInfo:
        projection = state.projections.get(container.projection)
        lap = state.live_aggs.get(container.projection)
        anchor = (
            projection.anchor_table
            if projection is not None
            else (lap.anchor_table if lap is not None else None)
        )
        return ObjectInfo(
            table=anchor,
            projection=container.projection,
            partition_key=container.partition_key,
            shard_id=container.shard_id,
        )

    def _fetch_through_depot(
        self, node, location: str, info, result: ScanResult, batch=None
    ) -> bytes:
        """One file fetch: depot hit/miss and S3 accounting, plus an
        ``s3_get`` span (duration = that request's IO seconds) when the
        cluster's observability is enabled.

        When the scan pre-fetched a batch (``batch`` is set), bytes come
        straight out of it — the scheduler already did all hit/miss/S3
        accounting at fetch time; consuming only books prefetch credit.
        """
        if batch is not None:
            data = self.cluster.io_scheduler.consume(batch, node, location, result)
            if data is not None:
                return data
        obs = self.cluster.obs
        evictions_before = node.cache.stats.evictions if obs.enabled else 0
        data, from_cache, io_seconds = node.fetch_storage(
            location,
            self.cluster.shared_data,
            info=info,
            use_cache=self.session.use_cache,
        )
        result.io_seconds += io_seconds
        if from_cache:
            result.bytes_from_cache += len(data)
            result.depot_hits += 1
        else:
            result.bytes_from_shared += len(data)
            result.depot_misses += 1
            result.s3_requests += 1
            result.s3_dollars += self._get_dollars
            if obs.enabled:
                obs.tracer.record(
                    "s3_get",
                    duration=io_seconds,
                    node=node.name,
                    object=location,
                    nbytes=len(data),
                    evictions=node.cache.stats.evictions - evictions_before,
                )
        return data

    def _read_container(
        self,
        node,
        state,
        container: ROSContainer,
        columns: Sequence[str],
        result: ScanResult,
        predicate_bounds: Optional[dict] = None,
        batch=None,
    ) -> RowSet:
        info = self._object_info(state, container)
        data = self._fetch_through_depot(
            node, container.location, info, result, batch
        )
        reader = read_container(data)
        dvs = state.delete_vectors_for(str(container.sid))

        # Block-level pruning: decode only blocks whose footer min/max
        # could satisfy the predicate (section 2.3's position index).
        # Delete-vector positions are container-absolute, so pruning is
        # only applied to containers without tombstones.
        if predicate_bounds and not dvs:
            block_indices = reader.matching_blocks(predicate_bounds)
            total_blocks = reader.block_count()
            if len(block_indices) < total_blocks:
                result.blocks_pruned += total_blocks - len(block_indices)
                return reader.read_rowset_blocks(list(columns), block_indices)
        rows = reader.read_rowset(list(columns))

        # Apply delete vectors, if any target this container.
        if dvs:
            position_sets = []
            for dv in dvs:
                dv_data = self._fetch_through_depot(
                    node, dv.location, info, result, batch
                )
                position_sets.append(read_delete_vector(dv_data))
            mask = mask_from_positions(
                combine_positions(position_sets), container.row_count
            )
            rows = rows.filter(mask)
        return rows


def _projection_schema(state, projection_name: str, columns: Sequence[str]):
    from repro.common.types import TableSchema

    projection = state.projections.get(projection_name)
    if projection is not None:
        table = state.table(projection.anchor_table)
        return table.schema.subset([c for c in columns])
    lap = state.live_aggs.get(projection_name)
    if lap is not None:
        table = state.table(lap.anchor_table)
        return lap.output_schema(table.schema).subset(list(columns))
    raise ExecutionError(f"unknown projection {projection_name!r}")
