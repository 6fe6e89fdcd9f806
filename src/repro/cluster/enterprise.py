"""Enterprise mode: the shared-nothing baseline (sections 2, 6.1).

Contrasts with Eon everywhere the paper does:

* data lives on node-local disks (modelled as EBS-class volumes — slower
  than instance storage — because Enterprise data must survive instance
  loss, exactly the configuration of the Figure 10 experiment);
* fault tolerance comes from *buddy projections*: each segmented
  projection has a twin whose hash regions map to the next node on the
  logical ring, so when a node is down the optimizer sources the missing
  region from its buddy;
* small loads buffer in the WOS and reach the ROS via moveout;
* a recovering node must *repair*: rebuild its containers from buddies
  with a logical data transfer proportional to its entire data set —
  versus Eon's byte-level cache warm proportional to the working set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.mvcc import op_add_container, op_create_projection, op_create_table, op_drop_container
from repro.catalog.objects import Projection, Segmentation, Table
from repro.catalog.transaction_log import LogRecord
from repro.cluster.node import Node, NodeState
from repro.common.clock import SimClock
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine.cost import CostModel, EngineStats
from repro.engine.executor import Executor, QueryResult, ScanResult, StorageProvider
from repro.engine.expressions import Expr
from repro.engine.planner import plan_query
from repro.engine.pruning import prune_containers
from repro.errors import (
    CatalogError,
    ClusterError,
    NodeDown,
    QuorumLost,
    ShardCoverageLost,
)
from repro.sharding.shard import REPLICA_SHARD_ID, ShardMap
from repro.shared_storage.posix import MemoryFilesystem
from repro.sql.binder import bind_select
from repro.sql.parser import parse
from repro.storage.container import (
    ROSContainer,
    RowSet,
    container_stats,
    read_container,
    write_container,
)
from repro.storage.wos import WOS
from repro.wm.admission import AdmissionController

#: EBS-class volume throughput (bytes/simulated second) for Enterprise
#: node storage; Eon caches sit on faster instance storage.
EBS_READ_BANDWIDTH = 130e6
EBS_WRITE_BANDWIDTH = 110e6


@dataclass
class EnterpriseSession:
    """Region-to-node serving map for one query."""

    region_server: Dict[int, str]  # region -> node serving it
    initiator: str

    def regions_of(self, node: str) -> List[int]:
        return [r for r, n in self.region_server.items() if n == node]


class EnterpriseCluster:
    """Shared-nothing Vertica with buddy projections."""

    def __init__(
        self,
        node_names: Sequence[str],
        execution_slots: int = 4,
        wos_capacity_rows: int = 100_000,
        direct_load_threshold: int = 10_000,
        seed: int = 0,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
    ):
        if len(node_names) < 1:
            raise ValueError("cluster needs at least one node")
        self.rng = random.Random(seed)
        self.clock = clock or SimClock()
        self.cost_model = cost_model or CostModel()
        #: In Enterprise the "shard map" is the fixed node-region layout.
        self.shard_map = ShardMap(len(node_names))
        self.node_order = list(node_names)
        self.nodes: Dict[str, Node] = {}
        for name in node_names:
            node = Node(
                name,
                cache_bytes=0,
                execution_slots=execution_slots,
                rng=random.Random(self.rng.getrandbits(64)),
            )
            node.local_fs.read_bandwidth = EBS_READ_BANDWIDTH
            node.local_fs.write_bandwidth = EBS_WRITE_BANDWIDTH
            node.wos = WOS(wos_capacity_rows)
            self.nodes[name] = node
        self.catalog = Catalog(MemoryFilesystem())
        self.direct_load_threshold = direct_load_threshold
        #: sid -> owning node (each file owned by exactly one node).
        self.container_owner: Dict[str, str] = {}
        self._version = itertools.count(1)
        self._session_counter = itertools.count()
        self.shut_down = False
        #: Workload manager (repro.wm): Enterprise has no subclusters, so
        #: every node lands in the shared ``general`` pool — and every
        #: query takes a slot on every node, the paper's scaling penalty.
        self.admission = AdmissionController(self)
        self.engine_stats = EngineStats()

    # -- membership -------------------------------------------------------------

    def up_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.is_up]

    def region_of_node(self, name: str) -> int:
        return self.node_order.index(name)

    def buddy_node_of_region(self, region: int) -> str:
        """The ring is rotated by one: region r's buddy copy lives on the
        next node (section 2.2)."""
        return self.node_order[(region + 1) % len(self.node_order)]

    def check_viability(self) -> None:
        up = len(self.up_nodes())
        if up * 2 <= len(self.nodes):
            self.shut_down = True
            raise QuorumLost(f"only {up} of {len(self.nodes)} nodes up")
        for region in range(len(self.node_order)):
            base = self.nodes[self.node_order[region]]
            buddy = self.nodes[self.buddy_node_of_region(region)]
            if not base.is_up and not buddy.is_up:
                self.shut_down = True
                raise ShardCoverageLost(
                    f"region {region}: node and buddy both down (K-safety lost)"
                )

    # -- commits (single global catalog) -------------------------------------------

    def _commit(self, ops: List[dict]) -> int:
        record = LogRecord(version=next(self._version), ops=tuple(ops))
        self.catalog.apply_commit(record, persist=False)
        return record.version

    # -- DDL -----------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, ColumnType]],
        partition_by: Optional[str] = None,
        create_super: bool = True,
    ) -> int:
        schema = TableSchema([SchemaColumn(n, t) for n, t in columns])
        ops = [op_create_table(Table(name=name, schema=schema, partition_by=partition_by))]
        if create_super:
            super_proj = Projection(
                name=f"{name}_super",
                anchor_table=name,
                columns=tuple(schema.names),
                sort_order=(schema.names[0],),
                segmentation=Segmentation.by_hash(schema.names[0]),
            )
            ops.append(op_create_projection(super_proj))
            ops.append(op_create_projection(super_proj.make_buddy()))
        return self._commit(ops)

    def create_projection(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        sort_order: Sequence[str],
        segmentation: Segmentation,
    ) -> int:
        state = self.catalog.state
        for existing in state.projections_of(table):
            if state.containers_of(existing.name):
                raise CatalogError(
                    f"cannot add projection to non-empty table {table!r}"
                )
        projection = Projection(
            name=name,
            anchor_table=table,
            columns=tuple(columns),
            sort_order=tuple(sort_order),
            segmentation=segmentation,
        )
        ops = [op_create_projection(projection)]
        if not segmentation.is_replicated:
            ops.append(op_create_projection(projection.make_buddy()))
        return self._commit(ops)

    def drop_projections(self, names: Sequence[str]) -> int:
        """Drop projections (and their buddies) in one commit; refuses to
        drop a table's last non-buddy projection."""
        state = self.catalog.state
        remaining: Dict[str, int] = {}
        to_drop: List[str] = []
        for name in names:
            projection = state.projection(name)
            table = projection.anchor_table
            if table not in remaining:
                remaining[table] = len(
                    [p for p in state.projections_of(table) if not p.is_buddy]
                )
            remaining[table] -= 1
            if remaining[table] < 1:
                raise CatalogError(
                    f"cannot drop {name!r}: it is the last projection of "
                    f"table {table!r}"
                )
            to_drop.append(name)
            for buddy in state.projections_of(table):
                if buddy.is_buddy and buddy.buddy_of == name:
                    to_drop.append(buddy.name)
        from repro.catalog.mvcc import op_drop_projection

        return self._commit([op_drop_projection(n) for n in to_drop])

    def drop_projection(self, name: str) -> int:
        return self.drop_projections([name])

    # -- load ------------------------------------------------------------------------

    def load(self, table_name: str, rows, direct: Optional[bool] = None):
        """COPY: small batches buffer in the WOS, large ones go DIRECT to
        the ROS (section 2.3)."""
        state = self.catalog.state
        table = state.table(table_name)
        if not isinstance(rows, RowSet):
            rows = RowSet.from_rows(table.schema, rows)
        rows = rows.select(table.schema.names)
        if direct is None:
            direct = rows.num_rows >= self.direct_load_threshold
        io_seconds = 0.0
        ops: List[dict] = []
        for projection in state.projections_of(table_name):
            if projection.is_buddy:
                continue
            io_seconds += self._load_projection(projection, rows, direct, ops)
        version = self._commit(ops) if ops else self.catalog.state.version
        # Run moveout opportunistically when the WOS fills up.
        for node in self.up_nodes():
            if node.wos.over_capacity:
                self.moveout(node.name)
        return io_seconds, version

    def _load_projection(
        self, projection: Projection, rows: RowSet, direct: bool, ops: List[dict]
    ) -> float:
        proj_rows = rows.select(list(projection.columns))
        io_seconds = 0.0
        if projection.segmentation.is_replicated:
            targets = {r: proj_rows for r in range(len(self.node_order))}
            replicated = True
        else:
            targets = self.shard_map.split_rowset(
                proj_rows, list(projection.segmentation.columns)
            )
            replicated = False
        for region, part in sorted(targets.items()):
            base_node = self.nodes[self.node_order[region]]
            base_node.ensure_up()
            if direct or replicated:
                io_seconds += self._write_ros(
                    base_node, projection, region if not replicated else REPLICA_SHARD_ID, part, ops
                )
                if not replicated:
                    buddy_node = self.nodes[self.buddy_node_of_region(region)]
                    buddy_node.ensure_up()
                    io_seconds += self._write_ros(
                        buddy_node,
                        self.catalog.state.projection(projection.name + "_b1"),
                        region,
                        part,
                        ops,
                    )
            else:
                base_node.wos.insert(projection.name, part)
                if not replicated:
                    buddy_node = self.nodes[self.buddy_node_of_region(region)]
                    buddy_node.wos.insert(projection.name + "_b1", part)
        return io_seconds

    def _write_ros(
        self,
        node: Node,
        projection: Projection,
        region: int,
        part: RowSet,
        ops: List[dict],
    ) -> float:
        if part.num_rows == 0:
            return 0.0
        sorted_rows = part.sort_by(list(projection.sort_order))
        data = write_container(sorted_rows)
        sid = node.sid_factory.next_sid()
        node.local_fs.write(str(sid), data)
        self.container_owner[str(sid)] = node.name
        mins, maxs = container_stats(sorted_rows)
        ops.append(
            op_add_container(
                ROSContainer(
                    sid=sid,
                    projection=projection.name,
                    shard_id=region,
                    row_count=sorted_rows.num_rows,
                    size_bytes=len(data),
                    min_values=mins,
                    max_values=maxs,
                )
            )
        )
        return node.local_fs.estimate_write_seconds(len(data))

    # -- tuple mover: moveout ------------------------------------------------------------

    def moveout(self, node_name: str) -> int:
        """Convert this node's WOS contents into sorted ROS containers."""
        node = self.nodes[node_name]
        node.ensure_up()
        moved = 0
        ops: List[dict] = []
        for projection_name in list(node.wos.projections()):
            rows = node.wos.drain(projection_name)
            if rows is None or rows.num_rows == 0:
                continue
            projection = self.catalog.state.projection(projection_name)
            if projection.segmentation.is_replicated:
                self._write_ros(node, projection, REPLICA_SHARD_ID, rows, ops)
            else:
                seg_source = (
                    self.catalog.state.projection(projection.buddy_of)
                    if projection.is_buddy
                    else projection
                )
                by_region = self.shard_map.split_rowset(
                    rows, list(seg_source.segmentation.columns)
                )
                for region, part in sorted(by_region.items()):
                    self._write_ros(node, projection, region, part, ops)
            moved += rows.num_rows
        if ops:
            self._commit(ops)
        return moved

    # -- tuple mover: mergeout (per node, independently — section 6.2) ------------------

    def mergeout(self, node_name: str, strata_width: int = 4,
                 base_bytes: int = 4096) -> int:
        """Compact this node's containers.

        "In Enterprise mode, each node runs mergeout independently and
        replicated data will be redundantly merged by multiple nodes" —
        no coordinator, and base/buddy copies are merged separately.
        Returns the number of merge jobs run.
        """
        from repro.storage.container import container_stats as _stats
        from repro.tuple_mover.mergeout import select_mergeout_candidates

        node = self.nodes[node_name]
        node.ensure_up()
        state = self.catalog.state
        mine: Dict[Tuple[str, int, object], List[ROSContainer]] = {}
        for c in state.containers.values():
            if self.container_owner.get(str(c.sid)) == node_name:
                mine.setdefault((c.projection, c.shard_id, c.partition_key), []).append(c)
        jobs_run = 0
        ops: List[dict] = []
        for (projection_name, region, partition_key), containers in sorted(
            mine.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            projection = state.projections.get(projection_name)
            if projection is None:
                continue
            for job in select_mergeout_candidates(
                containers, strata_width=strata_width, base_bytes=base_bytes
            ):
                parts = []
                for container in job:
                    data = node.local_fs.read(container.location)
                    parts.append(read_container(data).read_rowset())
                merged = RowSet.concat(parts).sort_by(list(projection.sort_order))
                image = write_container(merged)
                sid = node.sid_factory.next_sid()
                node.local_fs.write(str(sid), image)
                self.container_owner[str(sid)] = node_name
                mins, maxs = _stats(merged)
                ops.append(op_add_container(ROSContainer(
                    sid=sid, projection=projection_name, shard_id=region,
                    row_count=merged.num_rows, size_bytes=len(image),
                    min_values=mins, max_values=maxs,
                    partition_key=partition_key,
                )))
                for container in job:
                    ops.append(op_drop_container(str(container.sid), region))
                    node.local_fs.delete(container.location)
                    self.container_owner.pop(str(container.sid), None)
                jobs_run += 1
        if ops:
            self._commit(ops)
        return jobs_run

    # -- queries ----------------------------------------------------------------------------

    def create_session(self, seed: Optional[int] = None) -> EnterpriseSession:
        if self.shut_down:
            raise ClusterError("cluster is shut down")
        if seed is None:
            seed = next(self._session_counter)
        region_server: Dict[int, str] = {}
        for region in range(len(self.node_order)):
            base = self.node_order[region]
            if self.nodes[base].is_up:
                region_server[region] = base
            else:
                buddy = self.buddy_node_of_region(region)
                if not self.nodes[buddy].is_up:
                    raise ShardCoverageLost(
                        f"region {region}: node and buddy both down"
                    )
                region_server[region] = buddy
        up = sorted(n.name for n in self.up_nodes())
        if not up:
            raise NodeDown("no nodes up")
        return EnterpriseSession(region_server, initiator=up[seed % len(up)])

    def query(
        self,
        sql: str,
        seed: Optional[int] = None,
        session: Optional[EnterpriseSession] = None,
        ticket=None,
        pushdown: str = "off",
    ) -> QueryResult:
        from collections import Counter

        from repro.sql.ast import Select

        statements = parse(sql)
        if len(statements) != 1 or not isinstance(statements[0], Select):
            raise CatalogError("query() accepts a single SELECT")
        if session is None:
            session = self.create_session(seed=seed)
        own_ticket = None
        if ticket is None and self.admission is not None:
            # Enterprise demand: one slot per region served — every up
            # node, which is exactly why concurrency does not scale out.
            demand = dict(Counter(session.region_server.values()))
            demand.setdefault(session.initiator, 1)
            own_ticket = self.admission.admit(demand, session.initiator)
            ticket = own_ticket
        try:
            with self.catalog.snapshot() as snapshot:
                bound = bind_select(statements[0], snapshot.state)
                plan = plan_query(bound, snapshot.state)
                provider = EnterpriseStorageProvider(self, session, snapshot.state)
                executor = Executor(
                    provider,
                    self.cost_model,
                    # Local-disk provider: ``set_pushdown`` is the ABC no-op,
                    # so the option is accepted for API parity but inert.
                    pushdown=pushdown,
                )
                result = executor.execute(plan)
                self.engine_stats.note(executor.stats)
                if ticket is not None and ticket.queue_wait_seconds:
                    result.stats.dispatch_seconds += ticket.queue_wait_seconds
                return result
        finally:
            if own_ticket is not None:
                self.admission.release(own_ticket)

    # -- elasticity: full redistribution (the paper's anti-pattern) -----------------

    def add_node(self, name: str) -> int:
        """Add a node the Enterprise way: re-segment *everything*.

        "A fixed layout can place related records on the same node ... but
        is inelastic because adjusting the node set requires expensive
        reshuffling of all the stored data" (section 9; also section 8:
        "Enterprise must redistribute the entire data set").  Every
        segmented projection's rows are re-hashed over the new N+1-region
        map and rewritten, base and buddy.  Returns bytes rewritten.
        """
        if name in self.nodes:
            raise ClusterError(f"node {name} already exists")
        # WOS rows are segmented under the old map; flush them first.
        for existing in list(self.nodes):
            if self.nodes[existing].is_up and self.nodes[existing].wos.total_rows:
                self.moveout(existing)
        state = self.catalog.state
        # Snapshot every segmented projection's full contents first.
        contents: Dict[str, RowSet] = {}
        for projection in state.projections.values():
            if projection.is_buddy or projection.segmentation.is_replicated:
                continue
            parts = []
            for container in state.containers_of(projection.name):
                owner = self.container_owner.get(str(container.sid))
                if owner is None or not self.nodes[owner].is_up:
                    continue
                data = self.nodes[owner].local_fs.read(container.location)
                parts.append(read_container(data).read_rowset())
            if parts:
                contents[projection.name] = RowSet.concat(parts)

        node = Node(
            name,
            cache_bytes=0,
            execution_slots=next(iter(self.nodes.values())).execution_slots,
            rng=random.Random(self.rng.getrandbits(64)),
        )
        node.local_fs.read_bandwidth = EBS_READ_BANDWIDTH
        node.local_fs.write_bandwidth = EBS_WRITE_BANDWIDTH
        node.wos = WOS(self.nodes[self.node_order[0]].wos.capacity_rows)
        self.nodes[name] = node
        self.node_order.append(name)
        self.shard_map = ShardMap(len(self.node_order))

        # Drop all old segmented containers and rewrite under the new map.
        ops: List[dict] = []
        for projection_name, rows in contents.items():
            projection = state.projection(projection_name)
            for container in state.containers_of(projection_name):
                self._drop_local(container)
                ops.append(op_drop_container(str(container.sid), container.shard_id))
            buddy_name = projection_name + "_b1"
            for container in state.containers_of(buddy_name):
                self._drop_local(container)
                ops.append(op_drop_container(str(container.sid), container.shard_id))
            by_region = self.shard_map.split_rowset(
                rows, list(projection.segmentation.columns)
            )
            buddy = state.projection(buddy_name)
            for region, part in sorted(by_region.items()):
                base_node = self.nodes[self.node_order[region]]
                self._write_ros(base_node, projection, region, part, ops)
                buddy_node = self.nodes[self.buddy_node_of_region(region)]
                self._write_ros(buddy_node, buddy, region, part, ops)
        # Replicated projections additionally need a copy on the new node.
        for projection in list(state.projections.values()):
            if not projection.segmentation.is_replicated:
                continue
            for container in state.containers_of(projection.name):
                owner = self.container_owner.get(str(container.sid))
                if owner is None or not self.nodes[owner].is_up:
                    continue
                data = self.nodes[owner].local_fs.read(container.location)
                rows = read_container(data).read_rowset()
                self._write_ros(node, projection, REPLICA_SHARD_ID, rows, ops)
                break  # one source copy is enough
        if ops:
            self._commit(ops)
        return sum(
            op["container"]["size_bytes"]
            for op in ops
            if op["op"] == "add_container"
        )

    def _drop_local(self, container: ROSContainer) -> None:
        owner = self.container_owner.pop(str(container.sid), None)
        if owner is not None and owner in self.nodes:
            self.nodes[owner].local_fs.delete(container.location)

    # -- failure & recovery -------------------------------------------------------------------

    def kill_node(self, name: str) -> None:
        self.nodes[name].go_down()
        self.check_viability()

    def recover_node(self, name: str) -> int:
        """Repair-style recovery: rebuild all the node's containers from
        buddies — a logical transfer proportional to the node's entire
        data set (section 6.1).  Returns bytes transferred."""
        node = self.nodes[name]
        if node.is_up:
            raise ClusterError(f"node {name} already up")
        node.state = NodeState.UP
        region = self.region_of_node(name)
        bytes_transferred = 0
        state = self.catalog.state
        ops: List[dict] = []
        for container in list(state.containers.values()):
            if self.container_owner.get(str(container.sid)) != name:
                continue
            projection = (
                state.projections.get(container.projection)
            )
            if projection is None:
                continue
            # Fetch the same rows from the surviving copy.
            source = self._surviving_copy(container, state)
            if source is None:
                raise ShardCoverageLost(
                    f"no surviving copy for container {container.sid}"
                )
            src_node, src_container = source
            data = self.nodes[src_node].local_fs.read(str(src_container.sid))
            rows = read_container(data).read_rowset()
            rebuilt = write_container(rows.sort_by(list(projection.sort_order)))
            new_sid = node.sid_factory.next_sid()
            node.local_fs.write(str(new_sid), rebuilt)
            self.container_owner[str(new_sid)] = name
            del self.container_owner[str(container.sid)]
            bytes_transferred += len(rebuilt)
            mins, maxs = container_stats(rows)
            ops.append(op_drop_container(str(container.sid), container.shard_id))
            ops.append(
                op_add_container(
                    ROSContainer(
                        sid=new_sid,
                        projection=container.projection,
                        shard_id=container.shard_id,
                        row_count=container.row_count,
                        size_bytes=len(rebuilt),
                        min_values=mins,
                        max_values=maxs,
                        partition_key=container.partition_key,
                    )
                )
            )
        if ops:
            self._commit(ops)
        return bytes_transferred

    def _surviving_copy(
        self, container: ROSContainer, state
    ) -> Optional[Tuple[str, ROSContainer]]:
        """Find an up node holding the same region's data for this
        projection family (base <-> buddy)."""
        projection = state.projections.get(container.projection)
        if projection is None:
            return None
        if projection.is_buddy:
            family = [projection.buddy_of]
        else:
            family = [p.name for p in state.projections_of(projection.anchor_table)
                      if p.buddy_of == projection.name]
            if projection.segmentation.is_replicated:
                family = [projection.name]
        for name in family:
            for candidate in state.containers_of(name, container.shard_id):
                owner = self.container_owner.get(str(candidate.sid))
                if owner and self.nodes[owner].is_up:
                    return owner, candidate
        # Replicated projections: any up node's copy of the same projection.
        if projection.segmentation.is_replicated:
            for candidate in state.containers_of(projection.name, container.shard_id):
                owner = self.container_owner.get(str(candidate.sid))
                if owner and self.nodes[owner].is_up and str(candidate.sid) != str(container.sid):
                    return owner, candidate
        return None


class EnterpriseStorageProvider(StorageProvider):
    """Scans node-local containers; a buddy serves a down node's region."""

    def __init__(self, cluster: EnterpriseCluster, session: EnterpriseSession, state):
        self.cluster = cluster
        self.session = session
        self.state = state

    def participants(self) -> List[str]:
        return sorted({n for n in self.session.region_server.values()})

    def initiator(self) -> str:
        return self.session.initiator

    def scan(
        self,
        node_name: str,
        projection: str,
        columns: Sequence[str],
        predicate: Optional[Expr],
        replicated: bool,
    ) -> ScanResult:
        cluster = self.cluster
        node = cluster.nodes[node_name]
        node.ensure_up()
        state = self.state
        schema = self._schema(projection, columns)
        result = ScanResult(rows=RowSet.empty(schema))
        parts: List[RowSet] = []

        if replicated:
            containers = [
                c
                for c in state.containers_of(projection, REPLICA_SHARD_ID)
                if cluster.container_owner.get(str(c.sid)) == node_name
            ]
            self._scan_containers(node, containers, columns, predicate, parts, result)
            wos_rows = node.wos.read(projection)
            if wos_rows is not None:
                parts.append(self._filter(wos_rows.select(list(columns)), predicate))
        else:
            proj_obj = state.projections.get(projection)
            buddy_name = projection + "_b1"
            for region in self.session.regions_of(node_name):
                own_region = cluster.region_of_node(node_name) == region
                use_projection = projection if own_region else buddy_name
                containers = [
                    c
                    for c in state.containers_of(use_projection, region)
                    if cluster.container_owner.get(str(c.sid)) == node_name
                ]
                self._scan_containers(node, containers, columns, predicate, parts, result)
                wos_rows = node.wos.read(use_projection)
                if wos_rows is not None:
                    seg_cols = list(proj_obj.segmentation.columns)
                    mask = cluster.shard_map.shards_of_rowset(wos_rows, seg_cols) == region
                    slice_rows = wos_rows.filter(mask).select(list(columns))
                    parts.append(self._filter(slice_rows, predicate))
        if parts:
            result.rows = RowSet.concat([p for p in parts if p.num_rows] or parts[:1])
        return result

    def _scan_containers(self, node, containers, columns, predicate, parts, result):
        kept, pruned = prune_containers(
            sorted(containers, key=lambda c: str(c.sid)), predicate
        )
        result.containers_pruned += pruned
        for container in kept:
            data = node.local_fs.read(container.location)
            result.io_seconds += node.local_fs.estimate_read_seconds(len(data))
            result.bytes_from_cache += len(data)  # local disk, not S3
            rows = read_container(data).read_rowset(list(columns))
            parts.append(rows)
            result.containers_scanned += 1

    @staticmethod
    def _filter(rows: RowSet, predicate: Optional[Expr]) -> RowSet:
        # WOS rows are filtered here; container predicates are applied by
        # the executor after the scan returns (it re-applies the scan
        # predicate), so returning unfiltered rows is also correct — we
        # filter to keep row counts comparable.
        return rows

    def _schema(self, projection_name: str, columns: Sequence[str]):
        projection = self.state.projections.get(projection_name)
        table = self.state.table(projection.anchor_table)
        return table.schema.subset(list(columns))
