"""Physical plan nodes.

A plan is a tree executed bottom-up.  Distribution is encoded in node
attributes set by the planner:

* ``ScanNode`` reads one projection's containers for the shards a
  participating node serves;
* ``JoinNode.locality`` is ``"local"`` when both inputs are co-located
  per-node (co-segmented on the join keys, or the build side is
  replicated), else ``"broadcast"`` — the build side is gathered once and
  shipped to every participant;
* ``AggregateNode.strategy`` is ``"one_phase"`` when group keys contain the
  segmentation columns (groups cannot span nodes), else ``"two_phase"``
  (partial per node, final merge on the initiator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.engine.expressions import Expr
from repro.engine.operators import AggregateSpec


@dataclass
class PlanNode:
    """Base plan node; children listed explicitly in subclasses."""

    def children(self) -> List["PlanNode"]:
        return []

    def describe(self, indent: int = 0) -> str:
        lines = ["  " * indent + self._label()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__


@dataclass
class ScanNode(PlanNode):
    table: str
    projection: str
    columns: Tuple[str, ...]
    predicate: Optional[Expr] = None
    #: True when the projection is replicated — only one participant scans.
    replicated: bool = False
    #: Set by the planner when this scan is a candidate for server-side
    #: pushdown (bounded column predicate);
    #: the per-container strategy decision still rests with the cost model.
    pushdown_eligible: bool = False

    def _label(self) -> str:
        pred = f" filter={self.predicate!r}" if self.predicate is not None else ""
        rep = " replicated" if self.replicated else ""
        push = " pushdown-eligible" if self.pushdown_eligible else ""
        return (
            f"Scan {self.table} via {self.projection} "
            f"cols={list(self.columns)}{pred}{rep}{push}"
        )


@dataclass
class FilterNode(PlanNode):
    child: PlanNode
    predicate: Expr

    def children(self) -> List[PlanNode]:
        return [self.child]

    def _label(self) -> str:
        return f"Filter {self.predicate!r}"


@dataclass
class ProjectNode(PlanNode):
    child: PlanNode
    outputs: Tuple[Tuple[str, Expr], ...]  # (name, expression)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def _label(self) -> str:
        return f"Project {[name for name, _ in self.outputs]}"


@dataclass
class JoinNode(PlanNode):
    left: PlanNode
    right: PlanNode
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    how: str = "inner"
    locality: str = "local"  # "local" | "broadcast"

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def _label(self) -> str:
        return (
            f"Join {self.how} on {list(self.left_keys)}={list(self.right_keys)} "
            f"[{self.locality}]"
        )


@dataclass
class AggregateNode(PlanNode):
    child: PlanNode
    group_names: Tuple[str, ...]
    specs: Tuple[AggregateSpec, ...]
    strategy: str = "two_phase"  # "one_phase" | "two_phase"

    def children(self) -> List[PlanNode]:
        return [self.child]

    def _label(self) -> str:
        return (
            f"Aggregate by {list(self.group_names)} "
            f"{[s.output for s in self.specs]} [{self.strategy}]"
        )


@dataclass
class SortNode(PlanNode):
    child: PlanNode
    order: Tuple[Tuple[str, bool], ...]  # (column, ascending)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def _label(self) -> str:
        return f"Sort {list(self.order)}"


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: Optional[int]
    offset: int = 0

    def children(self) -> List[PlanNode]:
        return [self.child]

    def _label(self) -> str:
        suffix = f" offset {self.offset}" if self.offset else ""
        return f"Limit {self.limit}{suffix}"


def walk(plan: PlanNode):
    """Pre-order traversal of a plan tree."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def has_node(plan: PlanNode, node_type: type) -> bool:
    return any(isinstance(n, node_type) for n in walk(plan))
