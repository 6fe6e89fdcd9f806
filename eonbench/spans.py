"""Span wrappers for the traced run.

The wrappers go around the public entry point of each layer, patched on
the module or class where the caller looks the name up, so the program's
own code is untouched.  A span's *self time* is its duration minus the
time covered by spans it caused (its children on the call stack).  Spans
are folded into per-name totals as they close rather than kept one by
one: a TPC-H pass closes tens of thousands of decode spans.

Install only in the traced run; the end-to-end metrics are measured with
nothing patched.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Per-name self time and call counts for patched entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Summed duration of outermost spans: everything attributed.
        self.attributed_s = 0.0
        self._stack: List[float] = []  # child time of each open span
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Optional[Callable[[Counter, tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(counts, args, result)`` adds layer-specific work counts
        (rows, bytes) after a call returns; every call also bumps
        ``counts[name]``.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        stack = self._stack
        self_s = self.self_s
        counts = self.counts

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[name] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    self.attributed_s += duration
            counts[name] += 1
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_statements(counts: Counter, args: tuple, result) -> None:
    counts["sql.statements"] += len(result)


def _count_join_rows(counts: Counter, args: tuple, result) -> None:
    # hash_join(left, right, ...): right is the build side.
    counts["operators.join_probe_rows"] += args[0].num_rows
    counts["operators.join_build_rows"] += args[1].num_rows


def _count_copy(counts: Counter, args: tuple, report) -> None:
    counts["load.rows"] += report.rows_loaded
    counts["load.containers_written"] += report.containers_written
    counts["load.bytes_written"] += report.bytes_written


def _count_mergeout(counts: Counter, args: tuple, report) -> None:
    counts["mergeout.bytes_read"] += report.bytes_read
    counts["mergeout.bytes_written"] += report.bytes_written


def install(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    import repro.cluster.eon as eon
    import repro.engine.executor as executor
    import repro.load.copy as copy
    import repro.sim.actions as actions
    import repro.storage.column as column
    from repro.cluster.eon import EonCluster
    from repro.io.scheduler import IOScheduler
    from repro.obs.datacollector import DataCollector
    from repro.sim.generator import ScenarioGenerator
    from repro.sim.harness import SimWorld
    from repro.sim.invariants import InvariantRegistry
    from repro.tuple_mover.mergeout import MergeoutCoordinatorService
    from repro.wm.admission import AdmissionController

    wrap = recorder.wrap
    wrap(eon, "parse", "sql.parse_s", _count_statements)
    wrap(eon, "bind_select", "sql.bind_s")
    wrap(eon, "plan_query", "planner.plan_s")
    wrap(executor.Executor, "execute", "executor.execute_s")
    wrap(executor, "hash_join", "operators.hash_join_s", _count_join_rows)
    wrap(executor, "aggregate", "operators.aggregate_s")
    wrap(executor, "sort_limit", "operators.sort_limit_s")
    wrap(executor, "join_match_mask", "operators.join_match_mask_s")
    wrap(column, "decode_block", "storage.decode_s")
    wrap(column, "encode_block", "storage.encode_s")
    wrap(copy, "write_container", "storage.write_container_s")
    wrap(IOScheduler, "fetch_batch", "io.fetch_batch_s")
    wrap(copy, "copy_into", "load.copy_s", _count_copy)
    wrap(EonCluster, "commit", "catalog.commit_s")
    wrap(MergeoutCoordinatorService, "run_all", "mergeout.run_s", _count_mergeout)
    wrap(AdmissionController, "admit", "wm.admit_s")
    wrap(DataCollector, "record", "obs.dc_record_s")
    wrap(ScenarioGenerator, "next_action", "sim.next_action_s")
    for cls in vars(actions).values():
        if (
            isinstance(cls, type)
            and cls.__module__ == actions.__name__
            and "apply" in cls.__dict__
        ):
            wrap(cls, "apply", "sim.apply_s")
    wrap(InvariantRegistry, "check_all", "sim.check_all_s")
    wrap(SimWorld, "fingerprint", "sim.fingerprint_s")
    wrap(EonCluster, "rebalance_subscriptions", "recovery.rebalance_s")
    wrap(EonCluster, "recover_node", "recovery.recover_node_s")
