"""Estimate-vs-actual cardinality feedback across a workload run.

After a traced execution every plan node carries ``estimated_rows``
(from the PR 3 cost model) and ``actual_rows`` (stamped by the
tracer or by ``explain(analyze=True)``).  The per-node *q-error* —
``max(est/actual, actual/est)`` with both sides floored at one row —
is the standard symmetric mis-estimation factor: 1.0 is a perfect
estimate, 10.0 means an order of magnitude off in either direction.

:class:`CardinalityReport` accumulates those per-node observations
over many queries and ranks the worst offenders, which is exactly the
feedback loop Online Sketch-based Query Optimization builds on: the
ranked list tells the cost model *which* operator estimates to
recalibrate first.

This module also closes the loop mechanically:

* :class:`FeedbackProbes` is the lightweight capture path for
  untraced executions under ``EngineConfig.feedback != "off"`` — it
  shadows only the *fingerprinted* plan nodes (scans and join steps
  the planner stamped with ``feedback_fingerprint``) with a pure
  row counter, mirroring the tracer's instance-``__dict__`` wrapping
  and reentrancy guard but skipping all stats snapshots and spans;
* :func:`harvest` walks an executed plan and records every
  ``(fingerprint, est_rows, actual_rows)`` triple into the
  database's :class:`~repro.storage.statistics.FeedbackStatistics`,
  where ``feedback="apply"`` planning later consults it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.engine.operators import PhysicalOperator
from repro.obs.tracer import iter_plan_nodes


class _Probe:
    """Row and execution counter for one wrapped node (active =
    reentrancy depth)."""

    __slots__ = ("rows", "loops", "active")

    def __init__(self) -> None:
        self.rows = 0
        self.loops = 0
        self.active = 0


class FeedbackProbes:
    """Minimal actual-row counters over a plan's fingerprinted nodes.

    Follows the tracer's one-shot, exclusive-per-plan contract (see
    :class:`repro.obs.tracer.Tracer`): install before execution,
    ``finish()`` in a ``finally`` to restore the nodes and stamp
    ``actual_rows``.  When a tracer is live on the plan the probes are
    redundant — the tracer already stamps ``actual_rows`` — so the
    executor installs probes only for untraced feedback runs.
    """

    _SENTINEL = object()

    def __init__(self) -> None:
        # One-shot probe set: exactly one thread executes the wrapped
        # plan (the serving layer serializes via the plan-cache entry
        # lock), so no synchronization is needed.
        self._probes: Dict[int, _Probe] = {}  # unguarded: one-shot probes, single executing thread per plan
        self._nodes: List[PhysicalOperator] = []  # unguarded: one-shot probes, single executing thread per plan

    def install(self, root: PhysicalOperator) -> int:
        """Wrap fingerprinted nodes; returns how many were wrapped."""
        if self._nodes:
            raise RuntimeError("probes already installed; probes are one-shot")
        for node in iter_plan_nodes(root):
            if node.feedback_fingerprint is None:
                continue
            probe = _Probe()
            self._probes[id(node)] = probe
            self._wrap(node, probe)
            self._nodes.append(node)
        return len(self._nodes)

    def _wrap(self, node: PhysicalOperator, probe: _Probe) -> None:
        original_execute = node.execute
        original_batches = node.execute_batches
        original_columnar = node.execute_columnar
        probes = self

        def counted_execute(ctx, _orig=original_execute, _probe=probe):
            return probes._counted_iter(_orig, ctx, _probe, batched=False)

        def counted_batches(ctx, _orig=original_batches, _probe=probe):
            return probes._counted_iter(_orig, ctx, _probe, batched=True)

        def counted_columnar(ctx, _orig=original_columnar, _probe=probe):
            # ColumnBatch defines __len__, so the batched count works.
            return probes._counted_iter(_orig, ctx, _probe, batched=True)

        node.__dict__["execute"] = counted_execute
        node.__dict__["execute_batches"] = counted_batches
        node.__dict__["execute_columnar"] = counted_columnar

    def _counted_iter(self, orig, ctx, probe: _Probe, batched: bool):
        sentinel = self._SENTINEL
        iterator = orig(ctx)
        if probe.active == 0:
            probe.loops += 1
        while True:
            # Only the outermost activation counts rows: the default
            # execute_batches path re-enters execute on the same node
            # (see Tracer._traced_iter for the same guard).
            reentrant = probe.active > 0
            probe.active += 1
            item: Any = sentinel
            try:
                try:
                    item = next(iterator)
                except StopIteration:
                    item = sentinel
            finally:
                probe.active -= 1
            if item is sentinel:
                return
            if not reentrant:
                probe.rows += len(item) if batched else 1
            yield item

    def counter(self, node: PhysicalOperator) -> Optional[_Probe]:
        """The probe counting ``node``'s ``rows`` and ``loops``, if it
        has one (see :meth:`repro.obs.tracer.Tracer.counter`)."""
        return self._probes.get(id(node))

    def finish(self) -> None:
        """Restore wrapped nodes and stamp ``actual_rows``.

        Idempotent; always called from the executor's ``finally`` so
        an error-tripped plan is left clean and re-runnable.
        """
        for node in self._nodes:
            node.__dict__.pop("execute", None)
            node.__dict__.pop("execute_batches", None)
            node.__dict__.pop("execute_columnar", None)
            probe = self._probes[id(node)]
            node.stamp_actual(probe.rows, probe.loops)
        self._nodes = []


def harvest(root: PhysicalOperator, db: Any) -> int:
    """Record a finished plan's estimate→actual pairs into ``db.feedback``.

    Walks the full plan (identity-deduped, including CTE/NLJP
    sub-plans) and records every node carrying a planner-stamped
    ``feedback_fingerprint`` plus both an estimate and a
    tracer/probe-stamped actual.  Scanned base tables that were never
    ANALYZEd additionally get their online sketch statistics warmed,
    so the *next* ``feedback="apply"`` planning of a cold table pays
    nothing.  Returns the number of observations recorded.

    Call only after a *successful* execution: a budget-tripped or
    cancelled run leaves partial row counts that would poison the
    store.
    """
    token = db.feedback_token()
    store = db.feedback
    recorded = 0
    for node in iter_plan_nodes(root):
        fingerprint = node.feedback_fingerprint
        if fingerprint is None:
            continue
        if node.estimated_rows is None or node.actual_rows is None:
            continue
        store.record(
            fingerprint,
            float(node.estimated_rows),
            float(node.actual_rows),
            token=token,
        )
        recorded += 1
        table = getattr(node, "table", None)
        if (
            fingerprint.startswith("scan:")
            and table is not None
            and getattr(table, "statistics", None) is None
            and len(table) > 0
        ):
            table.sketch_statistics()
    return recorded


class CardinalityReport:
    """Ranked estimate-vs-actual mis-estimates across a workload."""

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []
        # Nodes already recorded, by identity.  Holding the node
        # reference (not just its id) prevents id() reuse after GC
        # from silently suppressing a fresh node's observation.
        self._seen: Dict[int, PhysicalOperator] = {}

    def record(self, query_label: str, root: PhysicalOperator) -> int:
        """Collect q-errors from an executed (analyzed/traced) plan.

        Nodes without both an estimate and an actual are skipped —
        a plan run without ``analyze=True``/tracing contributes
        nothing.  Nodes are deduplicated by identity both within one
        plan walk (shared CTE cells, NLJP qb/qr sub-plans) and across
        ``record`` calls, so re-recording an already-seen (cached)
        plan does not double-count.  Returns the number of
        observations added.
        """
        added = 0
        for node in iter_plan_nodes(root):
            if id(node) in self._seen:
                continue
            q_error = node.q_error()
            if q_error is None:
                continue
            self._seen[id(node)] = node
            self.entries.append(
                {
                    "query": query_label,
                    "operator": type(node).__name__,
                    "detail": node.describe()[0].strip(),
                    "est_rows": float(node.estimated_rows),
                    "actual_rows": node.actual_rows,
                    "loops": node.actual_loops or 1,
                    "q_error": round(q_error, 3),
                }
            )
            added += 1
        return added

    def record_planned(self, query_label: str, planned: Any) -> int:
        """Convenience wrapper taking a ``PlannedQuery``."""
        return self.record(query_label, planned.root)

    def worst(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Observations sorted by descending q-error (stable)."""
        ranked = sorted(self.entries, key=lambda e: -e["q_error"])
        return ranked if n is None else ranked[:n]

    def to_dict(self) -> Dict[str, Any]:
        worst = self.worst()
        return {
            "observations": len(self.entries),
            "max_q_error": worst[0]["q_error"] if worst else None,
            "median_q_error": self._median(),
            "worst": worst,
        }

    def _median(self) -> Optional[float]:
        if not self.entries:
            return None
        values = sorted(e["q_error"] for e in self.entries)
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return round((values[mid - 1] + values[mid]) / 2.0, 3)

    def summary(self, n: int = 10) -> str:
        """Human-readable table of the ``n`` worst mis-estimates."""
        worst = self.worst(n)
        if not worst:
            return "cardinality report: no estimate-vs-actual observations"
        header = f"{'q-error':>9}  {'est':>10}  {'actual':>8}  query      operator"
        lines = [
            f"cardinality report: {len(self.entries)} observations, "
            f"median q-error {self._median()}",
            header,
            "-" * len(header),
        ]
        for entry in worst:
            lines.append(
                f"{entry['q_error']:>9.3f}  {entry['est_rows']:>10.1f}  "
                f"{entry['actual_rows']:>8}  {entry['query']:<9}  "
                f"{entry['operator']} [{entry['detail']}]"
            )
        return "\n".join(lines)
