"""The inner kernel: a select-aggregate over one scan, run on columns.

NLJP (:mod:`repro.core.nljp`) evaluates its inner query Q_R(b) once per
binding — hundreds to tens of thousands of times per statement.  The
paper ran Q_R as a PostgreSQL prepared statement; re-entering the
operator tree per binding copies that literally and pays closure-tree
predicates per inner row (row mode) or generator dispatch per operator
(batch mode) every time.  One binding's Q_R is a select-aggregate over
one relation, and the slice of the relation it reads has the same shape
for every binding, so when the planned Q_R is

    ``Project ← HashAggregate ← scan``

with the scan a :class:`TableScan`, ``MaterializedScan`` (CTE),
:class:`IndexRangeScan` or :class:`IndexPointScan`, :func:`lower_inner`
builds an :class:`InnerKernel` that evaluates one binding as

1. the scan's *access path* on NumPy columns — a contiguous
   ``[start, stop)`` slice of the columns permuted once per execution
   into index order (:func:`index_ordered_columns`), the hash bucket of
   a point probe, or the whole column store;
2. the scan's predicate through the existing fused columnar filter
   (:func:`repro.engine.expressions.columnar_filter`: parameters are
   hoisted scalars, NULLs are validity masks);
3. the aggregate through :meth:`HashAggregate.columnar_fold` — NumPy
   reductions where they are exact, the operator's own accumulators in
   row order where they are not — and the projection through the
   :class:`Project`'s closures over the one or few output rows.

The kernel is used identically in every execution mode and charges
exactly what the tree charges per evaluation (see :meth:`InnerKernel.
run`), so every work counter, pruning decision and result row is the
tree's.  A Q_R of any other shape, a predicate with no fused filter, or
a process without NumPy keeps the operator tree.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.sql import ast
from repro.engine import operators as ops
from repro.engine.expressions import Compiled, columnar_filter, columnar_raw_filter
from repro.engine.layout import Column, ColumnBatch, numpy_or_none
from repro.engine.planner import _MaterializedScan

_FULL_SCANS = (ops.TableScan, _MaterializedScan)
_INDEX_SCANS = (ops.IndexRangeScan, ops.IndexPointScan)


def _positions(fn: Optional[Compiled]) -> FrozenSet[int]:
    """Layout positions a compiled expression reads."""
    if fn is None:
        return frozenset()
    layout = fn._compiler._layout  # type: ignore[attr-defined]
    return frozenset(
        layout.resolve(ref.table, ref.column)
        for ref in ast.column_refs(fn._expr)  # type: ignore[attr-defined]
    )


def _sparse_batch(width: int, columns: Dict[int, Column], length: int) -> ColumnBatch:
    """A batch of ``width`` slots holding only ``columns``.

    Generated kernels address columns by layout position, so the batch
    keeps the scan's width; positions nobody reads share one lazy
    all-NULL column that is never materialized.
    """
    if not columns:
        return ColumnBatch((), length)  # nothing is read but the length
    absent = Column.const(None, length)
    return ColumnBatch([columns.get(p, absent) for p in range(width)], length)


class _Execution:
    """What a kernel builds once per execution and reads per binding."""

    __slots__ = (
        "np",
        "columns",
        "batch",
        "filter",
        "fold",
        "scan_counters",
        "output_counters",
    )

    def __init__(
        self,
        np: Any,
        columns: Dict[int, Column],
        batch: Optional[ColumnBatch],
        filter: Any,
        fold: Any,
        scan_counters: List[Any],
        output_counters: List[Any],
    ) -> None:
        self.np = np
        self.columns = columns
        self.batch = batch  # full scans only: the same rows for every binding
        self.filter = filter
        self.fold = fold
        #: The tracer's spans / feedback probes' counters for the nodes
        #: the kernel stands in for: credited rows and one loop per run.
        self.scan_counters = scan_counters
        self.output_counters = output_counters


class InnerKernel:
    """One planned ``Project ← HashAggregate ← scan``, run on columns.

    Immutable after construction, so a cached plan's kernel is shared
    by concurrent executions; everything an execution builds (permuted
    columns, the bound filter and fold) lives in ``ctx.materialized``.
    """

    def __init__(
        self,
        project: ops.Project,
        aggregate: ops.HashAggregate,
        scan: ops.PhysicalOperator,
    ) -> None:
        self.project = project
        self.aggregate = aggregate
        self.scan = scan
        self.predicate: Optional[Compiled] = (
            scan.predicate if isinstance(scan, _FULL_SCANS) else scan.residual
        )
        self.width = len(scan.layout)
        #: Positions the aggregate reads (keys and arguments), and those
        #: plus the predicate's: the only columns ever built or sliced.
        self.aggregate_positions = frozenset().union(
            *(_positions(fn) for fn in aggregate.key_fns),
            *(_positions(spec.argument) for spec in aggregate.aggregate_specs),
        )
        self.positions = self.aggregate_positions | _positions(self.predicate)

    def describe(self) -> str:
        scan = self.scan
        if isinstance(scan, _MaterializedScan):
            return f"MaterializedScan {scan.cell.label}"
        source = scan.index.name if isinstance(scan, _INDEX_SCANS) else scan.table.name
        return f"{type(scan).__name__} {source}"

    # ------------------------------------------------------------------
    def _bind(self, ctx: ops.ExecutionContext) -> _Execution:
        np = numpy_or_none()
        scan = self.scan
        if isinstance(scan, _MaterializedScan):
            store = scan.cell.column_store(ctx)
        else:
            store = scan.table.column_store()
        if isinstance(scan, ops.IndexRangeScan):
            columns = ops.index_ordered_columns(store, scan.index, self.positions)
        else:
            columns = {p: store.column(p) for p in self.positions}
        for column in columns.values():
            column.values()  # permute and decode strings once, not per binding
        batch = None
        if isinstance(scan, _FULL_SCANS):
            batch = _sparse_batch(self.width, columns, store.length)
        recorders = [r for r in (ctx.tracer, ctx.probes) if r is not None]

        def counters(*nodes: ops.PhysicalOperator) -> List[Any]:
            found = (recorder.counter(node) for recorder in recorders for node in nodes)
            return [counter for counter in found if counter is not None]

        return _Execution(
            np,
            columns,
            batch,
            columnar_filter(self.predicate, ctx),
            self.aggregate.columnar_fold(np, ctx),
            counters(scan),
            counters(self.aggregate, self.project),
        )

    def _access(
        self, execution: _Execution, ctx: ops.ExecutionContext
    ) -> Optional[Tuple[int, Dict[int, Column]]]:
        """``(row count, columns)`` the scan's access path reads, charged
        as the scan charges it.

        ``None`` for a NULL range bound: the scan returns before it
        probes, so nothing is charged.
        """
        scan = self.scan
        stats = ctx.stats
        params = ctx.params
        columns = execution.columns
        if execution.batch is not None:
            stats.rows_scanned += execution.batch.length
            return execution.batch.length, columns
        if isinstance(scan, ops.IndexRangeScan):
            bounds = scan.bounds(params)
            if bounds is None:
                return None
            stats.index_probes += 1
            start, stop = scan.index.range_bounds(**bounds)
            stats.rows_scanned += stop - start
            return stop - start, {
                p: column.slice(start, stop) for p, column in columns.items()
            }
        stats.index_probes += 1
        row_ids = scan.index.lookup(scan.key(params))
        stats.rows_scanned += len(row_ids)
        if row_ids and columns:
            ids = execution.np.asarray(row_ids, dtype=execution.np.int64)
            columns = {p: column.take(ids) for p, column in columns.items()}
        return len(row_ids), columns

    def run(self, ctx: ops.ExecutionContext) -> List[Tuple[Any, ...]]:
        """Q_R's rows for the binding in ``ctx.params``.

        Charges what the tree charges for one evaluation:
        ``index_probes`` += 1 and ``rows_scanned`` += the range or
        bucket length for an index scan, the relation length for a full
        scan; ``aggregation_inputs`` += rows passing the predicate; one
        ``governor.check("scan")``, as the batch path makes.
        """
        execution = ctx.materialized.get(self)
        if execution is None:
            execution = ctx.materialized[self] = self._bind(ctx)
        params = ctx.params
        access = self._access(execution, ctx)
        groups: Dict[Tuple[Any, ...], List[Any]] = {}
        passing = 0
        if access is not None:
            if ctx.governor is not None:
                ctx.governor.check("scan")
            passing, columns = access
            batch = execution.batch
            if passing and execution.filter is not None:
                np = execution.np
                if batch is None:
                    batch = _sparse_batch(self.width, columns, passing)
                mask = execution.filter(batch, params)
                passing = int(np.count_nonzero(mask))
                if 0 < passing < batch.length:
                    kept = np.flatnonzero(mask)
                    columns = {p: columns[p].take(kept) for p in self.aggregate_positions}
                    batch = None
            ctx.stats.aggregation_inputs += passing
            if passing:
                if batch is None:
                    batch = _sparse_batch(self.width, columns, passing)
                execution.fold(batch, groups)
        output_fns = self.project.output_fns
        rows = [
            tuple(fn(row, params) for fn in output_fns)
            for row in self.aggregate.result_rows(groups)
        ]
        for counter in execution.scan_counters:
            counter.loops += 1
            counter.rows += passing
        for counter in execution.output_counters:
            counter.loops += 1
            counter.rows += len(rows)
        return rows


def lower_inner(plan: ops.PhysicalOperator) -> Tuple[Optional[InnerKernel], str]:
    """``(kernel, "")`` for a scan-shaped Q_R, else ``(None, why not)``."""
    if numpy_or_none() is None:
        return None, "NumPy unavailable"
    if not isinstance(plan, ops.Project):
        return None, f"{type(plan).__name__} above the projection"
    aggregate = plan.child
    if not isinstance(aggregate, ops.HashAggregate):
        return None, f"{type(aggregate).__name__} under the projection"
    scan = aggregate.child
    if isinstance(scan, ops.Filter):
        return None, "filter above the scan"
    if not isinstance(scan, _FULL_SCANS + _INDEX_SCANS):
        return None, f"join-shaped Q_R: {type(scan).__name__}"
    kernel = InnerKernel(plan, aggregate, scan)
    if kernel.predicate is not None and columnar_raw_filter(kernel.predicate) is None:
        return None, "predicate has no fused filter"
    return kernel, ""
