"""Physical operators.

Each operator exposes ``layout`` (the shape of the tuples it yields),
``execute(ctx)`` (an iterator of flat tuples), and ``describe()`` for
EXPLAIN-style plan dumps.  Operators charge their work to
``ctx.stats`` so benchmarks can compare machine-independent work.

The operator set mirrors what the paper's two baseline systems used for
its queries (Appendix E): table scans, indexed nested-loop joins, hash
joins, nested-loop joins, hash aggregation, sort, limit.  The NLJP
operator — the paper's contribution — lives in :mod:`repro.core.nljp`
and composes with these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.aggregates import AggregateSpec, GroupFold, result_rows
from repro.engine.expressions import (
    Compiled,
    columnar_filter,
    columnar_key_columns,
    columnar_key_values,
    columnar_raw_filter,
    columnar_values,
    zone_pruner,
)
from repro.engine.layout import (
    Column,
    ColumnBatch,
    ColumnStore,
    KeyGrouping,
    Layout,
    numpy_or_none,
)
from repro.engine.stats import ExecutionStats
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.table import Table

Row = Tuple[Any, ...]

#: Default chunk size for columnar execution: large enough that
#: per-chunk kernel dispatch amortizes, small enough that zone maps
#: still prune selectively.
DEFAULT_COLUMNAR_BATCH_SIZE = 4096

#: Columnar joins flush accumulated candidate pairs into an output
#: batch once this many are pending, bounding peak memory for
#: high-fanout joins (the skyband join at n=10^4 yields ~5*10^7 pairs).
COLUMNAR_FLUSH_ROWS = 1 << 18

#: Equi-joins emit the pairs of an outer batch in runs of about this
#: many.  What is gathered, filtered and grouped from one run is a
#: dozen arrays of its length alive at once, and at the 2^15-2^17 pairs
#: an outer batch of the served workloads matches that, not the data,
#: was the process's peak: 75.0 MB at 2^15, 72.8 at 2^14, 71.9 at 2^13
#: on ``adhoc_mix`` at equal latency.  A probe row's pairs stay in one
#: run, so a single hot key can exceed it.
COLUMNAR_MATCH_ROWS = 1 << 13


@dataclass
class ExecutionContext:
    """Per-execution state threaded through the operator tree.

    ``batch_size`` is ``None`` in a row context; in a columnar one it
    carries the chunk size (the default when none is given) so nested
    plan executions (subqueries, CTE materializations) cut their
    batches alike.

    ``governor`` is the execution governor
    (:class:`repro.engine.governor.Governor`) enforcing resource
    budgets, cancellation, and fault injection; ``None`` (the default)
    means ungoverned execution and operators skip all checks.
    Governor checks never mutate counters, so a governed run that trips
    nothing is bit-identical to an ungoverned one.

    ``tracer`` follows the same zero-overhead pattern: ``None`` under
    ``EngineConfig.trace="off"``, a :class:`repro.obs.tracer.Tracer`
    otherwise.  Operators that want to report non-iterator events
    (NLJP cache interactions) guard every hook behind a ``None`` check.
    """

    stats: ExecutionStats = field(default_factory=ExecutionStats)
    params: Dict[str, Any] = field(default_factory=dict)
    batch_size: Optional[int] = None
    governor: Optional[Any] = None
    tracer: Optional[Any] = None
    #: The :class:`repro.obs.feedback.FeedbackProbes` counting rows on
    #: this execution's plan (untraced ``feedback="observe"`` runs), or
    #: ``None``.  Like ``tracer`` it is here for code that stands in
    #: for plan nodes without calling their ``execute`` (NLJP's inner
    #: kernel) and must credit them the rows they would have produced.
    probes: Optional[Any] = None
    #: Whether NumPy imports, asked once when the context is made; never
    #: set.  If so, the tree and every nested plan evaluated through
    #: :func:`materialize` / :func:`execute_rows` (subqueries, CTE
    #: cells, NLJP's binding query) carry
    #: :class:`~repro.engine.layout.ColumnBatch` data.
    columnar: bool = field(init=False)
    #: Per-context memo for what one execution builds once and reads
    #: many times: the rows (and columnar image) of shared CTE/derived-
    #: table cells, keyed by cell identity, and the per-execution state
    #: of an inner kernel (index-ordered columns, bound filter, what a
    #: block kernel evaluated ahead).
    #: Keeping it on the context (not the plan) makes a cached plan
    #: re-entrant: two executions of the same PlannedQuery in different
    #: threads each materialize into their own context and can never
    #: observe each other's rows.
    materialized: Dict[Any, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.columnar = numpy_or_none() is not None
        if not self.columnar:
            self.batch_size = None
        elif self.batch_size is None:
            self.batch_size = DEFAULT_COLUMNAR_BATCH_SIZE


def chunked(iterable, size: int) -> Iterator[List[Row]]:
    """Re-chunk any row iterable into lists of at most ``size`` rows."""
    batch: List[Row] = []
    append = batch.append
    for row in iterable:
        append(row)
        if len(batch) >= size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def batch_row_lists(batch: ColumnBatch, size: int) -> Iterator[List[Row]]:
    """Decode a column batch ``size`` rows at a time.

    A batch can be many times ``batch_size`` (an aggregate's whole
    output, a join's run of pairs): decoding it in slices keeps no more
    than ``size`` tuples alive at once.
    """
    for start in range(0, batch.length, size):
        yield batch.slice(start, min(start + size, batch.length)).to_rows()


def execute_rows(plan: "PhysicalOperator", ctx: ExecutionContext) -> Iterator[Row]:
    """Iterate a plan's rows on the context's path."""
    if not ctx.columnar:
        return plan.execute(ctx)
    return itertools.chain.from_iterable(
        rows
        for batch in plan.execute_columnar(ctx)
        for rows in batch_row_lists(batch, ctx.batch_size)
    )


def materialize(plan: "PhysicalOperator", ctx: ExecutionContext) -> List[Row]:
    """Fully evaluate a plan on the context's path."""
    if not ctx.columnar:
        return list(plan.execute(ctx))
    rows: List[Row] = []
    for column_batch in plan.execute_columnar(ctx):
        rows.extend(column_batch.to_rows())
    return rows


class PhysicalOperator:
    """Base class for physical operators.

    Operators implement ``execute`` (row-at-a-time, the reference) and
    may override ``execute_columnar`` (:class:`ColumnBatch` chunks).
    Native columnar paths MUST charge the same ``ctx.stats`` counters
    as their row paths (modulo the zone-map split, see
    :meth:`ExecutionStats.parity_dict`): the paper's shape assertions
    compare work counts, so vectorization may only change wall-clock,
    never work.
    """

    layout: Layout

    #: Planner annotations; ``None`` when the planner had no estimate
    #: (e.g. hand-built NLJP plans).  ``actual_rows`` is filled by
    #: ``PlannedQuery.explain(analyze=True)``, a tracer, or feedback
    #: probes.  A node executed more than once in one query (NLJP's
    #: Q_R, once per binding) records rows *per execution* — the
    #: quantity ``estimated_rows`` predicts — with the number of
    #: executions in ``actual_loops``, as PostgreSQL's EXPLAIN ANALYZE
    #: reports ``rows`` and ``loops``.
    estimated_rows: Optional[float] = None
    estimated_cost: Optional[float] = None
    actual_rows: Optional[float] = None
    actual_loops: Optional[int] = None

    #: Conjunct ASTs consumed by this operator's access method itself
    #: (index probe keys, range bounds, hash-join keys) rather than by
    #: a compiled filter.  Set by the planner; the plan verifier uses
    #: this to prove every logical conjunct is enforced exactly once.
    enforced: Tuple[Any, ...] = ()

    #: Predicate fingerprint stamped by the planner under
    #: ``EngineConfig.feedback="observe"``: it marks the node whose
    #: actual rows the feedback probes count, and keys the node's
    #: (est_rows, actual_rows) pair in the query log's
    #: ``worst_q_errors``.
    feedback_fingerprint: Optional[str] = None

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        raise NotImplementedError

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        """Columnar execution, yielding :class:`ColumnBatch` chunks.

        The default runs ``execute`` and encodes its rows a batch at a
        time — always correct, used by operators whose laziness
        semantics (``Limit``) or output shapes make a native columnar
        path not worth it.  Native overrides must charge the same
        counters as the row path except ``rows_skipped``/
        ``chunks_skipped`` (zone pruning) and ``fused_compilations``;
        see :meth:`ExecutionStats.parity_dict`.
        """
        yield from _bridge_columnar(self, ctx)

    def children(self) -> List["PhysicalOperator"]:
        """Direct child operators (for plan walks and explain-analyze)."""
        found: List[PhysicalOperator] = []
        for name in ("child", "outer", "inner"):
            node = self.__dict__.get(name)
            if isinstance(node, PhysicalOperator):
                found.append(node)
        return found

    def q_error(self) -> Optional[float]:
        """Symmetric cardinality mis-estimation factor.

        ``max(est/actual, actual/est)`` with both sides floored at one
        row; 1.0 is a perfect estimate.  ``None`` until the node has
        both an estimate (planner) and an actual (explain-analyze or a
        traced run).
        """
        if self.estimated_rows is None or self.actual_rows is None:
            return None
        est = max(float(self.estimated_rows), 1.0)
        actual = max(float(self.actual_rows), 1.0)
        return max(est / actual, actual / est)

    def stamp_actual(self, rows: int, loops: int) -> None:
        """Record ``rows`` observed over ``loops`` executions of this node."""
        self.actual_loops = loops
        self.actual_rows = rows if loops <= 1 else round(rows / loops, 1)

    def annotation(self) -> str:
        """Estimate/actual suffix for the node's describe line."""
        parts = []
        if self.estimated_rows is not None:
            parts.append(f"est_rows={self.estimated_rows:.1f}")
        if self.estimated_cost is not None:
            parts.append(f"est_cost={self.estimated_cost:.1f}")
        if self.actual_rows is not None:
            parts.append(f"actual_rows={self.actual_rows}")
        if self.actual_loops is not None and self.actual_loops > 1:
            parts.append(f"loops={self.actual_loops}")
        q_error = self.q_error()
        if q_error is not None:
            parts.append(f"q_err={q_error:.2f}")
        return ("  [" + " ".join(parts) + "]") if parts else ""

    def describe(self) -> List[str]:
        """One line per node, children indented (EXPLAIN-style)."""
        raise NotImplementedError

    def explain(self) -> str:
        return "\n".join(self.describe())

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable plan node, mirroring ``describe``.

        Subclasses with non-operator inputs (materialized cells, NLJP
        sub-plans) extend this with their nested structure so external
        tools and the plan verifier consume structure, not strings.
        """
        node: Dict[str, Any] = {
            "operator": type(self).__name__,
            "detail": self.describe()[0].strip(),
            "columns": [
                f"{alias}.{column}" if alias else column
                for alias, column in self.layout.slots
            ],
        }
        if self.estimated_rows is not None:
            node["estimated_rows"] = round(self.estimated_rows, 3)
        if self.estimated_cost is not None:
            node["estimated_cost"] = round(self.estimated_cost, 3)
        if self.actual_rows is not None:
            node["actual_rows"] = self.actual_rows
        if self.actual_loops is not None and self.actual_loops > 1:
            node["actual_loops"] = self.actual_loops
        q_error = self.q_error()
        if q_error is not None:
            node["q_error"] = round(q_error, 3)
        if self.feedback_fingerprint is not None:
            node["feedback_fingerprint"] = self.feedback_fingerprint
        children = [child.to_dict() for child in self.children()]
        if children:
            node["children"] = children
        return node


def _indent(lines: List[str]) -> List[str]:
    return ["  " + line for line in lines]


def _bridge_columnar(
    plan: "PhysicalOperator", ctx: ExecutionContext
) -> Iterator[ColumnBatch]:
    """Run a subtree row-at-a-time and encode its rows a batch at a time."""
    width = len(plan.layout)
    for batch in chunked(plan.execute(ctx), ctx.batch_size):
        yield ColumnBatch.from_rows(batch, width)


def _columnar_scan(
    store: ColumnStore, predicate: Optional[Compiled], ctx: ExecutionContext
) -> Iterator[ColumnBatch]:
    """Shared columnar scan: fused filtering plus zone-map skipping.

    Chunks the predicate provably cannot match are charged to
    ``rows_skipped``/``chunks_skipped`` instead of ``rows_scanned`` —
    the only counters columnar mode moves (their sum is invariant).
    Pruning is gated on the filter kernel being fused: the row-fallback
    evaluator may raise on rows a pruned chunk would hide, and skipping
    may never change results *or* errors.
    """
    size = ctx.batch_size
    stats = ctx.stats
    params = ctx.params
    governor = ctx.governor
    kernel = columnar_filter(predicate, ctx)
    pruner = None
    if kernel is not None and getattr(kernel, "fused", False):
        pruner = zone_pruner(predicate)
    zones = store.zone_maps(size) if pruner is not None else None
    length = store.length
    for chunk_index, start in enumerate(range(0, length, size)):
        stop = min(start + size, length)
        if zones is not None and pruner(zones[chunk_index], params):
            stats.rows_skipped += stop - start
            stats.chunks_skipped += 1
            if governor is not None:
                governor.check("scan")
            continue
        stats.rows_scanned += stop - start
        if governor is not None:
            governor.check("scan")
        batch = store.batch(start, stop)
        if kernel is not None:
            batch = batch.compress(kernel(batch, params))
        if batch.length:
            yield batch


def _zone_filtered_mask(
    np: Any,
    store: ColumnStore,
    raw: Any,
    predicate: Optional[Compiled],
    ctx: ExecutionContext,
) -> Optional[Any]:
    """Whole-table boolean mask for a pushed inner filter, zone-pruned.

    Index joins evaluate the pushed inner filter eagerly over the full
    table; chunks whose zone maps prove the predicate unmatchable
    contribute all-``False`` without running the kernel.  Only
    ``chunks_skipped`` moves (row mode charges no scan counters for
    index-probed inner rows, so there is no ``rows_scanned`` /
    ``rows_skipped`` budget to rebalance; the parity fold drops
    ``chunks_skipped``).  The kernel runs a chunk at a time with or
    without a pruner, so its temporaries are a chunk's, not the
    table's.  Returns ``None`` when the kernel fails, so callers fall
    back exactly as if no fused kernel existed — with no skips charged.
    """
    params = ctx.params
    pruner = zone_pruner(predicate)
    size = ctx.batch_size
    zones = store.zone_maps(size) if pruner is not None else None
    length = store.length
    parts: List[Any] = []
    skipped = 0
    try:
        for chunk_index, start in enumerate(range(0, length, size)):
            stop = min(start + size, length)
            if zones is not None and pruner(zones[chunk_index], params):
                skipped += 1
                parts.append(np.zeros(stop - start, dtype=bool))
                continue
            parts.append(np.asarray(raw(store.batch(start, stop), params), dtype=bool))
    except Exception:
        return None
    ctx.stats.chunks_skipped += skipped
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def index_ordered_columns(
    store: ColumnStore, index: SortedIndex, positions: Iterable[int]
) -> Dict[int, Column]:
    """Stored columns permuted into ``index`` order, by position.

    Every range probe of the index is then a contiguous ``[start,
    stop)`` slice (:meth:`SortedIndex.range_bounds`) of these columns.
    Only ``positions`` are permuted: a skyband's inner query reads two
    of batting's nine columns.  The gathers are lazy, so a caller that
    asks for every column still pays only for the ones it touches.
    """
    row_ids = store.check_ids(index.row_id_array())
    return {position: store.column(position).take(row_ids) for position in positions}


def _joined_batch(
    np: Any,
    left: Sequence[Column],
    left_idx: Any,
    right: Sequence[Column],
    right_idx: Any,
    residual_kernel: Optional[Any],
    params: Dict[str, Any],
) -> Optional[ColumnBatch]:
    """``left[left_idx] + right[right_idx]`` where the residual holds,
    or ``None`` when it holds nowhere.

    The gathers are lazy: over the candidate pairs only the columns the
    residual reads are built.  The survivors are gathered again from
    the sources by the narrowed indices, so a column read only above
    the join is never built at candidate length.
    """

    def gather(left_idx: Any, right_idx: Any) -> ColumnBatch:
        return ColumnBatch(
            [column.take(left_idx) for column in left]
            + [column.take(right_idx) for column in right],
            len(left_idx),
        )

    combined = gather(left_idx, right_idx)
    if residual_kernel is not None:
        kept = np.flatnonzero(residual_kernel(combined, params))
        if len(kept) < combined.length:
            combined = gather(left_idx[kept], right_idx[kept])
    return combined if combined.length else None


def _emit_pairs(
    np: Any,
    outer_batch: ColumnBatch,
    inner_columns: Sequence[Column],
    outer_positions: List[int],
    inner_position_arrays: List[Any],
    residual_kernel: Optional[Any],
    params: Dict[str, Any],
) -> Optional[ColumnBatch]:
    """Assemble accumulated join candidates into one combined batch.

    ``outer_positions[k]`` pairs with every index in
    ``inner_position_arrays[k]``; output order is outer-major, exactly
    the row-mode enumeration order.  Returns ``None`` when the residual
    filter leaves nothing.
    """
    counts = np.asarray(
        [len(array) for array in inner_position_arrays], dtype=np.int64
    )
    return _joined_batch(
        np,
        outer_batch.columns,
        np.repeat(np.asarray(outer_positions, dtype=np.int64), counts),
        inner_columns,
        np.concatenate(inner_position_arrays),
        residual_kernel,
        params,
    )


def _match_by_key(
    np: Any, keys: Sequence[Any], bucket_of: Any, store: Optional[ColumnStore] = None
) -> List[Tuple[Any, Any]]:
    """``(probe positions, build rows)`` by one lookup per probe key,
    as the single run (none when nothing matched) of a batch; build rows
    an index returned are checked against the ``store`` image they are
    rows of (:meth:`ColumnStore.check_ids`).

    The loop :meth:`KeyGrouping.match` replaces, and its reference:
    kept for the key kinds the array form declines, where only Python's
    own ``==``/``hash`` on the decoded values gives the row path's
    matches.
    """
    probe_idx: List[int] = []
    build_idx: List[int] = []
    for position, key in enumerate(keys):
        bucket = bucket_of(key)
        if bucket:
            probe_idx.extend([position] * len(bucket))
            build_idx.extend(bucket)
    if not probe_idx:
        return []
    build = np.asarray(build_idx, dtype=np.int64)
    if store is not None:
        store.check_ids(build)
    return [(np.asarray(probe_idx, dtype=np.int64), build)]


class TableScan(PhysicalOperator):
    """Sequential scan of a base table, with an optional pushed filter."""

    def __init__(
        self, table: Table, alias: str, predicate: Optional[Compiled] = None
    ) -> None:
        self.table = table
        self.alias = alias
        self.predicate = predicate
        self.layout = Layout([(alias, name) for name in table.schema.column_names])

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        predicate = self.predicate
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        for row in self.table.rows:
            stats.rows_scanned += 1
            if governor is not None:
                governor.check("scan")
            if predicate is None or predicate(row, params) is True:
                yield row

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        yield from _columnar_scan(self.table.column_store(), self.predicate, ctx)

    def describe(self) -> List[str]:
        suffix = " (filtered)" if self.predicate else ""
        return [f"TableScan {self.table.name} AS {self.alias}{suffix}{self.annotation()}"]


class RowsSource(PhysicalOperator):
    """Scan of a materialized row list (CTE or derived table)."""

    def __init__(
        self,
        rows: Sequence[Row],
        columns: Sequence[str],
        alias: str,
        predicate: Optional[Compiled] = None,
        label: str = "materialized",
    ) -> None:
        self.rows = rows
        self.alias = alias
        self.predicate = predicate
        self.label = label
        self.layout = Layout([(alias, name) for name in columns])

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        predicate = self.predicate
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        for row in self.rows:
            stats.rows_scanned += 1
            if governor is not None:
                governor.check("scan")
            if predicate is None or predicate(row, params) is True:
                yield row

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        store = ColumnStore.from_rows(
            self.rows, [column for _, column in self.layout.slots]
        )
        yield from _columnar_scan(store, self.predicate, ctx)

    def describe(self) -> List[str]:
        return [
            f"RowsSource {self.label} AS {self.alias} "
            f"({len(self.rows)} rows){self.annotation()}"
        ]


class Filter(PhysicalOperator):
    """Row filter; keeps rows where the predicate is true."""

    def __init__(self, child: PhysicalOperator, predicate: Compiled, label: str = "") -> None:
        self.child = child
        self.predicate = predicate
        self.label = label
        self.layout = child.layout

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        predicate = self.predicate
        params = ctx.params
        for row in self.child.execute(ctx):
            if predicate(row, params) is True:
                yield row

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        kernel = columnar_filter(self.predicate, ctx)
        assert kernel is not None
        params = ctx.params
        for batch in self.child.execute_columnar(ctx):
            kept = batch.compress(kernel(batch, params))
            if kept.length:
                yield kept

    def describe(self) -> List[str]:
        label = f" [{self.label}]" if self.label else ""
        return [f"Filter{label}{self.annotation()}"] + _indent(self.child.describe())


class NestedLoopJoin(PhysicalOperator):
    """Plain nested-loop join; the inner input is materialized once."""

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        predicate: Optional[Compiled],
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.predicate = predicate
        self.layout = outer.layout.concat(inner.layout)

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        inner_rows = list(self.inner.execute(ctx))
        predicate = self.predicate
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        for outer_row in self.outer.execute(ctx):
            if governor is not None:
                governor.check("join-pair")
            for inner_row in inner_rows:
                stats.join_pairs += 1
                combined = outer_row + inner_row
                if predicate is None or predicate(combined, params) is True:
                    yield combined

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        np = numpy_or_none()
        inner_width = len(self.inner.layout)
        inner_batches = list(self.inner.execute_columnar(ctx))
        inner = ColumnBatch.concat(inner_batches, inner_width)
        n_inner = inner.length
        kernel = columnar_filter(self.predicate, ctx)
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        for outer_batch in self.outer.execute_columnar(ctx):
            if governor is not None:
                governor.check("join-pair")
            stats.join_pairs += outer_batch.length * n_inner
            if n_inner == 0:
                continue
            # Emit the cartesian block in outer-row stripes so peak
            # memory stays bounded by the flush cap.
            stride = max(1, COLUMNAR_FLUSH_ROWS // n_inner)
            for start in range(0, outer_batch.length, stride):
                stop = min(start + stride, outer_batch.length)
                outer_idx = np.repeat(np.arange(start, stop), n_inner)
                inner_idx = np.tile(np.arange(n_inner), stop - start)
                combined = ColumnBatch(
                    list(outer_batch.take(outer_idx).columns)
                    + list(inner.take(inner_idx).columns),
                    len(outer_idx),
                )
                if kernel is not None:
                    combined = combined.compress(kernel(combined, params))
                if combined.length:
                    yield combined

    def describe(self) -> List[str]:
        return (
            [f"NestedLoopJoin{self.annotation()}"]
            + _indent(self.outer.describe())
            + _indent(self.inner.describe())
        )


class HashJoin(PhysicalOperator):
    """Equi-join via a hash table on one input.

    ``outer_key``/``inner_key`` compute the equi-key from each side's
    rows; ``residual`` is evaluated on the concatenated row for any
    extra non-equi conjuncts.  ``build`` selects which input the hash
    table is built on (``"inner"`` or ``"outer"``); the planner picks
    the smaller side.  Output tuples are always ``outer + inner`` and
    ``join_pairs`` counts only key-matching pairs, so the build side
    changes row *order* and memory footprint but never the produced
    multiset of rows or any work counter.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        outer_key: Compiled,
        inner_key: Compiled,
        residual: Optional[Compiled] = None,
        build: str = "inner",
    ) -> None:
        if build not in ("inner", "outer"):
            raise ValueError(f"build must be 'inner' or 'outer', got {build!r}")
        self.outer = outer
        self.inner = inner
        self.outer_key = outer_key
        self.inner_key = inner_key
        self.residual = residual
        self.build = build
        self.layout = outer.layout.concat(inner.layout)

    @staticmethod
    def _null_key(key: Any) -> bool:
        return key is None or (isinstance(key, tuple) and None in key)

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        params = ctx.params
        stats = ctx.stats
        residual = self.residual
        governor = ctx.governor
        buckets: Dict[Any, List[Row]] = {}
        if self.build == "inner":
            for inner_row in self.inner.execute(ctx):
                key = self.inner_key(inner_row, params)
                if self._null_key(key):
                    continue  # NULL keys never match in SQL
                buckets.setdefault(key, []).append(inner_row)
            for outer_row in self.outer.execute(ctx):
                if governor is not None:
                    governor.check("join-pair")
                key = self.outer_key(outer_row, params)
                if self._null_key(key):
                    continue
                for inner_row in buckets.get(key, ()):
                    stats.join_pairs += 1
                    combined = outer_row + inner_row
                    if residual is None or residual(combined, params) is True:
                        yield combined
        else:
            for outer_row in self.outer.execute(ctx):
                key = self.outer_key(outer_row, params)
                if self._null_key(key):
                    continue  # NULL keys never match in SQL
                buckets.setdefault(key, []).append(outer_row)
            for inner_row in self.inner.execute(ctx):
                if governor is not None:
                    governor.check("join-pair")
                key = self.inner_key(inner_row, params)
                if self._null_key(key):
                    continue
                for outer_row in buckets.get(key, ()):
                    stats.join_pairs += 1
                    combined = outer_row + inner_row
                    if residual is None or residual(combined, params) is True:
                        yield combined

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        np = numpy_or_none()
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        build_is_inner = self.build == "inner"
        build_plan = self.inner if build_is_inner else self.outer
        probe_plan = self.outer if build_is_inner else self.inner
        build_key_fn = self.inner_key if build_is_inner else self.outer_key
        probe_key_fn = self.outer_key if build_is_inner else self.inner_key
        build_columns = columnar_key_columns(build_key_fn, ctx)
        probe_columns = columnar_key_columns(probe_key_fn, ctx)
        build_keys = columnar_key_values(build_key_fn, ctx)
        probe_keys = columnar_key_values(probe_key_fn, ctx)
        residual_kernel = columnar_filter(self.residual, ctx)
        build_width = len(build_plan.layout)
        build = ColumnBatch.concat(
            list(build_plan.execute_columnar(ctx)), build_width
        )
        grouping = KeyGrouping.build(build_columns(build, params))
        # The per-key loop's table, built when a batch first needs it.
        buckets: Optional[Dict[Any, List[int]]] = None
        null_key = self._null_key

        def bucket_of(key: Any) -> Optional[List[int]]:
            return None if null_key(key) else buckets.get(key)

        for probe_batch in probe_plan.execute_columnar(ctx):
            if governor is not None:
                governor.check("join-pair")
            runs = None
            if grouping is not None:
                runs = grouping.match(
                    probe_columns(probe_batch, params), COLUMNAR_MATCH_ROWS
                )
            if runs is None:
                if buckets is None:
                    buckets = {}
                    for position, key in enumerate(build_keys(build, params)):
                        if not null_key(key):  # NULL keys never match in SQL
                            buckets.setdefault(key, []).append(position)
                runs = _match_by_key(np, probe_keys(probe_batch, params), bucket_of)
            for probe_idx, build_idx in runs:
                stats.join_pairs += len(probe_idx)
                probe_side = (probe_batch.columns, probe_idx)
                build_side = (build.columns, build_idx)
                outer_side, inner_side = (
                    (probe_side, build_side) if build_is_inner else (build_side, probe_side)
                )
                combined = _joined_batch(
                    np, *outer_side, *inner_side, residual_kernel, params
                )
                if combined is not None:
                    yield combined

    def describe(self) -> List[str]:
        suffix = " (build=outer)" if self.build == "outer" else ""
        suffix += " (+residual)" if self.residual else ""
        return (
            [f"HashJoin{suffix}{self.annotation()}"]
            + _indent(self.outer.describe())
            + _indent(self.inner.describe())
        )


class IndexNestedLoopJoin(PhysicalOperator):
    """Nested-loop join probing a hash index on the inner base table.

    This is the plan PostgreSQL and Vendor A chose for the paper's
    skyband/pairs queries (Appendix E).  ``probe_key`` computes the key
    from the outer row; ``residual`` covers remaining conjuncts and is
    evaluated on outer+inner concatenations.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        table: Table,
        alias: str,
        index: HashIndex,
        probe_key: Compiled,
        residual: Optional[Compiled] = None,
        inner_filter: Optional[Compiled] = None,
    ) -> None:
        self.outer = outer
        self.table = table
        self.alias = alias
        self.index = index
        self.probe_key = probe_key
        self.residual = residual
        self.inner_filter = inner_filter
        inner_layout = Layout([(alias, n) for n in table.schema.column_names])
        self.layout = outer.layout.concat(inner_layout)

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        params = ctx.params
        stats = ctx.stats
        rows = self.table.rows
        residual = self.residual
        inner_filter = self.inner_filter
        governor = ctx.governor
        for outer_row in self.outer.execute(ctx):
            if governor is not None:
                governor.check("join-pair")
            key = self.probe_key(outer_row, params)
            if not isinstance(key, tuple):
                key = (key,)
            stats.index_probes += 1
            for row_id in self.index.lookup(key):
                inner_row = rows[row_id]
                if inner_filter is not None and inner_filter(inner_row, params) is not True:
                    continue
                stats.join_pairs += 1
                combined = outer_row + inner_row
                if residual is None or residual(combined, params) is True:
                    yield combined

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        np = numpy_or_none()
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        store = self.table.column_store()
        rows = self.table.rows
        lookup = self.index.lookup
        # What the hash index holds, as arrays: the table's rows grouped
        # by the index columns, in row order within a key.
        grouping = store.key_grouping(self.index.column_positions)
        probe_columns = columnar_key_columns(self.probe_key, ctx)
        probe_keys = columnar_key_values(self.probe_key, ctx)
        residual_kernel = columnar_filter(self.residual, ctx)
        inner_filter = self.inner_filter
        raw = columnar_raw_filter(inner_filter, ctx)
        mask = None
        mask_pending = raw is not None

        def bucket_of(key: Any) -> Sequence[int]:
            return lookup(key if isinstance(key, tuple) else (key,))

        for outer_batch in self.outer.execute_columnar(ctx):
            if governor is not None:
                governor.check("join-pair")
            stats.index_probes += outer_batch.length
            runs = None
            if grouping is not None:
                runs = grouping.match(
                    probe_columns(outer_batch, params), COLUMNAR_MATCH_ROWS
                )
            if runs is None:
                runs = _match_by_key(np, probe_keys(outer_batch, params), bucket_of, store)
            for outer_idx, inner_ids in runs:
                if inner_filter is not None:
                    if mask_pending:
                        # The pushed inner filter over the whole table
                        # with the bare fused kernel, zone-pruning chunks
                        # it provably cannot match; on first need, as
                        # row mode evaluates it on the first row an
                        # index returns.
                        mask = _zone_filtered_mask(np, store, raw, inner_filter, ctx)
                        mask_pending = False
                    if mask is not None:
                        keep = mask[inner_ids]
                    else:
                        # No fused form (or it raised): the row closure,
                        # and only on rows the index returned — on any
                        # other it could raise errors row mode cannot.
                        keep = np.fromiter(
                            (
                                inner_filter(rows[row_id], params) is True
                                for row_id in inner_ids.tolist()
                            ),
                            dtype=bool,
                            count=len(inner_ids),
                        )
                    outer_idx = outer_idx[keep]
                    inner_ids = inner_ids[keep]
                    if not len(outer_idx):
                        continue
                stats.join_pairs += len(outer_idx)
                combined = _joined_batch(
                    np,
                    outer_batch.columns,
                    outer_idx,
                    store.columns,
                    inner_ids,
                    residual_kernel,
                    params,
                )
                if combined is not None:
                    yield combined

    def describe(self) -> List[str]:
        return [
            f"IndexNestedLoopJoin {self.table.name} AS {self.alias} "
            f"USING {self.index.name}{self.annotation()}"
        ] + _indent(self.outer.describe())


class SortedIndexRangeJoin(PhysicalOperator):
    """Nested-loop join using a sorted index for a range probe.

    Handles join conjuncts of the form ``inner.col <op> f(outer)`` with
    an order comparison, e.g. the skyband condition ``R.h >= L.h``: for
    each outer row the inner side is narrowed to the index range, and
    the residual predicate finishes the job.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        table: Table,
        alias: str,
        index: SortedIndex,
        low: Optional[Compiled],
        high: Optional[Compiled],
        low_strict: bool,
        high_strict: bool,
        residual: Optional[Compiled] = None,
        inner_filter: Optional[Compiled] = None,
    ) -> None:
        self.outer = outer
        self.table = table
        self.alias = alias
        self.index = index
        self.low = low
        self.high = high
        self.low_strict = low_strict
        self.high_strict = high_strict
        self.residual = residual
        self.inner_filter = inner_filter
        inner_layout = Layout([(alias, n) for n in table.schema.column_names])
        self.layout = outer.layout.concat(inner_layout)

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        params = ctx.params
        stats = ctx.stats
        rows = self.table.rows
        residual = self.residual
        inner_filter = self.inner_filter
        governor = ctx.governor
        for outer_row in self.outer.execute(ctx):
            if governor is not None:
                governor.check("join-pair")
            low = self.low(outer_row, params) if self.low is not None else None
            high = self.high(outer_row, params) if self.high is not None else None
            if (self.low is not None and low is None) or (
                self.high is not None and high is None
            ):
                continue  # NULL bound: comparison can never be true
            stats.index_probes += 1
            for row_id in self.index.range_scan(
                low=low, high=high, low_strict=self.low_strict, high_strict=self.high_strict
            ):
                inner_row = rows[row_id]
                if inner_filter is not None and inner_filter(inner_row, params) is not True:
                    continue
                stats.join_pairs += 1
                combined = outer_row + inner_row
                if residual is None or residual(combined, params) is True:
                    yield combined

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        np = numpy_or_none()
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        store = self.table.column_store()
        inner_width = len(self.table.schema.column_names)
        table_rows = self.table.rows
        row_ids = store.check_ids(self.index.row_id_array())
        # Every inner column: the join's output carries them all.
        sorted_columns = list(
            index_ordered_columns(store, self.index, range(inner_width)).values()
        )
        range_bounds = self.index.range_bounds
        low_values = columnar_values(self.low, ctx) if self.low is not None else None
        high_values = columnar_values(self.high, ctx) if self.high is not None else None
        residual_kernel = columnar_filter(self.residual, ctx)
        inner_filter = self.inner_filter
        low_strict = self.low_strict
        high_strict = self.high_strict
        # Pushed inner filter, evaluated once over the table in storage
        # order (so zone maps can skip chunks) and permuted through
        # ``row_ids`` into index order (same caveat as the hash variant:
        # no decode fallback on never-probed rows).
        valid_positions = None
        if inner_filter is not None:
            raw = columnar_raw_filter(inner_filter, ctx)
            if raw is not None:
                table_mask = _zone_filtered_mask(np, store, raw, inner_filter, ctx)
                if table_mask is not None:
                    valid_positions = np.nonzero(table_mask[row_ids])[0]
        for outer_batch in self.outer.execute_columnar(ctx):
            if governor is not None:
                governor.check("join-pair")
            n = outer_batch.length
            lows = (
                low_values(outer_batch, params).tolist()
                if low_values is not None
                else [None] * n
            )
            highs = (
                high_values(outer_batch, params).tolist()
                if high_values is not None
                else [None] * n
            )
            pend_outer: List[int] = []
            pend_positions: List[Any] = []
            pending = 0
            for position in range(n):
                low = lows[position]
                high = highs[position]
                if (low_values is not None and low is None) or (
                    high_values is not None and high is None
                ):
                    continue  # NULL bound: comparison can never be true
                stats.index_probes += 1
                start, stop = range_bounds(
                    low=low, high=high, low_strict=low_strict, high_strict=high_strict
                )
                if stop <= start:
                    continue
                if valid_positions is not None:
                    lo = np.searchsorted(valid_positions, start, side="left")
                    hi = np.searchsorted(valid_positions, stop, side="left")
                    matched = valid_positions[lo:hi]
                elif inner_filter is not None:
                    matched = np.asarray(
                        [
                            index_position
                            for index_position in range(start, stop)
                            if inner_filter(
                                table_rows[row_ids[index_position]], params
                            )
                            is True
                        ],
                        dtype=np.int64,
                    )
                else:
                    matched = np.arange(start, stop, dtype=np.int64)
                count = len(matched)
                if not count:
                    continue
                stats.join_pairs += count
                pend_outer.append(position)
                pend_positions.append(matched)
                pending += count
                if pending >= COLUMNAR_FLUSH_ROWS:
                    combined = _emit_pairs(
                        np,
                        outer_batch,
                        sorted_columns,
                        pend_outer,
                        pend_positions,
                        residual_kernel,
                        params,
                    )
                    pend_outer, pend_positions, pending = [], [], 0
                    if combined is not None:
                        yield combined
            if pend_outer:
                combined = _emit_pairs(
                    np,
                    outer_batch,
                    sorted_columns,
                    pend_outer,
                    pend_positions,
                    residual_kernel,
                    params,
                )
                if combined is not None:
                    yield combined

    def describe(self) -> List[str]:
        return [
            f"SortedIndexRangeJoin {self.table.name} AS {self.alias} "
            f"USING {self.index.name}{self.annotation()}"
        ] + _indent(self.outer.describe())


class IndexPointScan(PhysicalOperator):
    """Scan of a base table narrowed by a hash-index equality probe.

    The probe key is a row-independent compiled expression (constants
    or parameters), re-evaluated per execution — the workhorse of the
    parameterized inner query Q_R(b) when Θ equates inner columns with
    binding values.
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        index: HashIndex,
        probe_key: Compiled,
        residual: Optional[Compiled] = None,
    ) -> None:
        self.table = table
        self.alias = alias
        self.index = index
        self.probe_key = probe_key
        self.residual = residual
        self.layout = Layout([(alias, n) for n in table.schema.column_names])

    def key(self, params: Dict[str, Any]) -> Tuple[Any, ...]:
        """The probe key under ``params``, as the index's key tuple."""
        key = self.probe_key((), params)
        return key if isinstance(key, tuple) else (key,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        params = ctx.params
        stats = ctx.stats
        key = self.key(params)
        stats.index_probes += 1
        rows = self.table.rows
        residual = self.residual
        governor = ctx.governor
        for row_id in self.index.lookup(key):
            stats.rows_scanned += 1
            if governor is not None:
                governor.check("scan")
            row = rows[row_id]
            if residual is None or residual(row, params) is True:
                yield row

    def describe(self) -> List[str]:
        return [
            f"IndexPointScan {self.table.name} AS {self.alias} "
            f"USING {self.index.name}{self.annotation()}"
        ]


class IndexRangeScan(PhysicalOperator):
    """Scan of a base table narrowed by a sorted index range.

    Bounds are row-independent compiled expressions (constants or
    parameters), so this operator serves the parameterized inner query
    Q_R(b): each execution re-evaluates the bounds against the current
    binding parameters.  This is the "Index Scan" in the paper's
    Appendix E plans.
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        index: SortedIndex,
        low: Optional[Compiled],
        high: Optional[Compiled],
        low_strict: bool,
        high_strict: bool,
        residual: Optional[Compiled] = None,
    ) -> None:
        self.table = table
        self.alias = alias
        self.index = index
        self.low = low
        self.high = high
        self.low_strict = low_strict
        self.high_strict = high_strict
        self.residual = residual
        self.layout = Layout([(alias, n) for n in table.schema.column_names])

    def bounds(self, params: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The index range under ``params``, as ``range_scan``/
        ``range_bounds`` keywords; ``None`` for a NULL bound, which no
        row can satisfy."""
        low = self.low((), params) if self.low is not None else None
        high = self.high((), params) if self.high is not None else None
        if (self.low is not None and low is None) or (
            self.high is not None and high is None
        ):
            return None
        return dict(
            low=low, high=high, low_strict=self.low_strict, high_strict=self.high_strict
        )

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        params = ctx.params
        stats = ctx.stats
        bounds = self.bounds(params)
        if bounds is None:
            return
        stats.index_probes += 1
        rows = self.table.rows
        residual = self.residual
        governor = ctx.governor
        for row_id in self.index.range_scan(**bounds):
            stats.rows_scanned += 1
            if governor is not None:
                governor.check("scan")
            row = rows[row_id]
            if residual is None or residual(row, params) is True:
                yield row

    def describe(self) -> List[str]:
        return [
            f"IndexRangeScan {self.table.name} AS {self.alias} "
            f"USING {self.index.name}{self.annotation()}"
        ]


class HashAggregate(PhysicalOperator):
    """Hash-based GROUP BY with aggregate accumulators.

    Output rows are ``key_values + aggregate_results`` in the layout
    given by ``output_layout``; the planner rewrites SELECT/HAVING
    expressions to reference these slots.
    """

    #: What the last columnar execution's :class:`GroupFold` did
    #: (:meth:`GroupFold.describe`), for EXPLAIN; ``None`` before one.
    #: NLJP's kernels set it for the Q_R aggregate they evaluate.
    fold_ran: Optional[str] = None

    def __init__(
        self,
        child: PhysicalOperator,
        key_fns: Sequence[Compiled],
        aggregate_specs: Sequence[AggregateSpec],
        output_layout: Layout,
    ) -> None:
        self.child = child
        self.key_fns = tuple(key_fns)
        self.aggregate_specs = tuple(aggregate_specs)
        self.layout = output_layout

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        groups: Dict[Tuple[Any, ...], List[Any]] = {}
        for row in self.child.execute(ctx):
            stats.aggregation_inputs += 1
            if governor is not None:
                governor.check()
            key = tuple(fn(row, params) for fn in self.key_fns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [spec.new() for spec in self.aggregate_specs]
                groups[key] = accumulators
            for spec, accumulator in zip(self.aggregate_specs, accumulators):
                if spec.argument is None:
                    accumulator.add(1)
                else:
                    accumulator.add(spec.argument(row, params))
        yield from self.result_rows(groups)

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        stats = ctx.stats
        governor = ctx.governor
        fold = self.columnar_fold(ctx)
        for batch in self.child.execute_columnar(ctx):
            stats.aggregation_inputs += batch.length
            if governor is not None:
                governor.check()
            if batch.length:
                fold.add(batch)
        self.fold_ran = fold.describe()
        yield from fold.batches(ctx.batch_size, len(self.layout))

    def columnar_fold(self, ctx: ExecutionContext) -> GroupFold:
        """A :class:`GroupFold` of this aggregate for one execution."""
        return GroupFold(self.key_fns, self.aggregate_specs, ctx)

    def result_rows(self, groups: Dict[Tuple[Any, ...], List[Any]]) -> List[Row]:
        """Output rows for folded ``groups``, in first-seen group order."""
        return result_rows(self.aggregate_specs, bool(self.key_fns), groups)

    def describe(self) -> List[str]:
        lines = [
            f"HashAggregate keys={len(self.key_fns)} "
            f"aggs={len(self.aggregate_specs)}{self.annotation()}"
        ]
        if self.fold_ran is not None:
            lines.append(f"  fold: {self.fold_ran}")
        return lines + _indent(self.child.describe())

    def to_dict(self) -> Dict[str, Any]:
        node = super().to_dict()
        if self.fold_ran is not None:
            node["fold"] = self.fold_ran
        return node


class Project(PhysicalOperator):
    """Compute output expressions; names live in the output layout."""

    def __init__(
        self,
        child: PhysicalOperator,
        output_fns: Sequence[Compiled],
        output_layout: Layout,
    ) -> None:
        self.child = child
        self.output_fns = tuple(output_fns)
        self.layout = output_layout

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        params = ctx.params
        for row in self.child.execute(ctx):
            yield tuple(fn(row, params) for fn in self.output_fns)

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        params = ctx.params
        kernels = [columnar_values(fn, ctx) for fn in self.output_fns]
        for batch in self.child.execute_columnar(ctx):
            if not kernels:
                yield ColumnBatch([], batch.length)
                continue
            yield ColumnBatch(
                [kernel(batch, params) for kernel in kernels], batch.length
            )

    def describe(self) -> List[str]:
        return [f"Project {self.layout!r}{self.annotation()}"] + _indent(
            self.child.describe()
        )


class Distinct(PhysicalOperator):
    """Duplicate elimination preserving first-seen order."""

    def __init__(self, child: PhysicalOperator) -> None:
        self.child = child
        self.layout = child.layout

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        seen = set()
        for row in self.child.execute(ctx):
            if row not in seen:
                seen.add(row)
                yield row

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        # Dedup needs hashable whole rows: decode, filter, re-encode.
        seen: set = set()
        add = seen.add
        width = len(self.layout)
        for batch in self.child.execute_columnar(ctx):
            fresh = []
            for row in batch.to_rows():
                if row not in seen:
                    add(row)
                    fresh.append(row)
            if fresh:
                yield ColumnBatch.from_rows(fresh, width)

    def describe(self) -> List[str]:
        return [f"Distinct{self.annotation()}"] + _indent(self.child.describe())


class Sort(PhysicalOperator):
    """Multi-key sort with PostgreSQL NULL placement.

    Implemented as stable passes from the least-significant key to the
    most significant; ASC puts NULLs last, DESC puts them first (the
    PostgreSQL defaults).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        key_fns: Sequence[Compiled],
        ascending: Sequence[bool],
    ) -> None:
        self.child = child
        self.key_fns = tuple(key_fns)
        self.ascending = tuple(ascending)
        self.layout = child.layout

    def _sort_in_place(self, rows: List[Row], params: Dict[str, Any]) -> None:
        for fn, asc in reversed(list(zip(self.key_fns, self.ascending))):
            rows.sort(
                key=lambda row, fn=fn: ((value := fn(row, params)) is None, value),
                reverse=not asc,
            )

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        rows = list(self.child.execute(ctx))
        self._sort_in_place(rows, ctx.params)
        yield from rows

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        # Sorting compares exact Python values: decode, sort, re-encode.
        rows: List[Row] = []
        for batch in self.child.execute_columnar(ctx):
            rows.extend(batch.to_rows())
        self._sort_in_place(rows, ctx.params)
        width = len(self.layout)
        size = ctx.batch_size
        for chunk in chunked(rows, size):
            yield ColumnBatch.from_rows(chunk, width)

    def describe(self) -> List[str]:
        return [f"Sort keys={len(self.key_fns)}{self.annotation()}"] + _indent(
            self.child.describe()
        )


class Limit(PhysicalOperator):
    """Stop after ``limit`` rows.

    Deliberately keeps the inherited row-at-a-time ``execute_columnar``
    fallback: a native columnar path would pull whole upstream batches
    and charge more work than row mode's early stop, breaking the
    counters-are-invariant guarantee.
    """

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        self.child = child
        self.limit = limit
        self.layout = child.layout

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        remaining = self.limit
        if remaining <= 0:
            return
        for row in self.child.execute(ctx):
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def describe(self) -> List[str]:
        return [f"Limit {self.limit}{self.annotation()}"] + _indent(
            self.child.describe()
        )


class CountOutput(PhysicalOperator):
    """Transparent pass-through that counts final output rows."""

    def __init__(self, child: PhysicalOperator) -> None:
        self.child = child
        self.layout = child.layout

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        for row in self.child.execute(ctx):
            ctx.stats.rows_output += 1
            yield row

    def execute_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        stats = ctx.stats
        for batch in self.child.execute_columnar(ctx):
            stats.rows_output += batch.length
            yield batch

    def describe(self) -> List[str]:
        return self.child.describe()
