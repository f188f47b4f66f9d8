"""The inner kernels: NLJP's select-aggregate Q_R, run on columns.

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
tree's.

A Q_R with a join in it -- ``Project ← HashAggregate ←`` a left-deep
chain of index and hash joins over one scan -- reads a dozen rows per
binding through three or four operators, so there the cost is entering
the tree at all.  :func:`lower_inner` gives it a :class:`BlockKernel`,
which computes Q_R for a *block* of bindings at once, the block a
relation joined to the inner tables by the columnar joins' own array
matching, and hands NLJP one binding's rows and charges at a time (the
second half of this module).  A Q_R of any other shape, a predicate
with no fused filter, or a process without NumPy keeps the operator
tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.sql import ast
from repro.engine import operators as ops
from repro.engine.expressions import (
    Compiled,
    ExpressionCompiler,
    columnar_filter,
    columnar_key_columns,
    columnar_key_values,
    columnar_raw_filter,
)
from repro.engine.layout import (
    Column,
    ColumnBatch,
    KeyGrouping,
    Layout,
    numpy_or_none,
    span_pairs,
)
from repro.engine.planner import _MaterializedScan
from repro.storage.index import HashIndex

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

    blockwise = False

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


# ---------------------------------------------------------------------------
# Q_R over a join, a block of bindings at a time
# ---------------------------------------------------------------------------

#: Alias and row-number column of the block of bindings in a rebound
#: layout; a binding parameter ``:b_x`` is its column ``":b_x"``.  None
#: of these can be spelled as an SQL identifier.
_BLOCK = "$block"
_ROW = "$row"

#: Columns of a block's work table (binding x node x these).
_PROBES, _SCANNED, _PAIRS, _ROWS = range(4)


class BlockDeclined(Exception):
    """Why a join-shaped Q_R, or one block of it, keeps the operator tree."""


def _run_rows() -> int:
    """Pairs to a run.  A block's scan, joins and fold each hold a run
    at once where a columnar join holds one, so a run here is a quarter
    of ``COLUMNAR_MATCH_ROWS`` -- read when called, as tests lower it."""
    return max(1, ops.COLUMNAR_MATCH_ROWS // 4)


def _tuple_lookup(index: HashIndex):
    """``index.lookup`` for keys as a key evaluator decodes them."""
    lookup = index.lookup
    return lambda key: lookup(key if isinstance(key, tuple) else (key,))


def _number_column(np: Any, numbers: Any) -> Column:
    column = Column("i8", len(numbers))
    column.data = numbers
    return column


@dataclass(slots=True)
class _Evaluation:
    """Q_R of one binding, computed ahead of its turn: the aggregate's
    rows and, node by node, what the tree charges the evaluation."""

    rows: List[Tuple[Any, ...]]
    #: node x (probes, scanned, pairs, rows): a view of its block's table.
    work: Any


@dataclass(slots=True)
class _Scan:
    """A scan over the block: the chain's leaf or a hash join's inner.

    ``relation`` is its place among the chain's relations and ``slot``
    its node's row of the work table; ``key`` is a point scan's probe
    key and ``predicate`` what it filters by, both rebound.
    """

    node: ops.PhysicalOperator
    relation: int
    slot: int
    key: Optional[Compiled]
    predicate: Optional[Compiled]


@dataclass(slots=True)
class _IndexJoin:
    """One :class:`IndexNestedLoopJoin` of the chain, over the block.

    ``probes`` are the ways to find a run's candidate pairs, best
    first: ``(index, key, filter)``, ``key`` evaluated on the outer
    rows and ``filter`` on the candidates.  An equality between an
    inner column and a binding is a filter to the tree (one binding,
    one constant) and a join key here, so the first probe may use a
    wider index than the plan's and have less to filter; the last is
    the plan's own.
    """

    node: ops.IndexNestedLoopJoin
    relation: int
    slot: int
    probes: List[Tuple[HashIndex, Compiled, Optional[Compiled]]]
    residual: Optional[Compiled]


@dataclass(slots=True)
class _HashJoin:
    """One :class:`HashJoin` of the chain, its ``scan`` the inner side."""

    node: ops.HashJoin
    relation: int
    slot: int
    scan: _Scan
    outer_key: Compiled
    inner_key: Compiled
    residual: Optional[Compiled]


@dataclass(slots=True)
class _BlockExecution:
    """What a block kernel builds once per execution."""

    np: Any
    stores: List[Any]  # per relation of the chain
    fold: Any
    #: Per node (work-table order): the tracer's spans / feedback
    #: probes' counters.
    counters: List[List[Any]]
    #: binding -> [evaluation, uses left], filled a block ahead of the
    #: loop.  A result is a pure function of binding and data version,
    #: so it stays good for the whole execution.
    prefetched: Dict[Tuple[Any, ...], List[Any]] = field(default_factory=dict)


class BlockKernel:
    """One planned ``Project <- HashAggregate <- left-deep chain of index
    and hash joins over a scan``, evaluated for a block of bindings at
    once.

    The block is a relation -- ``:b_x`` a column, the binding's number
    the leading group key -- joined to the inner tables by the
    :class:`~repro.engine.layout.KeyGrouping` runs and fused filters the
    columnar operators use, so what is in flight is one run of pairs,
    never the block's whole join.  :meth:`prefetch` charges nothing: it
    attributes to every binding what the tree would charge for its
    evaluation (``np.bincount`` on the binding number), and :meth:`run`
    charges a binding's share when the loop consumes it, so a
    statement's counters are the tree's whatever was computed ahead.  A
    binding's rows keep the tree's order (probe order, then bucket
    order), which makes first-seen group order and float sums the
    tree's bit for bit.  Immutable, like :class:`InnerKernel`; an
    execution's state lives in ``ctx.materialized``.
    """

    blockwise = True

    def __init__(
        self,
        project: ops.Project,
        aggregate: ops.HashAggregate,
        chain: Sequence[ops.PhysicalOperator],
        names: Sequence[str],
    ) -> None:
        self.project = project
        self.aggregate = aggregate
        self.names = tuple(names)
        self._block_layout = Layout(
            [(_BLOCK, _ROW)] + [(_BLOCK, ":" + name) for name in self.names]
        )
        #: The plan's nodes in work-table order, and for each but the
        #: projection what its batch path asks the governor: ``(site,
        #: slot of the node whose rows it is handed a batch at a time)``
        #: -- no slot for a scan, no site for the aggregate.
        self.nodes: List[ops.PhysicalOperator] = []
        self._checks: List[Tuple[Optional[str], Optional[int]]] = []
        self._leaf = self._lower_scan(chain[0], 0)
        self._joins: List[Any] = []
        for relation, join in enumerate(chain[1:], 1):
            fed = self._joins[-1].slot if self._joins else self._leaf.slot
            if isinstance(join, ops.IndexNestedLoopJoin):
                self._joins.append(self._lower_index_join(join, relation, fed))
            else:
                self._joins.append(self._lower_hash_join(join, relation, fed))
        fed = self._joins[-1].slot
        self.nodes += [aggregate, project]
        self._checks.append((None, fed))
        below = aggregate.child.layout
        row = ExpressionCompiler(below.concat(self._block_layout)).compile(
            ast.ColumnRef(_BLOCK, _ROW)
        )
        #: The aggregate with the binding's number as leading group key.
        self._aggregate = ops.HashAggregate(
            aggregate.child,
            [row] + [self._rebind(fn, below) for fn in aggregate.key_fns],
            [
                replace(spec, argument=self._rebind(spec.argument, below))
                for spec in aggregate.aggregate_specs
            ],
            aggregate.layout,
        )
        self._fold_positions = frozenset().union(
            *(_positions(fn) for fn in self._aggregate.key_fns),
            *(_positions(spec.argument) for spec in self._aggregate.aggregate_specs),
        )

    # -- lowering ------------------------------------------------------
    def _slot(self, node: ops.PhysicalOperator, site: str, fed: Optional[int]) -> int:
        self.nodes.append(node)
        self._checks.append((site, fed))
        return len(self.nodes) - 1

    def _rebind(
        self, fn: Optional[Compiled], layout: Layout, filter: bool = False
    ) -> Optional[Compiled]:
        """``fn`` compiled again over ``layout`` plus the block's
        columns, every binding parameter read as a column."""
        if fn is None:
            return None
        expr = fn._expr  # type: ignore[attr-defined]
        if any(
            isinstance(node, (ast.InSubquery, ast.ExistsSubquery))
            for node in ast.walk(expr)
        ):
            raise BlockDeclined("subquery in a predicate")
        names = self.names

        def as_column(node: Any) -> Any:
            if isinstance(node, ast.Parameter) and node.name in names:
                return ast.ColumnRef(_BLOCK, ":" + node.name)
            return node

        rebound = ExpressionCompiler(layout.concat(self._block_layout)).compile(
            ast.transform(expr, as_column)
        )
        if filter and columnar_raw_filter(rebound) is None:
            raise BlockDeclined("predicate has no fused filter")
        return rebound

    def _lower_scan(self, scan: ops.PhysicalOperator, relation: int) -> _Scan:
        key = None
        if isinstance(scan, ops.IndexPointScan):
            key = self._rebind(scan.probe_key, Layout(()))
        predicate = scan.predicate if isinstance(scan, _FULL_SCANS) else scan.residual
        return _Scan(
            scan,
            relation,
            self._slot(scan, "scan", None),
            key,
            self._rebind(predicate, scan.layout, filter=True),
        )

    def _lower_index_join(
        self, join: ops.IndexNestedLoopJoin, relation: int, fed: int
    ) -> _IndexJoin:
        inner = Layout([(join.alias, name) for name in join.table.schema.column_names])
        probes = [
            (
                join.index,
                self._rebind(join.probe_key, join.outer.layout),
                self._rebind(join.inner_filter, inner, filter=True),
            )
        ]
        wider = self._wider_probe(join, inner)
        if wider is not None:
            probes.insert(0, wider)
        return _IndexJoin(
            join,
            relation,
            self._slot(join, "join-pair", fed),
            probes,
            self._rebind(join.residual, join.layout, filter=True),
        )

    def _wider_probe(self, join: ops.IndexNestedLoopJoin, inner: Layout):
        """The widest hash index over the plan's probe columns plus
        columns the pushed filter equates with row-independent values,
        with its key and what is left of the filter; ``None`` when the
        plan's own index is the widest."""
        if join.inner_filter is None:
            return None
        conjuncts = ast.conjuncts(join.inner_filter._expr)  # type: ignore[attr-defined]
        equated: Dict[int, Tuple[ast.Expr, ast.Expr]] = {}
        for conjunct in conjuncts:
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            for mine, theirs in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if isinstance(mine, ast.ColumnRef) and not ast.column_refs(theirs):
                    position = inner.resolve(mine.table, mine.column)
                    equated.setdefault(position, (conjunct, theirs))
                    break
        have = set(join.index.column_positions)
        wider = [
            index
            for index in join.table.indexes.values()
            if isinstance(index, HashIndex)
            and have < set(index.column_positions) <= have | equated.keys()
        ]
        if not wider:
            return None
        index = max(wider, key=lambda index: len(index.column_positions))
        plan_key = join.probe_key._expr  # type: ignore[attr-defined]
        parts = dict(
            zip(
                join.index.column_positions,
                plan_key.items if isinstance(plan_key, ast.TupleExpr) else (plan_key,),
            )
        )
        used = []
        for position in set(index.column_positions) - have:
            conjunct, parts[position] = equated[position]
            used.append(conjunct)
        key = join.probe_key._compiler.compile(  # type: ignore[attr-defined]
            ast.TupleExpr(tuple(parts[p] for p in index.column_positions))
        )
        rest = ast.conjoin([c for c in conjuncts if c not in used])
        rest_fn = None
        if rest is not None:
            rest_fn = join.inner_filter._compiler.compile(rest)  # type: ignore[attr-defined]
        return (
            index,
            self._rebind(key, join.outer.layout),
            self._rebind(rest_fn, inner, filter=True),
        )

    def _lower_hash_join(self, join: ops.HashJoin, relation: int, fed: int) -> _HashJoin:
        if not isinstance(join.inner, _FULL_SCANS + _INDEX_SCANS):
            raise BlockDeclined(f"hash join with {type(join.inner).__name__} inside")
        scan = self._lower_scan(join.inner, relation)
        # The batch path checks once per batch of its probe side.
        probe_side = fed if join.build == "inner" else scan.slot
        return _HashJoin(
            join,
            relation,
            self._slot(join, "join-pair", probe_side),
            scan,
            self._rebind(join.outer_key, join.outer.layout),
            self._rebind(join.inner_key, join.inner.layout),
            self._rebind(join.residual, join.layout, filter=True),
        )

    def describe(self) -> str:
        def source(scan: ops.PhysicalOperator) -> str:
            if isinstance(scan, _MaterializedScan):
                return f"MaterializedScan {scan.cell.label}"
            name = scan.index.name if isinstance(scan, _INDEX_SCANS) else scan.table.name
            return f"{type(scan).__name__} {name}"

        steps = [source(self._leaf.node)]
        for step in self._joins:
            if isinstance(step, _IndexJoin):
                steps.append(f"IndexNestedLoopJoin {step.probes[0][0].name}")
            else:
                steps.append(f"HashJoin ({source(step.scan.node)})")
        return " → ".join(steps)

    # -- one execution -------------------------------------------------
    def _execution(self, ctx: ops.ExecutionContext) -> _BlockExecution:
        execution = ctx.materialized.get(self)
        if execution is not None:
            return execution
        np = numpy_or_none()
        stores = []
        for step in [self._leaf] + self._joins:
            node = step.scan.node if isinstance(step, _HashJoin) else step.node
            if isinstance(node, _MaterializedScan):
                stores.append(node.cell.column_store(ctx))
            else:
                stores.append(node.table.column_store())
        recorders = [r for r in (ctx.tracer, ctx.probes) if r is not None]
        execution = ctx.materialized[self] = _BlockExecution(
            np,
            stores,
            self._aggregate.columnar_fold(np, ctx),
            [
                [c for c in (r.counter(node) for r in recorders) if c is not None]
                for node in self.nodes
            ],
        )
        return execution

    @staticmethod
    def _batch(stores, rows, block, numbers, positions=None) -> ColumnBatch:
        """Rows ``rows[k][i]`` of ``stores[k]`` side by side, then the
        columns of their bindings (``numbers[i]``), as lazy gathers;
        with ``positions``, only those of the stored columns."""
        length = len(numbers)
        absent = Column.const(None, length)
        columns: List[Column] = []
        for store, ids in zip(stores, rows):
            for column in store.columns:
                wanted = positions is None or len(columns) in positions
                columns.append(column.take(ids) if wanted else absent)
        columns += [column.take(numbers) for column in block]
        return ColumnBatch(columns, length)

    def _scan_runs(self, execution, ctx, scan: _Scan, bindings, block, work):
        """``scan``'s rows for every binding of the block, as ``(binding
        numbers, [row ids])`` runs, a binding's rows in one run;
        ``work`` gets what the scan charges each evaluation."""
        np = execution.np
        node = scan.node
        params = ctx.params
        count = len(bindings)
        work = work[:, scan.slot]
        store = execution.stores[scan.relation]
        row_ids = None
        if isinstance(node, ops.IndexPointScan):
            work[:, _PROBES] += 1
            probe = ColumnBatch(block, count)
            grouping = store.key_grouping(node.index.column_positions)
            runs = None
            if grouping is not None:
                runs = grouping.match(
                    columnar_key_columns(scan.key, ctx)(probe, params), _run_rows()
                )
            if runs is None:
                runs = ops._match_by_key(
                    np,
                    columnar_key_values(scan.key, ctx)(probe, params),
                    _tuple_lookup(node.index),
                )
        else:
            starts = np.zeros(count, dtype=np.int64)
            stops = np.full(count, store.length, dtype=np.int64)
            if isinstance(node, ops.IndexRangeScan):
                row_ids = node.index.row_id_array()
                for number, binding in enumerate(bindings):
                    bounds = node.bounds({**params, **dict(zip(self.names, binding))})
                    if bounds is None:  # the scan returns before it probes
                        stops[number] = 0
                    else:
                        work[number, _PROBES] += 1
                        starts[number], stops[number] = node.index.range_bounds(**bounds)
            spans = span_pairs(
                np.arange(count, dtype=np.int64), starts, stops - starts, _run_rows()
            )
            runs = (run for run in spans if len(run[0]))
        predicate = columnar_filter(scan.predicate, ctx)
        for numbers, ids in runs:
            if row_ids is not None:
                ids = row_ids[ids]
            work[:, _SCANNED] += np.bincount(numbers, minlength=count)
            if predicate is not None:
                kept = np.flatnonzero(
                    predicate(self._batch([store], [ids], block, numbers), params)
                )
                numbers, ids = numbers[kept], ids[kept]
            if len(numbers):
                work[:, _ROWS] += np.bincount(numbers, minlength=count)
                yield numbers, [ids]

    def _residual_runs(self, execution, ctx, step, block, work, joined_runs):
        """A join's key-equal pairs: charged, filtered by its residual."""
        np = execution.np
        count = len(work)
        work = work[:, step.slot]
        residual = columnar_filter(step.residual, ctx)
        stores = execution.stores
        for numbers, rows in joined_runs:
            work[:, _PAIRS] += np.bincount(numbers, minlength=count)
            if residual is not None:
                kept = np.flatnonzero(
                    residual(self._batch(stores, rows, block, numbers), ctx.params)
                )
                if len(kept) < len(numbers):
                    numbers, rows = numbers[kept], [ids[kept] for ids in rows]
            if len(numbers):
                work[:, _ROWS] += np.bincount(numbers, minlength=count)
                yield numbers, rows

    def _index_join_pairs(self, execution, ctx, step: _IndexJoin, runs, block, work):
        np = execution.np
        params = ctx.params
        stores = execution.stores
        store = stores[step.relation]
        count = len(work)
        work = work[:, step.slot]
        for numbers, rows in runs:
            work[:, _PROBES] += np.bincount(numbers, minlength=count)
            outer = self._batch(stores, rows, block, numbers)
            matched = None
            for index, key, inner_filter in step.probes:
                grouping = store.key_grouping(index.column_positions)
                if grouping is not None:
                    matched = grouping.match(
                        columnar_key_columns(key, ctx)(outer, params), _run_rows()
                    )
                if matched is not None:
                    break
            if matched is None:  # the plan's own probe, one key at a time
                matched = ops._match_by_key(
                    np, columnar_key_values(key, ctx)(outer, params), _tuple_lookup(index)
                )
            pushed = columnar_filter(inner_filter, ctx)
            for outer_idx, inner_ids in matched:
                paired = numbers[outer_idx]
                if pushed is not None:
                    candidates = self._batch([store], [inner_ids], block, paired)
                    kept = np.flatnonzero(pushed(candidates, params))
                    outer_idx, inner_ids, paired = (
                        outer_idx[kept],
                        inner_ids[kept],
                        paired[kept],
                    )
                if len(paired):
                    yield paired, [ids[outer_idx] for ids in rows] + [inner_ids]

    def _hash_join_pairs(
        self, execution, ctx, step: _HashJoin, runs, bindings, block, work
    ):
        """The hash join's key-equal pairs, a binding's in the order the
        tree emits them: the probe side's rows in order, each with its
        matches in build order."""
        np = execution.np
        params = ctx.params
        stores = execution.stores
        store = stores[step.relation]
        outer_runs = list(runs)  # one side of a hash join is held whole
        inner_runs = self._scan_runs(execution, ctx, step.scan, bindings, block, work)
        if not outer_runs:
            for _ in inner_runs:  # scanned, and charged, all the same
                pass
            return
        numbers = np.concatenate([run_numbers for run_numbers, _ in outer_runs])
        rows = [np.concatenate(ids) for ids in zip(*(run_rows for _, run_rows in outer_runs))]
        outer_keys = [_number_column(np, numbers)] + columnar_key_columns(
            step.outer_key, ctx
        )(self._batch(stores, rows, block, numbers), params)
        inner_key = columnar_key_columns(step.inner_key, ctx)
        build_outer = step.node.build == "outer"
        for inner_numbers, (inner_ids,) in inner_runs:
            # The outer rows of the bindings this run of the inner holds.
            start = int(np.searchsorted(numbers, inner_numbers[0], side="left"))
            stop = int(np.searchsorted(numbers, inner_numbers[-1], side="right"))
            if start == stop:
                continue
            inner_keys = [_number_column(np, inner_numbers)] + inner_key(
                self._batch([store], [inner_ids], block, inner_numbers), params
            )
            sliced = [column.slice(start, stop) for column in outer_keys]
            build, probe = (sliced, inner_keys) if build_outer else (inner_keys, sliced)
            grouping = KeyGrouping.build(build)
            matched = None
            if grouping is not None:
                matched = grouping.match(probe, _run_rows())
            if matched is None:
                raise BlockDeclined("hash-join keys with no array form")
            for probe_idx, build_idx in matched:
                outer_idx, inner_idx = (
                    (build_idx, probe_idx) if build_outer else (probe_idx, build_idx)
                )
                outer_idx = outer_idx + start
                yield numbers[outer_idx], [ids[outer_idx] for ids in rows] + [
                    inner_ids[inner_idx]
                ]

    def evaluate(
        self, ctx: ops.ExecutionContext, bindings: Sequence[Tuple[Any, ...]]
    ) -> List[_Evaluation]:
        """Q_R of every binding, nothing charged: one
        :class:`_Evaluation` per binding, in order."""
        execution = self._execution(ctx)
        np = execution.np
        count = len(bindings)
        block = [_number_column(np, np.arange(count, dtype=np.int64))] + [
            Column.from_values([binding[i] for binding in bindings])
            for i in range(len(self.names))
        ]
        work = np.zeros((count, len(self.nodes), 4), dtype=np.int64)
        runs = self._scan_runs(execution, ctx, self._leaf, bindings, block, work)
        for step in self._joins:
            if isinstance(step, _IndexJoin):
                pairs = self._index_join_pairs(execution, ctx, step, runs, block, work)
            else:
                pairs = self._hash_join_pairs(
                    execution, ctx, step, runs, bindings, block, work
                )
            runs = self._residual_runs(execution, ctx, step, block, work, pairs)
        groups: Dict[Tuple[Any, ...], List[Any]] = {}
        for numbers, rows in runs:
            execution.fold(
                self._batch(execution.stores, rows, block, numbers, self._fold_positions),
                groups,
            )
        found: Dict[int, List[Tuple[Any, ...]]] = {}
        for key, accumulators in groups.items():
            found.setdefault(key[0], []).append(
                key[1:] + tuple(accumulator.result() for accumulator in accumulators)
            )
        # A binding that joined nothing is the aggregate over no input.
        nothing = self.aggregate.result_rows({})
        evaluations = []
        for number in range(count):
            rows = found.get(number, nothing)
            work[number, -2:, _ROWS] = len(rows)
            evaluations.append(_Evaluation(rows, work[number]))
        return evaluations

    def prefetch(self, ctx: ops.ExecutionContext, wanted: Dict[Tuple[Any, ...], int]) -> None:
        """Evaluate together the bindings of ``wanted`` (binding -> how
        often the loop will ask) that are not prefetched yet."""
        prefetched = self._execution(ctx).prefetched
        todo = [binding for binding in wanted if binding not in prefetched]
        if todo:
            for binding, evaluation in zip(todo, self.evaluate(ctx, todo)):
                prefetched[binding] = [evaluation, wanted[binding]]

    def take(
        self, ctx: ops.ExecutionContext, binding: Tuple[Any, ...], drop: bool = False
    ) -> Optional[_Evaluation]:
        """The prefetched evaluation of ``binding``, once per use it was
        prefetched for (``drop``: all of them, its binding was pruned);
        ``None`` when there is none."""
        prefetched = self._execution(ctx).prefetched
        entry = prefetched.get(binding)
        if entry is None:
            return None
        entry[1] -= 1
        if drop or entry[1] <= 0:
            del prefetched[binding]
        return entry[0]

    def run(self, ctx: ops.ExecutionContext, evaluation: _Evaluation) -> List[Tuple[Any, ...]]:
        """Q_R's rows for the binding in ``ctx.params`` from its
        prefetched ``evaluation``, charged now, node by node in plan
        order: the node's counters, then the checks its batch path
        makes (a scan one, the others one per ``batch_size`` rows they
        are handed)."""
        execution = self._execution(ctx)
        stats = ctx.stats
        governor = ctx.governor
        work = evaluation.work.tolist()
        size = ctx.batch_size or ops.DEFAULT_BATCH_SIZE
        for node, (site, fed), (probes, scanned, pairs, _) in zip(
            self.nodes, self._checks, work
        ):
            stats.index_probes += probes
            stats.rows_scanned += scanned
            stats.join_pairs += pairs
            if fed is None:  # a scan; a NULL range bound returns before the check
                checks = 0 if isinstance(node, ops.IndexRangeScan) and not probes else 1
            else:
                handed = work[fed][_ROWS]
                checks = -(-handed // size)
                if site is None:
                    stats.aggregation_inputs += handed
            if governor is not None:
                for _ in range(checks):
                    governor.check(site)
        params = ctx.params
        output_fns = self.project.output_fns
        rows = [tuple(fn(row, params) for fn in output_fns) for row in evaluation.rows]
        for counters, (_, _, _, produced) in zip(execution.counters, work):
            for counter in counters:
                counter.loops += 1
                counter.rows += produced
        return rows


def lower_inner(
    plan: ops.PhysicalOperator, names: Sequence[str] = ()
) -> Tuple[Optional[Any], str]:
    """``(kernel, "")`` for a Q_R a kernel can run, else ``(None, why not)``.

    A scan-shaped Q_R gets an :class:`InnerKernel`; a join-shaped one a
    :class:`BlockKernel`, which needs ``names``, the parameters that
    carry the binding.
    """
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
    if isinstance(scan, _FULL_SCANS + _INDEX_SCANS):
        kernel = InnerKernel(plan, aggregate, scan)
        if kernel.predicate is not None and columnar_raw_filter(kernel.predicate) is None:
            return None, "predicate has no fused filter"
        return kernel, ""
    shape = f"join-shaped Q_R: {type(scan).__name__}"
    if not names:
        return None, f"{shape}, and no binding to make a block of"
    chain = [scan]
    while isinstance(chain[0], (ops.IndexNestedLoopJoin, ops.HashJoin)):
        chain.insert(0, chain[0].outer)
    if chain[0] is scan:
        return None, shape
    if not isinstance(chain[0], _FULL_SCANS + _INDEX_SCANS):
        return None, f"{shape} over {type(chain[0]).__name__}"
    try:
        return BlockKernel(plan, aggregate, chain, names), ""
    except BlockDeclined as declined:
        return None, f"{shape}, {declined}"
