"""Query planner: AST -> physical operator tree.

The planner supports two *policies* that play the roles of the paper's
two comparison systems:

* ``index-first`` (PostgreSQL-like): prefers indexed nested-loop joins,
  using a hash index for equality conjuncts or a sorted index for a
  range conjunct, falling back to hash join then nested loop.  This
  reproduces the Appendix E plans ("Nested Loop / Index Scan ...
  followed by HashAggregate and HAVING filter").
* ``hash-first`` (Vendor A-like): prefers hash joins on any equality
  conjunct, falling back to indexed/nested loops.

Either way, the baseline planner fully evaluates joins before grouping
and applies HAVING last — exactly the behaviour the paper's techniques
improve on.  The Smart-Iceberg optimizer (:mod:`repro.core`) rewrites
queries *before* they reach this planner and/or replaces the join +
aggregation pipeline with an NLJP operator.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import PlanningError
from repro.sql import ast
from repro.engine import operators as ops
from repro.engine.aggregates import AggregateSpec, make_spec
from repro.engine.cardinality import (
    DEFAULT_RELATION_ROWS,
    DEFAULT_SELECTIVITY,
    CardinalityEstimator,
    RelationProfile,
)
from repro.engine.cost import CostModel
from repro.engine.expressions import Compiled, ExpressionCompiler
from repro.engine.governor import DEGRADATION_MODES, CancelToken
from repro.engine.layout import ColumnBatch, ColumnStore, Layout, numpy_or_none
from repro.engine.wcoj import TrieRelationSpec, WCOJTrieJoin
from repro.obs.spans import TRACE_MODES
from repro.storage.catalog import Database
from repro.storage.table import Table

#: Valid settings for ``EngineConfig.join_order``.
JOIN_ORDERS = ("dp", "greedy", "syntactic")

#: Valid settings for ``EngineConfig.analyze``.
ANALYZE_MODES = ("off", "warn", "strict")

#: Valid settings for ``EngineConfig.join_algo``.
JOIN_ALGOS = ("auto", "pairwise", "wcoj")

#: Valid settings for ``EngineConfig.feedback``.
FEEDBACK_MODES = ("off", "observe", "apply")

#: Exact DP enumeration is used up to this many FROM relations; larger
#: queries fall back to the greedy min-cardinality heuristic.
DP_MAX_RELATIONS = 8

_COST = CostModel()


def _default_mode() -> str:
    """Columnar needs NumPy; an install without it runs row-at-a-time."""
    return "columnar" if numpy_or_none() is not None else "row"


@dataclass(frozen=True)
class EngineConfig:
    """Knobs selecting the baseline system behaviour.

    ``join_order`` selects how FROM relations are ordered into the
    left-deep join tree: ``"dp"`` (default) runs an exact System R-style
    dynamic program over connected subsets (up to
    :data:`DP_MAX_RELATIONS` relations, greedy beyond), ``"greedy"``
    repeatedly joins the relation minimizing the estimated intermediate
    cardinality, and ``"syntactic"`` keeps the literal FROM order.
    Under ``"dp"``/``"greedy"`` the per-edge join method (index, hash,
    nested loop) is also chosen by estimated cost; ``"syntactic"``
    keeps the pure policy preference.  All three settings produce the
    same multiset of result rows; only plan shape and work change.

    ``parallelism`` does not change execution; the bench harness divides
    wall-clock by it to *simulate* the parallel speedup the paper
    attributes to Vendor A (4 cores) and PostgreSQL (2 workers).  Work
    counters are never scaled.

    ``execution_mode`` selects typed-column (``"columnar"``, the
    default wherever NumPy imports), row-at-a-time (``"row"``, the
    default where it does not, and the reference the other modes are
    tested against) or vectorized batch-at-a-time (``"batch"``)
    execution.  All modes produce identical rows;
    row and batch charge identical work counters, and columnar agrees
    modulo the zone-map split (``rows_scanned + rows_skipped`` is
    invariant; see :meth:`ExecutionStats.parity_dict`).  Columnar mode
    carries :class:`~repro.engine.layout.ColumnBatch` data through the
    operators, runs fused NumPy kernels for predicates/projections, and
    skips chunks that zone maps prove unmatchable.  ``batch_size``
    overrides the chunk size (``None`` uses
    ``operators.DEFAULT_BATCH_SIZE`` / ``DEFAULT_COLUMNAR_BATCH_SIZE``).

    The governor knobs bound one execution (see
    :mod:`repro.engine.governor`): ``max_rows_scanned`` and
    ``max_join_pairs`` cap the corresponding work counters,
    ``max_cache_bytes`` caps the NLJP cache footprint,
    ``deadline_seconds`` caps wall clock, and ``cancel_token`` allows
    cooperative cancellation.  ``degradation`` selects what happens on
    cache pressure and optimizer-technique failures: ``"fail"`` raises
    a typed error with partial stats, ``"fallback"`` degrades to a
    slower-but-correct plan and records why in
    ``ExecutionStats.degradations``.  ``fault_plan`` is the test-only
    deterministic fault-injection hook
    (:class:`repro.testing.faults.FaultPlan`).  ``None`` everywhere —
    the default — means ungoverned execution with zero overhead and
    bit-identical behaviour.
    """

    join_policy: str = "index-first"  # 'index-first' | 'hash-first' | 'nlj-only'
    join_order: str = "dp"  # 'dp' | 'greedy' | 'syntactic'
    #: Multiway join algorithm for each join cluster: ``"pairwise"``
    #: always builds the left-deep tree, ``"wcoj"`` forces the leapfrog
    #: trie join (:mod:`repro.engine.wcoj`) whenever the cluster is
    #: eligible (connected simple-equi join graph), and ``"auto"`` (the
    #: default) picks WCOJ only when the cluster's hypergraph is cyclic
    #: (GYO reduction) *and* the AGM-bound cost estimate beats the
    #: pairwise plan.  The decision is surfaced as an ``[wcoj: ...]``
    #: gate annotation on the cluster root in ``explain()``/``to_dict``.
    join_algo: str = "auto"  # 'auto' | 'pairwise' | 'wcoj'
    allow_hash_join: bool = True
    use_secondary_indexes: bool = True
    parallelism: float = 1.0
    label: str = "postgres"
    execution_mode: str = field(  # 'row' | 'batch' | 'columnar'
        default_factory=_default_mode
    )
    batch_size: Optional[int] = None
    max_rows_scanned: Optional[int] = None
    max_join_pairs: Optional[int] = None
    max_cache_bytes: Optional[int] = None
    deadline_seconds: Optional[float] = None
    degradation: str = "fail"  # 'fail' | 'fallback'
    cancel_token: Optional[CancelToken] = None
    fault_plan: Optional[Any] = None
    #: Static-analysis level applied by the Smart-Iceberg optimizer:
    #: "off" resolves names only, "warn" additionally typechecks, lints
    #: and verifies the plan (findings land in the report notes), and
    #: "strict" turns analyzer/verifier findings into hard errors.
    analyze: str = "off"  # 'off' | 'warn' | 'strict'
    #: Tracing level (see :mod:`repro.obs`): "off" (the default) runs
    #: the exact pre-observability code path, "counters" builds the
    #: span tree with per-span ExecutionStats deltas only, "timing"
    #: additionally records per-span wall clock for flame graphs.
    trace: str = "off"  # 'off' | 'counters' | 'timing'
    #: Estimate→actual feedback loop (see :mod:`repro.obs.feedback`):
    #: "off" (the default) is the exact pre-feedback code path —
    #: nothing is fingerprinted, recorded, or consulted.  "observe"
    #: harvests per-operator (predicate fingerprint, est, actual)
    #: observations into ``Database.feedback`` after each execution but
    #: never changes an estimate — the safe serving default.  "apply"
    #: additionally blends live observations over the model estimates
    #: (and falls back to online sketch statistics for never-ANALYZEd
    #: tables), which can change join orders and the WCOJ gate; all
    #: modes return identical result rows.
    feedback: str = "off"  # 'off' | 'observe' | 'apply'

    def __post_init__(self) -> None:
        if self.join_order not in JOIN_ORDERS:
            raise ValueError(
                f"join_order must be one of {JOIN_ORDERS}, got {self.join_order!r}"
            )
        if self.join_algo not in JOIN_ALGOS:
            raise ValueError(
                f"join_algo must be one of {JOIN_ALGOS}, got {self.join_algo!r}"
            )
        if self.analyze not in ANALYZE_MODES:
            raise ValueError(
                f"analyze must be one of {ANALYZE_MODES}, got {self.analyze!r}"
            )
        if self.trace not in TRACE_MODES:
            raise ValueError(
                f"trace must be one of {TRACE_MODES}, got {self.trace!r}"
            )
        if self.feedback not in FEEDBACK_MODES:
            raise ValueError(
                f"feedback must be one of {FEEDBACK_MODES}, got {self.feedback!r}"
            )
        if self.degradation not in DEGRADATION_MODES:
            raise ValueError(
                f"degradation must be one of {DEGRADATION_MODES}, "
                f"got {self.degradation!r}"
            )
        for name in ("max_rows_scanned", "max_join_pairs", "max_cache_bytes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError(
                f"deadline_seconds must be >= 0, got {self.deadline_seconds}"
            )

    @classmethod
    def postgres(cls) -> "EngineConfig":
        """Baseline PostgreSQL-like configuration.

        Pins ``join_order="syntactic"``: the bench baselines reproduce
        the paper's measured systems, whose plans join in FROM order.
        """
        return cls(
            join_policy="index-first",
            join_order="syntactic",
            join_algo="pairwise",
            parallelism=2.0,
            label="postgres",
        )

    @classmethod
    def vendor(cls) -> "EngineConfig":
        """Commercial "Vendor A"-like configuration (simulated)."""
        return cls(
            join_policy="hash-first",
            join_order="syntactic",
            join_algo="pairwise",
            parallelism=4.0,
            label="vendor",
        )

    @classmethod
    def smart(cls) -> "EngineConfig":
        """Configuration used underneath Smart-Iceberg rewrites.

        The paper's implementation is sequential PostgreSQL, so no
        simulated parallelism, and plans keep the rewrites' carefully
        constructed FROM order (the optimizer orders bindings itself).
        """
        return cls(
            join_policy="index-first",
            join_order="syntactic",
            parallelism=1.0,
            label="smart-iceberg",
        )


class _SharedMaterialize:
    """Execute a subplan once per ExecutionContext and share the rows.

    The memo lives on the *context* (``ctx.materialized``, keyed by
    cell identity), not on this cell: a plan cached by the serving
    layer is executed by many contexts — possibly concurrently from
    different sessions — and a cell-resident ``(ctx, rows)`` slot had
    a check-then-read race that could hand one context the rows
    materialized under another context's parameters.
    """

    def __init__(self, plan: ops.PhysicalOperator, label: str) -> None:
        self.plan = plan
        self.label = label

    def rows(self, ctx: ops.ExecutionContext) -> List[Tuple[Any, ...]]:
        key = id(self)
        rows = ctx.materialized.get(key)
        if rows is None:
            store = ctx.materialized.get((key, "columns"))
            if store is not None:
                rows = store.batch().to_rows()
            else:
                rows = ops.materialize(self.plan, ctx)
            ctx.materialized[key] = rows
        return rows

    def column_store(self, ctx: ops.ExecutionContext):
        """Columnar image of the materialization, shared per context.

        The plan runs once per context whichever form is asked for
        first; the other is derived from it.
        """
        key = (id(self), "columns")
        store = ctx.materialized.get(key)
        if store is None:
            rows = ctx.materialized.get(id(self))
            if rows is not None:
                batch = ColumnBatch.from_rows(rows, len(self.plan.layout))
            else:
                batch = ops.materialize_columns(self.plan, ctx)
            store = ColumnStore(
                batch.columns,
                [column for _, column in self.plan.layout.slots],
                batch.length,
            )
            ctx.materialized[key] = store
        return store


class _MaterializedScan(ops.PhysicalOperator):
    """Scan over a shared materialization (CTE or derived table)."""

    def __init__(
        self,
        cell: _SharedMaterialize,
        alias: str,
        columns: Sequence[str],
        predicate: Optional[Compiled] = None,
    ) -> None:
        self.cell = cell
        self.alias = alias
        self.predicate = predicate
        self.layout = Layout([(alias, name) for name in columns])

    def execute(self, ctx: ops.ExecutionContext):
        predicate = self.predicate
        params = ctx.params
        stats = ctx.stats
        governor = ctx.governor
        for row in self.cell.rows(ctx):
            stats.rows_scanned += 1
            if governor is not None:
                governor.check("scan")
            if predicate is None or predicate(row, params) is True:
                yield row

    def execute_batches(self, ctx: ops.ExecutionContext):
        yield from ops._scan_batches(self.cell.rows(ctx), self.predicate, ctx)

    def execute_columnar(self, ctx: ops.ExecutionContext):
        yield from ops._columnar_scan(self.cell.column_store(ctx), self.predicate, ctx)

    def describe(self) -> List[str]:
        lines = [f"MaterializedScan {self.cell.label} AS {self.alias}{self.annotation()}"]
        lines += ["  " + line for line in self.cell.plan.describe()]
        return lines

    def to_dict(self) -> Dict[str, Any]:
        node = super().to_dict()
        node["subplan"] = self.cell.plan.to_dict()
        return node


class _ThreadLocalCtx:
    """A per-thread ``{"ctx": ExecutionContext}`` slot with dict API.

    ``PlanEnv`` used to hold a plain dict here, which made a cached
    plan single-threaded: two concurrent executions would overwrite
    each other's installed context and charge work to the wrong stats/
    governor.  Backing the slot with ``threading.local`` gives each
    executing thread its own installation while keeping the executor's
    ``holder["ctx"] = ctx`` / ``holder.pop("ctx")`` protocol intact.
    """

    __slots__ = ("_local",)

    def __init__(self) -> None:
        self._local = threading.local()

    def _map(self) -> Dict[str, Any]:
        entries = getattr(self._local, "entries", None)
        if entries is None:
            entries = self._local.entries = {}
        return entries

    def get(self, key: str, default: Any = None) -> Any:
        return self._map().get(key, default)

    def setdefault(self, key: str, value: Any) -> Any:
        return self._map().setdefault(key, value)

    def pop(self, key: str, default: Any = None) -> Any:
        return self._map().pop(key, default)

    def __setitem__(self, key: str, value: Any) -> None:
        self._map()[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self._map()


@dataclass
class PlanEnv:
    """Planning environment: catalog, config, CTE registry."""

    db: Database
    config: EngineConfig
    ctes: Dict[str, Tuple[_SharedMaterialize, Tuple[str, ...]]] = field(
        default_factory=dict
    )
    ctx_holder: "_ThreadLocalCtx" = field(default_factory=lambda: _ThreadLocalCtx())

    def compiler(self, layout: Layout) -> ExpressionCompiler:
        """An expression compiler whose subqueries run in this
        environment and stay memoized for one database version."""
        return ExpressionCompiler(layout, self.subquery_executor, self.data_version)

    def data_version(self) -> Tuple[int, ...]:
        """``db.version_token()``, read once per execution.

        Compiled ``IN``/``EXISTS`` closures ask before every evaluation
        — per row, in row mode — so the installed context remembers it.
        """
        ctx = self.ctx_holder.get("ctx")
        if ctx is None:
            return self.db.version_token()
        token = ctx.materialized.get("data_version")
        if token is None:
            token = ctx.materialized["data_version"] = self.db.version_token()
        return token

    def subquery_executor(self, select: ast.Select) -> List[Tuple[Any, ...]]:
        """Plan and run an uncorrelated scalar/IN subquery lazily.

        Called at *execution* time from compiled expressions; uses the
        context installed by the executor so its work is charged to the
        outer query's stats.
        """
        ctx = self.ctx_holder.get("ctx")
        if ctx is None:
            ctx = ops.ExecutionContext()
        plan, _ = plan_select(select, self)
        return ops.materialize(plan, ctx)


@dataclass
class PlannedQuery:
    """A planned statement ready for execution."""

    root: ops.PhysicalOperator
    columns: Tuple[str, ...]
    env: PlanEnv

    def explain(self, analyze: bool = False, params: Optional[Dict[str, Any]] = None) -> str:
        """EXPLAIN text with per-operator estimates.

        With ``analyze=True`` the query is executed (row mode) and each
        operator's describe line additionally shows ``actual_rows`` —
        the rows that operator emitted — alongside the estimates.
        """
        if analyze:
            self._collect_actual_rows(params or {})
        return self.root.explain()

    def estimated_cost(self) -> Optional[float]:
        """Total estimated plan cost in ``ExecutionStats.cost()`` units.

        ``None`` for plans the cost model did not annotate (e.g.
        hand-assembled NLJP pipelines).
        """
        return self.root.estimated_cost

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable plan dump mirroring :meth:`explain`.

        The structure is JSON-serializable: output column names, the
        estimated root cost, and the recursive operator tree (see
        :meth:`PhysicalOperator.to_dict`), including materialized CTE
        and derived-table sub-plans.
        """
        estimated = self.estimated_cost()
        return {
            "columns": list(self.columns),
            "estimated_cost": None if estimated is None else round(estimated, 3),
            "root": self.root.to_dict(),
        }

    def _collect_actual_rows(self, params: Dict[str, Any]) -> None:
        """Run the plan once under a counting tracer.

        The tracer reaches every node — CTE cells and NLJP's Q_B/Q_R
        sub-plans included, and the nodes NLJP's inner kernel stands in
        for — and stamps ``actual_rows``/``actual_loops`` when it
        finishes.  Row mode is forced.
        """
        from repro.obs.tracer import Tracer

        tracer = Tracer("counters")
        tracer.install(self.root)
        ctx = ops.ExecutionContext(params=dict(params), tracer=tracer)
        self.env.ctx_holder["ctx"] = ctx
        try:
            for _ in self.root.execute(ctx):
                pass
        finally:
            self.env.ctx_holder.pop("ctx", None)
            tracer.finish()


@dataclass
class _Relation:
    """One FROM item after flattening."""

    alias: str
    columns: Tuple[str, ...]
    table: Optional[Table]  # base table, probeable by indexes
    cell: Optional[_SharedMaterialize]  # CTE/derived materialization

    def scan(self, predicate: Optional[Compiled] = None) -> ops.PhysicalOperator:
        if self.table is not None:
            return ops.TableScan(self.table, self.alias, predicate)
        assert self.cell is not None
        return _MaterializedScan(self.cell, self.alias, self.columns, predicate)


def plan_query(db: Database, query: ast.Query, config: Optional[EngineConfig] = None) -> PlannedQuery:
    """Plan a full statement (WITH + SELECT)."""
    env = PlanEnv(db=db, config=config or EngineConfig())
    for cte in query.ctes:
        plan, columns = plan_select(cte.query, env)
        if cte.columns:
            if len(cte.columns) != len(columns):
                raise PlanningError(
                    f"CTE {cte.name} declares {len(cte.columns)} columns, "
                    f"query produces {len(columns)}"
                )
            columns = tuple(c.lower() for c in cte.columns)
        cell = _SharedMaterialize(plan, label=cte.name)
        env.ctes[cte.name.lower()] = (cell, tuple(columns))
    root, columns = plan_select(query.body, env)
    counted = ops.CountOutput(root)
    _propagate_estimates(counted)
    return PlannedQuery(root=counted, columns=tuple(columns), env=env)


# ---------------------------------------------------------------------------
# FROM clause
# ---------------------------------------------------------------------------


def _flatten_from(
    items: Sequence[ast.TableExpr], env: PlanEnv
) -> Tuple[List[_Relation], List[ast.Expr]]:
    """Flatten FROM items (incl. explicit joins) into relations + conjuncts."""
    relations: List[_Relation] = []
    extra: List[ast.Expr] = []

    def add(item: ast.TableExpr) -> None:
        if isinstance(item, ast.NamedTable):
            name = item.name.lower()
            alias = (item.alias or item.name).lower()
            if name in env.ctes:
                cell, columns = env.ctes[name]
                relations.append(
                    _Relation(alias=alias, columns=columns, table=None, cell=cell)
                )
            else:
                table = env.db.table(name)
                relations.append(
                    _Relation(
                        alias=alias,
                        columns=table.schema.column_names,
                        table=table,
                        cell=None,
                    )
                )
        elif isinstance(item, ast.DerivedTable):
            plan, columns = plan_select(item.query, env)
            cell = _SharedMaterialize(plan, label=f"subquery:{item.alias}")
            relations.append(
                _Relation(
                    alias=item.alias.lower(),
                    columns=tuple(columns),
                    table=None,
                    cell=cell,
                )
            )
        elif isinstance(item, ast.JoinedTable):
            add(item.left)
            before = len(relations)
            add(item.right)
            right_aliases = [r.alias for r in relations[before:]]
            if item.natural:
                extra.extend(_natural_join_conjuncts(relations, right_aliases, item))
            elif item.condition is not None:
                extra.extend(ast.conjuncts(item.condition))
        else:
            raise PlanningError(f"unsupported FROM item {item!r}")

    for item in items:
        add(item)
    if not relations:
        raise PlanningError("queries without FROM are not supported")
    duplicate_aliases = {r.alias for r in relations if sum(1 for x in relations if x.alias == r.alias) > 1}
    if duplicate_aliases:
        raise PlanningError(f"duplicate FROM aliases: {sorted(duplicate_aliases)}")
    return relations, extra


def _natural_join_conjuncts(
    relations: List[_Relation], right_aliases: List[str], item: ast.JoinedTable
) -> List[ast.Expr]:
    """Equality conjuncts for NATURAL JOIN (optionally with ON col-list)."""
    right = [r for r in relations if r.alias in right_aliases]
    left = [r for r in relations if r.alias not in right_aliases]
    if item.condition is not None:
        # Paper's "NATURAL JOIN t ON (a, b)" form: explicit column list.
        if isinstance(item.condition, ast.TupleExpr):
            names = [c.column for c in item.condition.items if isinstance(c, ast.ColumnRef)]
        elif isinstance(item.condition, ast.ColumnRef):
            names = [item.condition.column]
        else:
            raise PlanningError("NATURAL JOIN ON expects a column list")
    else:
        left_columns = {c for r in left for c in r.columns}
        names = [c for r in right for c in r.columns if c in left_columns]
    conjuncts: List[ast.Expr] = []
    for name in names:
        left_rel = next((r for r in left if name in r.columns), None)
        right_rel = next((r for r in right if name in r.columns), None)
        if left_rel is None or right_rel is None:
            raise PlanningError(f"NATURAL JOIN column {name!r} missing on one side")
        conjuncts.append(
            ast.BinaryOp(
                "=",
                ast.ColumnRef(left_rel.alias, name),
                ast.ColumnRef(right_rel.alias, name),
            )
        )
    return conjuncts


# ---------------------------------------------------------------------------
# Predicate classification
# ---------------------------------------------------------------------------


def _aliases_of(expr: ast.Expr, relations: List[_Relation]) -> frozenset:
    """The set of FROM aliases an expression references.

    Unqualified references are attributed by unique column-name match;
    ambiguity raises, matching SQL.
    """
    by_column: Dict[str, List[str]] = {}
    for relation in relations:
        for column in relation.columns:
            by_column.setdefault(column, []).append(relation.alias)
    result = set()
    for ref in ast.column_refs(expr, into_subqueries=False):
        if ref.table is not None:
            result.add(ref.table.lower())
        else:
            owners = by_column.get(ref.column.lower(), [])
            if len(owners) > 1:
                raise PlanningError(f"ambiguous column reference {ref.column!r}")
            if owners:
                result.add(owners[0])
            # Unknown names may be parameters resolved later; leave out.
    return frozenset(result)


@dataclass
class _Conjunct:
    expr: ast.Expr
    aliases: frozenset
    placed: bool = False


# ---------------------------------------------------------------------------
# Join planning
# ---------------------------------------------------------------------------


def _equi_parts(
    conjunct: ast.Expr, new_alias: str, bound: frozenset, relations: List[_Relation]
) -> Optional[Tuple[str, ast.Expr]]:
    """If ``conjunct`` is ``new.col = expr(bound)``, return (col, expr)."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    for mine, theirs in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
        if (
            isinstance(mine, ast.ColumnRef)
            and _aliases_of(mine, relations) == frozenset([new_alias])
            and _aliases_of(theirs, relations) <= bound
        ):
            return (mine.column.lower(), theirs)
    return None


_RANGE_OPS = {"<", "<=", ">", ">="}


def _range_part(
    conjunct: ast.Expr, new_alias: str, bound: frozenset, relations: List[_Relation]
) -> Optional[Tuple[str, str, ast.Expr]]:
    """If ``conjunct`` bounds ``new.col`` by an outer expression.

    Returns ``(column, op, expr)`` normalized so that ``new.col op expr``.
    """
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op in _RANGE_OPS):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    if (
        isinstance(left, ast.ColumnRef)
        and _aliases_of(left, relations) == frozenset([new_alias])
        and _aliases_of(right, relations) <= bound
    ):
        return (left.column.lower(), op, right)
    if (
        isinstance(right, ast.ColumnRef)
        and _aliases_of(right, relations) == frozenset([new_alias])
        and _aliases_of(left, relations) <= bound
    ):
        return (right.column.lower(), flip[op], left)
    return None


def _matching_hash_index(
    table: Table, equi: Sequence[Tuple[_Conjunct, str, ast.Expr]], config: EngineConfig
):
    """The hash index (and consumed equi conjuncts) an index join would use.

    Mirrors ``try_index_equi``'s search exactly: full column set first,
    then (when secondary indexes are allowed) the largest indexed
    subset.  Shared by plan construction and the DP cost mirror so the
    enumerator prices precisely the plan that will be built.

    When several equi conjuncts target the *same* inner column (e.g.
    ``M.year = L.year AND M.year = R.year``) only the first can feed
    the probe key; the rest must stay in the residual, so they are
    never part of ``chosen``.
    """
    deduped: List[Tuple[_Conjunct, str, ast.Expr]] = []
    seen_columns = set()
    for entry in equi:
        if entry[1] not in seen_columns:
            seen_columns.add(entry[1])
            deduped.append(entry)
    columns = [column for _, column, _ in deduped]
    index = table.find_hash_index(columns)
    chosen = deduped
    if index is None and config.use_secondary_indexes:
        for size in range(len(deduped) - 1, 0, -1):
            for subset in combinations(deduped, size):
                index = table.find_hash_index([c for _, c, _ in subset])
                if index is not None:
                    chosen = list(subset)
                    break
            if index is not None:
                break
    if index is None:
        return None, []
    return index, chosen


@dataclass
class _EstimateContext:
    """Cardinality estimates threaded into one ``_join_one`` step."""

    estimator: CardinalityEstimator
    outer_rows: float  # estimated rows of the current outer subtree
    output_rows: float  # estimated rows after this join (all conjuncts)
    raw_inner: float  # stored rows of the inner relation
    filtered_inner: float  # inner rows surviving pushed-down filters
    scan_fp: Optional[str] = None  # feedback fingerprint of the inner scan


class _JoinOrderer:
    """Cost-based join-order enumeration over the FROM relations.

    Classifies conjuncts into per-relation filters and join edges,
    builds a :class:`CardinalityEstimator` over the relations, and
    orders them with an exact left-deep dynamic program (connected
    subsets, cross products only when the join graph forces them) or a
    greedy min-cardinality heuristic.  Subset cardinalities are
    order-independent, so the DP memoizes them per alias set.
    """

    def __init__(
        self, relations: List[_Relation], conjuncts: List[_Conjunct], env: PlanEnv
    ) -> None:
        self.relations = relations
        self.env = env
        self.by_alias = {r.alias: r for r in relations}
        self.position = {r.alias: i for i, r in enumerate(relations)}
        feedback_mode = env.config.feedback
        #: feedback != "off": fingerprints are computed and stamped on
        #: plan nodes so the executor can harvest est/actual pairs.
        self.capture = feedback_mode != "off"
        profiles = []
        for relation in relations:
            if relation.table is not None:
                rows = float(len(relation.table))
                stats = relation.table.statistics
                if stats is None and feedback_mode == "apply" and rows > 0:
                    # Cold table under apply: cheap sketch-backed stats
                    # (zone-map min/max + KMV sample) replace the
                    # sqrt(rows) NDV guess without a full ANALYZE.
                    stats = relation.table.sketch_statistics()
            else:
                rows = DEFAULT_RELATION_ROWS
                stats = None
            profiles.append(
                RelationProfile(
                    alias=relation.alias,
                    columns=tuple(relation.columns),
                    rows=rows,
                    table=relation.table,
                    stats=stats,
                )
            )
        self.estimator = CardinalityEstimator(
            profiles,
            feedback=env.db.feedback if feedback_mode == "apply" else None,
            feedback_token=(
                env.db.feedback_token() if feedback_mode == "apply" else None
            ),
        )
        self._scan_fp: Dict[str, str] = {}
        self._join_fp: Dict[FrozenSet[str], str] = {}
        self.raw = {profile.alias: profile.rows for profile in profiles}
        self.filters: Dict[str, List[ast.Expr]] = {r.alias: [] for r in relations}
        self.join_conjuncts: List[_Conjunct] = []
        for conjunct in conjuncts:
            if len(conjunct.aliases) == 1:
                (alias,) = tuple(conjunct.aliases)
                self.filters[alias].append(conjunct.expr)
            elif len(conjunct.aliases) > 1:
                self.join_conjuncts.append(conjunct)
        self.filtered = {
            alias: self.estimator.scan_rows(alias, exprs)
            for alias, exprs in self.filters.items()
        }
        self.adjacency: Dict[str, set] = {r.alias: set() for r in relations}
        for conjunct in self.join_conjuncts:
            for alias in conjunct.aliases:
                if alias in self.adjacency:
                    self.adjacency[alias] |= set(conjunct.aliases) - {alias}
        self._rows_memo: Dict[FrozenSet[str], float] = {}

    # -- estimates -----------------------------------------------------
    def rows(self, subset: FrozenSet[str]) -> float:
        """Estimated join cardinality of an alias subset (memoized)."""
        cached = self._rows_memo.get(subset)
        if cached is None:
            internal = [
                c.expr for c in self.join_conjuncts if c.aliases <= subset
            ]
            fingerprint = (
                self.join_fp(subset)
                if self.capture and len(subset) > 1
                else None
            )
            cached = self.estimator.join_rows(
                self.filtered, sorted(subset), internal, fingerprint=fingerprint
            )
            self._rows_memo[subset] = cached
        return cached

    # -- feedback fingerprints -----------------------------------------
    def scan_fp(self, alias: str) -> str:
        """Feedback fingerprint for one relation's filtered scan."""
        fingerprint = self._scan_fp.get(alias)
        if fingerprint is None:
            fingerprint = self.estimator.scan_fingerprint(
                alias, self.filters[alias]
            )
            self._scan_fp[alias] = fingerprint
        return fingerprint

    def join_fp(self, subset: FrozenSet[str]) -> str:
        """Feedback fingerprint for the join of an alias subset."""
        fingerprint = self._join_fp.get(subset)
        if fingerprint is None:
            internal = [
                c.expr for c in self.join_conjuncts if c.aliases <= subset
            ]
            fingerprint = self.estimator.join_fingerprint(
                [self.scan_fp(alias) for alias in subset], internal
            )
            self._join_fp[subset] = fingerprint
        return fingerprint

    def note_for(self, fingerprint: str) -> Optional[str]:
        """Human-readable correction note for explain(), if one applied."""
        correction = self.estimator.corrections.get(fingerprint)
        if correction is None:
            return None
        base, blended = correction
        return f"feedback: est {base:.4g}->{blended:.4g}"

    def stamp(self, node: ops.PhysicalOperator, fingerprint: str) -> None:
        """Attach a feedback fingerprint (and any correction note)."""
        node.feedback_fingerprint = fingerprint
        note = self.note_for(fingerprint)
        if note is not None:
            node.feedback_note = note

    def scan_cost(self, alias: str) -> float:
        return _COST.scan(self.raw[alias])

    def step_cost(self, bound: FrozenSet[str], alias: str) -> float:
        """Cost of joining ``alias`` onto the ``bound`` subtree.

        Mirrors the cost-based method selection in ``_join_one``: the
        cheapest feasible method among index-equi, hash, range-index,
        and nested loop, using the same formulas, so the DP ranks
        exactly what construction will build.
        """
        config = self.env.config
        relation = self.by_alias[alias]
        outer_rows = self.rows(bound)
        filtered_inner = self.filtered[alias]
        raw_inner = self.raw[alias]
        new_bound = bound | frozenset([alias])
        available = [
            c
            for c in self.join_conjuncts
            if alias in c.aliases and c.aliases <= new_bound
        ]
        equi: List[Tuple[_Conjunct, str, ast.Expr]] = []
        ranges: List[Tuple[_Conjunct, str, str, ast.Expr]] = []
        for conjunct in available:
            parts = _equi_parts(conjunct.expr, alias, bound, self.relations)
            if parts is not None:
                equi.append((conjunct, parts[0], parts[1]))
                continue
            range_parts = _range_part(conjunct.expr, alias, bound, self.relations)
            if range_parts is not None:
                ranges.append((conjunct, *range_parts))
        costs: List[float] = []
        if config.join_policy != "nlj-only":
            if relation.table is not None and equi:
                index, chosen = _matching_hash_index(relation.table, equi, config)
                if index is not None:
                    sel = self.estimator.conjunction([c.expr for c, _, _ in chosen])
                    pairs = outer_rows * filtered_inner * sel
                    costs.append(_COST.index_nested_loop_join(outer_rows, pairs))
            if equi and config.allow_hash_join:
                sel = self.estimator.conjunction([c.expr for c, _, _ in equi])
                pairs = outer_rows * filtered_inner * sel
                costs.append(_COST.scan(raw_inner) + _COST.hash_join(outer_rows, pairs))
            if relation.table is not None and ranges and config.use_secondary_indexes:
                used = [
                    c
                    for c, column, _, _ in ranges
                    if relation.table.find_sorted_index(column) is not None
                ]
                if used:
                    sel = self.estimator.conjunction([c.expr for c in used])
                    pairs = outer_rows * filtered_inner * sel
                    costs.append(_COST.index_nested_loop_join(outer_rows, pairs))
        costs.append(
            _COST.scan(raw_inner) + _COST.nested_loop_join(outer_rows, filtered_inner)
        )
        return min(costs)

    # -- ordering ------------------------------------------------------
    def _extensions(self, bound: FrozenSet[str]) -> List[str]:
        """Aliases that may extend ``bound``: graph-connected ones, or —
        only when nothing connects — every remaining alias (forced cross
        product, e.g. a disconnected join graph)."""
        remaining = [r.alias for r in self.relations if r.alias not in bound]
        connected = [a for a in remaining if self.adjacency[a] & bound]
        return connected or remaining

    def order(self) -> List[_Relation]:
        config = self.env.config
        if config.join_order == "syntactic" or len(self.relations) <= 1:
            return list(self.relations)
        if config.join_order == "dp" and len(self.relations) <= DP_MAX_RELATIONS:
            aliases = self._dp_order()
        else:
            aliases = self._greedy_order()
        return [self.by_alias[alias] for alias in aliases]

    def _dp_order(self) -> Tuple[str, ...]:
        """Exact left-deep DP (DPsize) over admissible subsets.

        ``best[S]`` holds the cheapest left-deep order of subset ``S``;
        ties break toward the syntactic FROM order (lexicographically
        smallest position tuple) for deterministic, low-churn plans.
        """
        best: Dict[FrozenSet[str], Tuple[float, Tuple[int, ...], Tuple[str, ...]]] = {}
        for relation in self.relations:
            subset = frozenset([relation.alias])
            best[subset] = (
                self.scan_cost(relation.alias),
                (self.position[relation.alias],),
                (relation.alias,),
            )
        layer = list(best)
        for _size in range(2, len(self.relations) + 1):
            grown: Dict[FrozenSet[str], Tuple[float, Tuple[int, ...], Tuple[str, ...]]] = {}
            for prev in layer:
                prev_cost, prev_key, prev_order = best[prev]
                for alias in self._extensions(prev):
                    subset = prev | frozenset([alias])
                    entry = (
                        prev_cost + self.step_cost(prev, alias),
                        prev_key + (self.position[alias],),
                        prev_order + (alias,),
                    )
                    incumbent = grown.get(subset)
                    if incumbent is None or entry[:2] < incumbent[:2]:
                        grown[subset] = entry
            best.update(grown)
            layer = list(grown)
        full = frozenset(self.by_alias)
        return best[full][2]

    def _greedy_order(self) -> Tuple[str, ...]:
        """Greedy ordering: smallest filtered relation first, then the
        admissible extension minimizing the intermediate cardinality."""
        start = min(
            self.by_alias, key=lambda a: (self.filtered[a], self.position[a])
        )
        order = [start]
        bound = frozenset([start])
        while len(order) < len(self.relations):
            alias = min(
                self._extensions(bound),
                key=lambda a: (self.rows(bound | frozenset([a])), self.position[a]),
            )
            order.append(alias)
            bound |= frozenset([alias])
        return tuple(order)


def _consider_wcoj(
    ordered: List[_Relation],
    conjuncts: List[_Conjunct],
    orderer: "_JoinOrderer",
    env: PlanEnv,
    single_table_exprs,
) -> Tuple[Optional[ops.PhysicalOperator], Optional[str]]:
    """Cost-gate the cluster between pairwise and the leapfrog trie join.

    Returns ``(plan, gate)``: a built :class:`WCOJTrieJoin` when WCOJ
    wins (conjunct placement committed), else ``None`` plus the gate
    text for the pairwise root.  The gate records the AGM-bound
    estimate, both plan costs, and the GYO cyclicity verdict, so every
    multi-relation cluster decision is visible in ``explain()``.

    Eligibility requires a *connected simple-equi* join graph: every
    cross-relation conjunct class is derived from ``a.x = b.y``
    column-pair equalities (anything else becomes the residual), no
    relation binds the same join variable twice, and the classes link
    all relations.  The ``"auto"`` gate additionally requires the
    cluster hypergraph to be cyclic under GYO reduction — on acyclic
    clusters a well-ordered pairwise plan is already worst-case optimal
    — and the WCOJ cost estimate (AGM fractional edge cover, minimized
    over half-integral weights) to beat the mirrored pairwise cost.
    """
    config = env.config
    algo = config.join_algo
    if algo == "pairwise":
        return None, "wcoj: algo=pairwise (not considered)"

    # --- classify cross-relation conjuncts (no placement mutations) ---
    join_cs = [c for c in conjuncts if not c.placed and len(c.aliases) >= 2]
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(node: Tuple[str, str]) -> Tuple[str, str]:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    equi: List[_Conjunct] = []
    residual_cs: List[_Conjunct] = []
    for c in join_cs:
        expr = c.expr
        picked = False
        if (
            isinstance(expr, ast.BinaryOp)
            and expr.op == "="
            and isinstance(expr.left, ast.ColumnRef)
            and isinstance(expr.right, ast.ColumnRef)
        ):
            left_aliases = _aliases_of(expr.left, ordered)
            right_aliases = _aliases_of(expr.right, ordered)
            if (
                len(left_aliases) == 1
                and len(right_aliases) == 1
                and left_aliases != right_aliases
            ):
                left = (next(iter(left_aliases)), expr.left.column.lower())
                right = (next(iter(right_aliases)), expr.right.column.lower())
                parent.setdefault(left, left)
                parent.setdefault(right, right)
                root_l, root_r = find(left), find(right)
                if root_l != root_r:
                    parent[root_l] = root_r
                equi.append(c)
                picked = True
        if not picked:
            residual_cs.append(c)

    ineligible: Optional[str] = None
    if not equi:
        ineligible = "no simple equi-join conjuncts"
    elif len(ordered) > DP_MAX_RELATIONS:
        ineligible = f"more than {DP_MAX_RELATIONS} relations"

    # --- join-variable classes, in first-appearance order ---
    level_of_root: Dict[Tuple[str, str], int] = {}
    rel_vars: Dict[str, List[Tuple[int, int]]] = {}
    if ineligible is None:
        for relation in ordered:
            seen_levels: Dict[int, int] = {}
            for position, column in enumerate(relation.columns):
                node = (relation.alias, column)
                if node not in parent:
                    continue
                root = find(node)
                level = level_of_root.setdefault(root, len(level_of_root))
                if level in seen_levels:
                    ineligible = (
                        f"relation {relation.alias} repeats a join variable"
                    )
                    break
                seen_levels[level] = position
            if ineligible is not None:
                break
            if not seen_levels:
                ineligible = f"relation {relation.alias} joins no variable"
                break
            rel_vars[relation.alias] = sorted(seen_levels.items())
    if ineligible is None:
        by_level: Dict[int, List[str]] = {}
        for alias, pairs in rel_vars.items():
            for level, _ in pairs:
                by_level.setdefault(level, []).append(alias)
        component = {ordered[0].alias}
        frontier = [ordered[0].alias]
        while frontier:
            alias = frontier.pop()
            for level, _ in rel_vars[alias]:
                for other in by_level[level]:
                    if other not in component:
                        component.add(other)
                        frontier.append(other)
        if len(component) != len(ordered):
            ineligible = "equi-join graph is disconnected"
    if ineligible is not None:
        return None, f"wcoj: algo={algo} ineligible ({ineligible}) -> pairwise"

    # --- GYO reduction: acyclic iff the hypergraph reduces away ---
    edges = {alias: {level for level, _ in pairs} for alias, pairs in rel_vars.items()}
    while True:
        changed = False
        counts: Dict[int, int] = {}
        for variables in edges.values():
            for level in variables:
                counts[level] = counts.get(level, 0) + 1
        for variables in edges.values():
            lone = {level for level in variables if counts[level] == 1}
            if lone:
                variables -= lone
                changed = True
        for alias in list(edges):
            if any(
                other != alias and edges[alias] <= edges[other]
                for other in edges
            ):
                del edges[alias]
                changed = True
                break
        if not changed:
            break
    cyclic = len(edges) > 1

    # --- AGM bound via half-integral fractional edge covers ---
    var_count = len(level_of_root)
    logs = [math.log2(max(orderer.filtered[r.alias], 1.0)) for r in ordered]
    var_sets = [
        frozenset(level for level, _ in rel_vars[r.alias]) for r in ordered
    ]
    best: Optional[float] = None
    for weights in product((0.0, 0.5, 1.0), repeat=len(ordered)):
        if all(
            sum(w for w, vs in zip(weights, var_sets) if level in vs) >= 1.0
            for level in range(var_count)
        ):
            objective = sum(w * lg for w, lg in zip(weights, logs))
            if best is None or objective < best:
                best = objective
    if best is None:
        return None, f"wcoj: algo={algo} ineligible (no edge cover) -> pairwise"
    agm_pairs = 2.0 ** best

    pairwise_cost = orderer.scan_cost(ordered[0].alias)
    bound = frozenset([ordered[0].alias])
    for relation in ordered[1:]:
        pairwise_cost += orderer.step_cost(bound, relation.alias)
        bound |= frozenset([relation.alias])
    trie_rows = sum(orderer.filtered[r.alias] for r in ordered)
    seek_probes = sum(
        orderer.filtered[r.alias] * len(rel_vars[r.alias]) for r in ordered
    )
    # Leapfrog emits only result tuples, so its pair charge is the
    # estimated output — capped by the AGM bound, which is the hard
    # worst case no pairwise plan can promise.  The pairwise side
    # keeps its (optimistic, ndv-based) intermediate estimates, so
    # when even those lose, the trie join wins with a guarantee.
    est_output = orderer.rows(frozenset(r.alias for r in ordered))
    wcoj_pairs = min(agm_pairs, est_output)
    wcoj_cost = _COST.wcoj(trie_rows, seek_probes, wcoj_pairs)

    if algo == "wcoj":
        chosen, why = True, "forced"
    elif not cyclic:
        chosen, why = False, "acyclic"
    elif wcoj_cost < pairwise_cost:
        chosen, why = True, "agm-capped cost wins"
    else:
        chosen, why = False, "pairwise cheaper"
    gate = (
        f"wcoj: algo={algo} cyclic={'yes' if cyclic else 'no'} "
        f"agm_pairs={agm_pairs:.4g} wcoj_cost={wcoj_cost:.4g} "
        f"pairwise_cost={pairwise_cost:.4g} -> "
        f"{'wcoj' if chosen else 'pairwise'} ({why})"
    )
    if not chosen:
        return None, gate

    # --- build: scans with pushed filters, residual, cache level ---
    specs: List[TrieRelationSpec] = []
    for relation in ordered:
        exprs = single_table_exprs(relation)
        scan = _scan_relation(relation, exprs, env)
        scan.estimated_rows = orderer.filtered[relation.alias]
        scan.estimated_cost = orderer.scan_cost(relation.alias)
        if orderer.capture:
            orderer.stamp(scan, orderer.scan_fp(relation.alias))
        pairs = rel_vars[relation.alias]
        specs.append(
            TrieRelationSpec(
                alias=relation.alias,
                plan=scan,
                table=relation.table,
                filtered=bool(exprs),
                var_levels=tuple(level for level, _ in pairs),
                key_positions=tuple(position for _, position in pairs),
            )
        )
    for c in equi:
        c.placed = True
    layout = Layout([(r.alias, name) for r in ordered for name in r.columns])
    residual_pred = ast.conjoin([c.expr for c in residual_cs])
    compiled_residual = (
        env.compiler(layout).compile(residual_pred)
        if residual_pred is not None
        else None
    )
    for c in residual_cs:
        c.placed = True
    # Kalinsky et al.: cache at the shallowest level whose still-active
    # relations reference a proper subset of the bound prefix (the
    # projection merges distinct prefixes into one cached subtree).
    cache_spec: Optional[Tuple[int, Tuple[int, ...]]] = None
    for level in range(1, var_count):
        key_vars = sorted(
            {
                v
                for spec in specs
                if spec.var_levels[-1] >= level
                for v in spec.var_levels
                if v < level
            }
        )
        if key_vars and len(key_vars) < level:
            cache_spec = (level, tuple(key_vars))
            break
    node = WCOJTrieJoin(
        relations=specs,
        var_count=var_count,
        layout=layout,
        residual=compiled_residual,
        cache_spec=cache_spec,
    )
    node.enforced = tuple(c.expr for c in equi)
    node.estimated_rows = orderer.rows(frozenset(r.alias for r in ordered))
    node.estimated_cost = wcoj_cost
    node.wcoj_gate = gate
    if orderer.capture:
        orderer.stamp(node, orderer.join_fp(frozenset(r.alias for r in ordered)))
    return node, gate


def _plan_joins(
    relations: List[_Relation],
    conjuncts: List[_Conjunct],
    env: PlanEnv,
) -> ops.PhysicalOperator:
    """Left-deep join tree honouring ``join_order`` and the join policy."""

    def single_table_exprs(relation: _Relation) -> List[ast.Expr]:
        mine = [
            c
            for c in conjuncts
            if not c.placed and c.aliases <= frozenset([relation.alias]) and c.aliases
        ]
        consts = [c for c in conjuncts if not c.placed and not c.aliases]
        picked = mine + consts
        for c in picked:
            c.placed = True
        return [c.expr for c in picked]

    def compile_filter(relation: _Relation, exprs: List[ast.Expr]) -> Optional[Compiled]:
        predicate = ast.conjoin(exprs)
        if predicate is None:
            return None
        layout = Layout([(relation.alias, name) for name in relation.columns])
        return env.compiler(layout).compile(predicate)

    orderer = _JoinOrderer(relations, conjuncts, env)
    ordered = orderer.order()

    gate: Optional[str] = None
    if len(ordered) >= 2:
        wcoj_plan, gate = _consider_wcoj(
            ordered, conjuncts, orderer, env, single_table_exprs
        )
        if wcoj_plan is not None:
            return wcoj_plan

    first = ordered[0]
    first_exprs = single_table_exprs(first)
    current = _scan_relation(first, first_exprs, env)
    current.estimated_rows = orderer.filtered[first.alias]
    current.estimated_cost = orderer.scan_cost(first.alias)
    if orderer.capture:
        orderer.stamp(current, orderer.scan_fp(first.alias))
    bound = frozenset([first.alias])

    for relation in ordered[1:]:
        inner_exprs = single_table_exprs(relation)
        inner_filter = compile_filter(relation, inner_exprs)
        new_bound = bound | frozenset([relation.alias])
        available = [
            c for c in conjuncts if not c.placed and c.aliases <= new_bound
        ]
        est = _EstimateContext(
            estimator=orderer.estimator,
            outer_rows=orderer.rows(bound),
            output_rows=orderer.rows(new_bound),
            raw_inner=orderer.raw[relation.alias],
            filtered_inner=orderer.filtered[relation.alias],
            scan_fp=orderer.scan_fp(relation.alias) if orderer.capture else None,
        )
        current = _join_one(
            current,
            relation,
            available,
            bound,
            relations,
            env,
            inner_filter,
            inner_exprs,
            est,
        )
        if orderer.capture:
            orderer.stamp(current, orderer.join_fp(new_bound))
        for c in available:
            c.placed = True
        bound = new_bound
    if gate is not None:
        current.wcoj_gate = gate
    return current


def _constant_range_part(
    conjunct: ast.Expr, alias: str, relations: List[_Relation]
) -> Optional[Tuple[str, str, ast.Expr]]:
    """``alias.col OP expr`` where expr is row-independent (const/param)."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op in _RANGE_OPS):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    for mine, theirs, op in (
        (conjunct.left, conjunct.right, conjunct.op),
        (conjunct.right, conjunct.left, flip[conjunct.op]),
    ):
        if (
            isinstance(mine, ast.ColumnRef)
            and _aliases_of(mine, relations) == frozenset([alias])
            and not ast.column_refs(theirs)
        ):
            return (mine.column.lower(), op, theirs)
    return None


def _scan_relation(
    relation: _Relation, exprs: List[ast.Expr], env: PlanEnv
) -> ops.PhysicalOperator:
    """Scan with pushed filters, using a sorted index range when possible.

    Handles the parameterized inner query Q_R(b): conjuncts like
    ``R.b_h >= :b_b_h`` bound an index range re-evaluated per binding.
    """
    layout = Layout([(relation.alias, name) for name in relation.columns])
    compiler = env.compiler(layout)

    def full_scan() -> ops.PhysicalOperator:
        predicate = ast.conjoin(exprs)
        return relation.scan(compiler.compile(predicate) if predicate else None)

    if relation.table is None or not env.config.use_secondary_indexes or not exprs:
        return full_scan()

    # Equality conjuncts with row-independent right-hand sides can probe
    # a hash index (point scan) — the most selective option.
    equalities: Dict[str, Tuple[ast.Expr, ast.Expr]] = {}
    for expr in exprs:
        if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
            continue
        for mine, theirs in ((expr.left, expr.right), (expr.right, expr.left)):
            if (
                isinstance(mine, ast.ColumnRef)
                and _aliases_of(mine, [relation]) == frozenset([relation.alias])
                and not ast.column_refs(theirs)
            ):
                equalities.setdefault(mine.column.lower(), (expr, theirs))
                break
    if equalities:
        index = relation.table.find_hash_index(sorted(equalities))
        if index is None and len(equalities) > 1:
            from itertools import combinations as _combinations

            for size in range(len(equalities) - 1, 0, -1):
                for subset in _combinations(sorted(equalities), size):
                    index = relation.table.find_hash_index(subset)
                    if index is not None:
                        break
                if index is not None:
                    break
        if index is not None:
            empty_layout = Layout([(None, "_dummy")])
            bound_compiler = env.compiler(empty_layout)
            ordered_columns = [
                relation.table.schema.column_names[p] for p in index.column_positions
            ]
            probe = bound_compiler.compile(
                ast.TupleExpr(tuple(equalities[c][1] for c in ordered_columns))
            )
            used_exprs = [equalities[c][0] for c in ordered_columns]
            layout = Layout([(relation.alias, name) for name in relation.columns])
            residual_predicate = ast.conjoin(
                [e for e in exprs if e not in used_exprs]
            )
            residual = (
                env.compiler(layout).compile(residual_predicate)
                if residual_predicate
                else None
            )
            scan = ops.IndexPointScan(
                relation.table, relation.alias, index, probe, residual
            )
            # The probe key, not a filter, enforces these conjuncts.
            scan.enforced = tuple(used_exprs)
            return scan

    candidates: Dict[str, List[Tuple[ast.Expr, str, ast.Expr]]] = {}
    for expr in exprs:
        parts = _constant_range_part(expr, relation.alias, [relation])
        if parts is None:
            continue
        column, op, bound_expr = parts
        if relation.table.find_sorted_index(column) is not None:
            candidates.setdefault(column, []).append((expr, op, bound_expr))
    if not candidates:
        return full_scan()
    column = max(candidates, key=lambda c: len(candidates[c]))
    index = relation.table.find_sorted_index(column)
    assert index is not None
    empty_layout = Layout([(None, "_dummy")])
    bound_compiler = env.compiler(empty_layout)
    low = high = None
    low_strict = high_strict = False
    used: List[ast.Expr] = []
    for expr, op, bound_expr in candidates[column]:
        if op in (">", ">=") and low is None:
            low = bound_compiler.compile(bound_expr)
            low_strict = op == ">"
            used.append(expr)
        elif op in ("<", "<=") and high is None:
            high = bound_compiler.compile(bound_expr)
            high_strict = op == "<"
            used.append(expr)
    if low is None and high is None:
        return full_scan()
    residual_exprs = [e for e in exprs if e not in used]
    residual_predicate = ast.conjoin(residual_exprs)
    residual = (
        compiler.compile(residual_predicate) if residual_predicate else None
    )
    range_scan = ops.IndexRangeScan(
        relation.table,
        relation.alias,
        index,
        low=low,
        high=high,
        low_strict=low_strict,
        high_strict=high_strict,
        residual=residual,
    )
    # The index range bounds, not a filter, enforce these conjuncts.
    range_scan.enforced = tuple(used)
    return range_scan


def _join_one(
    outer: ops.PhysicalOperator,
    relation: _Relation,
    available: List[_Conjunct],
    bound: frozenset,
    relations: List[_Relation],
    env: PlanEnv,
    inner_filter: Optional[Compiled],
    inner_exprs: Optional[List[ast.Expr]] = None,
    est: Optional[_EstimateContext] = None,
) -> ops.PhysicalOperator:
    config = env.config
    joined_layout = outer.layout.concat(
        Layout([(relation.alias, name) for name in relation.columns])
    )
    joined_compiler = env.compiler(joined_layout)
    outer_compiler = env.compiler(outer.layout)

    equi: List[Tuple[_Conjunct, str, ast.Expr]] = []
    ranges: List[Tuple[_Conjunct, str, str, ast.Expr]] = []
    for conjunct in available:
        parts = _equi_parts(conjunct.expr, relation.alias, bound, relations)
        if parts is not None:
            equi.append((conjunct, parts[0], parts[1]))
            continue
        range_parts = _range_part(conjunct.expr, relation.alias, bound, relations)
        if range_parts is not None:
            ranges.append((conjunct, *range_parts))

    def residual_excluding(used: Sequence[_Conjunct]) -> Optional[Compiled]:
        rest = [c.expr for c in available if c not in used]
        predicate = ast.conjoin(rest)
        return joined_compiler.compile(predicate) if predicate is not None else None

    def pairs_estimate(consumed: Sequence[_Conjunct]) -> float:
        """Estimated join_pairs: outer rows × filtered inner rows ×
        selectivity of the conjuncts the access method itself applies."""
        if est is None:
            return 0.0
        sel = est.estimator.conjunction([c.expr for c in consumed])
        return est.outer_rows * est.filtered_inner * sel

    def try_index_equi() -> Optional[Tuple[ops.PhysicalOperator, float]]:
        if relation.table is None or not equi:
            return None
        index, chosen = _matching_hash_index(relation.table, equi, config)
        if index is None:
            return None
        # Probe key must follow the index's column order.
        by_column = {column: expr for _, column, expr in chosen}
        ordered = [
            relation.table.schema.column_names[position]
            for position in index.column_positions
        ]
        probe_exprs = [by_column[column] for column in ordered]
        probe = outer_compiler.compile(ast.TupleExpr(tuple(probe_exprs)))
        plan = ops.IndexNestedLoopJoin(
            outer,
            relation.table,
            relation.alias,
            index,
            probe,
            residual=residual_excluding([c for c, _, _ in chosen]),
            inner_filter=inner_filter,
        )
        # Only conjuncts whose expression actually feeds the probe key
        # are enforced by it; a chosen conjunct whose column was
        # shadowed in by_column would be enforced by nothing, which the
        # plan verifier reports as a dropped predicate.
        plan.enforced = tuple(
            c.expr
            for c, column, expr in chosen
            if by_column[column] is expr
        )
        cost = _COST.index_nested_loop_join(
            est.outer_rows if est else 0.0,
            pairs_estimate([c for c, _, _ in chosen]),
        )
        return plan, cost

    def try_index_range() -> Optional[Tuple[ops.PhysicalOperator, float]]:
        if relation.table is None or not ranges or not config.use_secondary_indexes:
            return None
        # Prefer a column with both bounds, else any bounded column.
        by_column: Dict[str, List[Tuple[_Conjunct, str, ast.Expr]]] = {}
        for conjunct, column, op, expr in ranges:
            index = relation.table.find_sorted_index(column)
            if index is not None:
                by_column.setdefault(column, []).append((conjunct, op, expr))
        if not by_column:
            return None
        column = max(by_column, key=lambda c: len(by_column[c]))
        index = relation.table.find_sorted_index(column)
        assert index is not None
        low = high = None
        low_strict = high_strict = False
        used: List[_Conjunct] = []
        for conjunct, op, expr in by_column[column]:
            if op in (">", ">=") and low is None:
                low = outer_compiler.compile(expr)
                low_strict = op == ">"
                used.append(conjunct)
            elif op in ("<", "<=") and high is None:
                high = outer_compiler.compile(expr)
                high_strict = op == "<"
                used.append(conjunct)
        plan = ops.SortedIndexRangeJoin(
            outer,
            relation.table,
            relation.alias,
            index,
            low=low,
            high=high,
            low_strict=low_strict,
            high_strict=high_strict,
            residual=residual_excluding(used),
            inner_filter=inner_filter,
        )
        # The range probe itself enforces the bound conjuncts.
        plan.enforced = tuple(c.expr for c in used)
        cost = _COST.index_nested_loop_join(
            est.outer_rows if est else 0.0, pairs_estimate(used)
        )
        return plan, cost

    def inner_scan_plan() -> ops.PhysicalOperator:
        if inner_exprs is not None:
            scan = _scan_relation(relation, inner_exprs, env)
        else:
            scan = relation.scan(inner_filter)
        if est is not None:
            scan.estimated_rows = est.filtered_inner
            scan.estimated_cost = _COST.scan(est.raw_inner)
            if est.scan_fp is not None:
                scan.feedback_fingerprint = est.scan_fp
        return scan

    def try_hash() -> Optional[Tuple[ops.PhysicalOperator, float]]:
        if not equi or not config.allow_hash_join:
            return None
        inner_scan = inner_scan_plan()
        inner_layout = inner_scan.layout
        inner_compiler = env.compiler(inner_layout)
        outer_key = outer_compiler.compile(
            ast.TupleExpr(tuple(expr for _, _, expr in equi))
        )
        inner_key = inner_compiler.compile(
            ast.TupleExpr(
                tuple(ast.ColumnRef(relation.alias, column) for _, column, _ in equi)
            )
        )
        # Build the hash table on the estimated-smaller input; ties keep
        # the traditional build-on-inner.  When no estimate is available
        # fall back to len(table) for the inner side vs. nothing known
        # about the outer — keep building on the inner then.
        build = "inner"
        if est is not None and est.outer_rows < est.filtered_inner:
            build = "outer"
        plan = ops.HashJoin(
            outer,
            inner_scan,
            outer_key,
            inner_key,
            residual=residual_excluding([c for c, _, _ in equi]),
            build=build,
        )
        # The hash keys enforce every equi conjunct.
        plan.enforced = tuple(c.expr for c, _, _ in equi)
        cost = _COST.scan(est.raw_inner if est else 0.0) + _COST.hash_join(
            est.outer_rows if est else 0.0,
            pairs_estimate([c for c, _, _ in equi]),
        )
        return plan, cost

    def nested_loop() -> Tuple[ops.PhysicalOperator, float]:
        predicate = ast.conjoin([c.expr for c in available])
        compiled = joined_compiler.compile(predicate) if predicate is not None else None
        plan = ops.NestedLoopJoin(outer, inner_scan_plan(), compiled)
        cost = _COST.scan(est.raw_inner if est else 0.0) + _COST.nested_loop_join(
            est.outer_rows if est else 0.0, est.filtered_inner if est else 0.0
        )
        return plan, cost

    if config.join_policy == "hash-first":
        candidates = (try_hash, try_index_equi, try_index_range)
    elif config.join_policy == "index-first":
        candidates = (try_index_equi, try_hash, try_index_range)
    elif config.join_policy == "nlj-only":
        candidates = ()
    else:
        raise PlanningError(f"unknown join policy {config.join_policy!r}")
    made = [r for r in (candidate() for candidate in candidates) if r is not None]
    cost_based = config.join_order in ("dp", "greedy") and est is not None
    if cost_based and made:
        # Cost-based method selection; nested loop competes too.  Ties
        # keep the policy's preference order (stable min).
        made.append(nested_loop())
        plan, step_cost = min(made, key=lambda pc: pc[1])
    elif made:
        plan, step_cost = made[0]
    else:
        plan, step_cost = nested_loop()
    if est is not None:
        plan.estimated_rows = est.output_rows
        base = outer.estimated_cost if outer.estimated_cost is not None else 0.0
        plan.estimated_cost = base + step_cost
    return plan


def _propagate_estimates(op: ops.PhysicalOperator) -> None:
    """Give post-join operators estimates derived from their children.

    Join and scan nodes are annotated during join planning; this pass
    fills in the rest (Filter, HashAggregate, Project, Sort, ...) with
    simple textbook heuristics: filters keep ``DEFAULT_SELECTIVITY`` of
    their input, aggregation produces ``sqrt(N)`` groups (1 for scalar
    aggregates), everything else passes through.  Nodes whose subtree
    was never annotated (hand-built NLJP pipelines) are left alone.
    """
    children = op.children()
    for child in children:
        _propagate_estimates(child)
    if op.estimated_rows is not None or not children:
        return
    if any(child.estimated_rows is None for child in children):
        return
    child = children[0]
    child_rows = float(child.estimated_rows)
    child_cost = float(child.estimated_cost or 0.0)
    if isinstance(op, ops.Filter):
        op.estimated_rows = child_rows * DEFAULT_SELECTIVITY
        op.estimated_cost = child_cost
    elif isinstance(op, ops.HashAggregate):
        if not op.key_fns:
            op.estimated_rows = 1.0
        else:
            op.estimated_rows = max(1.0, math.sqrt(child_rows))
        op.estimated_cost = child_cost + _COST.aggregate(child_rows)
    elif isinstance(op, ops.Limit):
        op.estimated_rows = min(float(op.limit), child_rows)
        op.estimated_cost = child_cost
    else:
        op.estimated_rows = child_rows
        op.estimated_cost = child_cost


# ---------------------------------------------------------------------------
# SELECT planning
# ---------------------------------------------------------------------------


def _output_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias.lower()
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.column.lower()
    if isinstance(item.expr, ast.FuncCall):
        return item.expr.name.lower()
    return f"col{position}"


def _expand_stars(
    items: Sequence[ast.SelectItem], layout: Layout
) -> List[ast.SelectItem]:
    expanded: List[ast.SelectItem] = []
    for item in items:
        if isinstance(item.expr, ast.Star):
            for alias, column in layout.slots:
                if item.expr.table is None or alias == item.expr.table.lower():
                    expanded.append(ast.SelectItem(ast.ColumnRef(alias, column)))
        else:
            expanded.append(item)
    return expanded


def plan_select(
    select: ast.Select, env: PlanEnv
) -> Tuple[ops.PhysicalOperator, Tuple[str, ...]]:
    """Plan one SELECT block; returns (plan, output column names)."""
    relations, extra_conjuncts = _flatten_from(select.from_items, env)
    all_conjuncts = [
        _Conjunct(expr=c, aliases=_aliases_of(c, relations))
        for c in list(ast.conjuncts(select.where)) + extra_conjuncts
    ]
    joined = _plan_joins(relations, all_conjuncts, env)
    unplaced = [c for c in all_conjuncts if not c.placed]
    if unplaced:
        predicate = ast.conjoin([c.expr for c in unplaced])
        assert predicate is not None
        compiled = env.compiler(joined.layout).compile(predicate)
        joined = ops.Filter(joined, compiled, label="where")

    items = _expand_stars(select.items, joined.layout)
    output_names = tuple(_output_name(item, i) for i, item in enumerate(items))

    has_aggregates = bool(
        ast.aggregate_calls(ast.TupleExpr(tuple(item.expr for item in items)))
        or (select.having is not None and ast.aggregate_calls(select.having))
        or any(ast.aggregate_calls(o.expr) for o in select.order_by)
    )

    rewrite_fn = None
    if select.group_by or has_aggregates:
        plan, rewritten_items, rewrite_fn = _plan_aggregation(
            joined, select, items, env
        )
    else:
        if select.having is not None:
            raise PlanningError("HAVING requires GROUP BY or aggregates")
        plan, rewritten_items = joined, items

    # Project.
    output_layout = Layout([(None, name) for name in output_names])
    compiler = env.compiler(plan.layout)
    output_fns = [compiler.compile(item.expr) for item in rewritten_items]
    projected: ops.PhysicalOperator = ops.Project(plan, output_fns, output_layout)
    if select.distinct:
        projected = ops.Distinct(projected)

    # ORDER BY: resolve against output aliases first, then by structural
    # match with a projected expression, then against the output layout.
    if select.order_by:
        key_fns: List[Compiled] = []
        ascending: List[bool] = []
        rewritten_by_struct = {}
        for position, item in enumerate(rewritten_items):
            key = (
                item.expr
                if rewrite_fn is not None
                else _normalize_refs(item.expr, plan.layout)
            )
            rewritten_by_struct.setdefault(key, position)
        out_compiler = env.compiler(output_layout)
        for order_item in select.order_by:
            expr = order_item.expr
            fn: Optional[Compiled] = None
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                position = output_layout.try_resolve(None, expr.column)
                if position is not None:
                    fn = (lambda p: lambda row, params: row[p])(position)
            if fn is None:
                # Structural match against a projected expression
                # (normalized the same way the projection was).
                rewritten = (
                    rewrite_fn(expr)
                    if rewrite_fn is not None
                    else _normalize_refs(expr, plan.layout)
                )
                position = rewritten_by_struct.get(rewritten)
                if position is not None:
                    fn = (lambda p: lambda row, params: row[p])(position)
            if fn is None:
                fn = out_compiler.compile(expr)
            key_fns.append(fn)
            ascending.append(order_item.ascending)
        projected = ops.Sort(projected, key_fns, ascending)

    if select.limit is not None:
        projected = ops.Limit(projected, select.limit)
    _propagate_estimates(projected)
    # Annotate the block root for the plan verifier: every logical
    # conjunct of this block must be enforced by exactly one operator
    # below, and HAVING by exactly one marked filter.
    projected.block_conjuncts = tuple(c.expr for c in all_conjuncts)
    projected.block_having = select.having
    return projected, output_names


def _normalize_refs(expr: ast.Expr, layout: Layout) -> ast.Expr:
    """Qualify every resolvable ColumnRef with its layout slot.

    Makes structural matching robust: ``pid`` and ``s1.pid`` both
    normalize to ``s1.pid`` when unambiguous, so group-key and
    aggregate replacement matches regardless of how the user spelled
    the reference.
    """

    def visit(node: Any) -> Any:
        if isinstance(node, ast.ColumnRef):
            position = layout.try_resolve(node.table, node.column)
            if position is not None:
                alias, column = layout.slots[position]
                return ast.ColumnRef(alias, column)
        return node

    return ast.transform(expr, visit)


def _plan_aggregation(
    child: ops.PhysicalOperator,
    select: ast.Select,
    items: Sequence[ast.SelectItem],
    env: PlanEnv,
) -> Tuple[ops.PhysicalOperator, List[ast.SelectItem], Any]:
    """Plan GROUP BY / scalar aggregation and rewrite dependent exprs.

    Returns the post-aggregation (and post-HAVING) plan, SELECT items
    rewritten to reference aggregate output slots, and the rewrite
    function itself (for ORDER BY).
    """
    input_compiler = env.compiler(child.layout)

    # Resolve GROUP BY entries; an unqualified name that matches a SELECT
    # alias refers to that item's expression (PostgreSQL behaviour).
    alias_map = {
        item.alias.lower(): item.expr for item in items if item.alias is not None
    }
    group_exprs: List[ast.Expr] = []
    for expr in select.group_by:
        if (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and child.layout.try_resolve(None, expr.column) is None
            and expr.column.lower() in alias_map
        ):
            expr = alias_map[expr.column.lower()]
        group_exprs.append(_normalize_refs(expr, child.layout))

    # Aggregate calls across SELECT, HAVING, ORDER BY (deduplicated),
    # collected over normalized expressions so matching is structural.
    normalized_items = [
        ast.SelectItem(_normalize_refs(item.expr, child.layout), item.alias)
        for item in items
    ]
    normalized_having = (
        _normalize_refs(select.having, child.layout)
        if select.having is not None
        else None
    )
    aggregate_nodes: List[ast.FuncCall] = []

    def collect(node: Any) -> None:
        for call in ast.aggregate_calls(node):
            if call not in aggregate_nodes:
                aggregate_nodes.append(call)

    for item in normalized_items:
        collect(item.expr)
    if normalized_having is not None:
        collect(normalized_having)
    for order_item in select.order_by:
        collect(_normalize_refs(order_item.expr, child.layout))

    # Output layout: group-key slots (retaining alias.column names for
    # ColumnRef keys) followed by aggregate slots.
    slots: List[Tuple[Optional[str], str]] = []
    key_replacements: Dict[ast.Expr, ast.ColumnRef] = {}
    for position, expr in enumerate(group_exprs):
        if isinstance(expr, ast.ColumnRef):
            resolved = child.layout.slots[
                child.layout.resolve(expr.table, expr.column)
            ]
            slots.append(resolved)
            key_replacements[expr] = ast.ColumnRef(resolved[0], resolved[1])
        else:
            name = f"_key{position}"
            slots.append((None, name))
            key_replacements[expr] = ast.ColumnRef(None, name)
    agg_replacements: Dict[ast.FuncCall, ast.ColumnRef] = {}
    for position, call in enumerate(aggregate_nodes):
        name = f"_agg{position}"
        slots.append((None, name))
        agg_replacements[call] = ast.ColumnRef(None, name)
    output_layout = Layout(slots)

    key_fns = [input_compiler.compile(expr) for expr in group_exprs]
    specs: List[AggregateSpec] = []
    for call in aggregate_nodes:
        if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            specs.append(make_spec(call, None))
        else:
            specs.append(make_spec(call, input_compiler.compile(call.args[0])))

    plan: ops.PhysicalOperator = ops.HashAggregate(
        child, key_fns, specs, output_layout
    )

    def rewrite(expr: ast.Expr) -> ast.Expr:
        normalized = _normalize_refs(expr, child.layout)

        # Pass 1: replace whole aggregate calls (so group-key
        # replacement never rewrites an aggregate's argument first).
        def visit_aggs(node: Any) -> Any:
            if isinstance(node, ast.FuncCall) and node.is_aggregate:
                return agg_replacements.get(node, node)
            return node

        # Pass 2: replace group-key expressions.
        def visit_keys(node: Any) -> Any:
            if isinstance(node, ast.Expr):
                try:
                    return key_replacements.get(node, node)
                except TypeError:  # unhashable literals cannot be keys
                    return node
            return node

        return ast.transform(ast.transform(normalized, visit_aggs), visit_keys)

    post_compiler = env.compiler(output_layout)
    if normalized_having is not None:
        having_rewritten = rewrite(normalized_having)
        _check_no_aggregates(having_rewritten, "HAVING")
        plan = ops.Filter(plan, post_compiler.compile(having_rewritten), label="having")
        plan.enforces_having = True

    rewritten_items: List[ast.SelectItem] = []
    for item in items:
        rewritten = rewrite(item.expr)
        _check_no_aggregates(rewritten, "SELECT")
        rewritten_items.append(ast.SelectItem(rewritten, item.alias))
    return plan, rewritten_items, rewrite


def _check_no_aggregates(expr: ast.Expr, where: str) -> None:
    if ast.aggregate_calls(expr):
        raise PlanningError(
            f"aggregate in {where} does not match the grouping context"
        )
