"""The Smart-Iceberg optimization procedure (Section 7, Appendix D).

Given a statement, the optimizer:

1. analyzes each CTE block; iceberg-shaped CTEs get the generalized
   a-priori rewrite (this is how the "pairs" query's WITH block is
   optimized);
2. on the main block, runs the Appendix D loop: repeatedly
   ``pick_gapriori`` over subsets of the joined relation instances,
   collecting reducers, then ``pick_memprune`` to select an NLJP
   partition compatible with the reducers;
3. emits an :class:`OptimizedQuery`: reducers applied as IN-subquery
   filters (Listing 11 composes them into Q_B/Q_R automatically), and
   the join+aggregation pipeline replaced by an NLJP operator when
   memoization/pruning apply.

Every decision — applied or not, and why — is recorded in the
:class:`OptimizationReport` so ``explain()`` shows the full reasoning.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis import (
    analyze_query,
    lint_query,
    resolve_query,
    verify_planned,
)
from repro.errors import (
    AnalysisError,
    OptimizationError,
    PlanningError,
    PlanVerificationError,
    ReproError,
)
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.render import render
from repro.engine import operators as ops
from repro.engine.cardinality import (
    DEFAULT_RELATION_ROWS,
    CardinalityEstimator,
    RelationProfile,
)
from repro.engine.executor import Result, run_planned
from repro.engine.layout import Layout
from repro.engine.planner import (
    EngineConfig,
    PlanEnv,
    PlannedQuery,
    plan_select,
)
from repro.constraints.fd import FDSet
from repro.constraints.inference import grouped_output_fds
from repro.core.apriori import (
    AprioriDecision,
    Reducer,
    apply_reducer_to_select,
    build_reducer,
    check_apriori,
)
from repro.core.iceberg import IcebergBlock, PartitionView
from repro.core.memo import MemoizationDecision, check_memoization
from repro.core.nljp import NLJPOperator
from repro.core.pruning import PruningDecision, check_pruning
from repro.core.subsumption import (
    SubsumptionPredicate,
    SubsumptionProblem,
    solve_subsumption,
    subsumption_problem,
)
from repro.logic.formula import Formula
from repro.obs.metrics import REGISTRY
from repro.storage.catalog import Database

CteInfo = Tuple[Tuple[str, ...], FDSet, FrozenSet[str]]

#: Derived formulas one optimizer keeps.  An engine sees a handful of
#: join-condition shapes (Q1-Q8 have three); the bound only stops a
#: stream of ever-new conditions from growing the map without limit.
_MAX_DERIVED_FORMULAS = 64


@dataclass
class OptimizationReport:
    """Everything the optimizer decided, with reasons."""

    apriori: List[Tuple[str, Reducer, AprioriDecision]] = field(default_factory=list)
    apriori_rejected: List[Tuple[str, str]] = field(default_factory=list)
    pruning: Optional[PruningDecision] = None
    memoization: Optional[MemoizationDecision] = None
    nljp_partition: Optional[Tuple[str, ...]] = None
    notes: List[str] = field(default_factory=list)
    #: Wall time spent in static analysis + plan verification (the
    #: ``analyze`` knob), kept separate so benchmarks can report the
    #: analyzer's overhead as its own phase.
    analyze_seconds: float = 0.0
    #: Ordered (phase name, wall seconds) pairs covering the whole
    #: optimization run; under ``config.trace != "off"`` these become
    #: phase spans on the query profile.
    phases: List[Tuple[str, float]] = field(default_factory=list)
    #: Per-technique fallbacks taken under ``degradation="fallback"``:
    #: each entry says which phase failed and what plan shape replaced
    #: it.  Propagated into ``ExecutionStats.degradations`` at run time.
    degradations: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines: List[str] = []
        for event in self.degradations:
            lines.append(f"DEGRADED {event}")
        for scope, reducer, decision in self.apriori:
            lines.append(
                f"a-priori[{scope}]: reduce {','.join(reducer.target_aliases)} "
                f"({decision.reason})"
            )
        for scope, reason in self.apriori_rejected:
            lines.append(f"a-priori[{scope}] not applied: {reason}")
        if self.nljp_partition:
            lines.append(f"NLJP driver: {','.join(self.nljp_partition)}")
        if self.pruning is not None:
            state = "ON" if self.pruning.applicable else "off"
            lines.append(f"pruning {state}: {self.pruning.reason}")
        if self.memoization is not None:
            state = "ON" if bool(self.memoization) else "off"
            lines.append(f"memoization {state}: {self.memoization.reason}")
        lines.extend(self.notes)
        return "\n".join(lines)


@dataclass
class OptimizedQuery:
    """A statement after Smart-Iceberg optimization, ready to run."""

    original_sql: str
    rewritten: ast.Query
    planned: PlannedQuery
    report: OptimizationReport
    nljp: Optional[NLJPOperator] = None

    def execute(
        self,
        params: Optional[Dict] = None,
        execution_mode: Optional[str] = None,
        batch_size: Optional[int] = None,
        cancel_token: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
        deadline_seconds: Optional[float] = None,
        trace_label: Optional[str] = None,
    ) -> Result:
        """Run the optimized plan.

        Optimizer-time degradation events (per-technique fallbacks) are
        prepended to the execution's ``stats.degradations`` so callers
        see the full story in one place — on success *and* on the
        partial stats carried by a typed error.

        The keyword overrides scope governor/mode knobs to *this
        execution*: the serving layer re-executes one optimized plan
        many times with per-call cancel tokens, fault plans, deadlines
        and execution modes, none of which may stick to the plan.
        """
        tracer = None
        config = self.planned.env.config
        if config.trace != "off":
            from repro.obs.tracer import Tracer

            tracer = Tracer(config.trace, label=trace_label or "query")
            for name, seconds in self.report.phases:
                tracer.add_phase(f"optimizer:{name}", seconds)
        try:
            result = run_planned(
                self.planned,
                params,
                execution_mode=execution_mode,
                batch_size=batch_size,
                tracer=tracer,
                cancel_token=cancel_token,
                fault_plan=fault_plan,
                deadline_seconds=deadline_seconds,
                trace_label=trace_label,
            )
        except ReproError as error:
            if self.report.degradations and error.stats is not None:
                error.stats.degradations[:0] = self.report.degradations
            raise
        if self.report.degradations:
            result.stats.degradations[:0] = self.report.degradations
        return result

    def explain(self) -> str:
        return self.report.summary() + "\n---\n" + self.planned.explain()

    def rewritten_sql(self) -> str:
        return render(self.rewritten)


class SmartIcebergOptimizer:
    """The paper's optimizer: a pre-compiler over SQL statements.

    Feature toggles mirror the paper's Figure 1 configurations:
    ``enable_apriori``, ``enable_pruning``, ``enable_memo``.
    """

    def __init__(
        self,
        db: Database,
        enable_apriori: bool = True,
        enable_pruning: bool = True,
        enable_memo: bool = True,
        config: Optional[EngineConfig] = None,
        cache_index: bool = True,
        cache_max_entries: Optional[int] = None,
        cache_policy: str = "none",
        max_partition_size: int = 3,
        binding_order: str = "none",
        cross_query_memo: bool = False,
    ) -> None:
        if binding_order not in ("none", "auto"):
            raise OptimizationError(
                f"binding_order must be 'none' or 'auto', got {binding_order!r}"
            )
        # Validate the cache knobs here, at the API boundary, instead of
        # letting a bad value surface later as a failure deep inside
        # NLJPCache construction mid-optimization.
        if cache_policy not in ("none", "lru", "utility"):
            raise ValueError(
                f"cache_policy must be one of ('none', 'lru', 'utility'), "
                f"got {cache_policy!r}"
            )
        if cache_max_entries is not None and cache_max_entries < 1:
            raise ValueError(
                f"cache_max_entries must be >= 1, got {cache_max_entries}"
            )
        if cache_policy != "none" and cache_max_entries is None:
            raise ValueError(
                f"cache_policy {cache_policy!r} requires cache_max_entries"
            )
        self.db = db
        self.enable_apriori = enable_apriori
        self.enable_pruning = enable_pruning
        self.enable_memo = enable_memo
        self.config = config or EngineConfig.smart()
        self.cache_index = cache_index
        self.cache_max_entries = cache_max_entries
        self.cache_policy = cache_policy
        self.max_partition_size = max_partition_size
        self.binding_order = binding_order
        # Serving-layer mode: the NLJP cache outlives one execution
        # (see repro.serve.plan_cache), so the "all bindings distinct,
        # cache would never hit" cost demotion no longer applies —
        # repeats arrive from *later* executions of the same prepared
        # statement (the cross-bindings caching view of Kalinsky et
        # al.'s Flexible Caching in Trie Joins).
        self.cross_query_memo = cross_query_memo
        # Governor-facing knobs: per-technique fallback and the
        # optimizer-time fault sites ("reducer", "qe").
        self.degradation = self.config.degradation
        self.fault_plan = self.config.fault_plan
        # p⪰ depends on the join condition alone — not on data, HAVING
        # constants or aliases — so each condition shape is derived
        # once per optimizer and reused by every later statement.
        self._derived: Dict[SubsumptionProblem, Formula] = {}  # guarded-by: self._derived_lock
        self._derived_lock = threading.Lock()

    def _observe_fault(self, site: str) -> None:
        """Forward an optimizer-time fault site to the configured plan.

        Virtual slowdowns are meaningless before execution starts (no
        deadline clock is running yet), so only injected errors have an
        effect here.
        """
        if self.fault_plan is not None:
            self.fault_plan.observe(site)

    def _derive_subsumption(
        self,
        theta: Sequence[ast.Expr],
        j_left: Sequence[str],
        j_right: Sequence[str],
    ) -> SubsumptionPredicate:
        """``derive_subsumption``, reusing this optimizer's formulas.

        The key is the α-renamed problem itself, so the same condition
        under other aliases, attribute names or thresholds is a hit.
        The derivation runs outside the lock: two threads meeting a new
        condition together both derive it (and get equal formulas)
        instead of one waiting tens of milliseconds on the other.
        Every call returns a fresh predicate — plans never share the
        compiled evaluator.
        """
        attributes, problem = subsumption_problem(theta, j_left, j_right)
        with self._derived_lock:
            formula = self._derived.get(problem)
        outcome = "reused"
        if formula is None:
            outcome = "derived"
            formula = solve_subsumption(problem)
            with self._derived_lock:
                self._derived[problem] = formula
                if len(self._derived) > _MAX_DERIVED_FORMULAS:
                    del self._derived[next(iter(self._derived))]  # the oldest
        REGISTRY.counter(
            "repro_subsumption_derivations_total",
            "Subsumption predicates handed to the optimizer, by whether "
            "the formula was derived (QE/FME) or reused from this engine",
            ("outcome",),
        ).inc(outcome=outcome)
        return SubsumptionPredicate(formula=formula, attributes=attributes)

    # ------------------------------------------------------------------
    def optimize(self, statement) -> OptimizedQuery:
        query = parse(statement) if isinstance(statement, str) else statement
        if isinstance(query, ast.Select):
            query = ast.Query.of(query)
        report = OptimizationReport()
        perf = time.perf_counter
        started = perf()
        self._analyze_statement(query, report)
        report.phases.append(("analyze", perf() - started))

        # Phase 1: per-CTE a-priori.
        started = perf()
        cte_infos: Dict[str, CteInfo] = {}
        new_ctes: List[ast.CommonTableExpr] = []
        for cte in query.ctes:
            select = cte.query
            if self.enable_apriori:
                select = self._safe_apriori_phase(
                    select, cte_infos, report, scope=f"with:{cte.name}"
                )
            new_ctes.append(
                ast.CommonTableExpr(name=cte.name, query=select, columns=cte.columns)
            )
            cte_infos[cte.name.lower()] = self._cte_info(cte, select)

        # Phase 2: main block a-priori.
        body = query.body
        if self.enable_apriori:
            body = self._safe_apriori_phase(body, cte_infos, report, scope="main")

        rewritten = ast.Query(body=body, ctes=tuple(new_ctes))
        report.phases.append(("apriori", perf() - started))

        # Phase 3: memoization/pruning via NLJP.
        started = perf()
        env = PlanEnv(db=self.db, config=self.config)
        for cte in rewritten.ctes:
            plan, columns = plan_select(cte.query, env)
            from repro.engine.planner import _SharedMaterialize

            env.ctes[cte.name.lower()] = (
                _SharedMaterialize(plan, label=cte.name),
                tuple(columns),
            )

        nljp = None
        if self.enable_pruning or self.enable_memo:
            try:
                nljp = self._memprune_phase(body, cte_infos, env, report)
            except ReproError as error:
                if self.degradation != "fallback":
                    raise
                nljp = None
                report.pruning = None
                report.memoization = None
                report.nljp_partition = None
                report.degradations.append(
                    f"memprune: {error} — falling back to the baseline join plan"
                )

        report.phases.append(("memprune", perf() - started))

        started = perf()
        if nljp is not None:
            planned = self._finalize_nljp_plan(body, nljp, env)
        else:
            plan, columns = plan_select(body, env)
            planned = PlannedQuery(
                root=ops.CountOutput(plan), columns=tuple(columns), env=env
            )
        report.phases.append(("finalize", perf() - started))

        started = perf()
        self._verify_plan(planned, report)
        report.phases.append(("verify", perf() - started))

        return OptimizedQuery(
            original_sql=(
                statement if isinstance(statement, str) else render(query)
            ),
            rewritten=rewritten,
            planned=planned,
            report=report,
            nljp=nljp,
        )

    # ------------------------------------------------------------------
    # Static analysis (the ``analyze`` knob)
    # ------------------------------------------------------------------
    def _analyze_statement(
        self, query: ast.Query, report: OptimizationReport
    ) -> None:
        """Pre-optimization semantic analysis, per ``config.analyze``.

        Name resolution always runs: a query referencing unknown or
        ambiguous columns fails here with a typed
        :class:`~repro.errors.AnalysisError` instead of surfacing
        planner internals.  Under ``"warn"``/``"strict"`` the full
        typechecker and the lint rules run too; type errors raise in
        strict mode and land in the report's notes in warn mode (lint
        findings are always advisory).
        """
        mode = self.config.analyze
        started = time.perf_counter()
        try:
            resolve_query(self.db, query)
            if mode != "off":
                try:
                    analyze_query(self.db, query)
                    findings = lint_query(self.db, query)
                except AnalysisError as error:
                    if mode == "strict":
                        raise
                    report.notes.append(f"analysis: {error}")
                    findings = []
                for finding in findings:
                    report.notes.append(f"lint: {finding}")
        finally:
            report.analyze_seconds += time.perf_counter() - started

    def _verify_plan(
        self, planned: PlannedQuery, report: OptimizationReport
    ) -> None:
        """Post-planning plan verification, per ``config.analyze``.

        Proves conjunct accounting (no dropped/doubled predicates),
        schema chaining, and NLJP subsumption soundness.  Violations
        raise under ``"strict"`` and become notes under ``"warn"``.
        """
        mode = self.config.analyze
        if mode == "off":
            return
        started = time.perf_counter()
        try:
            violations = verify_planned(planned)
            if violations:
                if mode == "strict":
                    raise PlanVerificationError(
                        "plan verification failed: " + "; ".join(violations),
                        violations=violations,
                    )
                report.notes.extend(
                    f"verifier: {violation}" for violation in violations
                )
        finally:
            report.analyze_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # Cardinality estimates (Appendix D technique selection)
    # ------------------------------------------------------------------
    def _block_estimator(self, block: IcebergBlock) -> CardinalityEstimator:
        """An estimator over the block's FROM instances.

        Base-table instances expose row counts, ANALYZE statistics, and
        index distinct counts; CTE instances fall back to the default
        relation size.  Under ``feedback="apply"`` the estimator also
        consults the database's feedback store, and tables that were
        never ANALYZEd fall back to online sketch statistics.
        """
        apply_feedback = self.config.feedback == "apply"
        profiles = []
        for relation in block.relations:
            table = (
                self.db.table(relation.table_name)
                if relation.table_name is not None
                else None
            )
            rows = float(len(table)) if table is not None else DEFAULT_RELATION_ROWS
            stats = table.statistics if table is not None else None
            if stats is None and apply_feedback and table is not None and rows > 0:
                stats = table.sketch_statistics()
            profiles.append(
                RelationProfile(
                    alias=relation.alias,
                    columns=tuple(relation.columns),
                    rows=rows,
                    table=table,
                    stats=stats,
                )
            )
        return CardinalityEstimator(
            profiles,
            feedback=self.db.feedback if apply_feedback else None,
            feedback_token=self.db.feedback_token() if apply_feedback else None,
        )

    @staticmethod
    def _estimated_bindings(
        estimator: CardinalityEstimator, attributes: FrozenSet[str]
    ) -> float:
        """Estimated distinct combinations of qualified attributes.

        Product of per-column distinct counts, clamped per alias by the
        relation's row count (a relation cannot contribute more distinct
        key combinations than it has rows).
        """
        per_alias: Dict[str, float] = {}
        for attribute in sorted(attributes):
            alias, _, column = attribute.partition(".")
            profile = estimator.profiles.get(alias)
            if profile is None:
                return DEFAULT_RELATION_ROWS
            current = per_alias.get(alias, 1.0)
            per_alias[alias] = min(
                current * profile.ndv(column), max(profile.rows, 1.0)
            )
        result = 1.0
        for value in per_alias.values():
            result *= value
        return result

    # ------------------------------------------------------------------
    # Phase helpers
    # ------------------------------------------------------------------
    def _analyze(
        self, select: ast.Select, cte_infos: Dict[str, CteInfo]
    ) -> Optional[IcebergBlock]:
        if select.having is None or len(select.from_items) == 0:
            return None
        try:
            return IcebergBlock(select, self.db, cte_infos)
        except OptimizationError:
            return None

    def _safe_apriori_phase(
        self,
        select: ast.Select,
        cte_infos: Dict[str, CteInfo],
        report: OptimizationReport,
        scope: str,
    ) -> ast.Select:
        """The a-priori phase with per-technique fallback.

        Under ``degradation="fallback"`` any :class:`ReproError` raised
        while building reducers (including injected "reducer" faults)
        abandons the phase for this block: the block is left unreduced
        — the baseline shape, still correct — and the reason lands in
        the report's degradation log.  Reducers already recorded for
        this block are rolled back so ``explain()`` matches the plan
        actually produced.
        """
        recorded = len(report.apriori)
        try:
            return self._apriori_phase(select, cte_infos, report, scope)
        except ReproError as error:
            if self.degradation != "fallback":
                raise
            del report.apriori[recorded:]
            report.degradations.append(
                f"apriori[{scope}]: {error} — block left unreduced"
            )
            return select

    def _apriori_phase(
        self,
        select: ast.Select,
        cte_infos: Dict[str, CteInfo],
        report: OptimizationReport,
        scope: str,
    ) -> ast.Select:
        """Listing 9's gapriori loop over one block."""
        block = self._analyze(select, cte_infos)
        if block is None:
            return select
        remaining = set(block.aliases)
        result = select
        found_any = False
        while len(remaining) > 0:
            picked = self._pick_gapriori(block, remaining, report, scope)
            if picked is None:
                break
            reducer, used_aliases = picked
            result = apply_reducer_to_select(result, reducer)
            remaining -= used_aliases
            found_any = True
        if not found_any and not report.apriori_rejected:
            report.apriori_rejected.append(
                (scope, "no subset passed the Theorem 2 checks")
            )
        return result

    def _pick_gapriori(
        self,
        block: IcebergBlock,
        remaining: set,
        report: OptimizationReport,
        scope: str,
    ) -> Optional[Tuple[Reducer, FrozenSet[str]]]:
        """Find one applicable reducer among subsets of ``remaining``."""
        aliases = sorted(remaining)
        all_aliases = frozenset(block.aliases)
        max_size = min(len(aliases), self.max_partition_size, len(all_aliases) - 1)
        estimator = self._block_estimator(block)
        # Rank candidate subsets by the *fineness* of the reducer's
        # grouping (more G_L attributes = finer groups = more filtering
        # power), then by subset size, then by the estimated number of
        # distinct reducer groups (fewer groups = a smaller reducer
        # table and a cheaper IN probe).  This makes the search find the
        # paper's {S1,T1}/{S2,T2} reducers for Example 13 instead of a
        # coarse single-instance reducer that happens to pass the check.
        candidates = []
        for size in range(1, max_size + 1):
            for subset in combinations(aliases, size):
                left = frozenset(subset)
                if left == all_aliases:
                    continue
                view = block.partition(sorted(left))
                groups = self._estimated_bindings(estimator, view.g_left)
                candidates.append((-len(view.g_left), size, groups, subset, view))
        candidates.sort(key=lambda entry: entry[:4])
        for _, __, ___, subset, view in candidates:
            if not view.g_left:
                continue
            # Ť_L (the instances carrying the reducer's key columns)
            # must be a single instance: the IN predicate then stays a
            # single-alias conjunct that pushes into scans and never
            # pollutes Θ of a later NLJP partition.  Both of the
            # paper's worked reducers (Example 13) have this shape.
            target_aliases = {a.partition(".")[0] for a in view.g_left}
            if len(target_aliases) > 1:
                continue
            decision = check_apriori(view, left=True)
            if not decision.applicable:
                continue
            if self._reducer_is_trivial(view):
                report.apriori_rejected.append(
                    (
                        scope,
                        f"reducer on {sorted(subset)} is trivial "
                        "(G_L is a superkey, Φ holds on singleton groups)",
                    )
                )
                continue
            self._observe_fault("reducer")
            reducer = build_reducer(view, left=True)
            report.apriori.append((scope, reducer, decision))
            return reducer, frozenset(subset)
        return None

    def _reducer_is_trivial(self, view: PartitionView) -> bool:
        """Would the reducer keep every group (and thus be useless)?

        When 𝔾_L is a superkey of L, every L-group is a single tuple;
        if Φ only involves COUNT(*) thresholds, evaluate Φ with
        COUNT(*) = 1 — if it holds, the reducer filters nothing.  This
        is the cost heuristic that makes "a-priori does not apply" come
        out the same way the paper reports for the skyband queries.
        """
        fds = view.fds(True)
        if not fds.is_superkey(view.g_left, view.attributes(True)):
            return False
        having = view.block.having
        assert having is not None
        calls = ast.aggregate_calls(having)
        if not all(
            call.name == "COUNT"
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Star)
            for call in calls
        ):
            return False

        def substitute(node):
            if isinstance(node, ast.FuncCall) and node.is_aggregate:
                return ast.Literal(1)
            return node

        substituted = ast.transform(having, substitute)
        from repro.engine.expressions import ExpressionCompiler

        try:
            value = ExpressionCompiler(Layout([(None, "_x")])).compile(substituted)(
                (None,), {}
            )
        except PlanningError:
            return False
        return value is True

    # ------------------------------------------------------------------
    def _memprune_phase(
        self,
        body: ast.Select,
        cte_infos: Dict[str, CteInfo],
        env: PlanEnv,
        report: OptimizationReport,
    ) -> Optional[NLJPOperator]:
        """Listing 9's pick_memprune: choose an NLJP partition."""
        block = self._analyze(body, cte_infos)
        if block is None:
            report.notes.append("NLJP not applicable: block is not an iceberg join")
            return None
        if body.distinct:
            report.notes.append("NLJP not applicable: SELECT DISTINCT")
            return None

        try:
            group_aliases = frozenset(
                attribute.partition(".")[0]
                for attribute in block.group_by_attributes()
            )
        except OptimizationError as error:
            report.notes.append(f"NLJP not applicable: {error}")
            return None
        having_aliases = block.aliases_of(block.having) if block.having is not None else frozenset()
        all_aliases = frozenset(block.aliases)

        candidates: List[FrozenSet[str]] = []
        base = group_aliases or frozenset()
        # Minimal partitions first: GROUP BY aliases, then grow, never
        # swallowing the aliases Φ needs on the inner side.
        if base and base != all_aliases and not (base & having_aliases):
            candidates.append(base)
        others = sorted(all_aliases - base - having_aliases)
        for extra in range(1, len(others) + 1):
            for combo in combinations(others, extra):
                candidate = base | frozenset(combo)
                if candidate and candidate != all_aliases:
                    candidates.append(candidate)

        # Among same-size partitions, try the one with the smallest
        # estimated outer side first: fewer driver bindings means fewer
        # inner-query executions if the partition is accepted.
        estimator = self._block_estimator(block)

        def outer_size(candidate: FrozenSet[str]) -> float:
            rows = 1.0
            for alias in candidate:
                profile = estimator.profiles.get(alias)
                rows *= max(profile.rows, 1.0) if profile else DEFAULT_RELATION_ROWS
            return rows

        candidates.sort(
            key=lambda c: (len(c), outer_size(c), tuple(sorted(c)))
        )

        best: Optional[NLJPOperator] = None
        for candidate in candidates:
            view = block.partition(sorted(candidate))
            self._observe_fault("qe")
            pruning = check_pruning(
                view, outer_left=True, derive=self._derive_subsumption
            )
            memo = check_memoization(
                view, outer_left=True, cross_query=self.cross_query_memo
            )
            use_pruning = self.enable_pruning and pruning.applicable
            use_memo = self.enable_memo and bool(memo)
            if not use_pruning and not use_memo:
                continue
            binding_order = ()
            if (
                self.binding_order == "auto"
                and use_pruning
                and pruning.predicate is not None
            ):
                binding_order = self._auto_binding_order(pruning)
            if self.binding_order == "auto" and not binding_order and use_memo:
                binding_order = self._memo_binding_order(view, estimator)
            try:
                nljp = NLJPOperator(
                    view,
                    env,
                    pruning=pruning,
                    enable_memo=use_memo,
                    enable_pruning=use_pruning,
                    cache_index=self.cache_index,
                    cache_max_entries=self.cache_max_entries,
                    cache_policy=self.cache_policy,
                    binding_order=binding_order,
                )
            except OptimizationError as error:
                report.notes.append(
                    f"NLJP on {sorted(candidate)} rejected: {error}"
                )
                continue
            report.pruning = pruning
            report.memoization = memo
            report.nljp_partition = tuple(sorted(candidate))
            best = nljp
            break
        if best is None:
            report.notes.append(
                "NLJP not applied: no partition passed the memo/pruning checks"
            )
        return best

    @staticmethod
    def _auto_binding_order(pruning: PruningDecision) -> Tuple[ast.OrderItem, ...]:
        """Pick a Q_B ordering that maximizes pruning opportunities.

        The paper leaves the exploration order unspecified and flags
        intelligent ordering as future work (Section 7).  Our heuristic
        uses the derived predicate's ordered attribute ``w_i OP v_i``:
        a new binding can only be pruned by a cached candidate on the
        favourable side of that attribute, so process bindings so that
        *every* earlier (hence cacheable) binding lies on that side —
        e.g. for the anti-monotone skyband (prune when new ≤ cached),
        explore in descending coordinate order.
        """
        from repro.core.pruning import PruneDirection

        predicate = pruning.predicate
        assert predicate is not None
        ordered = predicate.ordered_attribute()
        if ordered is None:
            return ()
        position, op = ordered
        attribute = predicate.attributes[position]
        # The predicate requires w OP v with w the subsumer.  If the new
        # binding plays w (NEW_SUBSUMES_CACHED), candidates must satisfy
        # new OP cached — for OP "<=" cache the large values first, i.e.
        # descending order.  With roles swapped, mirror the direction.
        if pruning.direction is PruneDirection.NEW_SUBSUMES_CACHED:
            ascending = op in (">", ">=")
        else:
            ascending = op in ("<", "<=")
        alias, _, column = attribute.partition(".")
        return (ast.OrderItem(ast.ColumnRef(alias, column), ascending=ascending),)

    @staticmethod
    def _memo_binding_order(
        view: PartitionView, estimator: CardinalityEstimator
    ) -> Tuple[ast.OrderItem, ...]:
        """Cluster equal memo keys so cache hits arrive back-to-back.

        When pruning offers no ordered attribute but memoization is on,
        sorting the outer bindings on the memo key (the θ attributes on
        the outer side, lowest estimated distinct count first) groups
        repeated keys together.  Hit counts are order-independent, but a
        bounded cache (``cache_max_entries``) evicts less when repeats
        are adjacent, and low-NDV attributes leading the sort keep the
        working set small.
        """
        keyed = []
        for attribute in sorted(view.j_left):
            alias, _, column = attribute.partition(".")
            profile = estimator.profiles.get(alias)
            ndv = profile.ndv(column) if profile is not None else DEFAULT_RELATION_ROWS
            keyed.append((ndv, alias, column))
        keyed.sort()
        return tuple(
            ast.OrderItem(ast.ColumnRef(alias, column), ascending=True)
            for _, alias, column in keyed
        )

    def _finalize_nljp_plan(
        self, body: ast.Select, nljp: NLJPOperator, env: PlanEnv
    ) -> PlannedQuery:
        """Wrap the NLJP operator with ORDER BY / LIMIT if present."""
        plan: ops.PhysicalOperator = nljp
        if body.order_by:
            compiler = env.compiler(nljp.layout)
            key_fns = []
            ascending = []
            for item in body.order_by:
                rewritten = item.expr
                if isinstance(rewritten, ast.FuncCall) and rewritten.is_aggregate:
                    raise OptimizationError(
                        "ORDER BY on an aggregate requires it in the SELECT list"
                    )
                key_fns.append(compiler.compile(self._strip_aliases(rewritten)))
                ascending.append(item.ascending)
            plan = ops.Sort(plan, key_fns, ascending)
        if body.limit is not None:
            plan = ops.Limit(plan, body.limit)
        return PlannedQuery(
            root=ops.CountOutput(plan), columns=nljp.output_names, env=env
        )

    @staticmethod
    def _strip_aliases(expr: ast.Expr) -> ast.Expr:
        """NLJP output columns are unqualified; drop table qualifiers."""

        def visit(node):
            if isinstance(node, ast.ColumnRef) and node.table is not None:
                return ast.ColumnRef(None, node.column)
            return node

        return ast.transform(expr, visit)

    # ------------------------------------------------------------------
    def _cte_info(self, cte: ast.CommonTableExpr, select: ast.Select) -> CteInfo:
        """Columns, FDs, and nonnegativity facts for a CTE's output."""
        names: List[str] = []
        for index, item in enumerate(select.items):
            if cte.columns:
                continue
            if item.alias:
                names.append(item.alias.lower())
            elif isinstance(item.expr, ast.ColumnRef):
                names.append(item.expr.column.lower())
            elif isinstance(item.expr, ast.FuncCall):
                names.append(item.expr.name.lower())
            else:
                names.append(f"col{index}")
        if cte.columns:
            names = [c.lower() for c in cte.columns]
        fds = grouped_output_fds(
            select.group_by, list(zip(names, (item.expr for item in select.items)))
        )
        nonnegative = self._nonnegative_outputs(select, names)
        return tuple(names), fds, nonnegative

    def _nonnegative_outputs(
        self, select: ast.Select, names: Sequence[str]
    ) -> FrozenSet[str]:
        """Output columns provably ≥ 0 (COUNT, or agg of a ≥0 column)."""
        alias_to_table: Dict[str, str] = {}

        def collect(item: ast.TableExpr) -> None:
            if isinstance(item, ast.NamedTable) and self.db.has_table(item.name):
                alias_to_table[(item.alias or item.name).lower()] = item.name.lower()
            elif isinstance(item, ast.JoinedTable):
                collect(item.left)
                collect(item.right)

        for item in select.from_items:
            collect(item)

        def column_nonnegative(ref: ast.ColumnRef) -> bool:
            if ref.table is None:
                tables = list(alias_to_table.values())
                return len(tables) >= 1 and all(
                    self.db.has_table(t)
                    and ref.column in self.db.table(t).schema.column_names
                    and self.db.is_nonnegative(t, ref.column)
                    for t in tables
                    if ref.column in self.db.table(t).schema.column_names
                )
            table = alias_to_table.get(ref.table.lower())
            return table is not None and self.db.is_nonnegative(table, ref.column)

        def expr_nonnegative(expr: ast.Expr) -> bool:
            if isinstance(expr, ast.ColumnRef):
                return column_nonnegative(expr)
            if isinstance(expr, ast.Literal):
                return isinstance(expr.value, (int, float)) and expr.value >= 0
            if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
                if expr.name == "COUNT":
                    return True
                if expr.args and not isinstance(expr.args[0], ast.Star):
                    return expr_nonnegative(expr.args[0])
                return False
            if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "*"):
                return expr_nonnegative(expr.left) and expr_nonnegative(expr.right)
            return False

        return frozenset(
            name
            for name, item in zip(names, select.items)
            if expr_nonnegative(item.expr)
        )
