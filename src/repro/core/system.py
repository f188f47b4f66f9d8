"""The Smart-Iceberg facade: the library's main entry point.

Typical use::

    from repro import Database, SmartIceberg

    system = SmartIceberg(db)
    result = system.execute(sql)              # optimized execution
    optimized = system.optimize(sql)          # inspect the rewrite
    print(optimized.explain())

Feature toggles reproduce the paper's Figure 1 configurations::

    SmartIceberg(db)                                        # "all"
    SmartIceberg(db, memo=False, apriori=False)             # "pruning"
    SmartIceberg(db, pruning=False, apriori=False)          # "memo"
    SmartIceberg(db, pruning=False, memo=False)             # "apriori"

The toggles say which techniques are *allowed*: by default an NLJP
runs over an a-priori-reduced statement only when it is estimated to
beat the reduced join.  ``technique_choice="first-applicable"`` forces
Listing 9's rule instead (the first admissible NLJP partition runs),
which is what the paper's figures measure.

Baseline systems (no Smart-Iceberg rewrites) are plain engine configs:
``EngineConfig.postgres()`` and ``EngineConfig.vendor()``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Union

from repro.sql import ast
from repro.engine.executor import Result, execute as engine_execute
from repro.engine.governor import CancelToken
from repro.engine.planner import EngineConfig
from repro.core.optimizer import OptimizedQuery, SmartIcebergOptimizer
from repro.storage.catalog import Database

Statement = Union[str, ast.Query, ast.Select]


class SmartIceberg:
    """Optimizing executor for iceberg queries with complex joins."""

    def __init__(
        self,
        db: Database,
        apriori: bool = True,
        pruning: bool = True,
        memo: bool = True,
        config: Optional[EngineConfig] = None,
        cache_index: bool = True,
        cache_max_entries: Optional[int] = None,
        cache_policy: str = "none",
        batch_size: Optional[int] = None,
        max_rows_scanned: Optional[int] = None,
        max_join_pairs: Optional[int] = None,
        max_cache_bytes: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        degradation: Optional[str] = None,
        fault_plan: Optional[object] = None,
        analyze: Optional[str] = None,
        trace: Optional[str] = None,
        feedback: Optional[str] = None,
        cross_query_memo: bool = False,
        technique_choice: str = "cost",
    ) -> None:
        self.db = db
        self.config = config or EngineConfig.smart()
        # Batch size and governor knobs override the config; None
        # inherits its settings, and EngineConfig validates them.
        # Governor budgets bound the work one execution may do (see
        # repro.engine.governor); ``degradation="fallback"`` trades
        # the paper's techniques for survival instead of aborting.
        overrides: Dict[str, object] = {}
        for name, value in (
            ("batch_size", batch_size),
            ("max_rows_scanned", max_rows_scanned),
            ("max_join_pairs", max_join_pairs),
            ("max_cache_bytes", max_cache_bytes),
            ("deadline_seconds", deadline_seconds),
            ("degradation", degradation),
            ("fault_plan", fault_plan),
            # Static analysis: "off" (name resolution only), "warn"
            # (typecheck + lints + plan verification as report notes),
            # or "strict" (analysis errors and verifier violations
            # raise before execution).
            ("analyze", analyze),
            # Tracing: "off", "counters" (span tree with per-span
            # ExecutionStats deltas), or "timing" (plus wall clock);
            # traced results carry a QueryProfile (see repro.obs).
            ("trace", trace),
            # Estimate→actual observation: "off", or "observe"
            # (count the chosen plan's actual rows per scan and join
            # without changing any estimate); validated by EngineConfig.
            ("feedback", feedback),
        ):
            if value is not None:
                overrides[name] = value
        if overrides:
            self.config = dataclasses.replace(self.config, **overrides)
        self.optimizer = SmartIcebergOptimizer(
            db,
            enable_apriori=apriori,
            enable_pruning=pruning,
            enable_memo=memo,
            config=self.config,
            cache_index=cache_index,
            cache_max_entries=cache_max_entries,
            cache_policy=cache_policy,
            cross_query_memo=cross_query_memo,
            technique_choice=technique_choice,
        )

    def optimize(
        self, statement: Statement, params: Optional[Dict] = None
    ) -> OptimizedQuery:
        """Analyze and rewrite a statement without executing it; a
        choice that depends on a parameter's value is taken at
        ``params`` (see :class:`~repro.core.optimizer.PlanGuard`)."""
        return self.optimizer.optimize(statement, params)

    def execute(
        self,
        statement: Statement,
        params: Optional[Dict] = None,
        cancel_token: Optional[CancelToken] = None,
        fault_plan: Optional[object] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Result:
        """Optimize and execute a statement.

        ``cancel_token``/``fault_plan``/``deadline_seconds`` govern
        *this call only* — they never stick to the instance, so a
        token cancelled here cannot leak into the next query.
        """
        return self.optimize(statement, params).execute(
            params,
            cancel_token=cancel_token,
            fault_plan=fault_plan,
            deadline_seconds=deadline_seconds,
        )

    def execute_baseline(
        self,
        statement: Statement,
        config: Optional[EngineConfig] = None,
    ) -> Result:
        """Execute without any Smart-Iceberg optimization (for comparison)."""
        return engine_execute(self.db, statement, config or EngineConfig.postgres())

    def explain(self, statement: Statement) -> str:
        return self.optimize(statement).explain()
