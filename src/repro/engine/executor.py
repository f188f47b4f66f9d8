"""Top-level query execution: SQL/AST in, result rows + stats out."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError, TypeCheckError
from repro.sql import ast
from repro.sql.parser import parse
from repro.engine.governor import Governor
from repro.engine.operators import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_COLUMNAR_BATCH_SIZE,
    ExecutionContext,
)
from repro.engine.planner import EngineConfig, PlannedQuery, plan_query
from repro.engine.stats import ExecutionStats
from repro.obs.metrics import record_query
from repro.storage.catalog import Database

Row = Tuple[Any, ...]


@dataclass
class Result:
    """The result of executing one statement.

    ``profile`` is the :class:`repro.obs.spans.QueryProfile` span tree
    for traced runs (``EngineConfig.trace`` of ``"counters"`` or
    ``"timing"``); ``None`` under ``trace="off"``.
    """

    columns: Tuple[str, ...]
    rows: List[Row]
    stats: ExecutionStats
    elapsed_seconds: float
    plan: Optional[PlannedQuery] = None
    execution_mode: str = "row"
    profile: Optional[Any] = None
    #: The governor that supervised this execution (``None`` when
    #: ungoverned).  The serving layer feeds ``governor.headroom()``
    #: back into admission control after each governed query.
    governor: Optional[Any] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def sorted_rows(self) -> List[Row]:
        """Rows in a canonical order (for set comparisons in tests)."""
        return sorted(self.rows, key=lambda row: tuple(
            (value is None, str(type(value)), value) for value in row
        ))

    def report(self, label: str = "query") -> Any:
        """A :class:`~repro.obs.feedback.CardinalityReport` for this result.

        Populated from the executed plan's estimate→actual pairs, so
        it is only informative after a traced run or one with
        ``EngineConfig.feedback != "off"`` (both stamp
        ``actual_rows``); otherwise the report is empty.
        """
        from repro.obs.feedback import CardinalityReport

        report = CardinalityReport()
        if self.plan is not None:
            report.record(label, self.plan.root)
        return report

    def __repr__(self) -> str:
        return f"Result({len(self.rows)} rows, cols={self.columns})"


def _as_query(statement: Union[str, ast.Query, ast.Select]) -> ast.Query:
    if isinstance(statement, str):
        return parse(statement)
    if isinstance(statement, ast.Select):
        return ast.Query.of(statement)
    return statement


def execute(
    db: Database,
    statement: Union[str, ast.Query, ast.Select],
    config: Optional[EngineConfig] = None,
    params: Optional[Dict[str, Any]] = None,
) -> Result:
    """Parse (if needed), plan, and execute a statement."""
    trace = config.trace if config is not None else "off"
    if trace == "off":
        query = _as_query(statement)
        planned = plan_query(db, query, config)
        return run_planned(planned, params)
    from repro.obs.tracer import Tracer

    perf = time.perf_counter
    tracer = Tracer(trace)
    start = perf()
    query = _as_query(statement)
    tracer.add_phase("parse", perf() - start)
    start = perf()
    planned = plan_query(db, query, config)
    tracer.add_phase("plan", perf() - start)
    return run_planned(planned, params, tracer=tracer)


def run_planned(
    planned: PlannedQuery,
    params: Optional[Dict[str, Any]] = None,
    execution_mode: Optional[str] = None,
    batch_size: Optional[int] = None,
    tracer: Optional[Any] = None,
    cancel_token: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
    deadline_seconds: Optional[float] = None,
    trace_label: Optional[str] = None,
) -> Result:
    """Execute a previously planned query (prepared-statement style).

    NLJP generates parameterized inner/pruning queries that are planned
    once and executed many times — the same pattern the paper leans on
    PostgreSQL's prepared statements for.

    ``execution_mode``/``batch_size`` override the planned config's
    settings; ``None`` inherits them.  Batch mode produces identical
    rows and identical work counters, only faster.  Columnar mode also
    produces identical rows; its counters agree modulo the zone-map
    split (see :meth:`ExecutionStats.parity_dict`).

    When the config sets any governor knob (budgets, deadline, cancel
    token, fault plan), a :class:`~repro.engine.governor.Governor` is
    attached to the execution context and operators enforce it at
    row/batch boundaries.  Any :class:`ReproError` escaping execution
    carries the partial stats accumulated so far in ``error.stats``;
    a bare ``TypeError`` from a compiled expression (a query/data type
    mismatch at run time) is wrapped as :class:`TypeCheckError`.

    ``tracer`` carries an externally created tracer (the optimizer and
    ``execute`` use it to prepend phase spans); under a config with
    ``trace != "off"`` and no tracer supplied, one is created here
    (named ``trace_label`` when given, so per-session exports are
    attributable).  The tracer is installed over the plan for this
    execution only and always torn down — even when a budget trips
    mid-query.

    ``cancel_token``/``fault_plan``/``deadline_seconds`` override the
    planned config's governor knobs *for this execution only* — the
    serving layer passes fresh per-call tokens here so a token
    cancelled during one query can never leak into the next execution
    of the same (cached) plan.
    """
    config = planned.env.config
    if (
        cancel_token is not None
        or fault_plan is not None
        or deadline_seconds is not None
    ):
        import dataclasses

        overrides: Dict[str, Any] = {}
        if cancel_token is not None:
            overrides["cancel_token"] = cancel_token
        if fault_plan is not None:
            overrides["fault_plan"] = fault_plan
        if deadline_seconds is not None:
            overrides["deadline_seconds"] = deadline_seconds
        config = dataclasses.replace(config, **overrides)
    mode = execution_mode if execution_mode is not None else config.execution_mode
    if mode not in ("row", "batch", "columnar"):
        raise ValueError(f"unknown execution_mode {mode!r}")
    if batch_size is None:
        batch_size = config.batch_size
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if mode == "row":
        effective_batch_size = None
    elif mode == "batch":
        effective_batch_size = batch_size or DEFAULT_BATCH_SIZE
    else:
        effective_batch_size = batch_size or DEFAULT_COLUMNAR_BATCH_SIZE
    ctx = ExecutionContext(
        params=dict(params or {}),
        batch_size=effective_batch_size,
        columnar=mode == "columnar",
    )
    ctx.governor = Governor.from_config(config, ctx.stats)
    if tracer is None and config.trace != "off":
        from repro.obs.tracer import Tracer

        tracer = Tracer(config.trace, label=trace_label or "query")
    profile = None
    probes = None
    if tracer is not None:
        tracer.install(planned.root)
        ctx.tracer = tracer
    elif config.feedback != "off":
        # Untraced feedback run: install the lightweight row-counting
        # probes so ``actual_rows`` still gets stamped for harvesting.
        # A live tracer makes them redundant (it stamps actual_rows in
        # its own finish()).
        from repro.obs.feedback import FeedbackProbes

        probes = FeedbackProbes()
        probes.install(planned.root)
        ctx.probes = probes
    planned.env.ctx_holder["ctx"] = ctx
    start = time.perf_counter()
    try:
        if mode == "batch":
            rows = []
            for batch in planned.root.execute_batches(ctx):
                rows.extend(batch)
        elif mode == "columnar":
            rows = []
            for column_batch in planned.root.execute_columnar(ctx):
                rows.extend(column_batch.to_rows())
        else:
            rows = list(planned.root.execute(ctx))
    except ReproError as error:
        if error.stats is None:
            error.stats = ctx.stats
        raise
    except TypeError as error:
        wrapped = TypeCheckError(f"type error during execution: {error}")
        wrapped.stats = ctx.stats
        raise wrapped from error
    finally:
        planned.env.ctx_holder.pop("ctx", None)
        if tracer is not None:
            # Restores the wrapped nodes even on the error paths above,
            # so a budget-tripped plan is left clean and re-runnable.
            profile = tracer.finish()
        if probes is not None:
            probes.finish()
    elapsed = time.perf_counter() - start
    if config.feedback != "off":
        # Harvest only successful executions (error paths raised out
        # above): partial row counts from a tripped budget would
        # poison the feedback store.
        from repro.obs.feedback import harvest

        harvest(planned.root, planned.env.db)
    result = Result(
        columns=planned.columns,
        rows=rows,
        stats=ctx.stats,
        elapsed_seconds=elapsed,
        plan=planned,
        execution_mode=mode,
        profile=profile,
        governor=ctx.governor,
    )
    record_query(result, config, governor=ctx.governor)
    return result


def explain(
    db: Database,
    statement: Union[str, ast.Query, ast.Select],
    config: Optional[EngineConfig] = None,
) -> str:
    """Plan a statement and return its EXPLAIN-style tree."""
    return plan_query(db, _as_query(statement), config).explain()
