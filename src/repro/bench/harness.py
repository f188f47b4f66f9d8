"""Benchmark harness: system comparisons and text-table reports.

Every figure of the paper's Section 8 is regenerated by a function in
:mod:`repro.bench.figures` built on this harness.  A *system* is a
named way of executing SQL:

* ``base``    — the engine with the PostgreSQL-like planner;
* ``vendor``  — the engine with the hash-first planner (simulated
  "Vendor A"; see DESIGN.md on the parallelism adjustment);
* ``apriori`` / ``memo`` / ``pruning`` — Smart-Iceberg with exactly one
  technique enabled;
* ``all``     — Smart-Iceberg with every technique.

Each measurement reports wall-clock seconds, *adjusted* seconds (wall
clock divided by the config's simulated parallelism — only baselines
have parallelism > 1), and the deterministic work cost from
:class:`repro.engine.stats.ExecutionStats`.  Shape assertions in the
benchmark suite use the work cost; wall clock is reported for flavour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.executor import Result, execute as engine_execute
from repro.engine.planner import EngineConfig
from repro.core.system import SmartIceberg
from repro.storage.catalog import Database


@dataclass
class Measurement:
    """One (system, query) execution.

    ``optimize_seconds`` and ``seconds`` are separate phases (rewrite
    vs. execute), both measured with ``time.perf_counter``;
    ``execution_mode`` records the path the engine ran and appears in
    every emitted report row.  ``cost`` adds the rows zone maps skipped
    to ``stats.cost()``: every stored row a scan covers is charged, as
    the paper's systems did, on either path.
    """

    system: str
    query: str
    seconds: float
    adjusted_seconds: float
    cost: int
    rows: int
    result: Result
    optimize_seconds: float = 0.0
    execution_mode: str = "row"
    #: Wall time spent in static analysis + plan verification (part of
    #: ``optimize_seconds``, reported separately so the ``analyze``
    #: knob's overhead is visible in benchmark records).
    analyze_seconds: float = 0.0

    @property
    def stats(self):
        return self.result.stats


SystemRunner = Callable[[Database, str], Measurement]


def _measure(
    system: str, query_name: str, run: Callable[[], Result], parallelism: float = 1.0,
    optimize_seconds: float = 0.0, analyze_seconds: float = 0.0,
) -> Measurement:
    start = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - start
    return Measurement(
        system=system,
        query=query_name,
        seconds=seconds,
        adjusted_seconds=seconds / parallelism,
        cost=result.stats.cost() + result.stats.rows_skipped,
        rows=len(result.rows),
        result=result,
        optimize_seconds=optimize_seconds,
        execution_mode=result.execution_mode,
        analyze_seconds=analyze_seconds,
    )


#: The figures measure the paper's Listing 9: the first admissible NLJP
#: partition runs, even where the a-priori join alone would be faster.
FIGURE_CHOICE = "first-applicable"


def make_systems(
    which: Sequence[str] = ("base", "vendor", "pruning", "memo", "apriori", "all"),
    analyze: Optional[str] = None,
    trace: Optional[str] = None,
) -> Dict[str, SystemRunner]:
    """Build the named system runners used across all figures.

    ``analyze`` sets the Smart-Iceberg static-analysis mode (baselines
    have no analyzer); its wall time lands in each measurement's
    ``analyze_seconds``.  ``trace`` sets the tracing mode for every
    system (``None`` inherits the config's ``"off"``); traced
    measurements carry a ``QueryProfile`` on ``measurement.result``.
    """
    import dataclasses

    def baseline(config: EngineConfig) -> SystemRunner:
        if trace is not None:
            config = dataclasses.replace(config, trace=trace)

        def run(db: Database, sql: str, query_name: str = "") -> Measurement:
            return _measure(
                config.label,
                query_name,
                lambda: engine_execute(db, sql, config),
                parallelism=config.parallelism,
            )

        return run

    def smart(label: str, **toggles) -> SystemRunner:
        def run(db: Database, sql: str, query_name: str = "") -> Measurement:
            system = SmartIceberg(
                db,
                analyze=analyze,
                trace=trace,
                technique_choice=FIGURE_CHOICE,
                **toggles,
            )
            start = time.perf_counter()
            optimized = system.optimize(sql)
            optimize_seconds = time.perf_counter() - start
            return _measure(
                label,
                query_name,
                optimized.execute,
                optimize_seconds=optimize_seconds,
                analyze_seconds=optimized.report.analyze_seconds,
            )

        return run

    available: Dict[str, SystemRunner] = {
        "base": baseline(EngineConfig.postgres()),
        "vendor": baseline(EngineConfig.vendor()),
        "pruning": smart("pruning", apriori=False, memo=False, pruning=True),
        "memo": smart("memo", apriori=False, memo=True, pruning=False),
        "apriori": smart("apriori", apriori=True, memo=False, pruning=False),
        "all": smart("all", apriori=True, memo=True, pruning=True),
    }
    return {name: available[name] for name in which}


def run_comparison(
    db: Database,
    queries: Dict[str, str],
    systems: Optional[Dict[str, SystemRunner]] = None,
    check_agreement: bool = True,
) -> List[Measurement]:
    """Run every system on every query; verify all agree on results."""
    systems = systems or make_systems()
    measurements: List[Measurement] = []
    for query_name, sql in queries.items():
        reference: Optional[List] = None
        for system_name, runner in systems.items():
            measurement = runner(db, sql, query_name)  # type: ignore[call-arg]
            measurements.append(measurement)
            if check_agreement:
                rows = measurement.result.sorted_rows()
                if reference is None:
                    reference = rows
                elif rows != reference:
                    raise AssertionError(
                        f"{system_name} disagrees with reference on {query_name}: "
                        f"{len(rows)} vs {len(reference)} rows"
                    )
    return measurements


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width text table (the bench suite's printed artifacts)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def comparison_table(measurements: List[Measurement], title: str = "") -> str:
    """Figure 1-style table: one row per (query, system)."""
    rows = [
        (
            m.query,
            m.system,
            m.execution_mode,
            f"{m.optimize_seconds:.3f}",
            f"{m.seconds:.3f}",
            f"{m.adjusted_seconds:.3f}",
            m.cost,
            m.rows,
        )
        for m in measurements
    ]
    return format_table(
        (
            "query",
            "system",
            "mode",
            "opt_seconds",
            "seconds",
            "adj_seconds",
            "work_cost",
            "rows",
        ),
        rows,
        title,
    )


def speedup_over(
    measurements: List[Measurement], baseline: str = "postgres"
) -> Dict[Tuple[str, str], float]:
    """Work-cost speedups keyed by (query, system) relative to baseline."""
    base_cost: Dict[str, int] = {
        m.query: m.cost for m in measurements if m.system == baseline
    }
    return {
        (m.query, m.system): base_cost[m.query] / max(1, m.cost)
        for m in measurements
        if m.query in base_cost and m.system != baseline
    }
