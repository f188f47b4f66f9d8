"""Regeneration of every figure in the paper's Section 8.

Each ``figure_N`` function runs the experiment behind the paper's
Figure N at a configurable scale and returns a :class:`FigureReport`
with raw measurements, the printable table, and the derived series the
shape assertions check.  Absolute numbers differ from the paper (pure
Python engine, smaller default scale); the *shape* claims — who wins,
how trends move with thresholds and input size — are asserted in
``benchmarks/``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.executor import execute as engine_execute
from repro.engine.planner import EngineConfig
from repro.core.system import SmartIceberg
from repro.storage.catalog import Database
from repro.workloads.baseball import batting_db, perf_db
from repro.workloads.queries import complex_query, figure1_queries, skyband_query
from repro.bench.harness import (
    FIGURE_CHOICE,
    Measurement,
    comparison_table,
    format_table,
    make_systems,
    run_comparison,
    speedup_over,
)


def bench_scale() -> float:
    """Global scale factor from the REPRO_BENCH_SCALE env var."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@dataclass
class FigureReport:
    """The output of one figure regeneration."""

    figure: str
    table: str
    measurements: List[Measurement] = field(default_factory=list)
    series: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.table


# ---------------------------------------------------------------------------
# Figure 1: systems × Q1-Q8
# ---------------------------------------------------------------------------


def figure_1(
    n_rows: Optional[int] = None,
    systems: Sequence[str] = ("base", "vendor", "pruning", "memo", "apriori", "all"),
) -> FigureReport:
    """Performance of the six system configurations on Q1-Q8."""
    n_rows = n_rows or int(1200 * bench_scale())
    db = batting_db(n_rows)
    queries = {name: q.sql for name, q in figure1_queries().items()}
    measurements = run_comparison(db, queries, make_systems(systems))
    speedups = speedup_over(measurements, baseline="postgres")
    return FigureReport(
        figure="Figure 1",
        table=comparison_table(
            measurements, f"Figure 1 — systems on Q1-Q8 (n={n_rows})"
        ),
        measurements=measurements,
        series={"speedups": speedups},
    )


# ---------------------------------------------------------------------------
# Figure 2: data distributions and skyband selectivity
# ---------------------------------------------------------------------------


def figure_2(n_rows: Optional[int] = None, k: Optional[int] = None) -> FigureReport:
    """Joint-distribution contrast between two attribute pairings.

    The paper reports that a skyband with k=500 returns 1.8% of records
    on one pairing and 3.1% on the other — same query template, same
    data, different joint distribution.  We report the correlation and
    the skyband fraction for (b_h, b_hr) vs (b_hr, b_sb).
    """
    n_rows = n_rows or int(2000 * bench_scale())
    k = k if k is not None else max(10, n_rows // 6)
    db = batting_db(n_rows)
    batting = db.table("batting")
    pairs = (("b_h", "b_hr"), ("b_hr", "b_sb"))
    rows = []
    series: Dict[str, object] = {}
    for attr_a, attr_b in pairs:
        xs = batting.column_values(attr_a)
        ys = batting.column_values(attr_b)
        correlation = _pearson(xs, ys)
        result = engine_execute(
            db, skyband_query(attr_a, attr_b, k), EngineConfig.smart()
        )
        fraction = len(result.rows) / n_rows
        rows.append(
            (f"({attr_a}, {attr_b})", f"{correlation:+.3f}", f"{100 * fraction:.2f}%")
        )
        series[f"{attr_a},{attr_b}"] = {
            "correlation": correlation,
            "skyband_fraction": fraction,
        }
    return FigureReport(
        figure="Figure 2",
        table=format_table(
            ("attribute pair", "pearson r", f"skyband k={k} returns"),
            rows,
            f"Figure 2 — attribute-pair distributions (n={n_rows})",
        ),
        series=series,
    )


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


# ---------------------------------------------------------------------------
# Figure 3: cache sizes at end of execution
# ---------------------------------------------------------------------------


def figure_3(n_rows: Optional[int] = None) -> FigureReport:
    """NLJP cache size (rows / kB) after running each of Q1-Q8."""
    n_rows = n_rows or int(1200 * bench_scale())
    db = batting_db(n_rows)
    rows = []
    series: Dict[str, object] = {}
    input_bytes = db.table("batting").estimated_bytes()
    for name, paper_query in figure1_queries().items():
        system = SmartIceberg(db, technique_choice=FIGURE_CHOICE)
        optimized = system.optimize(paper_query.sql)
        result = optimized.execute()
        cache_rows = result.stats.cache_rows
        cache_kb = result.stats.cache_bytes / 1024
        rows.append((name, cache_rows, f"{cache_kb:.1f}"))
        series[name] = {"rows": cache_rows, "kb": cache_kb}
    series["input_kb"] = input_bytes / 1024
    return FigureReport(
        figure="Figure 3",
        table=format_table(
            ("query", "cache rows", "cache kB"),
            rows,
            f"Figure 3 — cache sizes (n={n_rows}, input "
            f"{input_bytes / 1024:.0f} kB)",
        ),
        series=series,
    )


# ---------------------------------------------------------------------------
# Figure 4: index configurations on Q1
# ---------------------------------------------------------------------------


def figure_4(n_rows: Optional[int] = None, k: int = 50) -> FigureReport:
    """Q1 under PK / PK+BT / PK+BT+CI index configurations.

    *PK* is the always-present primary-key hash index; *BT* the
    secondary sorted index on the compared statistics; *CI* the cache's
    equality index (applies to Smart-Iceberg only).
    """
    n_rows = n_rows or int(1200 * bench_scale())
    sql = skyband_query("b_h", "b_hr", k)
    rows = []
    series: Dict[str, object] = {}

    def measure(label: str, with_bt: bool, smart: bool, cache_index: bool) -> None:
        db = batting_db(n_rows, with_indexes=with_bt)
        if smart:
            system = SmartIceberg(
                db, apriori=False, cache_index=cache_index,
                technique_choice=FIGURE_CHOICE,
            )
            result = system.execute(sql)
        else:
            result = engine_execute(db, sql, EngineConfig.postgres())
        rows.append(
            (label, f"{result.elapsed_seconds:.3f}", result.stats.cost())
        )
        series[label] = {
            "seconds": result.elapsed_seconds,
            "cost": result.stats.cost(),
        }

    measure("base PK", with_bt=False, smart=False, cache_index=False)
    measure("base PK+BT", with_bt=True, smart=False, cache_index=False)
    measure("smart PK", with_bt=False, smart=True, cache_index=False)
    measure("smart PK+BT", with_bt=True, smart=True, cache_index=False)
    measure("smart PK+BT+CI", with_bt=True, smart=True, cache_index=True)
    return FigureReport(
        figure="Figure 4",
        table=format_table(
            ("configuration", "seconds", "work_cost"),
            rows,
            f"Figure 4 — index configurations on Q1 (n={n_rows})",
        ),
        series=series,
    )


# ---------------------------------------------------------------------------
# Figures 5-8: threshold and size sweeps
# ---------------------------------------------------------------------------


def _sweep(
    figure: str,
    title: str,
    points: Sequence[Tuple[str, Database, str]],
    systems: Sequence[str] = ("base", "vendor", "all"),
) -> FigureReport:
    runners = make_systems(systems)
    measurements: List[Measurement] = []
    series: Dict[str, Dict[str, int]] = {name: {} for name in runners}
    rows = []
    for point_label, db, sql in points:
        for runner in runners.values():
            measurement = runner(db, sql, point_label)  # type: ignore[call-arg]
            measurements.append(measurement)
            label = measurement.system
            series.setdefault(label, {})[point_label] = measurement.cost
            rows.append(
                (
                    point_label,
                    label,
                    f"{measurement.seconds:.3f}",
                    f"{measurement.adjusted_seconds:.3f}",
                    measurement.cost,
                    measurement.rows,
                )
            )
    return FigureReport(
        figure=figure,
        table=format_table(
            ("point", "system", "seconds", "adj_seconds", "work_cost", "rows"),
            rows,
            title,
        ),
        measurements=measurements,
        series=series,
    )


def figure_5(
    n_rows: Optional[int] = None, thresholds: Sequence[int] = (5, 25, 100, 250)
) -> FigureReport:
    """skyband running times while varying the HAVING threshold."""
    n_rows = n_rows or int(1500 * bench_scale())
    db = batting_db(n_rows)
    points = [
        (f"k={k}", db, skyband_query("b_h", "b_hr", k)) for k in thresholds
    ]
    return _sweep(
        "Figure 5",
        f"Figure 5 — skyband vs HAVING threshold (n={n_rows})",
        points,
    )


def figure_6(
    n_rows: Optional[int] = None,
    thresholds: Sequence[int] = (10, 40, 80, 100),
) -> FigureReport:
    """complex running times while varying the HAVING threshold."""
    n_rows = n_rows or int(6000 * bench_scale())
    db = perf_db(n_rows)
    points = [(f"t={t}", db, complex_query(t)) for t in thresholds]
    return _sweep(
        "Figure 6",
        f"Figure 6 — complex vs HAVING threshold (seasons={n_rows})",
        points,
    )


def figure_7(
    sizes: Optional[Sequence[int]] = None, k: int = 50
) -> FigureReport:
    """skyband running times while varying the input size."""
    sizes = sizes or [int(s * bench_scale()) for s in (500, 1000, 2000)]
    points = []
    for size in sizes:
        db = batting_db(size)
        points.append((f"n={size}", db, skyband_query("b_h", "b_hr", k)))
    return _sweep("Figure 7", f"Figure 7 — skyband vs input size (k={k})", points)


def figure_8(
    sizes: Optional[Sequence[int]] = None, threshold: int = 50
) -> FigureReport:
    """complex running times while varying the input size."""
    sizes = sizes or [int(s * bench_scale()) for s in (2000, 4000, 8000)]
    points = []
    for size in sizes:
        db = perf_db(size)
        points.append((f"n={size}", db, complex_query(threshold)))
    return _sweep(
        "Figure 8",
        f"Figure 8 — complex vs input size (threshold={threshold})",
        points,
    )
