"""Ablation: NLJP binding-exploration order (paper future work, Sec. 7).

The paper leaves Q_B's ordering unspecified but notes it "can have a
significant impact on pruning effectiveness".  This bench drives the
skyband NLJP with ascending / descending / default binding orders and
reports pruning effectiveness for each; descending dominance order
caches strong prune witnesses early and must prune at least as much as
ascending order.
"""

from conftest import run_figure

from repro.sql import ast
from repro.engine import EngineConfig, execute
from repro.engine.operators import ExecutionContext
from repro.engine.planner import PlanEnv
from repro.sql.parser import parse
from repro.core.iceberg import IcebergBlock
from repro.core.nljp import NLJPOperator
from repro.core.pruning import check_pruning
from repro.bench.figures import FigureReport, bench_scale
from repro.workloads.baseball import batting_db
from repro.bench.harness import format_table
from repro.workloads.queries import skyband_query


def run_order_ablation(n_rows=None, k=40):
    n_rows = n_rows or int(1000 * bench_scale())
    db = batting_db(n_rows)
    sql = skyband_query("b_h", "b_hr", k)
    baseline = sorted(execute(db, sql, EngineConfig.postgres()).rows)

    orders = {
        "default": (),
        "ascending (b_h, b_hr)": (
            ast.OrderItem(ast.ColumnRef("l", "b_h")),
            ast.OrderItem(ast.ColumnRef("l", "b_hr")),
        ),
        "descending (b_h, b_hr)": (
            ast.OrderItem(ast.ColumnRef("l", "b_h"), ascending=False),
            ast.OrderItem(ast.ColumnRef("l", "b_hr"), ascending=False),
        ),
    }
    rows = []
    series = {}
    for label, order in orders.items():
        block = IcebergBlock(parse(sql).body, db)
        view = block.partition(["l"])
        env = PlanEnv(db=db, config=EngineConfig.smart())
        nljp = NLJPOperator(
            view, env, pruning=check_pruning(view), binding_order=order
        )
        ctx = ExecutionContext()
        result = sorted(nljp.execute(ctx))
        assert result == baseline, label
        rows.append(
            (
                label,
                ctx.stats.pruned_bindings,
                ctx.stats.inner_evaluations,
                ctx.stats.cost(),
            )
        )
        series[label] = {
            "pruned": ctx.stats.pruned_bindings,
            "inner": ctx.stats.inner_evaluations,
            "cost": ctx.stats.cost(),
        }
    return FigureReport(
        figure="Ablation: binding order",
        table=format_table(
            ("binding order", "pruned", "inner evals", "work_cost"),
            rows,
            f"NLJP binding-order ablation (skyband, n={n_rows}, k={k})",
        ),
        series=series,
    )


def test_binding_order_ablation(benchmark):
    report = run_figure(benchmark, run_order_ablation)
    ascending = report.series["ascending (b_h, b_hr)"]
    descending = report.series["descending (b_h, b_hr)"]
    # Anti-monotone skyband: strong (high-coordinate) unpromising
    # bindings cached first prune the most; descending order must not
    # lose to ascending.
    assert descending["inner"] <= ascending["inner"]
    assert descending["pruned"] >= ascending["pruned"]
