"""Ablation: combining a-priori with pruning on the *complex* query.

Section 7 / Appendix D: the paper's own implementation could not yet
apply generalized a-priori together with pruning on the four-way
complex query ("this temporary limitation is not inherent"); Figure 6's
caption notes "generalized a-priori would have helped".  Our optimizer
performs the full Listing 11 composition, so this bench quantifies what
the paper could not measure: each technique in isolation vs combined.
"""

from conftest import run_figure

from repro.engine import EngineConfig, execute
from repro.core.system import SmartIceberg
from repro.bench.figures import FigureReport, bench_scale
from repro.workloads.baseball import perf_db
from repro.bench.harness import FIGURE_CHOICE, format_table
from repro.workloads.queries import complex_query


def run_combination_ablation(n_rows=None, threshold=40):
    n_rows = n_rows or int(5000 * bench_scale())
    db = perf_db(n_rows)
    sql = complex_query(threshold)
    baseline = execute(db, sql, EngineConfig.postgres())
    reference = baseline.sorted_rows()

    setups = {
        "apriori only": dict(memo=False, pruning=False),
        "prune+memo only": dict(apriori=False),
        "combined (Listing 11)": dict(),
    }
    assert reference, "threshold must leave a nonempty result"
    rows = [("postgres baseline", baseline.stats.cost(), "-", "-")]
    series = {"postgres": baseline.stats.cost()}
    for label, toggles in setups.items():
        result = SmartIceberg(
            db, technique_choice=FIGURE_CHOICE, **toggles
        ).execute(sql)
        assert result.sorted_rows() == reference, label
        rows.append(
            (
                label,
                result.stats.cost(),
                result.stats.pruned_bindings,
                result.stats.inner_evaluations,
            )
        )
        series[label] = result.stats.cost()
    return FigureReport(
        figure="Ablation: technique combination on complex",
        table=format_table(
            ("configuration", "work_cost", "pruned", "inner evals"),
            rows,
            f"complex query composition ablation (seasons={n_rows}, "
            f"threshold={threshold})",
        ),
        series=series,
    )


def test_combination_ablation(benchmark):
    report = run_figure(benchmark, run_combination_ablation)
    # The combined configuration beats the baseline at a selective
    # threshold — the capability the paper's implementation lacked.
    assert report.series["combined (Listing 11)"] < report.series["postgres"]
    assert report.series["prune+memo only"] < report.series["postgres"]
