"""Ablation: NLJP cache replacement policies (paper future work, Sec. 7).

The paper implements an unbounded cache and defers replacement policies
to future work.  This bench bounds the cache and compares LRU with
utility-based eviction: both must stay correct, respect the bound, and
lose some effectiveness relative to the unbounded cache.
"""

from conftest import run_figure

from repro.engine import EngineConfig, execute
from repro.core.system import SmartIceberg
from repro.bench.figures import FigureReport, bench_scale
from repro.workloads.baseball import batting_db
from repro.bench.harness import FIGURE_CHOICE, format_table
from repro.workloads.queries import skyband_query


def run_cache_policy_ablation(n_rows=None, k=40):
    n_rows = n_rows or int(1000 * bench_scale())
    db = batting_db(n_rows)
    sql = skyband_query("b_h", "b_hr", k)
    baseline = sorted(execute(db, sql, EngineConfig.postgres()).rows)

    setups = {
        "unbounded": dict(),
        "lru-32": dict(cache_max_entries=32, cache_policy="lru"),
        "lru-128": dict(cache_max_entries=128, cache_policy="lru"),
        "utility-32": dict(cache_max_entries=32, cache_policy="utility"),
    }
    rows = []
    series = {}
    for label, options in setups.items():
        system = SmartIceberg(
            db, apriori=False, technique_choice=FIGURE_CHOICE, **options
        )
        optimized = system.optimize(sql)
        result = optimized.execute()
        assert sorted(result.rows) == baseline, label
        cache = optimized.nljp.store
        limit = options.get("cache_max_entries")
        if limit is not None:
            assert cache.rows <= limit, label
        rows.append(
            (
                label,
                cache.rows,
                cache.evictions,
                result.stats.pruned_bindings,
                result.stats.inner_evaluations,
                result.stats.cost(),
            )
        )
        series[label] = {
            "cache_rows": cache.rows,
            "evictions": cache.evictions,
            "inner": result.stats.inner_evaluations,
            "cost": result.stats.cost(),
        }
    return FigureReport(
        figure="Ablation: cache policy",
        table=format_table(
            ("policy", "cache rows", "evictions", "pruned", "inner evals", "work_cost"),
            rows,
            f"NLJP cache-replacement ablation (skyband, n={n_rows}, k={k})",
        ),
        series=series,
    )


def test_cache_policy_ablation(benchmark):
    report = run_figure(benchmark, run_cache_policy_ablation)
    unbounded = report.series["unbounded"]
    tight = report.series["lru-32"]
    loose = report.series["lru-128"]
    # Bounded caches evict and can only lose pruning power.
    assert tight["evictions"] > 0
    assert unbounded["inner"] <= loose["inner"] <= tight["inner"] * 1.01
