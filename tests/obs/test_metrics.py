"""Metrics registry: semantics, Prometheus format, executor wiring."""

import pytest

from repro import SmartIceberg
from repro.workloads.baseball import batting_db
from repro.testing import RECORD_SEED, without_numpy
from repro.engine import EngineConfig, execute
from repro.engine.governor import Governor
from repro.engine.stats import ExecutionStats
from repro.obs import REGISTRY, MetricsRegistry, record_query
from repro.workloads import figure1_queries

QUERIES = {name: q.sql for name, q in figure1_queries().items()}


@pytest.fixture(scope="module")
def small_db():
    return batting_db(60, seed=RECORD_SEED)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


def test_counter_accumulates_by_labels():
    registry = MetricsRegistry()
    counter = registry.counter("hits", "cache hits", ("mode",))
    counter.inc(mode="row")
    counter.inc(2, mode="row")
    counter.inc(mode="columnar")
    assert counter.value(mode="row") == 3
    assert counter.value(mode="columnar") == 1
    assert counter.value(mode="absent") == 0


def test_counter_rejects_negative():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)


def test_unknown_labels_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("c", labelnames=("mode",)).inc(modee="row")


def test_gauge_set_and_high_water():
    registry = MetricsRegistry()
    gauge = registry.gauge("bytes")
    gauge.set_max(100)
    gauge.set_max(50)
    assert gauge.value() == 100
    gauge.set(10)
    assert gauge.value() == 10


def test_histogram_cumulative_buckets():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    text = registry.render()
    assert 'lat_bucket{le="0.1"} 1' in text
    assert 'lat_bucket{le="1"} 2' in text
    assert 'lat_bucket{le="+Inf"} 3' in text
    assert "lat_count 3" in text


def test_reregistration_same_shape_returns_same_metric():
    registry = MetricsRegistry()
    first = registry.counter("c", labelnames=("a",))
    assert registry.counter("c", labelnames=("a",)) is first
    with pytest.raises(ValueError):
        registry.gauge("c")
    with pytest.raises(ValueError):
        registry.counter("c", labelnames=("b",))


def test_render_prometheus_shape():
    registry = MetricsRegistry()
    registry.counter("reqs", "requests", ("mode",)).inc(mode="row")
    text = registry.render()
    assert "# HELP reqs requests\n" in text
    assert "# TYPE reqs counter\n" in text
    assert 'reqs{mode="row"} 1' in text
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# record_query wiring
# ---------------------------------------------------------------------------


def test_record_query_populates_registry(small_db):
    registry = MetricsRegistry()
    with without_numpy():
        result = execute(small_db, QUERIES["Q1"], EngineConfig())
    record_query(result, governor=None, registry=registry)
    assert registry.get("repro_queries_total").value(mode="row") == 1
    work = registry.get("repro_work_total")
    assert work.value(counter="rows_scanned", mode="row") == (
        result.stats.rows_scanned
    )
    assert registry.get("repro_work_cost_total").value(mode="row") == (
        result.stats.cost()
    )


def test_record_query_headroom_gauges(small_db):
    registry = MetricsRegistry()
    stats = ExecutionStats(rows_scanned=25)
    governor = Governor(stats, max_rows_scanned=100)
    result = execute(small_db, QUERIES["Q1"], EngineConfig())
    record_query(result, governor=governor, registry=registry)
    headroom = registry.get("repro_governor_budget_headroom")
    assert headroom.value(budget="rows_scanned") == 0.75


def test_record_query_degradation_sites(small_db):
    registry = MetricsRegistry()
    result = execute(small_db, QUERIES["Q1"], EngineConfig())
    result.stats.degradations.append("nljp-cache: pressure")
    result.stats.degradations.append("nljp-cache: disabled")
    record_query(result, registry=registry)
    events = registry.get("repro_degradation_events_total")
    assert events.value(site="nljp-cache") == 2


def test_executor_records_into_process_registry(small_db):
    queries = REGISTRY.counter("repro_queries_total", "Queries executed", ("mode",))
    before = queries.value(mode="row")
    with without_numpy():
        execute(small_db, QUERIES["Q2"], EngineConfig())
    assert queries.value(mode="row") == before + 1


def test_governor_headroom_values():
    stats = ExecutionStats(rows_scanned=50, join_pairs=10, cache_bytes=0)
    governor = Governor(
        stats, max_rows_scanned=100, max_join_pairs=100, max_cache_bytes=1000
    )
    headroom = governor.headroom()
    assert headroom["rows_scanned"] == 0.5
    assert headroom["join_pairs"] == 0.9
    assert headroom["cache_bytes"] == 1.0
    assert "deadline_seconds" not in headroom
    # Over-budget clamps at zero rather than going negative.
    stats.rows_scanned = 500
    assert governor.headroom()["rows_scanned"] == 0.0


# ---------------------------------------------------------------------------
# New ExecutionStats counters and serialization (satellites)
# ---------------------------------------------------------------------------


def test_stats_as_dict_excludes_events_by_default():
    stats = ExecutionStats(rows_scanned=1)
    stats.degradations.append("site: why")
    payload = stats.as_dict()
    assert "degradations" not in payload
    assert payload["rows_scanned"] == 1
    with_events = stats.as_dict(include_events=True)
    assert with_events["degradations"] == ["site: why"]
    # A fresh list: mutating it must not touch the stats.
    with_events["degradations"].append("x")
    assert stats.degradations == ["site: why"]


def test_stats_repr_shows_events():
    stats = ExecutionStats(cache_evictions=2, subsumption_merges=3)
    stats.degradations.append("site: why")
    text = repr(stats)
    assert "cache_evictions" in text and "subsumption_merges" in text
    assert "site: why" in text


def test_cache_evictions_counter_surfaces(small_db):
    """A bounded NLJP cache reports its evictions in the counters."""
    result = SmartIceberg(
        small_db, cache_max_entries=2, cache_policy="lru"
    ).execute(QUERIES["Q1"])
    assert result.stats.cache_evictions > 0
    assert result.stats.as_dict()["cache_evictions"] == (
        result.stats.cache_evictions
    )


def test_subsumption_merges_counter():
    """Combining-mode NLJP counts merged partial-aggregation states,
    identically row at a time and in columnar batches."""
    from repro.core.iceberg import IcebergBlock
    from repro.core.nljp import NLJPOperator
    from repro.core.pruning import check_pruning
    from repro.engine.operators import ExecutionContext
    from repro.engine.planner import PlanEnv
    from repro.sql.parser import parse
    from repro.workloads.basket import BasketConfig, make_basket_db

    sql = (
        "SELECT i1.item, COUNT(*) FROM basket i1, basket i2 "
        "WHERE i1.bid = i2.bid AND i1.item < i2.item "
        "GROUP BY i1.item HAVING COUNT(*) >= 2"
    )
    db = make_basket_db(BasketConfig())

    def run(batch_size):
        block = IcebergBlock(parse(sql).body, db)
        view = block.partition(["i1"])
        env = PlanEnv(db=db, config=EngineConfig.smart())
        nljp = NLJPOperator(view, env, pruning=check_pruning(view))
        assert not nljp.direct_mode
        ctx = ExecutionContext(batch_size=batch_size)
        rows = sorted(nljp.execute(ctx))
        return rows, ctx.stats

    with without_numpy():
        row_rows, row_stats = run(None)
    batch_rows, batch_stats = run(7)
    assert row_stats.subsumption_merges > 0
    assert row_rows == batch_rows
    assert row_stats.subsumption_merges == batch_stats.subsumption_merges


def test_bench_record_includes_new_counters_and_events(small_db):
    from repro.bench.harness import make_systems, run_comparison

    systems = make_systems(("all",))
    measurement = run_comparison(small_db, {"Q1": QUERIES["Q1"]}, systems)[0]
    counters = measurement.stats.as_dict()
    assert "cache_evictions" in counters
    assert "subsumption_merges" in counters
    assert "degradations" not in counters
    events = measurement.stats.as_dict(include_events=True)
    assert isinstance(events["degradations"], list)


# ---------------------------------------------------------------------------
# Thread safety: the 8-thread hammer
# ---------------------------------------------------------------------------


def test_registry_is_thread_safe_under_8_thread_hammer():
    """Exact totals survive 8 threads hammering shared metrics.

    Every thread drives the same counter, gauge, and histogram through
    the registry (increments, high-water updates, observations) while
    another mixes in renders.  Lost updates would show up as totals
    below the exact expected values.
    """
    import threading

    registry = MetricsRegistry()
    counter = registry.counter("hammer_total", "increments", ("thread",))
    shared = registry.counter("hammer_shared_total", "shared increments")
    gauge = registry.gauge("hammer_high_water", "max value seen")
    histogram = registry.histogram(
        "hammer_seconds", "observations", buckets=(0.5, 1.5, 2.5)
    )
    n_threads, per_thread = 8, 2000

    def hammer(index):
        for step in range(per_thread):
            counter.inc(thread=str(index))
            shared.inc()
            gauge.set_max(index * per_thread + step)
            histogram.observe(index % 3)
            if step % 500 == 0:
                registry.render()

    threads = [
        threading.Thread(target=hammer, args=(index,))
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)

    assert shared.value() == n_threads * per_thread
    for index in range(n_threads):
        assert counter.value(thread=str(index)) == per_thread
    assert gauge.value() == (n_threads - 1) * per_thread + per_thread - 1
    rendered = registry.render()
    assert f"hammer_seconds_count {n_threads * per_thread}" in rendered


def test_concurrent_registration_returns_one_metric_instance():
    import threading

    registry = MetricsRegistry()
    instances = []
    lock = threading.Lock()

    def register():
        metric = registry.counter("same_name", "idempotent", ("a",))
        with lock:
            instances.append(metric)

    threads = [threading.Thread(target=register) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert all(metric is instances[0] for metric in instances)
