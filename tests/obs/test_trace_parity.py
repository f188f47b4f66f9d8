"""Trace parity: tracing observes execution, never changes it.

The acceptance bar from the observability tentpole: Q1-Q8 row at a
time and in small columnar batches (``tests/modes.py``), under both
interesting join orders, are *bit-identical*
(rows and every work counter) between ``trace="off"`` and
``trace="timing"``, and the span tree's per-span ExecutionStats deltas
sum exactly to the query-global totals — attribution neither invents
nor loses work.
"""

import pytest

from repro import SmartIceberg
from repro.workloads.baseball import batting_db
from repro.testing import RECORD_SEED
from repro.engine import EngineConfig, execute
from repro.workloads import figure1_queries
from tests.modes import in_mode, mode_kwargs

QUERIES = {name: q.sql for name, q in figure1_queries().items()}


@pytest.fixture(scope="module")
def small_db():
    return batting_db(60, seed=RECORD_SEED)


def run(db, sql, join_order, mode, trace):
    with in_mode(mode):
        return execute(
            db,
            sql,
            EngineConfig(join_order=join_order, trace=trace, **mode_kwargs(mode)),
        )


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("mode", ["row", "batch"])
@pytest.mark.parametrize("join_order", ["syntactic", "dp"])
def test_trace_off_vs_timing_bit_identical(
    small_db, query_name, mode, join_order
):
    sql = QUERIES[query_name]
    off = run(small_db, sql, join_order, mode, "off")
    timed = run(small_db, sql, join_order, mode, "timing")
    assert off.sorted_rows() == timed.sorted_rows()
    assert off.stats.as_dict() == timed.stats.as_dict()
    assert off.profile is None
    assert timed.profile is not None


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("mode", ["row", "batch"])
def test_span_deltas_sum_to_query_totals(small_db, query_name, mode):
    result = run(small_db, QUERIES[query_name], "dp", mode, "timing")
    assert result.profile.total_stats() == result.stats.as_dict()


@pytest.mark.parametrize("query_name", ["Q1", "Q4", "Q5", "Q8"])
def test_smart_iceberg_trace_parity(small_db, query_name):
    """The NLJP path (cache hooks and Q_B/Q_R sub-plans) is parity-safe."""
    sql = QUERIES[query_name]
    off = SmartIceberg(small_db).execute(sql)
    timed = SmartIceberg(small_db, trace="timing").execute(sql)
    assert off.sorted_rows() == timed.sorted_rows()
    assert off.stats.as_dict() == timed.stats.as_dict()
    assert timed.profile.total_stats() == timed.stats.as_dict()


def test_counters_mode_parity_and_no_wall_clock(small_db):
    sql = QUERIES["Q1"]
    off = run(small_db, sql, "dp", "row", "off")
    counted = run(small_db, sql, "dp", "row", "counters")
    assert off.sorted_rows() == counted.sorted_rows()
    assert off.stats.as_dict() == counted.stats.as_dict()
    profile = counted.profile
    assert profile.mode == "counters"
    assert profile.total_stats() == counted.stats.as_dict()
    for span in profile.root.walk():
        assert span.wall_seconds == 0.0
        assert span.first_start is None


def test_traced_plan_is_rerunnable(small_db):
    """finish() restores the plan: a second run produces the same result."""
    sql = QUERIES["Q2"]
    config = EngineConfig(trace="timing")
    first = execute(small_db, sql, config)
    second = execute(small_db, sql, config)
    assert first.sorted_rows() == second.sorted_rows()
    assert first.stats.as_dict() == second.stats.as_dict()


def test_trace_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(trace="flamegraph")
