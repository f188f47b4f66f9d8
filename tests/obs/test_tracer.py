"""Tracer mechanics: span trees, reentrancy, dedupe, exports, phases."""

import json

import pytest

from repro import SmartIceberg
from repro.bench.figures import _batting_db
from repro.bench.record import RECORD_SEED
from repro.engine import EngineConfig, execute
from repro.obs import (
    QueryProfile,
    Span,
    Tracer,
    child_plans,
    iter_plan_nodes,
    merge_chrome_traces,
)
from repro.workloads import figure1_queries

QUERIES = {name: q.sql for name, q in figure1_queries().items()}


@pytest.fixture(scope="module")
def small_db():
    return _batting_db(60, seed=RECORD_SEED)


@pytest.fixture(scope="module")
def q1_timed(small_db):
    return execute(small_db, QUERIES["Q1"], EngineConfig(trace="timing"))


def test_span_tree_mirrors_plan(small_db, q1_timed):
    """Operator spans correspond one-to-one with distinct plan nodes."""
    planned = q1_timed.plan
    plan_types = sorted(type(n).__name__ for n in iter_plan_nodes(planned.root))
    span_types = sorted(
        s.name for s in q1_timed.profile.root.walk() if s.kind == "operator"
    )
    assert span_types == plan_types


def test_root_span_counts_match_result(small_db):
    q1_rows = execute(
        small_db, QUERIES["Q1"], EngineConfig(execution_mode="row", trace="timing")
    )
    root = q1_rows.profile.root
    assert root.name == "CountOutput"
    assert root.rows == len(q1_rows.rows)
    # Row mode: one next() per row plus the exhausting StopIteration call.
    assert root.count == len(q1_rows.rows) + 1


def test_phases_present_and_timed(q1_timed):
    names = [phase.name for phase in q1_timed.profile.phases]
    assert names == ["parse", "plan"]
    assert all(phase.wall_seconds >= 0.0 for phase in q1_timed.profile.phases)


def test_timing_spans_have_envelopes(q1_timed):
    for span in q1_timed.profile.root.walk():
        if span.kind != "operator" or span.count == 0:
            continue
        assert span.first_start is not None and span.last_end is not None
        assert span.last_end >= span.first_start
        assert span.wall_seconds >= 0.0


def test_reentrancy_guard_limit_in_batch_mode(small_db):
    """Limit's default execute_batches re-enters execute on the same
    node; the depth guard must keep rows and deltas single-counted."""
    sql = "SELECT playerid, year, b_h FROM batting LIMIT 5"
    off = execute(small_db, sql, EngineConfig(execution_mode="batch"))
    timed = execute(
        small_db, sql, EngineConfig(execution_mode="batch", trace="timing")
    )
    assert off.sorted_rows() == timed.sorted_rows()
    assert off.stats.as_dict() == timed.stats.as_dict()
    profile = timed.profile
    assert profile.total_stats() == timed.stats.as_dict()
    limit_spans = [s for s in profile.root.walk() if s.name == "Limit"]
    assert len(limit_spans) == 1
    assert limit_spans[0].rows == 5


def test_shared_cte_wrapped_once(small_db):
    """A CTE referenced twice shares one materialization — and one span."""
    sql = """
        WITH seasons AS (
            SELECT playerid AS pid, year AS yr FROM batting
        )
        SELECT a.pid, COUNT(*)
        FROM seasons a, seasons b
        WHERE a.pid = b.pid AND a.yr < b.yr
        GROUP BY a.pid
        HAVING COUNT(*) >= 1
    """
    off = execute(small_db, sql, EngineConfig())
    timed = execute(small_db, sql, EngineConfig(trace="timing"))
    assert off.sorted_rows() == timed.sorted_rows()
    assert off.stats.as_dict() == timed.stats.as_dict()
    profile = timed.profile
    assert profile.total_stats() == timed.stats.as_dict()
    materialize_spans = [
        s for s in profile.root.walk() if s.attrs.get("edge") == "materialize"
    ]
    assert len(materialize_spans) == 1


def test_nljp_sub_plans_and_cache_spans(small_db):
    result = SmartIceberg(small_db, trace="timing").execute(QUERIES["Q1"])
    profile = result.profile
    edges = {
        s.attrs.get("edge")
        for s in profile.root.walk()
        if s.attrs.get("edge") is not None
    }
    assert {"qb_plan", "qr_plan"} <= edges
    cache = {s.name: s for s in profile.root.walk() if s.kind == "cache"}
    assert "cache:memo_get" in cache
    assert cache["cache:memo_get"].count > 0
    # Cache spans carry zero stats deltas: pure interaction counts.
    for span in cache.values():
        assert all(v == 0 for v in span.exclusive_stats().values())
    # The NLJP driver executions: memo hits recorded on the get span.
    hits = cache["cache:memo_get"].attrs.get("hits", 0)
    assert hits == result.stats.cache_hits


def test_tracer_is_one_shot(small_db):
    from repro.engine.planner import plan_query
    from repro.sql.parser import parse

    planned = plan_query(small_db, parse(QUERIES["Q1"]), EngineConfig())
    tracer = Tracer("counters")
    tracer.install(planned.root)
    with pytest.raises(RuntimeError):
        tracer.install(planned.root)
    tracer.finish()
    # finish() removed every wrapper: nothing traced remains.
    for node in iter_plan_nodes(planned.root):
        assert "execute" not in node.__dict__ or node.children() == []


def test_tracer_rejects_off_mode():
    with pytest.raises(ValueError):
        Tracer("off")
    with pytest.raises(ValueError):
        Tracer("everything")


def test_child_plans_covers_hidden_children(small_db):
    result = SmartIceberg(small_db).execute(QUERIES["Q1"])
    nljp = [
        node
        for node in iter_plan_nodes(result.plan.root)
        if type(node).__name__ == "NLJPOperator"
    ]
    assert nljp, "Q1 should plan through NLJP under the full system"
    labels = {edge for _, edge in child_plans(nljp[0]) if edge}
    assert {"qb_plan", "qr_plan"} <= labels


def test_chrome_trace_schema(q1_timed):
    trace = q1_timed.profile.to_chrome_trace()
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    events = trace["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    completes = [e for e in events if e["ph"] == "X"]
    assert metas and completes
    assert {e["name"] for e in metas} == {"process_name", "thread_name"}
    for event in completes:
        assert event["dur"] > 0
        assert "args" in event and "count" in event["args"]
    phase_events = [e for e in completes if e["cat"] == "phase"]
    operator_events = [e for e in completes if e["cat"] == "operator"]
    assert {e["tid"] for e in phase_events} == {0}
    assert {e["tid"] for e in operator_events} == {1}
    json.dumps(trace)  # round-trippable as-is


def test_chrome_trace_child_envelopes_nest(q1_timed):
    """A child operator's event lies inside its parent's event."""
    trace = q1_timed.profile.to_chrome_trace()
    by_name = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X" and event["cat"] == "operator":
            by_name.setdefault(event["name"], event)

    def check(span):
        parent = by_name.get(span.name)
        for child in span.children:
            if child.kind != "operator" or child.count == 0:
                continue
            event = by_name.get(child.name)
            if parent is None or event is None:
                continue
            assert event["ts"] >= parent["ts"] - 1e-6
            assert (
                event["ts"] + event["dur"]
                <= parent["ts"] + parent["dur"] + 1e-6
            )
            check(child)

    check(q1_timed.profile.root)


def test_merge_chrome_traces_distinct_pids(small_db):
    first = execute(small_db, QUERIES["Q1"], EngineConfig(trace="timing"))
    second = execute(small_db, QUERIES["Q2"], EngineConfig(trace="timing"))
    merged = merge_chrome_traces(
        [("Q1/base", first.profile), ("Q2/base", second.profile)]
    )
    pids = {e["pid"] for e in merged["traceEvents"]}
    assert pids == {1, 2}
    process_names = {
        e["args"]["name"]
        for e in merged["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert process_names == {"Q1/base", "Q2/base"}


def test_profile_json_export(q1_timed):
    document = json.loads(q1_timed.profile.to_json())
    assert document["mode"] == "timing"
    assert document["root"]["name"] == "CountOutput"
    assert document["total_stats"]["rows_scanned"] > 0
    assert [p["name"] for p in document["phases"]] == ["parse", "plan"]


def test_span_exclusive_never_double_counts():
    parent = Span("parent")
    child = Span("child")
    parent.children.append(child)
    parent.accumulate((0,) * 10, tuple([5] + [0] * 9))
    child.accumulate((0,) * 10, tuple([3] + [0] * 9))
    assert parent.inclusive_stats()["rows_scanned"] == 5
    assert parent.exclusive_stats()["rows_scanned"] == 2
    profile = QueryProfile(root=parent)
    assert profile.total_stats()["rows_scanned"] == 5


def test_error_paths_restore_plan(small_db):
    """A budget trip mid-query still unwraps the traced plan."""
    from repro.errors import BudgetExceededError

    config = EngineConfig(trace="timing", max_rows_scanned=10)
    with pytest.raises(BudgetExceededError) as info:
        execute(small_db, QUERIES["Q1"], config)
    assert info.value.stats is not None
    # The same statement executes cleanly afterwards (fresh plan, but
    # the registry/tracer state must not have been corrupted).
    ok = execute(small_db, QUERIES["Q1"], EngineConfig(trace="timing"))
    assert ok.profile.total_stats() == ok.stats.as_dict()


def test_inner_kernel_work_is_one_child_span_of_nljp(small_db):
    """The kernel stands in for Q_R's operators; its evaluations, rows,
    counters and wall time land on one ``kernel`` span under NLJP, not
    in NLJP's self time, and the span sums still telescope."""
    pytest.importorskip("numpy")
    result = SmartIceberg(small_db, trace="timing").execute(QUERIES["Q1"])
    profile = result.profile
    nljp = next(s for s in profile.root.walk() if s.name == "NLJPOperator")
    kernels = [s for s in nljp.children if s.kind == "kernel"]
    assert [s.name for s in kernels] == ["InnerKernel"]
    kernel = kernels[0]
    assert kernel.detail == "IndexRangeScan batting_h_hr"
    evaluations = result.stats.inner_evaluations
    assert kernel.count == kernel.loops == evaluations > 0
    assert kernel.rows == evaluations  # scalar Q_R: one row per binding
    work = kernel.inclusive_stats()
    assert work["index_probes"] == result.stats.index_probes
    assert work["aggregation_inputs"] == result.stats.aggregation_inputs
    assert 0.0 < kernel.wall_seconds <= nljp.wall_seconds
    # NLJP's own share no longer holds the inner query's work.
    assert nljp.exclusive_stats()["aggregation_inputs"] == 0
    assert profile.total_stats() == result.stats.as_dict()
    # Q_R's operator spans never activate, but are credited their rows.
    qr = next(s for s in nljp.children if s.attrs.get("edge") == "qr_plan")
    assert qr.count == 0 and qr.loops == evaluations and qr.rows == evaluations
    assert any(event["cat"] == "kernel" for event in profile.to_chrome_trace()["traceEvents"] if event["ph"] == "X")
