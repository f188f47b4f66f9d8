"""Estimate-vs-actual feedback: q-errors and the cardinality report."""

import contextlib

import pytest

from repro.workloads.baseball import batting_db
from repro.testing import RECORD_SEED, without_numpy
from repro.engine import EngineConfig, execute
from repro.engine.operators import PhysicalOperator
from repro.obs import CardinalityReport
from repro.sql.parser import parse
from repro.engine.planner import plan_query
from repro.workloads import figure1_queries

QUERIES = {name: q.sql for name, q in figure1_queries().items()}


@pytest.fixture(scope="module")
def small_db():
    return batting_db(60, seed=RECORD_SEED)


def test_q_error_definition():
    node = PhysicalOperator()
    assert node.q_error() is None
    node.estimated_rows = 100.0
    assert node.q_error() is None
    node.actual_rows = 10
    assert node.q_error() == 10.0
    node.actual_rows = 1000
    assert node.q_error() == 10.0
    node.actual_rows = 100
    assert node.q_error() == 1.0
    # Floors: zero actuals never divide by zero.
    node.actual_rows = 0
    assert node.q_error() == 100.0


def test_explain_analyze_reports_q_error(small_db):
    planned = plan_query(small_db, parse(QUERIES["Q1"]), EngineConfig())
    text = planned.explain(analyze=True)
    assert "actual_rows=" in text
    assert "q_err=" in text


def test_to_dict_carries_q_error(small_db):
    planned = plan_query(small_db, parse(QUERIES["Q1"]), EngineConfig())
    planned.explain(analyze=True)
    document = planned.to_dict()

    def walk(node):
        yield node
        for child in node.get("children", []):
            yield from walk(child)

    annotated = [n for n in walk(document["root"]) if "q_error" in n]
    assert annotated
    for node in annotated:
        assert node["q_error"] >= 1.0
        assert "estimated_rows" in node and "actual_rows" in node


def test_traced_run_stamps_actual_rows(small_db):
    result = execute(small_db, QUERIES["Q1"], EngineConfig(trace="timing"))
    root = result.plan.root
    assert root.actual_rows == len(result.rows)
    assert root.q_error() is not None


def test_cardinality_report_ranks_worst(small_db):
    report = CardinalityReport()
    for name in ("Q1", "Q2", "Q3"):
        result = execute(small_db, QUERIES[name], EngineConfig(trace="timing"))
        added = report.record(name, result.plan.root)
        assert added > 0
    worst = report.worst()
    assert worst == sorted(worst, key=lambda e: -e["q_error"])
    assert report.worst(2) == worst[:2]
    document = report.to_dict()
    assert document["observations"] == len(report.entries)
    assert document["max_q_error"] == worst[0]["q_error"]
    assert document["median_q_error"] >= 1.0
    text = report.summary(5)
    assert "cardinality report" in text
    assert worst[0]["operator"] in text


def test_cardinality_report_skips_unanalyzed(small_db):
    planned = plan_query(small_db, parse(QUERIES["Q1"]), EngineConfig())
    report = CardinalityReport()
    assert report.record_planned("Q1", planned) == 0
    assert report.summary() == (
        "cardinality report: no estimate-vs-actual observations"
    )
    assert report.to_dict()["max_q_error"] is None


@pytest.mark.parametrize("numpy_present", [True, False])
@pytest.mark.parametrize("knobs", [dict(feedback="observe"), dict(trace="counters")])
def test_inner_query_nodes_record_rows_per_evaluation(knobs, numpy_present):
    """Regression: Q_R's nodes run once per binding but were recorded
    with the query's total against a per-evaluation estimate — on Q1
    (n=300) est 18.5 vs actual 2 702, q-error 145.9, topping every
    report.  Per evaluation it is 29.4 rows over 92 loops, q-error 1.6 —
    from the inner kernel and from the operator tree alike."""
    from repro import SmartIceberg
    from repro.obs.tracer import iter_plan_nodes

    if numpy_present:
        pytest.importorskip("numpy")
    db = batting_db(300)
    with contextlib.nullcontext() if numpy_present else without_numpy():
        result = SmartIceberg(db, **knobs).execute(QUERIES["Q1"])
    assert result.stats.inner_evaluations == 92
    scan = next(
        node
        for node in iter_plan_nodes(result.plan.root)
        if type(node).__name__ == "IndexRangeScan"
    )
    assert round(scan.estimated_rows, 1) == 18.5
    assert (scan.actual_rows, scan.actual_loops) == (29.4, 92)
    assert round(scan.q_error(), 2) == 1.59
    assert "actual_rows=29.4 loops=92" in scan.describe()[0]
    worst = result.report("Q1").worst(1)[0]
    assert worst["q_error"] < 2.0 and worst["loops"] in (1, 92)
