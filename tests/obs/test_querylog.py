"""Structured query log: schema, bounds, report, and server wiring."""

import json

import pytest

from repro import SmartIceberg
from repro.workloads.baseball import batting_db
from repro.testing import RECORD_SEED
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import (
    QUERY_LOG_FIELDS,
    QueryLog,
    stable_fingerprint,
    validate_record,
    validate_records,
)
from repro.obs.report import aggregate, main as report_main
from repro.serve.server import IcebergServer
from repro.workloads import figure1_queries

GROUP_SQL = (
    "SELECT playerid, SUM(b_hr) AS hr FROM batting "
    "GROUP BY playerid HAVING SUM(b_hr) > 10"
)
JOIN_SQL = (
    "SELECT b1.playerid FROM batting b1, batting b2 "
    "WHERE b1.playerid = b2.playerid AND b1.b_hr > 20 AND b2.b_h > 50 "
    "GROUP BY b1.playerid"
)


# ---------------------------------------------------------------------------
# QueryLog mechanics
# ---------------------------------------------------------------------------


class TestQueryLog:
    def test_append_fills_golden_schema(self):
        log = QueryLog(max_entries=4)
        record = log.append(session="s1", outcome="ok")
        assert set(record) == set(QUERY_LOG_FIELDS)
        assert record["sequence"] == 1
        assert record["latency_seconds"] is None
        assert validate_record(record) == []

    def test_unknown_field_rejected(self):
        log = QueryLog(max_entries=4)
        with pytest.raises(ValueError, match="unknown query-log fields"):
            log.append(session="s1", surprise=True)

    def test_bounded_eviction(self):
        log = QueryLog(max_entries=3)
        for i in range(10):
            log.append(session=f"s{i}", outcome="ok")
        assert len(log) == 3
        assert log.sequence == 10
        retained = [record["sequence"] for record in log.to_list()]
        assert retained == [8, 9, 10]
        assert [r["sequence"] for r in log.tail(2)] == [9, 10]

    def test_jsonl_roundtrip_and_compaction(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        log = QueryLog(max_entries=3, path=path)
        for i in range(10):
            log.append(session=f"s{i}", outcome="ok")
        lines = open(path).read().splitlines()
        # Compaction keeps the file bounded near the in-memory tail.
        assert len(lines) <= 2 * log.max_entries
        records = QueryLog.read(path)
        assert validate_records(records) == []
        assert records[-1]["sequence"] == 10
        log.compact()
        assert len(QueryLog.read(path)) == len(log)

    def test_stable_fingerprint(self):
        assert stable_fingerprint("SELECT 1") == stable_fingerprint("SELECT 1")
        assert stable_fingerprint("SELECT 1") != stable_fingerprint("SELECT 2")
        assert len(stable_fingerprint("x")) == 16


# ---------------------------------------------------------------------------
# Report aggregation
# ---------------------------------------------------------------------------


def _record(**overrides):
    base = {name: None for name in QUERY_LOG_FIELDS}
    base.update(
        outcome="ok",
        latency_seconds=0.01,
        plan_cache_hit=True,
        degradations=[],
        worst_q_errors=[],
    )
    base.update(overrides)
    return base


class TestReport:
    def test_aggregate_percentiles_and_rates(self):
        records = [
            _record(latency_seconds=0.001 * (i + 1), plan_cache_hit=i > 0)
            for i in range(10)
        ]
        records.append(_record(outcome="error:AdmissionRejectedError",
                               latency_seconds=None, plan_cache_hit=None))
        summary = aggregate(records)
        assert summary["queries"] == 11
        assert summary["outcomes"]["ok"] == 10
        assert summary["outcomes"]["error:AdmissionRejectedError"] == 1
        assert summary["latency_seconds"]["p50"] == pytest.approx(0.005, abs=1e-3)
        assert summary["plan_cache_hit_rate"] == pytest.approx(0.9)

    def test_aggregate_worst_predicates(self):
        records = [
            _record(worst_q_errors=[
                {"fingerprint": "scan:t|t.a = 1", "est": 10, "actual": 500,
                 "q_error": 50.0},
            ]),
            _record(worst_q_errors=[
                {"fingerprint": "scan:t|t.a = 1", "est": 10, "actual": 900,
                 "q_error": 90.0},
                {"fingerprint": "scan:u|", "est": 5, "actual": 6, "q_error": 1.2},
            ]),
        ]
        summary = aggregate(records, top=1)
        assert len(summary["worst_predicates"]) == 1
        worst = summary["worst_predicates"][0]
        assert worst["fingerprint"] == "scan:t|t.a = 1"
        assert worst["q_error"] == 90.0  # max across records, deduped

    def test_cli_renders_and_validates(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps(_record()) + "\n")
        assert report_main([str(path)]) == 0
        assert "query log: 1 records" in capsys.readouterr().out
        with open(path, "w") as handle:
            handle.write(json.dumps({"not": "a record"}) + "\n")
        assert report_main([str(path)]) == 1


# ---------------------------------------------------------------------------
# Server wiring
# ---------------------------------------------------------------------------


@pytest.fixture()
def server(tmp_path):
    db = batting_db(120, seed=RECORD_SEED)
    return IcebergServer(
        db,
        registry=MetricsRegistry(),
        query_log_path=str(tmp_path / "server.jsonl"),
    )


class TestServerWiring:
    def test_every_execution_logged(self, server):
        with server.session() as session:
            session.execute(GROUP_SQL)
            session.execute(GROUP_SQL)
            session.execute(JOIN_SQL)
        records = server.query_log.to_list()
        assert len(records) == 3
        assert validate_records(records) == []
        assert [r["plan_cache_hit"] for r in records] == [False, True, False]
        for record in records:
            assert record["outcome"] == "ok"
            assert record["feedback_mode"] == "observe"
            assert record["technique_mask"] == ["apriori", "memprune"]
            assert record["latency_seconds"] is not None
            assert record["breaker_states"] == {
                "apriori": "closed", "memprune": "closed",
            }
        # Mis-estimates of the join query surface in the log.
        assert records[-1]["worst_q_errors"]
        assert records[-1]["worst_q_errors"][0]["q_error"] >= 1.0

    def test_plan_fingerprint_taken_once_per_cached_plan(self, server):
        """The miss and the hits of one cached plan log one fingerprint:
        the plan's, taken before it first runs (NLJP's ``explain()``
        gains runtime lines once it has run), and a second server
        fingerprints the same plan alike."""
        q1 = figure1_queries()["Q1"].sql
        with server.session() as session:
            for _ in range(3):
                session.execute(q1)
        records = server.query_log.to_list()
        assert [r["plan_cache_hit"] for r in records] == [False, True, True]
        assert len({r["plan_fingerprint"] for r in records}) == 1
        unrun = SmartIceberg(
            server.db, cross_query_memo=True, feedback="observe"
        ).optimize(q1)
        assert records[0]["plan_fingerprint"] == stable_fingerprint(
            unrun.planned.explain()
        )
        other = IcebergServer(server.db, registry=MetricsRegistry())
        with other.session() as session:
            session.execute(q1)
        assert (
            other.query_log.to_list()[0]["plan_fingerprint"]
            == records[0]["plan_fingerprint"]
        )

    def test_error_outcome_logged(self, server):
        from repro.errors import UnknownColumnError

        with server.session() as session:
            with pytest.raises(UnknownColumnError):
                session.execute("SELECT nope FROM batting")
        records = server.query_log.to_list()
        assert len(records) == 1
        assert records[0]["outcome"] == "error:UnknownColumnError"
        assert records[0]["sql_fingerprint"] is not None
        assert records[0]["latency_seconds"] is None

    def test_serve_metrics_exported(self, server):
        with server.session() as session:
            session.execute(GROUP_SQL)
        text = server._registry.render()
        assert 'repro_server_admission_outcomes{outcome="admitted"} 1' in text
        assert 'repro_server_breaker_transitions{technique="apriori"' in text
        assert "repro_server_plan_cache" in text

    def test_explicit_config_feedback_respected(self):
        from repro.engine.planner import EngineConfig

        db = batting_db(60, seed=RECORD_SEED)
        server = IcebergServer(
            db, registry=MetricsRegistry(), config=EngineConfig()
        )
        with server.session() as session:
            session.execute(GROUP_SQL)
        assert server.query_log.to_list()[0]["feedback_mode"] == "off"
