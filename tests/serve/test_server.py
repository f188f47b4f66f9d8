"""IcebergServer end-to-end: sessions, plan cache, breakers, lifetimes."""

import json

import pytest

from repro import CancelToken, IcebergServer, SmartIceberg
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    InjectedFaultError,
    QueryCancelledError,
    SessionClosedError,
)
from repro.serve.circuit import CLOSED, HALF_OPEN, OPEN
from repro.serve.server import FULL_MASK, _breaker_for_degradation
from repro.serve.templates import lift
from repro.testing import FaultPlan, FaultSpec
from repro.workloads import BaseballConfig, figure1_queries, make_batting_db

QUERIES = {name: q.sql for name, q in figure1_queries().items()}


@pytest.fixture
def db():
    return make_batting_db(BaseballConfig(n_rows=120, seed=7))


@pytest.fixture
def server(db):
    return IcebergServer(db, max_concurrent=4)


class VirtualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestPlanCache:
    def test_second_prepared_execution_hits_the_cache(self, server):
        with server.session() as session:
            statement = session.prepare(QUERIES["Q1"])
            first = statement.execute()
            assert server.plan_cache.stats()["hits"] == 0
            second = statement.execute()
            assert server.plan_cache.stats()["hits"] == 1
            assert first.sorted_rows() == second.sorted_rows()

    def test_cache_is_shared_across_sessions(self, server):
        with server.session() as one, server.session() as two:
            one.execute(QUERIES["Q1"])
            two.execute(QUERIES["Q1"])
        assert server.plan_cache.stats() ["hits"] == 1
        assert server.plan_cache.stats()["misses"] == 1

    def test_insert_invalidates(self, db, server):
        with server.session() as session:
            statement = session.prepare(QUERIES["Q1"])
            statement.execute()
            db.table("batting").insert_many(list(db.table("batting").rows[:3]))
            after = statement.execute()
            assert server.plan_cache.stats()["invalidations"] == 1
            # The re-optimized plan sees the new data.
            fresh = SmartIceberg(db).execute(QUERIES["Q1"]).sorted_rows()
            assert after.sorted_rows() == fresh

    def test_analyze_invalidates(self, db, server):
        with server.session() as session:
            statement = session.prepare(QUERIES["Q2"])
            statement.execute()
            db.table("batting").analyze()
            statement.execute()
            assert server.plan_cache.stats()["invalidations"] == 1

    def test_ddl_invalidates(self, db, server):
        from repro.storage import SqlType, TableSchema

        with server.session() as session:
            statement = session.prepare(QUERIES["Q1"])
            statement.execute()
            db.create_table(
                "scratch", TableSchema.of(("x", SqlType.INTEGER))
            )
            statement.execute()
            assert server.plan_cache.stats()["invalidations"] == 1

    def test_shared_nljp_memo_warms_across_executions(self, db):
        server = IcebergServer(db)
        with server.session() as session:
            statement = session.prepare(QUERIES["Q2"])
            first = statement.execute()
            second = statement.execute()
            assert second.sorted_rows() == first.sorted_rows()
            # The second run replays bindings the first run cached.
            assert second.stats.cache_hits > first.stats.cache_hits


class TestSessionLifetimes:
    def test_closed_session_refuses_work(self, server):
        session = server.session()
        session.close()
        with pytest.raises(SessionClosedError):
            session.execute(QUERIES["Q1"])
        with pytest.raises(SessionClosedError):
            session.prepare(QUERIES["Q1"])

    def test_cancelled_token_does_not_leak_into_next_query(self, server):
        """Satellite: CancelToken lifetime audit, serving-layer view."""
        with server.session() as session:
            token = CancelToken()
            token.cancel("client went away")
            with pytest.raises(QueryCancelledError):
                session.execute(QUERIES["Q1"], cancel_token=token)
            # Same session, same cached plan, no token: must succeed.
            result = session.execute(QUERIES["Q1"])
            assert len(result.rows) > 0

    def test_cancelled_token_does_not_leak_on_smart_iceberg(self, db):
        """Satellite: the audit on the bare facade (per-call kwarg)."""
        system = SmartIceberg(db)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            system.execute(QUERIES["Q1"], cancel_token=token)
        assert len(system.execute(QUERIES["Q1"]).rows) > 0

    def test_tripped_deadline_does_not_leak(self, db):
        system = SmartIceberg(db)
        with pytest.raises(BudgetExceededError) as info:
            system.execute(QUERIES["Q1"], deadline_seconds=0.0)
        assert info.value.budget == "deadline_seconds"
        assert len(system.execute(QUERIES["Q1"]).rows) > 0

    def test_session_deadline_applies_per_query(self, server):
        session = server.session(deadline_seconds=0.0)
        server.retry.max_attempts = 1
        with pytest.raises(BudgetExceededError):
            session.execute(QUERIES["Q1"])


    def test_export_trace_writes_one_chrome_trace(self, db, tmp_path):
        server = IcebergServer(db, trace="counters")
        session = server.session()
        assert session.export_trace(str(tmp_path / "none.json")) == 0
        assert not (tmp_path / "none.json").exists()
        session.execute(QUERIES["Q1"])
        session.execute(QUERIES["Q8"])
        path = tmp_path / "trace.json"
        assert session.export_trace(str(path)) == 2
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"] if isinstance(document, dict) else document
        assert len({event["pid"] for event in events if "pid" in event}) == 2


class TestServingFaultSites:
    def test_admission_fault_is_retried(self, db):
        server = IcebergServer(db)
        plan = FaultPlan([FaultSpec(site="admission", kind="error", times=1)])
        session = server.session(fault_plan=plan)
        result = session.execute(QUERIES["Q1"])
        assert len(result.rows) > 0
        assert session.retries == 1
        assert plan.fired(0) == 1

    def test_plan_cache_fault_is_retried(self, db):
        server = IcebergServer(db)
        plan = FaultPlan([FaultSpec(site="plan-cache", kind="error", times=1)])
        session = server.session(fault_plan=plan)
        result = session.execute(QUERIES["Q1"])
        assert len(result.rows) > 0
        assert session.retries == 1

    def test_persistent_fault_exhausts_attempts_with_typed_error(self, db):
        server = IcebergServer(db, max_attempts=2)
        plan = FaultPlan([FaultSpec(site="admission", kind="error", times=None)])
        session = server.session(fault_plan=plan)
        with pytest.raises(InjectedFaultError) as info:
            session.execute(QUERIES["Q1"])
        assert info.value.retry_attempts == 2


class TestCircuitBreakers:
    def _degrading_server(self, db, clock, fault_times):
        """A server whose a-priori phase fails ``fault_times`` times."""
        return IcebergServer(
            db,
            degradation="fallback",
            fault_plan=FaultPlan(
                [
                    FaultSpec(
                        site="reducer", kind="error", times=fault_times
                    )
                ]
            ),
            breaker_threshold=2,
            breaker_recovery_seconds=10.0,
            clock=clock,
        )

    def test_degradation_events_map_to_breakers(self):
        assert _breaker_for_degradation("apriori[main]: boom") == "apriori"
        assert _breaker_for_degradation("memprune: boom") == "memprune"
        assert _breaker_for_degradation("nljp-cache: evicting") == "memprune"
        assert _breaker_for_degradation("something-else: x") is None

    def test_repeated_degradation_trips_then_recovers(self, db):
        # Q4's WITH block takes the a-priori rewrite, so an injected
        # "reducer" fault under fallback degrades each optimization.
        clock = VirtualClock()
        baseline = SmartIceberg(db).execute(QUERIES["Q4"]).sorted_rows()
        server = self._degrading_server(db, clock, fault_times=3)
        session = server.session()
        breaker = server.breakers["apriori"]

        # Two degraded executions (threshold 2) trip the breaker; the
        # degraded plan is dropped from the cache each time.
        assert session.execute(QUERIES["Q4"]).sorted_rows() == baseline
        assert breaker.state == CLOSED
        assert session.execute(QUERIES["Q4"]).sorted_rows() == baseline
        assert breaker.state == OPEN

        # While open, queries plan without a-priori (degraded mask) and
        # run clean — correct rows, no degradation events.
        open_result = session.execute(QUERIES["Q4"])
        assert open_result.sorted_rows() == baseline
        assert not open_result.stats.degradations
        assert (lift(QUERIES["Q4"]).sql, FULL_MASK) not in server.plan_cache._entries

        # After the recovery window a half-open probe re-enables the
        # technique; the fault still has one firing left, so the probe
        # degrades and the breaker re-opens.
        clock.advance(11.0)
        assert session.execute(QUERIES["Q4"]).sorted_rows() == baseline
        assert breaker.state == OPEN

        # Next probe: the fault budget is exhausted, the a-priori phase
        # succeeds, and the breaker closes.
        clock.advance(11.0)
        result = session.execute(QUERIES["Q4"])
        assert result.sorted_rows() == baseline
        assert breaker.state == CLOSED
        assert not result.stats.degradations

    def test_require_technique_raises_typed_error_when_open(self, db):
        clock = VirtualClock()
        server = IcebergServer(db, clock=clock, breaker_recovery_seconds=10.0)
        server.require_technique("apriori")  # closed: fine
        breaker = server.breakers["apriori"]
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        with pytest.raises(CircuitOpenError) as info:
            server.require_technique("apriori")
        assert info.value.technique == "apriori"
        assert info.value.retry_after_seconds == pytest.approx(10.0)


class TestAdmissionIntegration:
    def test_fair_share_budget_applied_to_engines(self, db):
        server = IcebergServer(db, max_concurrent=4, max_rows_scanned=4000)
        engine = server._engine(FULL_MASK)
        assert engine.config.max_rows_scanned == 1000

    def test_headroom_feedback_sheds_after_tight_query(self, db):
        from repro.errors import AdmissionRejectedError

        scanned = SmartIceberg(db).execute(QUERIES["Q1"]).stats.rows_scanned
        # Per-slot budget ~11% above actual usage: the query succeeds
        # but reports ~0.1 headroom, below the 0.5 floor.
        server = IcebergServer(
            db,
            max_concurrent=4,
            headroom_floor=0.5,
            max_rows_scanned=int(scanned / 0.9) * 4,
        )
        server.retry.max_attempts = 1
        session = server.session()
        result = session.execute(QUERIES["Q1"])
        assert len(result.rows) > 0
        with pytest.raises(AdmissionRejectedError) as info:
            session.execute(QUERIES["Q1"])
        assert info.value.reason == "headroom"
        assert server.admission.outcomes["rejected-headroom"] == 1
