"""Single-flight plan builds: one optimizer run per missed key."""

import threading
import time

from repro import IcebergServer
from repro.serve.plan_cache import PlanCache
from repro.workloads import BaseballConfig, figure1_queries, make_batting_db

MASK = frozenset({"apriori", "memprune"})


class TestClaimRelease:
    def test_leader_then_followers(self):
        cache = PlanCache(max_entries=4)
        leader, latch = cache.claim("SELECT 1", MASK)
        assert leader
        again, same_latch = cache.claim("SELECT 1", MASK)
        assert not again
        assert same_latch is latch
        assert not same_latch.is_set()
        cache.release("SELECT 1", MASK)
        assert same_latch.is_set()
        assert cache.stats()["flights"] == 1
        assert cache.stats()["flight_waits"] == 1

    def test_release_without_claim_is_harmless(self):
        cache = PlanCache(max_entries=4)
        cache.release("SELECT 1", MASK)
        assert cache.stats()["flights"] == 0

    def test_distinct_keys_fly_independently(self):
        cache = PlanCache(max_entries=4)
        assert cache.claim("a", MASK)[0]
        assert cache.claim("b", MASK)[0]
        assert cache.stats()["flights"] == 2
        cache.release("a", MASK)
        cache.release("b", MASK)


class TestServerSingleFlight:
    def test_concurrent_first_touch_optimizes_once(self):
        db = make_batting_db(BaseballConfig(n_rows=120, seed=21))
        server = IcebergServer(db, max_concurrent=2, max_queue=2)
        sql = figure1_queries()["Q1"].sql

        calls = []
        entered = threading.Event()
        proceed = threading.Event()
        real_engine = server._engine

        class SlowEngine:
            def __init__(self, engine):
                self._engine = engine

            def optimize(self, statement, params=None):
                calls.append(statement)
                entered.set()
                assert proceed.wait(10)
                return self._engine.optimize(statement, params)

            def __getattr__(self, name):
                return getattr(self._engine, name)

        server._engine = lambda mask: SlowEngine(real_engine(mask))

        rows = [None, None]

        def run(index):
            with server.session() as session:
                rows[index] = session.execute(sql).sorted_rows()

        first = threading.Thread(target=run, args=(0,))
        first.start()
        assert entered.wait(10)
        second = threading.Thread(target=run, args=(1,))
        second.start()
        # The second session must reach the in-flight latch (counted as
        # a flight wait) before the leader is allowed to finish.
        deadline = time.monotonic() + 10
        while (
            server.plan_cache.stats()["flight_waits"] == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        proceed.set()
        first.join(30)
        second.join(30)

        assert len(calls) == 1  # the whole point: one build, two sessions
        stats = server.plan_cache.stats()
        assert stats["flights"] == 1
        assert stats["flight_waits"] >= 1
        assert stats["hits"] >= 1
        assert rows[0] == rows[1] and rows[0] is not None
