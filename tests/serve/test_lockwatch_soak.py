"""Watchdog soak: 8 threads hammer one server, zero lock inversions.

The static checker proves the *annotated* discipline is followed and
its acquisition-order graph is acyclic; this soak is the dynamic half
of the argument.  Every serving-layer lock — plan cache, per-entry
execution locks (via the injected factory), admission condition,
circuit breakers, engine/session registries, metrics — is wrapped by
:class:`~repro.testing.lockwatch.LockOrderWatchdog`, eight sessions
run a mixed workload concurrently (cache hits, misses, invalidation
flushes, stats scrapes), and the witnessed-order graph must come out
cycle-free.
"""

import threading

import pytest

from repro import IcebergServer
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.testing.lockwatch import (
    LockOrderWatchdog,
    unwatch_registry,
    watch_registry,
    watch_server,
    watch_session,
)
from repro.workloads import BaseballConfig, figure1_queries, make_batting_db

N_THREADS = 8
ROUNDS = 3


@pytest.fixture(scope="module")
def db():
    return make_batting_db(BaseballConfig(n_rows=40, seed=7))


@pytest.fixture
def global_registry_watch():
    """Watch the engine-side global registry; restore it afterwards.

    The engine records its metrics against the module-global
    ``REGISTRY`` (not the server's private registry), and it does so
    *while holding the plan-cache entry lock* — exactly the kind of
    cross-subsystem nesting the watchdog exists to order-check.
    """
    watchdog = LockOrderWatchdog()
    watch_registry(REGISTRY, watchdog)
    try:
        yield watchdog
    finally:
        unwatch_registry(REGISTRY)


def test_soak_eight_threads_no_lock_order_inversions(db, global_registry_watch):
    watchdog = global_registry_watch
    server = IcebergServer(
        db,
        max_concurrent=N_THREADS,
        max_queue=N_THREADS,
        registry=MetricsRegistry(),
    )
    watch_server(server, watchdog)
    queries = [query.sql for query in figure1_queries().values()][:4]
    barrier = threading.Barrier(N_THREADS)
    errors = []

    def workload(index):
        session = server.session()
        watch_session(session, watchdog)
        barrier.wait(timeout=30)
        try:
            for round_no in range(ROUNDS):
                for offset in range(len(queries)):
                    session.execute(queries[(index + offset) % len(queries)])
                # Mix in the cross-cutting paths: a metrics scrape
                # (registry lock under no other lock) and, from one
                # thread per round, a full plan-cache flush (cache
                # lock against in-flight entry locks).
                server._registry.render()
                if index == round_no:
                    server.plan_cache.invalidate_all()
        except Exception as error:  # noqa: BLE001 — collected for the assert
            errors.append(error)

    threads = [
        threading.Thread(target=workload, args=(index,), name=f"soak-{index}")
        for index in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "soak wedged"
    assert errors == []

    # The whole point: enough concurrency to witness real nesting,
    # and not one inversion among the witnessed orders.
    assert watchdog.acquisitions > N_THREADS * ROUNDS
    assert watchdog.witnessed_edges(), "soak never nested two locks"
    watchdog.assert_no_inversions()


def test_watch_server_covers_entry_locks(db):
    """Entry locks created after instrumentation are born watched."""
    watchdog = LockOrderWatchdog()
    server = IcebergServer(db, registry=MetricsRegistry())
    watch_server(server, watchdog)
    session = server.session()
    session.execute(next(iter(figure1_queries().values())).sql)
    entry_locks = [
        entry.lock for entry in server.plan_cache.plans()
    ]
    assert entry_locks, "execution should have cached a plan"
    assert all(lock.name == "PlanCacheEntry.lock" for lock in entry_locks)
    watchdog.assert_no_inversions()


def test_threshold_sweep_sessions_share_a_slot_without_inversions(
    db, global_registry_watch
):
    """Four sessions run different thresholds of one attribute pair at
    once: one memo slot, taken after each plan's entry lock."""
    from repro.workloads import skyband_query

    watchdog = global_registry_watch
    server = IcebergServer(db, max_concurrent=4, max_queue=4, registry=MetricsRegistry())
    watch_server(server, watchdog)
    thresholds = [(2, 9, 4), (5, 1, 8), (3, 7, 6), (9, 2, 5)]
    serial = {
        k: sorted(IcebergServer(db).session().execute(skyband_query("b_h", "b_hr", k)).rows)
        for ks in thresholds
        for k in ks
    }
    barrier = threading.Barrier(len(thresholds))
    errors = []
    seen = []

    def sweep(ks):
        session = server.session()
        watch_session(session, watchdog)
        barrier.wait(timeout=30)
        try:
            for _ in range(2):
                for k in ks:
                    rows = session.execute(skyband_query("b_h", "b_hr", k)).rows
                    seen.append((k, sorted(rows)))
        except Exception as error:  # noqa: BLE001 — collected for the assert
            errors.append(error)

    threads = [
        threading.Thread(target=sweep, args=(ks,), name=f"sweep-{index}")
        for index, ks in enumerate(thresholds)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "sweep wedged"
    assert errors == []
    assert len(seen) == 2 * sum(len(ks) for ks in thresholds)
    assert all(rows == serial[k] for k, rows in seen)
    assert len(server.memo) == 1
    assert "MemoSlot.lock" in {
        name for edge in watchdog.witnessed_edges() for name in edge
    }
    watchdog.assert_no_inversions()
