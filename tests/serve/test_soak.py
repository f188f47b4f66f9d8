"""The acceptance soak: 8 concurrent sessions, faults on, bit-identical.

Eight clients run the full Figure-1 workload (Q1–Q8) concurrently
against one server, on the path the install has (the tier-1 job's leg
without NumPy soaks the row path), each client with its own
deterministic fault plan injecting transient errors into the serving
layer (admission, plan-cache) and the engine (scan).  The claim:

* every execution's rows are bit-identical to a serial, un-faulted
  run of the same query;
* every transient fault is retried to success within the attempt
  budget — no error escapes;
* any error that *did* escape would be a typed, classified
  :class:`~repro.errors.ReproError` (asserted on the collection path);
* the shared plan cache serves repeat statements (hits ≫ misses).
"""

import threading

import pytest

from repro import IcebergServer, SmartIceberg
from repro.errors import ReproError
from repro.serve.retry import FATAL, RETRYABLE, classify_error
from repro.serve.templates import lift
from repro.testing import FaultPlan, FaultSpec
from repro.workloads import BaseballConfig, figure1_queries, make_batting_db

N_SESSIONS = 8


@pytest.fixture(scope="module")
def db():
    return make_batting_db(BaseballConfig(n_rows=60, seed=7))


@pytest.fixture(scope="module")
def serial_baselines(db):
    """Un-faulted, single-threaded reference rows per query."""
    system = SmartIceberg(db)
    return {
        name: system.execute(query.sql).sorted_rows()
        for name, query in figure1_queries().items()
    }


def _session_fault_plan(index):
    """A deterministic, bounded fault plan for session ``index``.

    Every spec is an error fault at a *retryable* site with a finite
    ``times`` budget, so the retry policy (3 attempts) always wins.
    Plans differ per session (different trigger counts) to stagger the
    failures across the run.
    """
    return FaultPlan(
        [
            FaultSpec(site="admission", kind="error", after=index, times=1),
            FaultSpec(site="plan-cache", kind="error", after=index + 2, times=1),
            FaultSpec(site="scan", kind="error", after=50 + 10 * index, times=1),
        ],
        seed=index,
    )


def test_soak_concurrent_sessions_bit_identical(db, serial_baselines):
    queries = {name: q.sql for name, q in figure1_queries().items()}
    server = IcebergServer(db, max_concurrent=N_SESSIONS, max_queue=N_SESSIONS)
    plans = [_session_fault_plan(index) for index in range(N_SESSIONS)]
    sessions = [server.session(fault_plan=plans[index]) for index in range(N_SESSIONS)]
    outcomes = {}
    errors = []
    lock = threading.Lock()

    def workload(index):
        session = sessions[index]
        for name in sorted(queries):
            try:
                result = session.execute(queries[name])
                with lock:
                    outcomes[(index, name)] = result.sorted_rows()
            except Exception as error:  # collected, asserted below
                with lock:
                    errors.append((index, name, error))

    threads = [
        threading.Thread(target=workload, args=(index,))
        for index in range(N_SESSIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads), "soak deadlocked"

    # Any escaped error must be typed and classified — and with every
    # fault retryable and bounded, none should escape at all.
    for index, name, error in errors:
        assert isinstance(error, ReproError), (index, name, error)
        assert classify_error(error) in (RETRYABLE, FATAL)
    assert errors == []

    # Bit-identical to the serial un-faulted reference, all 64 cells.
    assert len(outcomes) == N_SESSIONS * len(queries)
    for (index, name), rows in outcomes.items():
        assert rows == serial_baselines[name], (index, name)

    # The transient faults actually fired and were retried to success.
    fired = sum(
        plan.fired(spec_index) for plan in plans for spec_index in range(3)
    )
    assert fired > 0
    assert sum(session.retries for session in sessions) >= fired

    # The shared plan cache did its job: the vast majority of the
    # server's 64 executions were cache hits.  Misses can exceed the
    # template count but never the per-session worst case, and the
    # cache converges to one entry per template (Q4/Q5 and Q6/Q7 differ
    # only in their HAVING thresholds).
    templates = {lift(sql).sql for sql in queries.values()}
    stats = server.plan_cache.stats()
    assert stats["hits"] > stats["misses"]
    assert len(templates) <= stats["misses"] <= N_SESSIONS * len(queries)
    assert stats["entries"] == len(templates) == len(queries) - 2
