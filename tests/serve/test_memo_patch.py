"""Writes patch the server's NLJP memo instead of emptying it.

A memo payload is a binding's inner aggregate states (paper §6, App. C).
When rows are appended to the one table Q_R reads, and every state
merges exactly, the server folds Q_R over the appended rows into every
payload (:meth:`repro.core.nljp.NLJPOperator.catch_up`); any other
change to a table the payloads read clears the store.  After every
event below, each entry of each slot must equal a fresh evaluation's
payload (groups, their order and their states), every answer must equal
a stdlib ``sqlite3`` mirror's, and the first read after the event must
evaluate fewer inner bindings than a fresh server where it patched and
exactly as many where it cleared.
"""

import random
import sys
import threading

import pytest

import repro.engine.layout as layout
from repro import Database, IcebergServer, SqlType, TableSchema
from repro.engine.governor import CancelToken
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.testing import without_numpy
from repro.testing.faults import FaultPlan, FaultSpec
from repro.testing.lockwatch import LockOrderWatchdog, watch_server, watch_session
from repro.workloads import pairs_query, player_skyband_query, skyband_query
from repro.workloads.baseball import batting_db
from tests.serve.memo_checks import (
    Mirror,
    fresh_payloads_agree,
    memo_slot_key,
    normalized,
    served_entry,
)

#: The statements whose payloads an append to batting patches (the
#: last one merges SUM, MIN and MAX states too) ...
PATCHED = (
    skyband_query("b_h", "b_hr", 30),
    skyband_query("b_h", "b_hr", 60),
    skyband_query("b_hr", "b_sb", 25),
    skyband_query("b_h", "b_hr", 40).replace(
        "COUNT(*)\n", "COUNT(*), SUM(R.b_rbi), MIN(R.b_bb), MAX(R.b_sb)\n", 1
    ),
)
#: ... and those it clears: Q_R reads batting through a CTE (Q8's
#: ``avgs``, the ``pair`` of a float AVG and an integer SUM).
CLEARED = (
    player_skyband_query(k=10),
    pairs_query(c=2, k=5, agg="AVG"),
    pairs_query(c=2, k=5, agg="SUM"),
)
STATEMENTS = PATCHED + CLEARED


def _append(db, mirror, rng, first_id, count=25):
    base = list(db.table("batting").rows)
    rows = [(first_id + i,) + rng.choice(base)[1:] for i in range(count)]
    db.table("batting").insert_many(rows)
    mirror.insert(rows)


def _unrelated_append(db, mirror, rng, first_id):
    if not db.has_table("visits"):
        db.create_table(
            "visits", TableSchema.of(("id", SqlType.INTEGER), ("n", SqlType.INTEGER))
        )
    db.table("visits").insert_many([(first_id + i, i) for i in range(25)])


def _analyze(db, mirror, rng, first_id):
    db.analyze()


def _create_index(db, mirror, rng, first_id):
    db.table("batting").create_index(f"batting_sb_{first_id}", ["b_sb"], kind="sorted")


def _truncate_and_reinsert(db, mirror, rng, first_id):
    table = db.table("batting")
    rows = list(table.rows)
    table.truncate()
    table.insert_many(rows[: len(rows) - 5])
    mirror.connection.execute("DELETE FROM batting")
    mirror.insert(rows[: len(rows) - 5])


#: event -> does it leave the slots as they were (no table the
#: payloads read changed)?
EVENTS = {
    "append": (_append, False),
    "unrelated append": (_unrelated_append, True),
    "analyze": (_analyze, True),
    "create_index": (_create_index, True),
    "truncate and re-insert": (_truncate_and_reinsert, False),
}


@pytest.fixture(params=["numpy", "no numpy"])
def numpy(request):
    if request.param == "no numpy":
        with without_numpy():
            yield False
        return
    if layout.numpy_or_none() is None:
        pytest.skip("NumPy is not installed")
    yield True


def _served(session, mirror, sql):
    result = session.execute(sql)
    assert normalized(result.rows) == mirror.rows(sql), sql
    return result.stats.inner_evaluations


@pytest.mark.parametrize("event", list(EVENTS))
def test_every_entry_is_exact_after(event, numpy):
    db = batting_db(240, seed=11)
    mirror = Mirror(db)
    server = IcebergServer(db)
    session = server.session()
    rng = random.Random(7)
    for sql in STATEMENTS:
        _served(session, mirror, sql)
    change, untouched = EVENTS[event]
    for round_number in range(2):
        if event != "append":
            # Appends first, so the slots have been patched before.
            _append(db, mirror, rng, 50_000 + 100 * round_number)
            for sql in STATEMENTS:
                _served(session, mirror, sql)
        change(db, mirror, rng, 10_000 + 100 * round_number)
        first_reads = set()
        for sql in STATEMENTS:
            served = _served(session, mirror, sql)
            fresh = IcebergServer(db).session().execute(sql).stats.inner_evaluations
            # Only the first read of a slot after the event meets it.
            meaning = memo_slot_key(server, sql)
            if meaning in first_reads:
                assert served <= fresh, sql
            elif untouched:
                assert served == 0, sql
            elif numpy and event == "append" and sql in PATCHED:
                assert served < fresh, sql
            else:
                assert served == fresh, sql
            first_reads.add(meaning)
        assert fresh_payloads_agree(server) > 0


def test_describe_reports_the_last_catch_up():
    db = batting_db(240, seed=11)
    server = IcebergServer(db)
    sql, cte = PATCHED[0], CLEARED[0]
    session = server.session()
    session.execute(sql)
    session.execute(cte)
    held = len(server.memo._slots[next(iter(server.memo._slots))].store)
    _append(db, Mirror(db), random.Random(3), 70_000)
    session.execute(sql)
    session.execute(cte)

    def memo_line(statement):
        nljp = served_entry(server, statement).optimized.nljp
        return next(line for line in nljp.describe() if line.startswith("  memo:"))

    line = memo_line(sql)
    if layout.numpy_or_none() is None:
        assert line.endswith("(0 payload entries when the last execution started; "
                             "cleared: NumPy unavailable)")
    else:
        assert line.startswith(f"  memo: shared ({held} payload entries when the last")
        assert "patched from 25 appended rows of batting)" in line
    assert memo_line(cte).endswith("cleared: Q_R reads batting through a CTE)")


def test_a_float_sum_is_cleared_not_patched():
    # Float additions do not associate: a merged SUM could differ from
    # a fresh one in its last digits.
    db = Database()
    table = db.create_table(
        "pts",
        TableSchema.of(
            ("id", SqlType.INTEGER), ("a", SqlType.INTEGER),
            ("b", SqlType.INTEGER), ("w", SqlType.FLOAT),
        ),
    )
    rng = random.Random(5)
    table.insert_many([(i, rng.randrange(40), rng.randrange(40), rng.random()) for i in range(200)])
    sql = (
        "SELECT L.id, COUNT(*), SUM(R.w) FROM pts L, pts R "
        "WHERE L.a <= R.a AND L.b <= R.b AND (L.a < R.a OR L.b < R.b) "
        "GROUP BY L.id HAVING COUNT(*) <= 20"
    )
    server = IcebergServer(db)
    session = server.session()
    session.execute(sql)
    table.insert_many(
        [(1000 + i, rng.randrange(40), rng.randrange(40), rng.random()) for i in range(10)]
    )
    served = session.execute(sql)
    fresh = IcebergServer(db).session().execute(sql)
    assert normalized(served.rows) == normalized(fresh.rows)
    assert served.stats.inner_evaluations == fresh.stats.inner_evaluations
    nljp = served_entry(server, sql).optimized.nljp
    assert any(
        line.endswith("cleared: SUM(r.w) does not merge exactly)") for line in nljp.describe()
    )


def _tagged_points(rng):
    """Skyband points whose inner side joins a tag table: a Q_R that
    names two tables, each of which can be appended to."""
    db = Database()
    db.create_table(
        "object",
        TableSchema.of(
            ("id", SqlType.INTEGER), ("x", SqlType.INTEGER),
            ("y", SqlType.INTEGER), ("tag", SqlType.TEXT),
        ),
        primary_key=("id",),
    ).insert_many(
        (i, rng.randrange(30), rng.randrange(30), rng.choice(["a", "b", "c", None]))
        for i in range(150)
    )
    labels = db.create_table(
        "label", TableSchema.of(("tag", SqlType.TEXT), ("rank", SqlType.INTEGER))
    )
    labels.insert_many([("a", 1), ("a", 2), ("b", 3)])
    labels.create_index("label_tag", ["tag"], kind="hash")
    return db


def test_appends_to_each_table_of_a_join_shaped_inner_query(numpy):
    # Each table Q_R names is patched from its own appended rows: an
    # append to ``label`` is never read as rows of ``object``.
    rng = random.Random(9)
    db = _tagged_points(rng)
    mirror = Mirror(db, tables=("object", "label"))
    sql = (
        "SELECT L.id, COUNT(*) FROM object L, object R, label T "
        "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
        "AND R.tag = T.tag GROUP BY L.id HAVING COUNT(*) <= 12"
    )
    server = IcebergServer(db)
    session = server.session()
    _served(session, mirror, sql)
    appends = {
        "object": lambda n: [
            (1000 + 10 * n + i, rng.randrange(30), rng.randrange(30), rng.choice("abc"))
            for i in range(8)
        ],
        "label": lambda n: [("c", n), ("b", 10 + n)],
    }
    for round_number in range(2):
        for name, rows in appends.items():
            rows = rows(round_number)
            db.table(name).insert_many(rows)
            mirror.insert(rows, name)
            served = _served(session, mirror, sql)
            fresh = IcebergServer(db).session().execute(sql).stats.inner_evaluations
            assert served <= fresh, name
            assert fresh_payloads_agree(server) > 0
    assert len(server.memo) == 1


# ---------------------------------------------------------------------------
# A catch-up that fails part way
# ---------------------------------------------------------------------------


class CancelAfter(CancelToken):
    """Cancels itself after ``polls`` looks."""

    def __init__(self, polls):
        super().__init__()
        self.polls = polls

    @property
    def cancelled(self):
        self.polls -= 1
        return self.polls < 0


def _session(server, how):
    if how == "fault":
        return server.session(fault_plan=FaultPlan([FaultSpec(site="inner-eval")])), None
    if how == "cancel":
        return server.session(), CancelAfter(0)
    slow = FaultSpec(site="inner-eval", kind="slow", delay_seconds=5.0)
    return server.session(deadline_seconds=1.0, fault_plan=FaultPlan([slow])), None


@pytest.mark.parametrize("how", ["fault", "cancel", "deadline"])
def test_a_failed_catch_up_leaves_the_store_caught_up_or_empty(how):
    db = batting_db(240, seed=11)
    mirror = Mirror(db)
    server = IcebergServer(db, max_attempts=1)
    sql = PATCHED[0]
    assert _served(server.session(), mirror, sql) > 0
    (slot,) = server.memo._slots.values()
    _append(db, mirror, random.Random(5), 80_000)
    session, token = _session(server, how)
    with pytest.raises(ReproError):
        session.execute(sql, cancel_token=token)
    # The failure struck the catch-up, which cleared the store.
    assert slot.store._caught_up.endswith("while catching up")
    assert len(slot.store) == 0
    for statement in PATCHED:
        _served(server.session(), mirror, statement)
    assert fresh_payloads_agree(server) > 0


# ---------------------------------------------------------------------------
# Writes racing reads
# ---------------------------------------------------------------------------


def test_a_writer_racing_four_sweeps_leaves_exact_payloads():
    """A writer thread appends while four sessions sweep k over one
    slot; reads racing a write may fail, with a typed error, but the
    memo may only ever be cleared by a race.  Once the writes stop, one read of each
    statement leaves every payload exact and every answer right, and
    no lock was taken out of order."""
    db = batting_db(120, seed=4)
    mirror = Mirror(db)
    watchdog = LockOrderWatchdog()
    server = IcebergServer(db, max_concurrent=4, max_queue=4, registry=MetricsRegistry())
    watch_server(server, watchdog)
    sweeps = [(5, 20, 10), (15, 8, 30), (25, 12, 3), (9, 40, 18)]
    statements = {k: skyband_query("b_h", "b_hr", k) for ks in sweeps for k in ks}
    barrier = threading.Barrier(len(sweeps) + 1)
    writes_done = threading.Event()
    served = []
    errors = []

    def sweep(ks):
        session = server.session()
        watch_session(session, watchdog)
        barrier.wait(timeout=30)
        try:
            while not writes_done.is_set():
                for k in ks:
                    try:
                        session.execute(statements[k])
                        served.append(k)
                    except ReproError:
                        pass  # a read racing a write may fail, typed
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    written = []

    def write():
        rng = random.Random(11)
        base = list(db.table("batting").rows)
        barrier.wait(timeout=30)
        try:
            for batch in range(12):
                rows = [(90_000 + 100 * batch + i,) + rng.choice(base)[1:] for i in range(10)]
                db.table("batting").insert_many(rows)
                written.extend(rows)
                threading.Event().wait(0.02)
        finally:
            writes_done.set()

    threads = [threading.Thread(target=sweep, args=(ks,)) for ks in sweeps]
    threads.append(threading.Thread(target=write))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "sweep wedged"
    assert errors == []
    assert served
    mirror.insert(written)  # a sqlite3 connection stays on its thread
    session = server.session()
    for sql in statements.values():
        _served(session, mirror, sql)
    assert len(server.memo) == 1
    assert fresh_payloads_agree(server) > 0
    watchdog.assert_no_inversions()
