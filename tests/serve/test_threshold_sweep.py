"""Threshold sweeps on one server, against an independent oracle.

A sweep is one statement shape at many HAVING thresholds.  The server
keeps one NLJP memo slot per meaning of a payload
(:class:`repro.serve.plan_cache.MemoStore`), so every threshold of a
sweep reads and fills the payloads the earlier ones stored, while each
plan decides its own Φ on them.  Every answer here is checked against
a stdlib ``sqlite3`` mirror of the table, which shares no code with the
engine:

* skyband on two attribute pairs with k swept up, down and shuffled,
  and ``pairs`` at three (c, agg), on one server, twice: the second pass
  evaluates fewer inner bindings than the first;
* the same with 25-row inserts in between: the first read of a slot
  after a write patches a skyband's payloads (with NumPy, which the
  block kernel that folds the appended rows needs) -- it evaluates fewer
  bindings than a fresh server, and every payload equals a fresh
  evaluation's -- and evaluates exactly what a fresh server evaluates
  for ``pairs``, whose Q_R reads the table through a CTE (no stale
  payload survives the write);
* a HAVING that reads a statement parameter, prepared and swept, in
  the library and on the server.
"""

import random

import pytest

from repro import IcebergServer, SmartIceberg
from repro.engine.layout import numpy_or_none
from repro.serve.server import FULL_MASK
from repro.workloads import pairs_query, skyband_query
from repro.workloads.baseball import batting_db
from tests.serve.memo_checks import Mirror, fresh_payloads_agree, memo_slot_key, normalized

ATTRIBUTE_PAIRS = (("b_h", "b_hr"), ("b_hr", "b_sb"))
SKYBAND_KS = (10, 25, 40, 60, 60, 40, 25, 10, 35, 5, 50, 15)
PAIRS_SETTINGS = ((2, "AVG"), (3, "AVG"), (3, "SUM"))
PAIRS_KS = (3, 8, 1, 5)
ROWS_PER_WRITE = 25


def _statements(seed):
    """The sweep: every skyband k of ``SKYBAND_KS`` on each attribute
    pair (up, down, then shuffled), every pairs k at each (c, agg)."""
    rng = random.Random(seed)
    statements = []
    for attr_a, attr_b in ATTRIBUTE_PAIRS:
        statements += [skyband_query(attr_a, attr_b, k) for k in SKYBAND_KS]
    for c, agg in PAIRS_SETTINGS:
        ks = list(PAIRS_KS)
        rng.shuffle(ks)
        statements += [pairs_query(c=c, k=k, agg=agg) for k in ks]
    return statements


@pytest.fixture
def db():
    return batting_db(240, seed=11)


def _checked(session, mirror, sql):
    result = session.execute(sql)
    assert normalized(result.rows) == mirror.rows(sql), sql
    return result.stats.inner_evaluations


def test_second_pass_reuses_the_first_and_agrees_with_sqlite(db):
    mirror = Mirror(db)
    session = IcebergServer(db).session()
    statements = _statements(seed=3)
    first = {}
    for sql in statements:
        evaluations = _checked(session, mirror, sql)
        first.setdefault(sql, evaluations)
    shuffled = list(statements)
    random.Random(5).shuffle(shuffled)
    second = [_checked(session, mirror, sql) for sql in shuffled]
    assert sum(second) < sum(first.values())
    # Within the first pass too: a threshold reuses what the ones before
    # it evaluated, so its first statements cost less than they do cold.
    cold = [
        IcebergServer(db).session().execute(sql).stats.inner_evaluations
        for sql in first
    ]
    assert sum(first.values()) < sum(cold)


def test_inserts_between_thresholds_leave_no_stale_payload(db):
    mirror = Mirror(db)
    server = IcebergServer(db)
    session = server.session()
    rng = random.Random(23)
    base = list(db.table("batting").rows)
    next_player = 10_000
    statements = _statements(seed=9)
    for start in range(0, len(statements), 4):
        for sql in statements[start : start + 4]:
            _checked(session, mirror, sql)
        rows = []
        for _ in range(ROWS_PER_WRITE):
            next_player += 1
            rows.append((next_player,) + rng.choice(base)[1:])
        filled = set(server.memo._slots)
        db.table("batting").insert_many(rows)
        mirror.insert(rows)
        # The first read after the write: a skyband slot filled before
        # it is patched, a pairs slot emptied.
        sql = statements[(start + 4) % len(statements)]
        served = _checked(session, mirror, sql)
        fresh = IcebergServer(db).session().execute(sql).stats.inner_evaluations
        patchable = numpy_or_none() is not None and "WITH pair" not in sql
        if not patchable or (FULL_MASK, *memo_slot_key(server, sql)) not in filled:
            assert served == fresh, sql
        else:
            assert served < fresh, sql
        assert fresh_payloads_agree(server) > 0


SKYBAND_AT_K = skyband_query("b_h", "b_hr", 50).replace("<= 50", "<= :k")


@pytest.mark.parametrize("surface", ["library", "server"])
def test_a_having_parameter_plans_and_sweeps(surface):
    # Large enough for the technique choice to keep NLJP over the
    # a-priori join the parameter's reducer gives it.
    db = batting_db(600, seed=11)
    mirror = Mirror(db)
    if surface == "library":
        system = SmartIceberg(db)

        def run(k):
            return system.execute(SKYBAND_AT_K, params={"k": k})

    else:
        prepared = IcebergServer(db).session().prepare(SKYBAND_AT_K)

        def run(k):
            return prepared.execute({"k": k})

    evaluations = []
    for _ in range(2):
        for k in (50, 200, 100, 50):
            result = run(k)
            literal = skyband_query("b_h", "b_hr", k)
            assert normalized(result.rows) == mirror.rows(literal), k
            assert normalized(result.rows) == normalized(
                SmartIceberg(db).execute(literal).rows
            )
            evaluations.append(result.stats.inner_evaluations)
    assert result.plan is not None and "NLJP" in result.plan.explain()
    if surface == "server":
        # A value of :k that only Φ reads keeps the memo: the second
        # pass evaluates less than the first.
        assert sum(evaluations[4:]) < sum(evaluations[:4])
    else:
        assert evaluations[4:] == evaluations[:4]
