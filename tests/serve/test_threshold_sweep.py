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
  after a write evaluates exactly what a fresh server evaluates (no
  stale payload survives the write);
* a HAVING that reads a statement parameter, prepared and swept, in
  the library and on the server.
"""

import random
import sqlite3

import pytest

from repro import IcebergServer, SmartIceberg
from repro.workloads import pairs_query, skyband_query
from repro.workloads.baseball import batting_db

ATTRIBUTE_PAIRS = (("b_h", "b_hr"), ("b_hr", "b_sb"))
SKYBAND_KS = (10, 25, 40, 60, 60, 40, 25, 10, 35, 5, 50, 15)
PAIRS_SETTINGS = ((2, "AVG"), (3, "AVG"), (3, "SUM"))
PAIRS_KS = (3, 8, 1, 5)
ROWS_PER_WRITE = 25


def _normalized(rows):
    """Rows as a multiset, floats to nine significant digits (the two
    engines sum in different orders)."""
    return sorted(
        (
            tuple(float(f"{v:.9g}") if isinstance(v, float) else v for v in row)
            for row in rows
        ),
        key=repr,
    )


class Mirror:
    """The batting table in an in-memory SQLite database."""

    def __init__(self, db):
        self.connection = sqlite3.connect(":memory:")
        table = db.table("batting")
        columns = ", ".join(table.schema.column_names)
        self.connection.execute(f"CREATE TABLE batting ({columns})")
        self.insert(table.rows)

    def insert(self, rows):
        rows = list(rows)
        marks = ", ".join("?" * len(rows[0]))
        self.connection.executemany(f"INSERT INTO batting VALUES ({marks})", rows)

    def rows(self, sql):
        return _normalized(self.connection.execute(sql).fetchall())


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
    assert _normalized(result.rows) == mirror.rows(sql), sql
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
    session = IcebergServer(db).session()
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
        db.table("batting").insert_many(rows)
        mirror.insert(rows)
        # The first read after the write: every slot is stale.
        sql = statements[(start + 4) % len(statements)]
        served = _checked(session, mirror, sql)
        fresh = IcebergServer(db).session().execute(sql).stats.inner_evaluations
        assert served == fresh, sql


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
            assert _normalized(result.rows) == mirror.rows(literal), k
            assert _normalized(result.rows) == _normalized(
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
