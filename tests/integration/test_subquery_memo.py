"""A plan's subquery memo is valid for one database version.

``IN (subquery)`` / ``EXISTS`` results are memoized on the compiled
plan so that a reducer runs once, not once per row or per execution.
The memo used to live for the plan's lifetime: an ``OptimizedQuery``
or ``PlannedQuery`` executed again after a write answered from the
reducers of the old data.  The served path was masked only because any
insert drops the whole cached plan.
"""

import pytest

from repro import EngineConfig, IcebergServer, SmartIceberg
from repro.engine import execute, plan_query
from repro.engine.executor import run_planned
from repro.sql.parser import parse
from repro.storage import Database, SqlType, TableSchema
from repro.workloads import BasketConfig, load_baskets, market_basket_query

MODES = ("row", "batch", "columnar")
SUPPORT = 12
NEW_PAIR = ("zz_new_a", "zz_new_b")


def basket_db() -> Database:
    db = Database()
    load_baskets(db, BasketConfig())
    return db


def insert_new_frequent_pair(db: Database) -> None:
    """Thirty new baskets, each holding two items never seen before."""
    table = db.table("basket")
    first = max(bid for bid, _ in table.rows) + 1
    table.insert_many(
        (bid, item) for bid in range(first, first + 30) for item in NEW_PAIR
    )


@pytest.mark.parametrize("mode", MODES)
def test_optimized_query_rereads_its_reducers_after_a_write(mode):
    db = basket_db()
    sql = market_basket_query(SUPPORT)
    optimized = SmartIceberg(db, execution_mode=mode).optimize(sql)
    before = optimized.execute()
    assert NEW_PAIR + (30,) not in before.rows

    insert_new_frequent_pair(db)
    after = optimized.execute()
    fresh = SmartIceberg(db, execution_mode=mode).execute(sql)
    baseline = execute(db, sql, EngineConfig.postgres())
    assert NEW_PAIR + (30,) in after.rows
    assert len(after.rows) == len(before.rows) + 1
    assert sorted(after.rows) == sorted(fresh.rows) == sorted(baseline.rows)
    # The reducers ran again: the same work as a plan built after the write.
    assert after.stats.parity_dict() == fresh.stats.parity_dict()


@pytest.mark.parametrize("mode", MODES)
def test_warm_plan_keeps_its_reducers_between_writes(mode):
    """No write, no re-run: the second execution scans only the join."""
    db = basket_db()
    optimized = SmartIceberg(db, execution_mode=mode).optimize(
        market_basket_query(SUPPORT)
    )
    cold = optimized.execute()
    warm = optimized.execute()
    assert warm.rows == cold.rows
    cold_scanned = cold.stats.rows_scanned + cold.stats.rows_skipped
    warm_scanned = warm.stats.rows_scanned + warm.stats.rows_skipped
    assert warm_scanned < cold_scanned
    assert warm.stats.aggregation_inputs < cold.stats.aggregation_inputs


@pytest.mark.parametrize("mode", MODES)
def test_exists_is_reevaluated_after_a_write(mode):
    db = Database()
    orders = db.create_table(
        "orders", TableSchema.of(("id", SqlType.INTEGER), ("total", SqlType.INTEGER))
    )
    orders.insert_many([(1, 10), (2, 20), (3, 30)])
    flags = db.create_table("flags", TableSchema.of(("name", SqlType.TEXT)))
    sql = (
        "SELECT id FROM orders "
        "WHERE total >= 20 AND EXISTS (SELECT name FROM flags WHERE name = 'open')"
    )
    planned = plan_query(db, parse(sql), EngineConfig(execution_mode=mode))
    assert run_planned(planned).rows == []
    flags.insert(("open",))
    assert run_planned(planned).rows == [(2,), (3,)]
    assert run_planned(planned).rows == execute(db, sql).rows


def test_served_statement_sees_the_write():
    """Unchanged behaviour: a write drops the cached plan, so the
    served path never saw the stale memo — and still does not."""
    db = basket_db()
    sql = market_basket_query(SUPPORT)
    server = IcebergServer(db)
    session = server.session()
    before = session.execute(sql)
    warm = session.execute(sql)
    assert warm.rows == before.rows
    assert server.plan_cache.stats()["hits"] == 1

    insert_new_frequent_pair(db)
    after = session.execute(sql)
    assert NEW_PAIR + (30,) in after.rows
    assert sorted(after.rows) == sorted(SmartIceberg(db).execute(sql).rows)
    assert server.plan_cache.stats()["hits"] == 1  # re-planned, not reused
