"""Differential tests: batch (vectorized) mode vs. row mode.

The vectorized engine's contract is strict: for every query, on every
system configuration, batch mode must produce *identical result rows*
and *identical deterministic work counters* (`ExecutionStats`) — the
paper's shape claims are asserted on those counters, so vectorization
may only change wall-clock, never work.

This suite runs every workload query (Q1-Q8, L1-L4, Ex. 7) plus
randomized property-based queries in both modes and asserts exactly
that.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EngineConfig, SmartIceberg
from repro.engine import execute
from repro.storage import Database, SqlType, TableSchema
from repro.workloads import (
    BaseballConfig,
    BasketConfig,
    complex_query,
    discount_query,
    figure1_queries,
    load_baskets,
    load_discount_schema,
    make_batting_db,
    market_basket_query,
    pairs_query,
    skyband_query,
)
from repro.workloads.baseball import load_unpivoted


BATTING = make_batting_db(BaseballConfig(n_rows=400, seed=21))

# Row mode is the subject here, not the shipped default: pin it.
BASELINE_CONFIGS = tuple(
    dataclasses.replace(config, execution_mode="row")
    for config in (
        EngineConfig.postgres(),
        EngineConfig.vendor(),
        EngineConfig(join_policy="nlj-only", label="nlj-only"),
    )
)

SMART_CONFIGS = {
    "all": {},
    "pruning": dict(apriori=False, memo=False),
    "memo": dict(apriori=False, pruning=False),
    "apriori": dict(memo=False, pruning=False),
}


def assert_modes_agree(db, sql, batch_size=None):
    """Row and batch execution agree on rows AND on every counter."""
    for config in BASELINE_CONFIGS:
        row = execute(db, sql, config)
        batch_config = dataclasses.replace(
            config, execution_mode="batch", batch_size=batch_size
        )
        batch = execute(db, sql, batch_config)
        assert batch.execution_mode == "batch"
        assert batch.rows == row.rows, f"{config.label}: result rows differ"
        assert batch.stats.as_dict() == row.stats.as_dict(), (
            f"{config.label}: counters differ"
        )
    for label, toggles in SMART_CONFIGS.items():
        row = SmartIceberg(db, execution_mode="row", **toggles).execute(sql)
        batch = SmartIceberg(
            db, execution_mode="batch", batch_size=batch_size, **toggles
        ).execute(sql)
        assert batch.execution_mode == "batch"
        assert batch.rows == row.rows, f"smart[{label}]: result rows differ"
        assert batch.stats.as_dict() == row.stats.as_dict(), (
            f"smart[{label}]: counters differ"
        )


class TestFigure1Queries:
    @pytest.mark.parametrize("name", [f"Q{i}" for i in range(1, 9)])
    def test_mode_parity(self, name):
        query = figure1_queries()[name]
        assert_modes_agree(BATTING, query.sql)

    @pytest.mark.parametrize("name", ["Q1", "Q4", "Q7"])
    def test_governed_execution_is_bit_identical(self, name):
        """A governor whose budgets never trip must not change a thing:
        same rows, same value for EVERY ExecutionStats counter, in both
        modes — the governor's zero-overhead contract."""
        from repro import CancelToken

        sql = figure1_queries()[name].sql
        governor_knobs = dict(
            max_rows_scanned=10**12,
            max_join_pairs=10**12,
            max_cache_bytes=10**12,
            deadline_seconds=3600.0,
            cancel_token=CancelToken(),
            degradation="fallback",
        )
        for mode in ("row", "batch"):
            plain = SmartIceberg(BATTING, execution_mode=mode).execute(sql)
            governed = SmartIceberg(
                BATTING, execution_mode=mode, **governor_knobs
            ).execute(sql)
            assert governed.rows == plain.rows, f"{mode}: rows differ"
            assert governed.stats.as_dict() == plain.stats.as_dict(), (
                f"{mode}: counters differ"
            )
            assert governed.stats.degradations == []
        ungoverned_config = BASELINE_CONFIGS[0]
        governed_config = dataclasses.replace(
            ungoverned_config,
            max_rows_scanned=10**12,
            cancel_token=CancelToken(),
        )
        plain = execute(BATTING, sql, ungoverned_config)
        governed = execute(BATTING, sql, governed_config)
        assert governed.rows == plain.rows
        assert governed.stats.as_dict() == plain.stats.as_dict()


class TestWorkloadQueries:
    def test_l2_skyband(self):
        assert_modes_agree(BATTING, skyband_query("b_h", "b_hr", 10))

    def test_l4_pairs(self):
        assert_modes_agree(BATTING, pairs_query(540))

    def test_l3_complex(self):
        db = Database()
        load_unpivoted(db, BaseballConfig(n_rows=400, seed=21), n_categories=4)
        assert_modes_agree(db, complex_query(10))

    def test_l1_market_basket(self):
        db = Database()
        load_baskets(db, BasketConfig(n_baskets=200, n_items=60, seed=13))
        assert_modes_agree(db, market_basket_query(support=5))

    def test_example7_discount(self):
        db = Database()
        load_discount_schema(db, n_baskets=100, n_items=15, n_discounts=5)
        assert_modes_agree(db, discount_query(threshold=3))

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_odd_batch_sizes(self, batch_size):
        """Chunk size must never affect results or counters."""
        query = figure1_queries()["Q1"]
        assert_modes_agree(BATTING, query.sql, batch_size=batch_size)


# ---------------------------------------------------------------------------
# Property-based parity on randomized iceberg queries
# ---------------------------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # g: group attribute
        st.integers(min_value=0, max_value=4),   # j1
        st.integers(min_value=0, max_value=4),   # j2
        st.integers(min_value=0, max_value=9),   # v: value attribute
    ),
    min_size=1,
    max_size=24,
)

JOIN_CONJUNCTS = [
    "L.j1 = R.j1",
    "L.j1 <= R.j1",
    "L.j2 < R.j2",
    "L.j1 <= R.j1 AND L.j2 <= R.j2",
    "L.j1 = R.j1 AND L.j2 < R.j2",
    "L.j1 + L.j2 <= R.j1",
]

HAVINGS = [
    "COUNT(*) >= {c}",
    "COUNT(*) <= {c}",
    "SUM(R.v) >= {c}",
    "SUM(R.v) <= {c}",
    "MAX(R.v) >= {c}",
    "MIN(R.v) <= {c}",
    "COUNT(DISTINCT R.v) >= {c}",
]

GROUPINGS = [
    ("L.id", "L.id"),
    ("L.g", "L.g"),
    ("L.id, R.g", "L.id, R.g"),
    ("L.g, R.g", "L.g, R.g"),
]


def build_db(rows) -> Database:
    db = Database()
    table = db.create_table(
        "t",
        TableSchema.of(
            ("id", SqlType.INTEGER),
            ("g", SqlType.INTEGER),
            ("j1", SqlType.INTEGER),
            ("j2", SqlType.INTEGER),
            ("v", SqlType.INTEGER),
        ),
        primary_key=("id",),
    )
    db.declare_domain("t", "v", lower=0)
    table.insert_many((i,) + row for i, row in enumerate(rows))
    return db


@given(
    rows=rows_strategy,
    join_index=st.integers(0, len(JOIN_CONJUNCTS) - 1),
    having_index=st.integers(0, len(HAVINGS) - 1),
    grouping_index=st.integers(0, len(GROUPINGS) - 1),
    threshold=st.integers(0, 6),
    batch_size=st.sampled_from([1, 3, 16, 1024]),
)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_iceberg_query_mode_parity(
    rows, join_index, having_index, grouping_index, threshold, batch_size
):
    db = build_db(rows)
    select_cols, group_cols = GROUPINGS[grouping_index]
    sql = (
        f"SELECT {select_cols}, COUNT(*) FROM t L, t R "
        f"WHERE {JOIN_CONJUNCTS[join_index]} "
        f"GROUP BY {group_cols} "
        f"HAVING {HAVINGS[having_index].format(c=threshold)}"
    )
    for config in BASELINE_CONFIGS[:2]:
        row = execute(db, sql, config)
        batch = execute(
            db,
            sql,
            dataclasses.replace(
                config, execution_mode="batch", batch_size=batch_size
            ),
        )
        assert batch.rows == row.rows, sql
        assert batch.stats.as_dict() == row.stats.as_dict(), sql
    row = SmartIceberg(db, execution_mode="row").execute(sql)
    batch = SmartIceberg(
        db, execution_mode="batch", batch_size=batch_size
    ).execute(sql)
    assert batch.rows == row.rows, sql
    assert batch.stats.as_dict() == row.stats.as_dict(), sql
