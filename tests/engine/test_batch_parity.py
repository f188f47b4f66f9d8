"""Differential tests: batch-at-a-time execution vs. the row interpreter.

Columnar execution cuts every input into batches; how it cuts them must
not matter.  For every query, on every system configuration, columnar
execution in batches far smaller than the tables (so every operator
sees several, and their boundaries) must produce *identical result
rows* and *identical folded work counters*
(:meth:`ExecutionStats.parity_dict`) to the row-at-a-time reference —
the paper's shape claims are asserted on those counters, so
vectorization may only change wall-clock, never work.
``test_columnar_parity.py`` holds columnar at its shipped batch size to
the same contract.

This suite runs every workload query (Q1-Q8, L1-L4, Ex. 7) plus
randomized property-based queries and asserts exactly that.  The row
side runs as an install without NumPy runs it
(:func:`repro.testing.without_numpy`); without NumPy there is no
columnar side, and the suite skips.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import EngineConfig, SmartIceberg
from repro.engine import execute, plan_query, run_planned
from repro.engine.layout import numpy_or_none
from repro.sql.parser import parse
from repro.storage import Database, SqlType, TableSchema
from repro.testing import without_numpy
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
from tests.modes import SMALL_BATCH, in_mode, mode_kwargs

pytestmark = pytest.mark.skipif(
    numpy_or_none() is None, reason="columnar execution needs NumPy"
)

BATTING = make_batting_db(BaseballConfig(n_rows=400, seed=21))

BASELINE_CONFIGS = (
    EngineConfig.postgres(),
    EngineConfig.vendor(),
    EngineConfig(join_policy="nlj-only", label="nlj-only"),
)

SMART_CONFIGS = {
    "all": {},
    "pruning": dict(apriori=False, memo=False),
    "memo": dict(apriori=False, pruning=False),
    "apriori": dict(memo=False, pruning=False),
}


def assert_modes_agree(db, sql, batch_size=SMALL_BATCH):
    """Row execution and columnar execution in ``batch_size``-row
    batches agree on rows AND on every folded counter."""
    for config in BASELINE_CONFIGS:
        with without_numpy():
            row = execute(db, sql, config)
        batch = execute(db, sql, dataclasses.replace(config, batch_size=batch_size))
        assert batch.execution_mode == "columnar"
        assert batch.rows == row.rows, f"{config.label}: result rows differ"
        assert batch.stats.parity_dict() == row.stats.parity_dict(), (
            f"{config.label}: counters differ"
        )
    for label, toggles in SMART_CONFIGS.items():
        with without_numpy():
            row = SmartIceberg(db, **toggles).execute(sql)
        batch = SmartIceberg(db, batch_size=batch_size, **toggles).execute(sql)
        assert batch.rows == row.rows, f"smart[{label}]: result rows differ"
        assert batch.stats.parity_dict() == row.stats.parity_dict(), (
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
        same rows, same value for EVERY ExecutionStats counter, row at
        a time and in small columnar batches — the governor's
        zero-overhead contract."""
        from repro import CancelToken

        sql = figure1_queries()[name].sql
        governor_knobs = dict(
            max_rows_scanned=10**12,
            max_join_pairs=10**12,
            max_cache_bytes=10**12,
            deadline_seconds=3600.0,
            degradation="fallback",
        )
        for mode in ("row", "batch"):
            with in_mode(mode):
                plain = SmartIceberg(BATTING, **mode_kwargs(mode)).execute(sql)
                governed = SmartIceberg(
                    BATTING, **mode_kwargs(mode), **governor_knobs
                ).execute(sql, cancel_token=CancelToken())
            assert governed.rows == plain.rows, f"{mode}: rows differ"
            assert governed.stats.as_dict() == plain.stats.as_dict(), (
                f"{mode}: counters differ"
            )
            assert governed.stats.degradations == []
        ungoverned_config = BASELINE_CONFIGS[0]
        governed_config = dataclasses.replace(
            ungoverned_config,
            max_rows_scanned=10**12,
        )
        plain = execute(BATTING, sql, ungoverned_config)
        governed = run_planned(
            plan_query(BATTING, parse(sql), governed_config),
            cancel_token=CancelToken(),
        )
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
        """Batch size must never affect results or counters."""
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
# Priced per path, the technique choice runs NLJP on the row path and
# the a-priori join on the columnar one here.
@example(
    rows=[(0, 0, 0, 0)] * 10,
    join_index=1,
    having_index=1,
    grouping_index=0,
    threshold=0,
    batch_size=1024,
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
        with without_numpy():
            row = execute(db, sql, config)
        batch = execute(db, sql, dataclasses.replace(config, batch_size=batch_size))
        assert batch.rows == row.rows, sql
        assert batch.stats.parity_dict() == row.stats.parity_dict(), sql
    with without_numpy():
        row = SmartIceberg(db).execute(sql)
    batch = SmartIceberg(db, batch_size=batch_size).execute(sql)
    assert batch.rows == row.rows, sql
    assert batch.stats.parity_dict() == row.stats.parity_dict(), sql
