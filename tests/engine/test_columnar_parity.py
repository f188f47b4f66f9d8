"""Differential tests: columnar execution vs. the row interpreter.

The columnar engine's contract (see DESIGN.md): for every query, on
every system configuration, under every join-order policy, columnar
execution must produce *identical result rows* and *identical folded
work counters* (:meth:`ExecutionStats.parity_dict`).  The only
permitted difference from row mode is the ``rows_scanned`` /
``rows_skipped`` split a zone-map chunk elimination introduces —
``rows_scanned + rows_skipped`` must equal the row-mode scan count
exactly, and the mode-variant counters (``chunks_skipped``,
``fused_compilations``) must never leak into anything else.

This is the CI ``columnar`` job's parity suite: Q1-Q8 across
{row, columnar} × {syntactic, dp}, plus the workload queries,
governed executions, and odd chunk sizes.  ``test_batch_parity.py``
holds columnar to the row interpreter in small batches, on more
configurations.  The row side runs as an install without NumPy runs it
(:func:`repro.testing.without_numpy`); without NumPy there is no
columnar side, and the suite skips.
"""

import dataclasses

import pytest

from repro import CancelToken, EngineConfig, SmartIceberg
from repro.engine import execute
from repro.engine.layout import numpy_or_none
from repro.storage import Database
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

pytestmark = pytest.mark.skipif(
    numpy_or_none() is None, reason="columnar execution needs NumPy"
)

BATTING = make_batting_db(BaseballConfig(n_rows=400, seed=21))

#: Baseline configs × join-order policies exercised per query.
BASELINE_CONFIGS = tuple(
    dataclasses.replace(config, join_order=join_order)
    for config in (
        EngineConfig.postgres(),
        EngineConfig(join_policy="nlj-only", label="nlj-only"),
    )
    for join_order in ("syntactic", "dp")
)

SMART_CONFIGS = {
    "all": {},
    "pruning": dict(apriori=False, memo=False),
    "memo": dict(apriori=False, pruning=False),
    "apriori": dict(memo=False, pruning=False),
}


def assert_columnar_agrees(db, sql, batch_size=None, configs=BASELINE_CONFIGS):
    """Both paths agree on rows; counters agree modulo the fold."""
    for config in configs:
        config = dataclasses.replace(config, batch_size=batch_size)
        with without_numpy():
            row = execute(db, sql, config)
        columnar = execute(db, sql, config)
        label = f"{config.label}/{config.join_order}"
        assert columnar.execution_mode == "columnar"
        assert columnar.rows == row.rows, f"{label}: columnar rows differ"
        assert columnar.stats.parity_dict() == row.stats.parity_dict(), (
            f"{label}: columnar folded counters differ"
        )
        # The fold invariant, stated directly.
        assert (
            columnar.stats.rows_scanned + columnar.stats.rows_skipped
            == row.stats.rows_scanned
        ), f"{label}: scan/skip split broken"
        assert row.stats.chunks_skipped == 0
        assert row.stats.fused_compilations == 0


class TestFigure1Queries:
    @pytest.mark.parametrize("name", [f"Q{i}" for i in range(1, 9)])
    def test_columnar_parity(self, name):
        query = figure1_queries()[name]
        assert_columnar_agrees(BATTING, query.sql)

    @pytest.mark.parametrize("name", [f"Q{i}" for i in range(1, 9)])
    def test_smart_systems_columnar_parity(self, name):
        sql = figure1_queries()[name].sql
        for label, toggles in SMART_CONFIGS.items():
            with without_numpy():
                row = SmartIceberg(BATTING, **toggles).execute(sql)
            columnar = SmartIceberg(BATTING, **toggles).execute(sql)
            assert columnar.rows == row.rows, f"smart[{label}]: rows differ"
            assert (
                columnar.stats.parity_dict() == row.stats.parity_dict()
            ), f"smart[{label}]: counters differ"

    @pytest.mark.parametrize("name", ["Q1", "Q4", "Q7"])
    def test_governed_columnar_is_bit_identical(self, name):
        """A governor whose budgets never trip must not change a thing
        in columnar mode either: same rows, same value for EVERY
        counter including the zone-map ones."""
        sql = figure1_queries()[name].sql
        governor_knobs = dict(
            max_rows_scanned=10**12,
            max_join_pairs=10**12,
            max_cache_bytes=10**12,
            deadline_seconds=3600.0,
            degradation="fallback",
        )
        plain = SmartIceberg(BATTING).execute(sql)
        governed = SmartIceberg(BATTING, **governor_knobs).execute(
            sql, cancel_token=CancelToken()
        )
        assert governed.rows == plain.rows
        assert governed.stats.as_dict() == plain.stats.as_dict()
        assert governed.stats.degradations == []


class TestWorkloadQueries:
    def test_l2_skyband(self):
        assert_columnar_agrees(BATTING, skyband_query("b_h", "b_hr", 10))

    def test_l4_pairs(self):
        assert_columnar_agrees(BATTING, pairs_query(540))

    def test_l3_complex(self):
        db = Database()
        load_unpivoted(db, BaseballConfig(n_rows=400, seed=21), n_categories=4)
        assert_columnar_agrees(db, complex_query(10))

    def test_l1_market_basket(self):
        db = Database()
        load_baskets(db, BasketConfig(n_baskets=200, n_items=60, seed=13))
        assert_columnar_agrees(db, market_basket_query(support=5))

    def test_example7_discount(self):
        db = Database()
        load_discount_schema(db, n_baskets=100, n_items=15, n_discounts=5)
        assert_columnar_agrees(db, discount_query(threshold=3))

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_odd_chunk_sizes(self, batch_size):
        """Chunk size must never affect results or folded counters."""
        query = figure1_queries()["Q1"]
        assert_columnar_agrees(BATTING, query.sql, batch_size=batch_size)


class TestColumnarObservability:
    def test_fused_compilations_are_charged_deterministically(self):
        """Two identical executions charge identical compile counts —
        the process-level kernel cache must not leak into stats."""
        sql = figure1_queries()["Q1"].sql
        config = EngineConfig.postgres()
        first = execute(BATTING, sql, config)
        second = execute(BATTING, sql, config)
        assert first.stats.fused_compilations > 0
        assert (
            first.stats.fused_compilations == second.stats.fused_compilations
        )
        assert first.stats.as_dict() == second.stats.as_dict()

    def test_trace_timing_columnar_is_parity_clean(self):
        """Tracing columnar execution changes nothing, and the span
        tree's exclusive deltas sum to the query totals — including
        the three columnar counters."""
        sql = figure1_queries()["Q1"].sql
        config = EngineConfig.postgres()
        plain = execute(BATTING, sql, config)
        traced = execute(
            BATTING, sql, dataclasses.replace(config, trace="timing")
        )
        assert traced.rows == plain.rows
        assert traced.stats.as_dict() == plain.stats.as_dict()
        assert traced.profile is not None
        assert traced.profile.total_stats() == traced.stats.as_dict()
