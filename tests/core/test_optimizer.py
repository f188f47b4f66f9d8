"""Tests for the Appendix D optimization procedure."""

import pytest

from repro.sql import render
from repro.engine import EngineConfig, execute
from repro.core.optimizer import SmartIcebergOptimizer
from repro.workloads.queries import (
    complex_query,
    market_basket_query,
    pairs_query,
)


SKYBAND = (
    "SELECT L.id, COUNT(*) FROM object L, object R "
    "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
    "GROUP BY L.id HAVING COUNT(*) <= 5"
)


class TestSkyband:
    def test_apriori_recognized_as_trivial(self, object_db):
        """The paper: generalized a-priori does not apply to skybands."""
        optimized = SmartIcebergOptimizer(object_db).optimize(SKYBAND)
        assert not optimized.report.apriori
        assert any(
            "trivial" in reason for _, reason in optimized.report.apriori_rejected
        )

    def test_nljp_chosen_with_pruning_and_memo(self, object_db):
        optimized = SmartIcebergOptimizer(object_db).optimize(SKYBAND)
        assert optimized.nljp is not None
        assert optimized.report.pruning is not None
        assert optimized.report.pruning.applicable
        assert optimized.report.memoization is not None

    def test_results_match_baseline(self, object_db):
        optimized = SmartIcebergOptimizer(object_db).optimize(SKYBAND)
        baseline = execute(object_db, SKYBAND, EngineConfig.postgres())
        assert sorted(optimized.execute().rows) == sorted(baseline.rows)

    def test_explain_is_informative(self, object_db):
        optimized = SmartIcebergOptimizer(object_db).optimize(SKYBAND)
        text = optimized.explain()
        assert "NLJP" in text and "pruning" in text


class TestExample13Complex:
    """The Appendix D walk-through on the 4-way self-join."""

    @pytest.fixture
    def sql(self):
        return complex_query(threshold=5, table="product")

    def test_both_reducers_found(self, product_db, sql):
        optimized = SmartIcebergOptimizer(product_db).optimize(sql)
        targets = sorted(
            reducer.target_aliases[0]
            for _, reducer, _ in optimized.report.apriori
        )
        assert targets == ["s1", "s2"]

    def test_s1_reducer_matches_paper(self, product_db, sql):
        optimized = SmartIcebergOptimizer(product_db).optimize(sql)
        reducer = next(
            r for _, r, _ in optimized.report.apriori
            if r.target_aliases == ("s1",)
        )
        text = render(reducer.query)
        assert "s1.category = t1.category" in text
        assert "t1.attr = s1.attr" in text
        assert "t1.val > s1.val" in text
        assert "HAVING COUNT(*) >= 5" in text

    def test_s2_reducer_uses_inferred_equalities(self, product_db, sql):
        """The paper: S2's reducer needs s2.category = t2.category,
        inferred from id -> category and the id equalities; and S1.id
        replaced by S2.id in the grouping."""
        optimized = SmartIcebergOptimizer(product_db).optimize(sql)
        reducer = next(
            r for _, r, _ in optimized.report.apriori
            if r.target_aliases == ("s2",)
        )
        text = render(reducer.query)
        assert "s2.category = t2.category" in text
        assert "s2.id" in text  # grouped by the substituted key

    def test_nljp_on_s1_s2_composed_with_reducers(self, product_db, sql):
        """Listing 11: both reducers and the NLJP apply together —
        the combination the paper's implementation could not yet do.
        Forced: by estimate, the reduced join alone runs faster."""
        optimized = SmartIcebergOptimizer(
            product_db, technique_choice="first-applicable"
        ).optimize(sql)
        assert optimized.report.nljp_partition == ("s1", "s2")
        assert optimized.report.pruning.applicable
        assert len(optimized.report.apriori) == 2
        # Q_B carries the reducers' IN filters.
        q_b = render(optimized.nljp.qb_select)
        assert "IN (SELECT" in q_b

    def test_results_match_baseline(self, product_db, sql):
        optimized = SmartIcebergOptimizer(product_db).optimize(sql)
        baseline = execute(product_db, sql, EngineConfig.postgres())
        result = optimized.execute()
        assert sorted(result.rows) == sorted(baseline.rows)
        assert len(result.rows) > 0


class TestPairsTwoBlocks:
    def test_with_block_gets_apriori_main_gets_nljp(self, score_db):
        sql = pairs_query(
            c=2, k=10, table="score", attr_a="hits", attr_b="hruns"
        )
        sql = sql.replace("s1.playerid", "s1.pid").replace("s2.playerid", "s2.pid")
        optimized = SmartIcebergOptimizer(score_db).optimize(sql)
        scopes = {scope for scope, _, _ in optimized.report.apriori}
        assert "with:pair" in scopes
        assert optimized.nljp is not None
        baseline = execute(score_db, sql, EngineConfig.postgres())
        assert sorted(optimized.execute().rows) == sorted(baseline.rows)


class TestToggles:
    def test_apriori_disabled(self, product_db):
        sql = complex_query(threshold=5, table="product")
        optimized = SmartIcebergOptimizer(
            product_db, enable_apriori=False
        ).optimize(sql)
        assert not optimized.report.apriori
        baseline = execute(product_db, sql, EngineConfig.postgres())
        assert sorted(optimized.execute().rows) == sorted(baseline.rows)

    def test_all_disabled_still_correct(self, object_db):
        optimized = SmartIcebergOptimizer(
            object_db,
            enable_apriori=False,
            enable_pruning=False,
            enable_memo=False,
        ).optimize(SKYBAND)
        assert optimized.nljp is None
        baseline = execute(object_db, SKYBAND, EngineConfig.postgres())
        assert sorted(optimized.execute().rows) == sorted(baseline.rows)

    def test_pruning_only(self, object_db):
        optimized = SmartIcebergOptimizer(
            object_db, enable_apriori=False, enable_memo=False
        ).optimize(SKYBAND)
        result = optimized.execute()
        assert result.stats.pruned_bindings > 0
        assert result.stats.cache_hits == 0


class TestNonIcebergQueries:
    def test_plain_query_passes_through(self, object_db):
        sql = "SELECT id, x FROM object WHERE x > 10 ORDER BY id LIMIT 5"
        optimized = SmartIcebergOptimizer(object_db).optimize(sql)
        assert optimized.nljp is None
        baseline = execute(object_db, sql, EngineConfig.postgres())
        assert optimized.execute().rows == baseline.rows

    def test_group_without_join_passes_through(self, object_db):
        sql = (
            "SELECT x, COUNT(*) FROM object GROUP BY x HAVING COUNT(*) >= 2"
        )
        optimized = SmartIcebergOptimizer(object_db).optimize(sql)
        baseline = execute(object_db, sql, EngineConfig.postgres())
        assert sorted(optimized.execute().rows) == sorted(baseline.rows)

    def test_order_by_and_limit_preserved_with_nljp(self, object_db):
        sql = SKYBAND + " ORDER BY count DESC LIMIT 3"
        # ORDER BY on the output name of COUNT(*).
        optimized = SmartIcebergOptimizer(object_db).optimize(sql)
        result = optimized.execute()
        baseline = execute(object_db, sql, EngineConfig.postgres())
        assert len(result.rows) == len(baseline.rows) <= 3
        assert [r[1] for r in result.rows] == [r[1] for r in baseline.rows]


class TestMarketBasket:
    def test_reducers_on_both_instances(self, basket_db):
        sql = market_basket_query(support=2)
        optimized = SmartIcebergOptimizer(basket_db).optimize(sql)
        targets = sorted(
            reducer.target_aliases[0]
            for _, reducer, _ in optimized.report.apriori
        )
        assert targets == ["i1", "i2"]
        baseline = execute(basket_db, sql, EngineConfig.postgres())
        assert sorted(optimized.execute().rows) == sorted(baseline.rows)
