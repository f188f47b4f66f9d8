"""Tests for the SmartIceberg facade."""

import pytest

from repro import EngineConfig, SmartIceberg
from repro.engine import execute


SKYBAND = (
    "SELECT L.id, COUNT(*) FROM object L, object R "
    "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
    "GROUP BY L.id HAVING COUNT(*) <= 5"
)


class TestFacade:
    def test_execute_matches_baseline(self, object_db):
        system = SmartIceberg(object_db)
        result = system.execute(SKYBAND)
        baseline = system.execute_baseline(SKYBAND)
        assert sorted(result.rows) == sorted(baseline.rows)

    def test_optimize_returns_inspectable(self, object_db):
        optimized = SmartIceberg(object_db).optimize(SKYBAND)
        assert optimized.nljp is not None
        assert "NLJP" in optimized.explain()
        assert "SELECT" in optimized.rewritten_sql()

    def test_explain_shortcut(self, object_db):
        assert "pruning" in SmartIceberg(object_db).explain(SKYBAND)

    def test_baseline_config_override(self, object_db):
        system = SmartIceberg(object_db)
        result = system.execute_baseline(SKYBAND, EngineConfig.vendor())
        assert sorted(result.rows) == sorted(system.execute(SKYBAND).rows)


class TestFigure1Configurations:
    """The four Smart-Iceberg configurations of Figure 1."""

    @pytest.mark.parametrize(
        "toggles",
        [
            {},
            dict(apriori=False, memo=False),      # pruning only
            dict(apriori=False, pruning=False),   # memo only
            dict(memo=False, pruning=False),      # apriori only
        ],
    )
    def test_each_configuration_correct(self, object_db, toggles):
        system = SmartIceberg(object_db, **toggles)
        baseline = execute(object_db, SKYBAND, EngineConfig.postgres())
        assert sorted(system.execute(SKYBAND).rows) == sorted(baseline.rows)

    def test_all_techniques_use_least_work(self, object_db):
        baseline = execute(object_db, SKYBAND, EngineConfig.postgres())
        all_on = SmartIceberg(object_db).execute(SKYBAND)
        assert all_on.stats.cost() < baseline.stats.cost()


class TestCacheOptions:
    def test_bounded_cache(self, object_db):
        system = SmartIceberg(
            object_db, cache_max_entries=4, cache_policy="lru"
        )
        baseline = execute(object_db, SKYBAND, EngineConfig.postgres())
        assert sorted(system.execute(SKYBAND).rows) == sorted(baseline.rows)

    def test_cache_index_toggle(self, object_db):
        with_index = SmartIceberg(object_db, cache_index=True).execute(SKYBAND)
        without = SmartIceberg(object_db, cache_index=False).execute(SKYBAND)
        assert sorted(with_index.rows) == sorted(without.rows)
        assert with_index.stats.prune_checks <= without.stats.prune_checks
