"""Plan-shape tests: which physical operators the planner chooses."""

import pytest

from repro.engine import EngineConfig, explain, execute
from repro.storage import Database, SqlType, TableSchema
from repro.workloads.baseball import batting_db


@pytest.fixture
def db() -> Database:
    database = Database()
    table = database.create_table(
        "perf",
        TableSchema.of(
            ("playerid", SqlType.INTEGER),
            ("teamid", SqlType.INTEGER),
            ("h", SqlType.INTEGER),
            ("hr", SqlType.INTEGER),
        ),
        primary_key=("playerid",),
    )
    table.insert_many((i, i % 4, i * 3 % 50, i * 7 % 30) for i in range(40))
    table.create_index("perf_team", ["teamid"], kind="hash")
    table.create_index("perf_h_hr", ["h", "hr"], kind="sorted")
    return database


class TestJoinChoice:
    def test_index_first_uses_hash_index(self, db):
        text = explain(
            db,
            "SELECT a.playerid FROM perf a, perf b WHERE a.teamid = b.teamid",
            EngineConfig(join_policy="index-first"),
        )
        assert "IndexNestedLoopJoin" in text

    def test_hash_first_uses_hash_join(self, db):
        text = explain(
            db,
            "SELECT a.playerid FROM perf a, perf b WHERE a.teamid = b.teamid",
            EngineConfig(join_policy="hash-first"),
        )
        assert "HashJoin" in text

    def test_inequality_join_uses_sorted_index(self, db):
        text = explain(
            db,
            "SELECT a.playerid FROM perf a, perf b WHERE a.h <= b.h",
            EngineConfig(join_policy="index-first"),
        )
        assert "SortedIndexRangeJoin" in text

    def test_nlj_only_policy(self, db):
        text = explain(
            db,
            "SELECT a.playerid FROM perf a, perf b WHERE a.teamid = b.teamid",
            EngineConfig(join_policy="nlj-only"),
        )
        assert "NestedLoopJoin" in text
        assert "IndexNestedLoopJoin" not in text

    def test_no_secondary_indexes_falls_back(self):
        sql = "SELECT a.playerid FROM batting a, batting b WHERE a.b_h <= b.b_h"
        config = EngineConfig(join_policy="index-first")
        assert "SortedIndexRangeJoin" in explain(batting_db(60), sql, config)
        bare = batting_db(60, with_indexes=False)
        assert "SortedIndexRangeJoin" not in explain(bare, sql, config)

    def test_unknown_policy_rejected(self, db):
        from repro.errors import PlanningError

        with pytest.raises(PlanningError):
            explain(
                db,
                "SELECT a.playerid FROM perf a, perf b WHERE a.teamid = b.teamid",
                EngineConfig(join_policy="quantum"),
            )


class TestAppendixEPlanShape:
    """The baseline skyband plan matches Appendix E's structure:

    indexed nested loop join -> hash aggregation -> HAVING filter.
    """

    SQL = (
        "SELECT L.playerid, COUNT(*) FROM perf L, perf R "
        "WHERE L.h <= R.h AND L.hr <= R.hr AND (L.h < R.h OR L.hr < R.hr) "
        "GROUP BY L.playerid HAVING COUNT(*) <= 5"
    )

    def test_plan_shape(self, db):
        text = explain(db, self.SQL, EngineConfig.postgres())
        lines = text.splitlines()
        assert any("Filter [having]" in line for line in lines)
        assert any("HashAggregate" in line for line in lines)
        assert any("SortedIndexRangeJoin" in line for line in lines)
        # HAVING sits above the aggregate, which sits above the join.
        having_at = next(i for i, l in enumerate(lines) if "having" in l)
        agg_at = next(i for i, l in enumerate(lines) if "HashAggregate" in l)
        join_at = next(i for i, l in enumerate(lines) if "Join" in l)
        assert having_at < agg_at < join_at


class TestScanChoice:
    def test_point_scan_for_constant_equality(self, db):
        text = explain(
            db,
            "SELECT playerid FROM perf WHERE teamid = 2",
            EngineConfig(),
        )
        assert "IndexPointScan" in text

    def test_range_scan_for_constant_range(self, db):
        text = explain(
            db, "SELECT playerid FROM perf WHERE h >= 30", EngineConfig()
        )
        assert "IndexRangeScan" in text

    def test_full_scan_without_index(self, db):
        text = explain(
            db, "SELECT playerid FROM perf WHERE hr >= 10", EngineConfig()
        )
        assert "TableScan" in text

    def test_scan_results_agree(self):
        sql = "SELECT playerid FROM batting WHERE b_h >= 30 AND teamid = 2"
        fast = execute(batting_db(120), sql, EngineConfig())
        slow = execute(batting_db(120, with_indexes=False), sql, EngineConfig())
        assert "Index" in fast.plan.explain()
        assert "Index" not in slow.plan.explain()
        assert sorted(fast.rows) == sorted(slow.rows)

    @pytest.mark.parametrize(
        "where, kind",
        [("teamid = 2", "IndexPointScan"), ("h >= 30", "IndexRangeScan")],
    )
    def test_index_scan_costed_by_matching_rows(self, db, where, kind):
        # An index scan reads one probe plus the rows its key or range
        # enforces; it is not charged the full scan of the table.
        from repro.engine import plan_query
        from repro.engine.cost import CostModel
        from repro.sql import parse

        planned = plan_query(
            db, parse(f"SELECT playerid FROM perf WHERE {where}"), EngineConfig()
        )
        scan = planned.root
        while scan.children():
            scan = scan.children()[0]
        assert type(scan).__name__ == kind
        assert scan.estimated_cost == pytest.approx(
            CostModel().index_point_scan(scan.estimated_rows)
        )
        assert scan.estimated_cost < CostModel().scan(40)


class TestCtePlans:
    def test_cte_materialized_once(self, db):
        from repro.engine import plan_query
        from repro.sql import parse

        planned = plan_query(
            db,
            parse(
                "WITH x AS (SELECT playerid FROM perf) "
                "SELECT a.playerid FROM x a, x b WHERE a.playerid = b.playerid"
            ),
        )
        text = planned.explain()
        assert text.count("MaterializedScan x") == 2
