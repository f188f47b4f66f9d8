"""End-to-end engine tests: SQL in, rows out, against hand computations."""

import pytest

from repro.errors import PlanningError
from repro.engine import EngineConfig, execute, explain
from repro.storage import Database, SqlType, TableSchema


@pytest.fixture
def db() -> Database:
    database = Database()
    t = database.create_table(
        "t",
        TableSchema.of(
            ("id", SqlType.INTEGER), ("grp", SqlType.TEXT), ("v", SqlType.INTEGER)
        ),
        primary_key=("id",),
    )
    t.insert_many(
        [
            (1, "a", 10),
            (2, "a", 20),
            (3, "b", 30),
            (4, "b", None),
            (5, None, 50),
        ]
    )
    u = database.create_table(
        "u", TableSchema.of(("id", SqlType.INTEGER), ("w", SqlType.INTEGER))
    )
    u.insert_many([(1, 100), (2, 200), (2, 201), (9, 900)])
    return database


class TestProjection:
    def test_select_columns(self, db):
        result = execute(db, "SELECT id, v FROM t WHERE grp = 'a'")
        assert sorted(result.rows) == [(1, 10), (2, 20)]
        assert result.columns == ("id", "v")

    def test_select_star(self, db):
        result = execute(db, "SELECT * FROM t WHERE id = 3")
        assert result.rows == [(3, "b", 30)]

    def test_expressions_and_aliases(self, db):
        result = execute(db, "SELECT v * 2 AS dbl FROM t WHERE id = 1")
        assert result.columns == ("dbl",)
        assert result.rows == [(20,)]

    def test_distinct(self, db):
        result = execute(db, "SELECT DISTINCT grp FROM t WHERE grp IS NOT NULL")
        assert sorted(result.rows) == [("a",), ("b",)]


class TestFilters:
    def test_null_rows_filtered_by_comparison(self, db):
        result = execute(db, "SELECT id FROM t WHERE v > 15")
        assert sorted(result.rows) == [(2,), (3,), (5,)]  # NULL v excluded

    def test_is_null(self, db):
        result = execute(db, "SELECT id FROM t WHERE v IS NULL")
        assert result.rows == [(4,)]

    def test_in_list(self, db):
        result = execute(db, "SELECT id FROM t WHERE id IN (1, 3, 7)")
        assert sorted(result.rows) == [(1,), (3,)]


class TestJoins:
    def test_inner_join(self, db):
        result = execute(
            db, "SELECT t.id, u.w FROM t, u WHERE t.id = u.id ORDER BY u.w"
        )
        assert result.rows == [(1, 100), (2, 200), (2, 201)]

    def test_explicit_join_syntax(self, db):
        implicit = execute(db, "SELECT t.id, u.w FROM t, u WHERE t.id = u.id")
        explicit = execute(db, "SELECT t.id, u.w FROM t JOIN u ON t.id = u.id")
        assert sorted(implicit.rows) == sorted(explicit.rows)

    def test_inequality_join(self, db):
        result = execute(
            db,
            "SELECT t.id, u.id FROM t, u WHERE t.id = u.id AND t.v < u.w",
        )
        assert sorted(result.rows) == [(1, 1), (2, 2), (2, 2)]

    def test_self_join(self, db):
        result = execute(
            db,
            "SELECT a.id, b.id FROM t a, t b "
            "WHERE a.grp = b.grp AND a.id < b.id",
        )
        assert sorted(result.rows) == [(1, 2), (3, 4)]

    def test_all_policies_agree(self, db):
        sql = (
            "SELECT t.id, u.w FROM t, u WHERE t.id = u.id AND u.w > 100"
        )
        results = [
            sorted(execute(db, sql, EngineConfig(join_policy=policy)).rows)
            for policy in ("index-first", "hash-first", "nlj-only")
        ]
        assert results[0] == results[1] == results[2]


class TestAggregation:
    def test_group_by_count(self, db):
        result = execute(
            db, "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp"
        )
        # NULL group sorts last under ASC (PostgreSQL default).
        assert result.rows == [("a", 2), ("b", 2), (None, 1)]

    def test_aggregates_skip_nulls(self, db):
        result = execute(
            db,
            "SELECT grp, COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) "
            "FROM t WHERE grp = 'b' GROUP BY grp",
        )
        assert result.rows == [("b", 1, 30, 30, 30, 30.0)]

    def test_scalar_aggregate(self, db):
        result = execute(db, "SELECT COUNT(*), SUM(v) FROM t")
        assert result.rows == [(5, 110)]

    def test_scalar_aggregate_empty_input(self, db):
        result = execute(db, "SELECT COUNT(*), SUM(v) FROM t WHERE id > 99")
        assert result.rows == [(0, None)]

    def test_having(self, db):
        result = execute(
            db,
            "SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) >= 2 "
            "ORDER BY grp",
        )
        assert result.rows == [("a", 2), ("b", 2)]

    def test_having_requires_grouping(self, db):
        with pytest.raises(PlanningError):
            execute(db, "SELECT id FROM t HAVING id > 1")

    def test_group_by_expression(self, db):
        result = execute(
            db,
            "SELECT id % 2, COUNT(*) FROM t GROUP BY id % 2 ORDER BY id % 2",
        )
        assert result.rows == [(0, 2), (1, 3)]

    def test_count_distinct(self, db):
        result = execute(db, "SELECT COUNT(DISTINCT grp) FROM t")
        assert result.rows == [(2,)]

    def test_order_by_aggregate(self, db):
        result = execute(
            db,
            "SELECT grp, COUNT(*) FROM t WHERE grp IS NOT NULL "
            "GROUP BY grp ORDER BY COUNT(*) DESC, grp",
        )
        assert result.rows == [("a", 2), ("b", 2)]


class TestOrderLimit:
    def test_order_desc_nulls_first(self, db):
        result = execute(db, "SELECT v FROM t ORDER BY v DESC")
        assert result.rows == [(None,), (50,), (30,), (20,), (10,)]

    def test_order_asc_nulls_last(self, db):
        result = execute(db, "SELECT v FROM t ORDER BY v")
        assert result.rows == [(10,), (20,), (30,), (50,), (None,)]

    def test_limit(self, db):
        result = execute(db, "SELECT id FROM t ORDER BY id LIMIT 2")
        assert result.rows == [(1,), (2,)]

    def test_order_by_output_alias(self, db):
        result = execute(db, "SELECT v * -1 AS neg FROM t WHERE v IS NOT NULL ORDER BY neg")
        assert result.rows == [(-50,), (-30,), (-20,), (-10,)]


class TestSubqueriesAndCtes:
    def test_in_subquery(self, db):
        result = execute(
            db, "SELECT id FROM t WHERE id IN (SELECT id FROM u)"
        )
        assert sorted(result.rows) == [(1,), (2,)]

    def test_cte(self, db):
        result = execute(
            db,
            "WITH big AS (SELECT id FROM t WHERE v >= 30) "
            "SELECT COUNT(*) FROM big",
        )
        assert result.rows == [(2,)]

    def test_cte_referenced_twice(self, db):
        result = execute(
            db,
            "WITH x AS (SELECT id FROM t WHERE v >= 20) "
            "SELECT a.id, b.id FROM x a, x b WHERE a.id < b.id",
        )
        assert len(result.rows) == 3

    def test_cte_column_list(self, db):
        result = execute(
            db,
            "WITH x(n) AS (SELECT v FROM t WHERE id = 1) SELECT n FROM x",
        )
        assert result.rows == [(10,)]

    def test_derived_table(self, db):
        result = execute(
            db,
            "SELECT s.total FROM "
            "(SELECT grp, SUM(v) AS total FROM t GROUP BY grp) s "
            "WHERE s.grp = 'a'",
        )
        assert result.rows == [(30,)]


class TestStatsAndExplain:
    def test_rows_output_counted(self, db):
        result = execute(db, "SELECT id FROM t")
        assert result.stats.rows_output == 5

    def test_rows_scanned_counted(self, db):
        result = execute(db, "SELECT id FROM t")
        assert result.stats.rows_scanned == 5

    def test_explain_mentions_operators(self, db):
        text = explain(db, "SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert "HashAggregate" in text
        assert "TableScan" in text

    def test_elapsed_time_positive(self, db):
        assert execute(db, "SELECT id FROM t").elapsed_seconds >= 0


class TestErrors:
    def test_unknown_table(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            execute(db, "SELECT 1 FROM ghost")

    def test_unknown_column(self, db):
        with pytest.raises(PlanningError):
            execute(db, "SELECT nope FROM t")

    def test_ambiguous_column(self, db):
        with pytest.raises(PlanningError):
            execute(db, "SELECT id FROM t a, t b WHERE a.id = b.id")

    def test_duplicate_alias(self, db):
        with pytest.raises(PlanningError):
            execute(db, "SELECT 1 FROM t x, u x")

    def test_missing_from(self, db):
        with pytest.raises(PlanningError):
            execute(db, "SELECT 1")


class TestDefaultExecutionMode:
    """The path is the install's, not set: columnar where NumPy
    imports, row where it does not — the same for the engine, the
    optimizing executor and the server, and for the baselines."""

    SQL = "SELECT grp, COUNT(*) FROM t GROUP BY grp"

    def _reported(self, db):
        from repro import IcebergServer, SmartIceberg

        return {
            "execute(db, sql)": execute(db, self.SQL).execution_mode,
            "EngineConfig.postgres()": execute(
                db, self.SQL, EngineConfig.postgres()
            ).execution_mode,
            "EngineConfig.vendor()": execute(
                db, self.SQL, EngineConfig.vendor()
            ).execution_mode,
            "SmartIceberg(db).execute": SmartIceberg(db).execute(self.SQL).execution_mode,
            "IcebergServer(db)": IcebergServer(db)
            .session()
            .execute(self.SQL)
            .execution_mode,
        }

    def test_columnar_with_numpy(self, db):
        pytest.importorskip("numpy")
        assert set(self._reported(db).values()) == {"columnar"}

    def test_row_without_numpy(self, db):
        from repro.testing import without_numpy

        with without_numpy():
            assert set(self._reported(db).values()) == {"row"}


class TestExecutionModeValidation:
    """There is no mode to set: every way of passing ``execution_mode``
    is refused, ``"batch"`` included."""

    SQL = "SELECT grp, COUNT(*) FROM t GROUP BY grp"

    def test_engine_config_rejects_batch(self):
        with pytest.raises(TypeError, match="execution_mode"):
            EngineConfig(execution_mode="batch")

    def test_engine_config_rejects_empty_batches(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(batch_size=0)

    def test_smart_iceberg_rejects_batch(self, db):
        from repro import SmartIceberg

        with pytest.raises(TypeError, match="execution_mode"):
            SmartIceberg(db, execution_mode="batch")

    def test_session_override_rejects_batch(self, db):
        from repro import IcebergServer

        for mode in ("batch", "row"):
            session = IcebergServer(db, execution_mode=mode).session()
            with pytest.raises(TypeError, match="execution_mode"):
                session.execute(self.SQL)
