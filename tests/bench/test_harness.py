"""Tests for the benchmark harness."""

import pytest

from repro.bench.harness import (
    comparison_table,
    format_table,
    make_systems,
    run_comparison,
    speedup_over,
)
from repro.testing import without_numpy
from repro.workloads import BasketConfig, figure1_queries, load_baskets, market_basket_query
from repro.workloads.baseball import batting_db
from repro.storage import Database


@pytest.fixture
def db():
    database = Database()
    load_baskets(database, BasketConfig(n_baskets=60, n_items=25, seed=4))
    return database


class TestSystems:
    def test_all_systems_available(self):
        systems = make_systems()
        assert set(systems) == {
            "base", "vendor", "pruning", "memo", "apriori", "all",
        }

    def test_subset_selection(self):
        assert list(make_systems(("base", "all"))) == ["base", "all"]

    def test_unknown_system_rejected(self):
        with pytest.raises(KeyError):
            make_systems(("warp-drive",))

    def test_runner_produces_measurement(self, db):
        runner = make_systems(("base",))["base"]
        measurement = runner(db, market_basket_query(3), "mb")
        assert measurement.system == "postgres"
        assert measurement.query == "mb"
        assert measurement.rows > 0
        assert measurement.cost > 0
        assert measurement.seconds > 0
        # postgres baseline simulates 2x parallelism.
        assert measurement.adjusted_seconds == pytest.approx(
            measurement.seconds / 2
        )

    def test_smart_runner_reports_optimize_time(self, db):
        runner = make_systems(("all",))["all"]
        measurement = runner(db, market_basket_query(3), "mb")
        assert measurement.optimize_seconds > 0
        assert measurement.adjusted_seconds == measurement.seconds


class TestPathParity:
    def test_cost_and_rows_do_not_depend_on_numpy(self):
        """The figures' shapes are asserted on ``Measurement.cost``: it
        charges every stored row a scan covers, so a system measures
        the same on the columnar path and on the row path an install
        without NumPy runs."""
        db = batting_db(120)
        sql = figure1_queries()["Q1"].sql
        for name, runner in make_systems().items():
            shipped = runner(db, sql, "Q1")
            with without_numpy():
                row = runner(db, sql, "Q1")
            assert row.execution_mode == "row"
            assert shipped.cost == row.cost, name
            assert shipped.result.sorted_rows() == row.result.sorted_rows(), name


class TestRunComparison:
    def test_agreement_enforced(self, db):
        measurements = run_comparison(
            db,
            {"mb": market_basket_query(3)},
            make_systems(("base", "vendor", "all")),
        )
        assert len(measurements) == 3
        assert len({m.rows for m in measurements}) == 1

    def test_speedup_over(self, db):
        measurements = run_comparison(
            db, {"mb": market_basket_query(3)}, make_systems(("base", "all"))
        )
        speedups = speedup_over(measurements, baseline="postgres")
        assert ("mb", "all") in speedups
        assert speedups[("mb", "all")] > 0


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            ("name", "value"), [("a", 1), ("long-name", 22)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_comparison_table_contains_costs(self, db):
        measurements = run_comparison(
            db, {"mb": market_basket_query(3)}, make_systems(("base",))
        )
        text = comparison_table(measurements, "title")
        assert "work_cost" in text and "postgres" in text
