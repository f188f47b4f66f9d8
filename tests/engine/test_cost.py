"""Tests for the calibrated cost model (``repro.engine.cost``)."""

import json
import pathlib

import pytest

from repro.engine.cost import (
    COUNTER_NAMES,
    DEFAULT_UNIT_COSTS,
    CostModel,
    UnitCosts,
    fit_unit_costs,
)
from repro.engine.stats import ExecutionStats

GOLDEN_COUNTERS = (
    pathlib.Path(__file__).resolve().parents[1] / "core" / "golden" / "nljp_counters.json"
)


class TestUnitCosts:
    def test_defaults_match_execution_stats_cost(self):
        # The model's unit costs ARE the coefficients of
        # ExecutionStats.cost(): pricing a counter bundle through the
        # model must reproduce the measured cost exactly.
        stats = ExecutionStats(
            rows_scanned=100,
            join_pairs=40,
            index_probes=7,
            aggregation_inputs=11,
            prune_checks=3,
            cache_hits=2,
        )
        assert DEFAULT_UNIT_COSTS.cost_of(stats.as_dict()) == stats.cost()

    def test_as_dict_roundtrip(self):
        units = UnitCosts()
        assert set(units.as_dict()) == set(COUNTER_NAMES)


class TestFit:
    def test_fit_recovers_default_weights(self):
        # Synthesize records whose cost is exactly the default model:
        # least squares must recover the coefficients.
        records = []
        for i in range(1, 20):
            # Linearly independent counter trajectories (a collinear
            # design matrix would make the fit underdetermined).
            counters = {
                "rows_scanned": (i * i * 13) % 101,
                "join_pairs": (i * 37) % 97,
                "index_probes": (i * i * 7) % 89,
                "aggregation_inputs": (i * 53) % 83,
                "prune_checks": (i * i * 29) % 79,
                "cache_hits": (i * 71) % 73,
            }
            records.append(
                {"counters": counters, "cost": DEFAULT_UNIT_COSTS.cost_of(counters)}
            )
        fitted = fit_unit_costs(records)
        for name in COUNTER_NAMES:
            assert getattr(fitted, name) == pytest.approx(
                getattr(DEFAULT_UNIT_COSTS, name), abs=1e-6
            )

    def test_fit_pins_degenerate_directions_to_defaults(self):
        # A counter that never varies cannot be fit; its coefficient
        # stays at the default instead of going wild.
        records = [
            {"counters": {"rows_scanned": n}, "cost": float(n)} for n in (10, 20, 30)
        ]
        fitted = fit_unit_costs(records)
        assert fitted.rows_scanned == pytest.approx(1.0)
        assert fitted.join_pairs == DEFAULT_UNIT_COSTS.join_pairs

    def test_fit_empty_returns_defaults(self):
        assert fit_unit_costs([]) == DEFAULT_UNIT_COSTS

    def test_fit_against_recorded_bench_file(self):
        # The golden file records the counters of every query, system
        # and mode; priced by ExecutionStats.cost(), calibration against
        # them must reproduce the default weights (the drift alarm
        # between the measured cost and the model).
        golden = json.loads(GOLDEN_COUNTERS.read_text())
        records = []
        for entry in golden.values():
            for counters in entry["stats"].values():
                stats = ExecutionStats(**counters)
                records.append({"counters": stats.as_dict(), "cost": stats.cost()})
        assert len(records) > len(COUNTER_NAMES)
        fitted = fit_unit_costs(records)
        for name in COUNTER_NAMES:
            assert getattr(fitted, name) == pytest.approx(
                getattr(DEFAULT_UNIT_COSTS, name), abs=1e-6
            ), name


class TestCostModel:
    def test_formulas_monotone_in_cardinality(self):
        model = CostModel()
        assert model.scan(100) < model.scan(1000)
        assert model.nested_loop_join(10, 10) < model.nested_loop_join(20, 10)
        assert model.hash_join(50, 10) < model.hash_join(50, 100)
        assert model.index_nested_loop_join(10, 5) < model.index_nested_loop_join(
            100, 5
        )
        assert model.aggregate(10) < model.aggregate(100)

    def test_hash_join_cheaper_than_nlj_when_sparse(self):
        # 1000x1000 NLJ evaluates every pair; a hash join touching only
        # 500 matching pairs must price far below it.
        model = CostModel()
        assert model.hash_join(1000, 500) < model.nested_loop_join(1000, 1000) / 100
