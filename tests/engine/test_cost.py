"""Tests for the calibrated cost model (``repro.engine.cost``)."""

import json
import pathlib

import pytest

from repro.engine.cost import (
    BINDING_PATHS,
    COUNTER_NAMES,
    DEFAULT_UNIT_COSTS,
    TIME_COSTS,
    CostModel,
    Decision,
    TimeCosts,
    UnitCosts,
    fit_unit_costs,
)
from repro.engine.stats import ExecutionStats

TIME_SAMPLE = pathlib.Path(__file__).parent / "golden" / "time_costs_sample.json"


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
    """``fit_unit_costs`` fits the technique choice's time prices."""

    @staticmethod
    def _synthetic(prices):
        # Runs whose time is exactly the priced model: linearly
        # independent mixes of units and bindings, in both modes.
        records = []
        for i in range(1, 16):
            bindings = {
                "kernel": (i * 37) % 97,
                "block kernel": (i * i * 7) % 89,
                "operators": (i * 53) % 83,
            }
            for mode in ("columnar", "row"):
                record = {
                    "mode": mode,
                    "units": ((i * i * 13) % 101 + 1) * 10_000,
                    "bindings": bindings,
                }
                record["ms"] = prices.plan_ms(
                    record["units"], mode == "columnar"
                ) + sum(
                    n * prices.binding_us(path) / 1e3 for path, n in bindings.items()
                )
                records.append(record)
        return records

    def test_fit_recovers_default_weights(self):
        fitted = fit_unit_costs(self._synthetic(TIME_COSTS))
        assert fitted == TIME_COSTS

    def test_fit_pins_degenerate_directions_to_defaults(self):
        # A path the sample never runs cannot be fit; its price stays
        # the committed one instead of going wild.
        records = [
            {"mode": "columnar", "units": u, "bindings": {}, "ms": u * 5e-5}
            for u in (10_000, 20_000, 40_000)
        ]
        fitted = fit_unit_costs(records)
        assert fitted.ns_per_unit == pytest.approx(50.0)
        assert fitted.us_kernel == TIME_COSTS.us_kernel
        assert fitted.ns_per_row_unit == TIME_COSTS.ns_per_row_unit

    def test_fit_empty_returns_defaults(self):
        assert fit_unit_costs([]) == TIME_COSTS

    def test_fit_against_recorded_bench_file(self):
        # ``python -m repro.bench.calibrate`` wrote this sample and
        # printed TIME_COSTS from it: refitting it gives them back.
        records = json.loads(TIME_SAMPLE.read_text())
        assert {r["mode"] for r in records} == {"columnar", "row"}
        assert {p for r in records for p in r["bindings"]} == set(BINDING_PATHS)
        assert fit_unit_costs(records) == TIME_COSTS


class TestDecision:
    def test_render_and_to_dict_name_every_option(self):
        decision = Decision(
            "technique", "main", "a-priori join",
            alternatives=("NLJP on l", "NLJP on l,r"),
            estimates=(("a-priori join", 0.5), ("NLJP on l", 12.0), ("NLJP on l,r", 40.0)),
            floors=("NLJP on l,r",),
            reason="fastest estimate",
        )
        assert decision.render() == (
            "technique: a-priori join (est 0.5 ms); rejected NLJP on l "
            "(est 12 ms), NLJP on l,r (est ≥ 40 ms) — fastest estimate"
        )
        assert decision.to_dict()["alternatives"] == [
            {"option": "NLJP on l", "est_ms": 12.0, "floor": False},
            {"option": "NLJP on l,r", "est_ms": 40.0, "floor": True},
        ]

    def test_nljp_prices_every_binding_on_its_path(self):
        prices = TimeCosts(10.0, 100.0, 1.0, 2.0, 5.0)
        assert prices.plan_ms(1e6, columnar=True) == pytest.approx(10.0)
        assert prices.plan_ms(1e6, columnar=False) == pytest.approx(100.0)
        # Q_B of 1e5 units, then 1 000 bindings of 100 units and 2 us.
        assert prices.nljp_ms(1e5, 1000, 100, "block kernel", True) == (
            pytest.approx(1.0 + 1.0 + 2.0)
        )


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
