"""Tests for the execution governor: budgets, cancellation, degradation.

The acceptance bar: every budget trips as a typed error carrying
accurate partial stats; ``degradation="fallback"`` keeps answers
correct while recording what was given up; and a governor with nothing
to enforce changes nothing.
"""

import dataclasses

import pytest

from repro import CancelToken, EngineConfig, SmartIceberg
from repro.engine import execute, plan_query, run_planned
from repro.engine.governor import Governor
from repro.engine.stats import ExecutionStats
from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    GovernorError,
    QueryCancelledError,
    ReproError,
)
from repro.sql.parser import parse
from repro.testing import FaultPlan, FaultSpec, without_numpy
from repro.workloads import BaseballConfig, figure1_queries, make_batting_db
from tests.modes import in_mode, mode_kwargs

BATTING = make_batting_db(BaseballConfig(n_rows=200, seed=21))
Q1 = figure1_queries()["Q1"].sql


def governed_config(**knobs) -> EngineConfig:
    return dataclasses.replace(EngineConfig.postgres(), **knobs)


def execute_cancellable(config: EngineConfig, token: CancelToken):
    """Q1 under ``config``, cancellable through ``token`` (a token
    belongs to one call, not to the config)."""
    return run_planned(plan_query(BATTING, parse(Q1), config), cancel_token=token)


class TestConfigValidation:
    def test_bad_degradation_mode(self):
        with pytest.raises(ValueError, match="degradation"):
            EngineConfig(degradation="panic")

    @pytest.mark.parametrize(
        "knob", ["max_rows_scanned", "max_join_pairs", "max_cache_bytes"]
    )
    def test_negative_budget(self, knob):
        with pytest.raises(ValueError, match=knob):
            EngineConfig(**{knob: -1})

    def test_negative_deadline(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            EngineConfig(deadline_seconds=-0.5)

    def test_cache_policy_validated_at_boundary(self):
        with pytest.raises(ValueError, match="cache_policy"):
            SmartIceberg(BATTING, cache_policy="fifo")

    def test_cache_max_entries_validated_at_boundary(self):
        with pytest.raises(ValueError, match="cache_max_entries"):
            SmartIceberg(BATTING, cache_max_entries=0)

    def test_policy_requires_max_entries(self):
        with pytest.raises(ValueError, match="cache_max_entries"):
            SmartIceberg(BATTING, cache_policy="lru")


class TestUngoverned:
    def test_no_knobs_means_no_governor(self):
        assert Governor.from_config(EngineConfig.postgres(), ExecutionStats()) is None
        assert Governor.from_config(
            EngineConfig.postgres(), ExecutionStats(), CancelToken()
        ) is not None

    def test_idle_governor_changes_nothing(self):
        """Enormous budgets + a live token: rows and EVERY counter match."""
        plain = execute(BATTING, Q1, EngineConfig.postgres())
        governed = execute_cancellable(
            governed_config(
                max_rows_scanned=10**12,
                max_join_pairs=10**12,
                max_cache_bytes=10**12,
                deadline_seconds=3600.0,
            ),
            CancelToken(),
        )
        assert governed.rows == plain.rows
        assert governed.stats.as_dict() == plain.stats.as_dict()
        assert governed.stats.degradations == []


class TestBudgets:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_rows_scanned(self, mode):
        with in_mode(mode):
            config = governed_config(max_rows_scanned=25, **mode_kwargs(mode))
            with pytest.raises(BudgetExceededError) as info:
                execute(BATTING, Q1, config)
            error = info.value
            assert error.budget == "rows_scanned"
            assert error.limit == 25
            assert error.used > 25
            assert error.stats is not None
            assert error.stats.rows_scanned == error.used

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_join_pairs(self, mode):
        with in_mode(mode):
            config = governed_config(max_join_pairs=10, **mode_kwargs(mode))
            with pytest.raises(BudgetExceededError) as info:
                execute(BATTING, Q1, config)
            error = info.value
            assert error.budget == "join_pairs"
            assert error.stats.join_pairs > 10

    def test_budget_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            execute(BATTING, Q1, governed_config(max_rows_scanned=1))
        with pytest.raises(ExecutionError):
            execute(BATTING, Q1, governed_config(max_rows_scanned=1))
        with pytest.raises(GovernorError):
            execute(BATTING, Q1, governed_config(max_rows_scanned=1))

    def test_budget_applies_to_smart_execution(self):
        with pytest.raises(BudgetExceededError) as info:
            SmartIceberg(BATTING, max_rows_scanned=25).execute(Q1)
        assert info.value.budget == "rows_scanned"
        assert info.value.stats is not None


class TestCancellation:
    def test_pre_cancelled_token(self):
        token = CancelToken()
        token.cancel("user hit ctrl-c")
        with pytest.raises(QueryCancelledError, match="user hit ctrl-c") as info:
            execute_cancellable(EngineConfig.postgres(), token)
        assert info.value.stats is not None

    def test_token_is_one_shot(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel()
        token.cancel("later reason")
        assert token.cancelled
        assert token.reason == "later reason"

    def test_uncancelled_token_is_harmless(self):
        result = execute_cancellable(EngineConfig.postgres(), CancelToken())
        baseline = execute(BATTING, Q1, EngineConfig.postgres())
        assert result.rows == baseline.rows


class TestDeadline:
    def test_virtual_slowdown_trips_deadline(self):
        """'slow' faults add deterministic virtual seconds: no sleeping."""
        plan = FaultPlan(
            [FaultSpec(site="scan", kind="slow", after=10, delay_seconds=99.0)]
        )
        # The row path observes "scan" once per row; the eleventh is hit.
        config = governed_config(deadline_seconds=5.0, fault_plan=plan)
        with without_numpy(), pytest.raises(BudgetExceededError) as info:
            execute(BATTING, Q1, config)
        error = info.value
        assert error.budget == "deadline_seconds"
        assert error.used > 5.0
        assert error.stats is not None

    def test_generous_deadline_is_harmless(self):
        result = execute(BATTING, Q1, governed_config(deadline_seconds=3600.0))
        baseline = execute(BATTING, Q1, EngineConfig.postgres())
        assert result.rows == baseline.rows
        assert result.stats.as_dict() == baseline.stats.as_dict()


class TestCacheBudget:
    def test_fail_mode_aborts(self):
        with pytest.raises(BudgetExceededError) as info:
            SmartIceberg(BATTING, max_cache_bytes=100).execute(Q1)
        error = info.value
        assert error.budget == "cache_bytes"
        assert error.used > 100
        assert error.stats is not None

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_fallback_evicts_and_stays_correct(self, mode):
        with in_mode(mode):
            baseline = SmartIceberg(BATTING, **mode_kwargs(mode)).execute(Q1)
            governed = SmartIceberg(
                BATTING,
                **mode_kwargs(mode),
                max_cache_bytes=300,
                degradation="fallback",
            ).execute(Q1)
            assert governed.sorted_rows() == baseline.sorted_rows()
            assert any("evicting" in event for event in governed.stats.degradations)
            assert governed.stats.cache_bytes <= 300

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_fallback_disables_cache_when_eviction_insufficient(self, mode):
        """A budget below one entry forces the cache fully off — the
        join must still return exactly the right rows (degraded "all"
        behaves like the baseline, never like a wrong answer)."""
        with in_mode(mode):
            baseline = SmartIceberg(BATTING, **mode_kwargs(mode)).execute(Q1)
            governed = SmartIceberg(
                BATTING,
                **mode_kwargs(mode),
                max_cache_bytes=1,
                degradation="fallback",
            ).execute(Q1)
            assert governed.sorted_rows() == baseline.sorted_rows()
            events = governed.stats.degradations
            assert any("evicting" in event for event in events)
            assert any("disabled" in event for event in events)
            assert governed.stats.cache_bytes == 0
            # Disabled cache means no memo assist: every binding recomputes.
            assert governed.stats.inner_evaluations >= baseline.stats.inner_evaluations

    def test_degradations_stay_out_of_counters(self):
        governed = SmartIceberg(
            BATTING, max_cache_bytes=1, degradation="fallback"
        ).execute(Q1)
        assert governed.stats.degradations
        assert "degradations" not in governed.stats.as_dict()


class TestOptimizerFallback:
    def test_qe_fault_falls_back_to_baseline_plan(self):
        baseline = SmartIceberg(BATTING).execute(Q1)
        plan = FaultPlan([FaultSpec(site="qe", kind="error")])
        system = SmartIceberg(BATTING, fault_plan=plan, degradation="fallback")
        optimized = system.optimize(Q1)
        assert optimized.nljp is None
        assert any(
            "memprune" in event for event in optimized.report.degradations
        )
        assert "DEGRADED" in optimized.explain()
        result = optimized.execute()
        assert result.sorted_rows() == baseline.sorted_rows()
        assert any("memprune" in event for event in result.stats.degradations)

    def test_qe_fault_fail_mode_raises(self):
        plan = FaultPlan([FaultSpec(site="qe", kind="error")])
        with pytest.raises(ReproError):
            SmartIceberg(BATTING, fault_plan=plan).optimize(Q1)

    def test_reducer_fault_falls_back_to_unreduced_block(self, basket_db):
        sql = """
            SELECT i1.item, i2.item, COUNT(*)
            FROM basket i1, basket i2
            WHERE i1.bid = i2.bid AND i1.item < i2.item
            GROUP BY i1.item, i2.item HAVING COUNT(*) >= 3
        """
        baseline = SmartIceberg(basket_db).execute(sql)
        assert baseline.stats.degradations == []
        plan = FaultPlan([FaultSpec(site="reducer", kind="error")])
        system = SmartIceberg(basket_db, fault_plan=plan, degradation="fallback")
        optimized = system.optimize(sql)
        assert optimized.report.apriori == []  # rolled back, not half-applied
        assert any(
            "apriori" in event for event in optimized.report.degradations
        )
        result = optimized.execute()
        assert result.sorted_rows() == baseline.sorted_rows()
        assert any("apriori" in event for event in result.stats.degradations)
