"""The deterministic fault-injection harness, unit and end-to-end.

The end-to-end matrix is the robustness claim: for every workload
query and every injection site, row at a time and in small columnar
batches (``tests/modes.py``), a faulted run
either recovers with exactly the un-faulted rows or fails with a typed
:class:`ReproError` carrying accurate partial stats — never a bare
``KeyError``/``RecursionError``/``TypeError``.
"""

import pytest

from repro import SmartIceberg
from repro.errors import (
    InjectedFaultError,
    QuantifierEliminationError,
    ReproError,
)
from repro.testing import FAULT_SITES, FaultPlan, FaultSpec
from repro.workloads import BaseballConfig, figure1_queries, make_batting_db
from tests.modes import in_mode, mode_kwargs

BATTING = make_batting_db(BaseballConfig(n_rows=120, seed=7))
QUERIES = {name: q.sql for name, q in figure1_queries().items()}

#: Optimizer-time sites are observed once or twice per query, so their
#: count trigger must fire early; execution sites get a later trigger
#: to prove mid-run aborts leave consistent partial stats.
TRIGGER_AFTER = {"qe": 0, "reducer": 0, "scan": 20, "join-pair": 20,
                 "cache-insert": 2, "inner-eval": 2,
                 # Serving-layer sites: never observed by a bare
                 # SmartIceberg, so the matrix proves the un-faulted
                 # rows come back exactly (tests/serve exercises the
                 # sites themselves through IcebergServer).
                 "plan-cache": 0, "admission": 0}

_baselines = {}


def baseline(name, mode):
    with in_mode(mode):
        key = (name, mode)
        if key not in _baselines:
            result = SmartIceberg(BATTING, **mode_kwargs(mode)).execute(QUERIES[name])
            _baselines[key] = result.sorted_rows()
        return _baselines[key]


class TestFaultSpecValidation:
    def test_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="network")

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="scan", kind="flaky")

    def test_negative_after(self):
        with pytest.raises(ValueError, match="after"):
            FaultSpec(site="scan", after=-1)

    def test_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(site="scan", probability=1.5)

    def test_count_and_seed_triggers_are_exclusive(self):
        with pytest.raises(ValueError, match="either"):
            FaultSpec(site="scan", after=3, probability=0.5)

    def test_negative_delay(self):
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultSpec(site="scan", kind="slow", delay_seconds=-1.0)

    def test_bad_times(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(site="scan", times=0)


class TestFaultPlanUnit:
    def test_count_trigger_fires_after_n_hits(self):
        plan = FaultPlan([FaultSpec(site="scan", after=2)])
        assert plan.observe("scan") == 0.0
        assert plan.observe("scan") == 0.0
        with pytest.raises(InjectedFaultError) as info:
            plan.observe("scan")
        assert info.value.site == "scan"
        assert plan.hits("scan") == 3
        assert plan.fired(0) == 1

    def test_times_caps_firings(self):
        plan = FaultPlan(
            [FaultSpec(site="scan", kind="slow", delay_seconds=2.0, times=2)]
        )
        delays = [plan.observe("scan") for _ in range(5)]
        assert delays == [2.0, 2.0, 0.0, 0.0, 0.0]

    def test_unlimited_times(self):
        plan = FaultPlan(
            [FaultSpec(site="scan", kind="slow", delay_seconds=1.0, times=None)]
        )
        assert sum(plan.observe("scan") for _ in range(10)) == 10.0

    def test_sites_count_independently(self):
        plan = FaultPlan([FaultSpec(site="inner-eval", after=1)])
        for _ in range(10):
            plan.observe("scan")
        plan.observe("inner-eval")  # hit 1: below trigger
        with pytest.raises(InjectedFaultError):
            plan.observe("inner-eval")

    def test_unknown_site_observation_rejected(self):
        plan = FaultPlan([])
        with pytest.raises(ValueError, match="unknown fault site"):
            plan.observe("typo")

    def test_custom_exception_instance_and_factory(self):
        boom = QuantifierEliminationError("synthetic QE failure")
        plan = FaultPlan([FaultSpec(site="qe", exception=boom)])
        with pytest.raises(QuantifierEliminationError):
            plan.observe("qe")
        plan = FaultPlan(
            [FaultSpec(site="qe", exception=lambda: KeyError("raw"))]
        )
        with pytest.raises(KeyError):
            plan.observe("qe")

    def test_seeded_probability_is_reproducible(self):
        def firing_pattern(seed):
            plan = FaultPlan(
                [
                    FaultSpec(
                        site="scan", kind="slow", probability=0.3,
                        delay_seconds=1.0, times=None,
                    )
                ],
                seed=seed,
            )
            return [plan.observe("scan") for _ in range(40)]

        first = firing_pattern(1234)
        assert firing_pattern(1234) == first
        assert 0.0 < sum(first) < 40.0  # fired sometimes, not always
        assert firing_pattern(99) != first

    def test_per_spec_streams_are_independent(self):
        """Adding a spec must not change another spec's firing pattern."""

        def scan_pattern(specs):
            plan = FaultPlan(specs, seed=5)
            return [plan.observe("scan") for _ in range(30)]

        lone = FaultSpec(
            site="scan", kind="slow", probability=0.5,
            delay_seconds=1.0, times=None,
        )
        sibling = FaultSpec(
            site="inner-eval", kind="slow", probability=0.5,
            delay_seconds=1.0, times=None,
        )
        assert scan_pattern([lone]) == scan_pattern([lone, sibling])


class TestFaultMatrix:
    """Q1-Q8 x every site x both modes: recover or fail typed."""

    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("site", FAULT_SITES)
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_error_fault(self, name, site, mode):
        with in_mode(mode):
            plan = FaultPlan(
                [FaultSpec(site=site, kind="error", after=TRIGGER_AFTER[site])]
            )
            system = SmartIceberg(BATTING, fault_plan=plan, **mode_kwargs(mode))
            try:
                result = system.execute(QUERIES[name])
            except ReproError as error:
                assert plan.fired(0), "error escaped without the fault firing"
                # Typed failure with accurate partial stats (optimizer-time
                # faults abort before execution and carry no stats).
                if site not in ("qe", "reducer"):
                    assert error.stats is not None
                    counters = error.stats.as_dict()
                    assert all(isinstance(v, int) for v in counters.values())
            else:
                # The site was never hit often enough: results must be the
                # un-faulted rows exactly.
                assert result.sorted_rows() == baseline(name, mode)

    @pytest.mark.parametrize("site", ["qe", "reducer"])
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_optimizer_fault_recovers_under_fallback(self, name, site):
        plan = FaultPlan([FaultSpec(site=site, kind="error")])
        system = SmartIceberg(
            BATTING, fault_plan=plan, degradation="fallback"
        )
        result = system.execute(QUERIES[name])
        assert result.sorted_rows() == baseline(name, "row")
        if plan.fired(0):
            assert result.stats.degradations

    @pytest.mark.parametrize("name", ["Q1", "Q5"])
    def test_seeded_slowdowns_are_replayable(self, name):
        """Same seed, same query: identical virtual-time profile."""
        def run(seed):
            plan = FaultPlan(
                [
                    FaultSpec(
                        site="inner-eval", kind="slow", probability=0.4,
                        delay_seconds=3.0, times=None,
                    )
                ],
                seed=seed,
            )
            SmartIceberg(BATTING, fault_plan=plan).execute(QUERIES[name])
            return plan.hits("inner-eval"), plan.fired(0)

        assert run(42) == run(42)
