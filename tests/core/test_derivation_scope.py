"""Where a derived subsumption formula is kept, and for how long.

p⪰ depends on the join condition alone, so one optimizer derives each
condition shape once and reuses the formula for every later statement —
whatever its aliases, attribute names or thresholds.  The scope is the
engine instance: a fresh ``SmartIceberg`` starts cold, and
``derive_subsumption`` itself remembers nothing.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.core.optimizer as optimizer_module
from repro import SmartIceberg
from repro.core.subsumption import derive_subsumption
from repro.errors import InjectedFaultError
from repro.logic import fme
from repro.obs import REGISTRY
from repro.sql.parser import parse_expression
from repro.testing import FaultPlan, FaultSpec
from repro.workloads import (
    BaseballConfig,
    make_batting_db,
    pairs_query,
    skyband_query,
)

BATTING = make_batting_db(BaseballConfig(n_rows=120, n_years=3, seed=7))


@pytest.fixture
def solved(monkeypatch):
    """The problems handed to QE/FME while the test runs."""
    problems = []
    real = optimizer_module.solve_subsumption

    def recording(problem):
        problems.append(problem)
        return real(problem)

    monkeypatch.setattr(optimizer_module, "solve_subsumption", recording)
    return problems


def _outcomes():
    counter = REGISTRY.counter(
        "repro_subsumption_derivations_total", "", ("outcome",)
    )
    return {name: counter.value(outcome=name) for name in ("derived", "reused")}


def _formula(optimized):
    assert optimized.report.pruning is not None
    assert optimized.report.pruning.applicable, optimized.report.pruning.reason
    return optimized.report.pruning.predicate.formula


class TestOneDerivationPerEngine:
    def test_thresholds_and_aggregates_share_a_derivation(self, solved):
        engine = SmartIceberg(BATTING)
        before = _outcomes()
        formulas = [
            _formula(engine.optimize(pairs_query(c=c, k=k, agg=agg)))
            for c, k, agg in ((3, 20, "AVG"), (3, 50, "AVG"), (5, 20, "SUM"), (2, 7, "SUM"))
        ]
        assert len(solved) == 1
        assert all(formula == formulas[0] for formula in formulas)
        after = _outcomes()
        assert after["derived"] - before["derived"] == 1
        assert after["reused"] - before["reused"] == 3

    def test_attribute_names_and_aliases_do_not_matter(self, solved):
        engine = SmartIceberg(BATTING)
        first = engine.optimize(skyband_query("b_h", "b_hr", 50))
        renamed = engine.optimize(skyband_query("b_hr", "b_sb", 100))
        realiased = engine.optimize(
            "SELECT A.playerid, A.year, A.round, COUNT(*) FROM batting A, batting B "
            "WHERE A.b_h <= B.b_h AND A.b_rbi <= B.b_rbi "
            "AND (A.b_h < B.b_h OR A.b_rbi < B.b_rbi) "
            "GROUP BY A.playerid, A.year, A.round HAVING COUNT(*) <= 9"
        )
        assert len(solved) == 1
        assert _formula(first) == _formula(renamed) == _formula(realiased)
        # ... while each plan's predicate names its own attributes.
        assert first.report.pruning.predicate.attributes == ("l.b_h", "l.b_hr")
        assert renamed.report.pruning.predicate.attributes == ("l.b_hr", "l.b_sb")
        assert realiased.report.pruning.predicate.attributes == ("a.b_h", "a.b_rbi")

    def test_each_plan_gets_its_own_predicate_object(self):
        engine = SmartIceberg(BATTING)
        sql = skyband_query("b_h", "b_hr", 50)
        one = engine.optimize(sql).report.pruning.predicate
        two = engine.optimize(sql).report.pruning.predicate
        assert one is not two and one.formula == two.formula

    def test_a_different_condition_is_derived_separately(self, solved):
        engine = SmartIceberg(BATTING)
        engine.optimize(skyband_query("b_h", "b_hr", 50, strict_form="weak"))
        engine.optimize(skyband_query("b_h", "b_hr", 50, strict_form="strong"))
        assert len(solved) == 2 and solved[0] != solved[1]

    def test_a_fresh_engine_derives_again(self, solved):
        sql = pairs_query(c=3, k=20)
        cold = _formula(SmartIceberg(BATTING).optimize(sql))
        again = _formula(SmartIceberg(BATTING).optimize(sql))
        assert len(solved) == 2
        assert cold == again

    def test_derive_subsumption_itself_stays_uncached(self, monkeypatch):
        calls = []
        real = fme.implies
        monkeypatch.setattr(
            fme, "implies", lambda p, c: calls.append(1) or real(p, c)
        )
        theta = [parse_expression(s) for s in ("L.x <= R.x", "L.y <= R.y")]
        derive_subsumption(theta, ["l.x", "l.y"], ["r.x", "r.y"])
        first = len(calls)
        derive_subsumption(theta, ["l.x", "l.y"], ["r.x", "r.y"])
        assert first > 0 and len(calls) == 2 * first

    def test_the_map_is_bounded(self, monkeypatch):
        monkeypatch.setattr(optimizer_module, "_MAX_DERIVED_FORMULAS", 2)
        optimizer = SmartIceberg(BATTING).optimizer
        conditions = ("L.x <= R.x", "L.x < R.x", "L.x = R.x", "L.x >= R.x")
        for text in conditions:
            optimizer._derive_subsumption([parse_expression(text)], ["l.x"], ["r.x"])
        assert len(optimizer._derived) == 2
        # The two newest survive.
        kept = [repr(problem[0]) for problem in optimizer._derived]
        assert kept == ["(-r0 +v0 = 0)", "(r0 -v0 <= 0)"]


class TestFailuresAreNotRemembered:
    NONLINEAR = (
        "SELECT L.playerid, L.year, L.round, COUNT(*) FROM batting L, batting R "
        "WHERE L.b_h * L.b_hr <= R.b_h "
        "GROUP BY L.playerid, L.year, L.round HAVING COUNT(*) <= 5"
    )

    def test_nonlinear_condition_reports_derivation_failed_every_time(self, solved):
        engine = SmartIceberg(BATTING)
        for _ in range(2):
            pruning = engine.optimize(self.NONLINEAR).report.pruning
            assert pruning is not None and not pruning.applicable
            assert "subsumption derivation failed" in pruning.reason
        assert solved == [] and engine.optimizer._derived == {}


class TestFaultsSeeEveryCandidate:
    """The ``qe`` site is observed per candidate, derived or reused."""

    SQL = skyband_query("b_h", "b_hr", 50)

    def _fires_at(self, engines, plan):
        for number, engine in enumerate(engines, 1):
            try:
                engine.optimize(self.SQL)
            except InjectedFaultError:
                return number, plan.hits("qe")
        return None, plan.hits("qe")

    def test_count_trigger_fires_at_the_same_observation_warm_and_cold(self):
        warm_plan = FaultPlan([FaultSpec(site="qe", after=2)])
        warm = SmartIceberg(BATTING, fault_plan=warm_plan)
        cold_plan = FaultPlan([FaultSpec(site="qe", after=2)])
        cold = [SmartIceberg(BATTING, fault_plan=cold_plan) for _ in range(4)]
        assert self._fires_at([warm] * 4, warm_plan) == (3, 3)
        assert self._fires_at(cold, cold_plan) == (3, 3)


class TestConcurrentOptimize:
    def test_eight_threads_on_one_engine_get_equal_predicates(self):
        statements = [
            pairs_query(c=3, k=20),
            pairs_query(c=4, k=35, agg="SUM"),
            skyband_query("b_h", "b_hr", 50),
            skyband_query("b_hr", "b_sb", 80, strict_form="strong"),
        ]
        reference = [
            _formula(SmartIceberg(BATTING).optimize(sql)) for sql in statements
        ]
        engine = SmartIceberg(BATTING)
        results = [None] * 8
        errors = []
        start = threading.Barrier(8)

        def work(slot):
            try:
                start.wait(timeout=30)
                rotated = statements[slot % 4 :] + statements[: slot % 4]
                formulas = {}
                for _ in range(3):
                    for sql in rotated:
                        formulas.setdefault(sql, []).append(
                            _formula(engine.optimize(sql))
                        )
                results[slot] = formulas
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for formulas in results:
            for sql, expected in zip(statements, reference):
                assert formulas[sql] == [expected] * 3
        # Racing threads may each derive a condition they met together,
        # but the map holds one formula per condition shape.
        assert len(engine.optimizer._derived) == 3
