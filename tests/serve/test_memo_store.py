"""The server-level NLJP memo: which plans share a slot, and what a
slot and its views look like after an execution that failed.

A slot (:class:`repro.serve.plan_cache.MemoSlot`) holds one
:class:`repro.core.cache.PayloadStore` per meaning of a payload: Q_R as
rendered with the bodies of the CTEs it reads, the values of the
statement parameters those read, the cache settings, the technique
mask.  A write to a table the payloads read is caught up with
(:meth:`repro.core.nljp.NLJPOperator.catch_up`; exactness is
``test_memo_patch.py``'s subject).  Each plan keeps its own
:class:`repro.core.cache.PruneView` over it.
"""

import gc
import weakref

import pytest

from repro import IcebergServer
from repro.core.cache import entry_bytes
from repro.core.nljp import NLJPOperator
from repro.engine.governor import CancelToken
from repro.engine.layout import numpy_or_none
from repro.errors import ReproError
from repro.serve.server import FULL_MASK
from repro.testing.faults import FaultPlan, FaultSpec
from repro.workloads import figure1_queries, pairs_query, skyband_query
from repro.workloads.baseball import batting_db
from repro.serve.templates import lift
from tests.serve.memo_checks import memo_slot_key, served_entry


@pytest.fixture(scope="module")
def db():
    return batting_db(400, seed=5)


def _entry(server, sql, mask=FULL_MASK, params=None):
    return served_entry(server, sql, params, mask)


def _store(server, sql, mask=FULL_MASK):
    """The payload store of the memo slot ``sql`` reads and fills (its
    plan's views hold it weakly)."""
    meaning, values = memo_slot_key(server, sql, mask=mask)
    return server.memo._slots[(mask, meaning, values)].store


def _run(server, sql, params=None):
    return server.session().execute(sql, params=params)


class TestSharing:
    def test_thresholds_of_one_attribute_pair_share(self, db):
        server = IcebergServer(db)
        statements = [skyband_query("b_h", "b_hr", k) for k in (50, 100, 200, 20)]
        for sql in statements:
            _run(server, sql)
        assert len(server.memo) == 1
        assert len({id(_store(server, sql)) for sql in statements}) == 1

    def test_figure1_skybands_one_slot_per_attribute_pair(self, db):
        # Q1-Q3 read three attribute pairs, so three inner queries; at
        # Q1's attribute pair their thresholds share one slot.
        server = IcebergServer(db)
        queries = figure1_queries()
        for name in ("Q1", "Q2", "Q3"):
            _run(server, queries[name].sql)
        assert len(server.memo) == 3
        for k in (50, 100, 200):
            _run(server, skyband_query("b_h", "b_hr", k))
        assert len(server.memo) == 3
        assert _store(server, skyband_query("b_h", "b_hr", 200)) is _store(
            server, queries["Q1"].sql
        )

    def test_a_parameter_only_phi_reads_shares(self, db):
        server = IcebergServer(db)
        sql = skyband_query("b_h", "b_hr", 50).replace("<= 50", "<= :k")
        for k in (40, 90, 15):
            _run(server, sql, {"k": k})
        assert len(server.memo) == 1

    def test_a_cte_body_is_part_of_the_meaning(self, db):
        # One CTE name, ``pair``, with another body at each (c, agg).
        server = IcebergServer(db)
        statements = [
            pairs_query(c=2, k=5, agg="AVG"),
            pairs_query(c=2, k=9, agg="AVG"),
            pairs_query(c=3, k=5, agg="AVG"),
            pairs_query(c=2, k=5, agg="SUM"),
        ]
        for sql in statements:
            _run(server, sql)
        stores = [_store(server, sql) for sql in statements]
        assert stores[0] is stores[1]
        assert len({id(store) for store in stores}) == 3

    def test_weak_and_strong_dominance_do_not_share(self, db):
        server = IcebergServer(db)
        weak = skyband_query("b_h", "b_hr", 30)
        strong = skyband_query("b_h", "b_hr", 30, strict_form="strong")
        _run(server, weak)
        _run(server, strong)
        assert _store(server, weak) is not _store(server, strong)

    def test_a_parameter_q_r_reads_does_not_share(self, db):
        server = IcebergServer(db)
        sql = skyband_query("b_h", "b_hr", 30).replace(
            "GROUP BY", "AND R.b_sb >= :floor GROUP BY"
        )
        session = server.session()
        results = {}
        for floor in (0, 5, 0):
            result = session.execute(sql, params={"floor": floor})
            literal = sql.replace(":floor", str(floor))
            assert sorted(result.rows) == sorted(_run(IcebergServer(db), literal).rows)
            results.setdefault(floor, []).append(result.stats.inner_evaluations)
        assert len(server.memo) == 2
        assert results[0][1] == 0  # its own slot survived the other value

    def test_technique_masks_do_not_share(self, db):
        server = IcebergServer(db, breaker_threshold=1)
        sql = skyband_query("b_h", "b_hr", 30)
        _run(server, sql)
        server.breakers["apriori"].record_failure()  # opens: planned without it
        degraded = _run(server, sql)
        assert degraded.stats.inner_evaluations > 0
        assert len(server.memo) == 2
        assert _store(server, sql, frozenset({"memprune"})) is not _store(server, sql)

    def test_a_write_patches_the_slot(self, db):
        # An append to the table the skyband's Q_R reads is folded into
        # the slot's payloads: the first read after it evaluates fewer
        # bindings than a fresh server, over the same store.
        db = batting_db(300, seed=8)
        server = IcebergServer(db)
        sql = skyband_query("b_h", "b_hr", 30)
        before = _run(server, sql)
        store = _store(server, sql)
        table = db.table("batting")
        table.insert_many([(99_999,) + table.rows[0][1:]])
        after = _run(server, sql)
        fresh = _run(IcebergServer(db), sql)
        assert _store(server, sql) is store
        assert len(server.memo) == 1
        assert sorted(after.rows) == sorted(fresh.rows)
        if numpy_or_none() is None:  # the block kernel folds the rows
            assert after.stats.inner_evaluations == fresh.stats.inner_evaluations
        else:
            assert after.stats.inner_evaluations < fresh.stats.inner_evaluations
        assert before.stats.inner_evaluations > 0


class TestSlotLifetime:
    def test_one_shot_meanings_leave_a_hot_plans_slot_alone(self, db):
        # Thirty one-shot statements, each with a Q_R of its own, pass
        # through sixteen slots: the repeated plan keeps its slot.
        server = IcebergServer(db, plan_cache_entries=16)
        hot = skyband_query("b_h", "b_hr", 50)
        _run(server, hot)
        _run(server, hot)
        store = _store(server, hot)
        shared = 0
        for floor in range(30):
            one_shot = skyband_query("b_h", "b_hr", 50).replace(
                "GROUP BY", f"AND R.b_sb >= {floor} GROUP BY"
            )
            _run(server, one_shot)
            shared += _entry(server, one_shot).memo is not None
        assert shared > 16
        assert len(server.memo) <= 16
        assert _run(server, hot).stats.inner_evaluations == 0
        assert _store(server, hot) is store

    def test_a_sweep_of_one_shot_plans_keeps_its_slot(self, db):
        # Nine new templates of another sweep follow each statement (a
        # WHERE literal is part of a template; on the outer side it
        # leaves Q_R, so the nine share one slot), so the sweep's plan
        # has left the plan cache before its next statement runs; its
        # slot, hit by every statement after the first, stays.
        server = IcebergServer(db, plan_cache_entries=16)
        sweep = [skyband_query("b_h", "b_hr", k) for k in (60, 120, 40, 90, 150)]
        evaluations = []
        for step, sql in enumerate(sweep):
            evaluations.append(_run(server, sql).stats.inner_evaluations)
            for k in range(9):
                other = skyband_query("b_hr", "b_sb", 20).replace(
                    "GROUP BY", f"AND L.b_h >= -{10 * step + k} GROUP BY"
                )
                _run(server, other)
            assert (lift(sql).sql, FULL_MASK) not in server.plan_cache._entries
        assert len(server.memo) == 2
        fresh = [_run(IcebergServer(db), sql).stats.inner_evaluations for sql in sweep]
        assert evaluations[0] == fresh[0]
        assert 2 * sum(evaluations[1:]) < sum(fresh[1:])

    def test_a_cached_plan_keeps_no_replaced_store_alive(self):
        db = batting_db(300, seed=8)
        server = IcebergServer(db)
        first, second = (skyband_query("b_h", "b_hr", k) for k in (50, 70))
        _run(server, first)
        store = weakref.ref(_store(server, first))
        server.memo._slots.clear()  # as an eviction leaves it
        _run(server, second)  # the same meaning, a new slot
        gc.collect()
        assert (lift(first).sql, FULL_MASK) in server.plan_cache._entries
        assert store() is None
        assert len(server.memo) == 1


class TestPhiDecisions:
    def test_a_switch_between_warm_plans_decides_nothing(self, db, monkeypatch):
        server = IcebergServer(db)
        plans = [skyband_query("b_h", "b_hr", k) for k in (50, 100)]
        for _ in range(3):
            evaluations = [_run(server, sql).stats.inner_evaluations for sql in plans]
        assert evaluations == [0, 0]
        calls = []
        decide = NLJPOperator._is_unpromising
        monkeypatch.setattr(
            NLJPOperator,
            "_is_unpromising",
            lambda self, *args: calls.append(1) or decide(self, *args),
        )
        for sql in plans + plans:
            _run(server, sql)
        assert calls == []

    def test_a_new_threshold_decides_each_entry_once(self, db, monkeypatch):
        server = IcebergServer(db)
        _run(server, skyband_query("b_h", "b_hr", 50))
        entries = len(_store(server, skyband_query("b_h", "b_hr", 50)))
        calls = []
        decide = NLJPOperator._is_unpromising
        monkeypatch.setattr(
            NLJPOperator,
            "_is_unpromising",
            lambda self, *args: calls.append(1) or decide(self, *args),
        )
        result = _run(server, skyband_query("b_h", "b_hr", 60))
        # Every entry once when the new plan's view is built, and every
        # binding it evaluates once more.
        assert len(calls) == entries + result.stats.inner_evaluations

    def test_describe_says_the_memo_is_shared(self, db):
        server = IcebergServer(db)
        first, second = (skyband_query("b_h", "b_hr", k) for k in (50, 70))
        _run(server, first)
        held = len(_store(server, first))
        nljp = _entry(server, first).optimized.nljp
        assert (
            "  memo: shared (0 payload entries when the last execution started)"
            in nljp.describe()
        )
        _run(server, second)
        assert (
            f"  memo: shared ({held} payload entries when the last execution started)"
            in _entry(server, second).optimized.nljp.describe()
        )
        assert "memo" not in nljp.to_dict()


# ---------------------------------------------------------------------------
# Executions that fail mid-loop
# ---------------------------------------------------------------------------


def assert_consistent(server):
    """Every slot's store agrees with itself, and every cached plan's
    view, brought up to date, holds exactly the entries its Φ finds
    unpromising, in insertion order."""
    for slot in server.memo._slots.values():
        store = slot.store
        entries = list(store._entries.values())
        assert sorted(e.seq for e in entries) == list(store._in_order)
        assert store.estimated_bytes() == sum(entry_bytes(e) for e in entries)
    for entry in server.plan_cache.plans():
        nljp = entry.optimized.nljp
        views = {} if nljp is None else nljp._views
        for phi_key, view in list(views.items()):
            store = view._store()
            if store is None:
                continue
            params = dict(zip(nljp.phi_params, phi_key))

            def decide(payload, nljp=nljp, params=params):
                return nljp._is_unpromising(payload, params)

            store.attach(view, decide, phi_key)
            expected = [e for e in store._in_order.values() if decide(e.payload)]
            assert list(view._unpromising.values()) == expected
            assert [item[2] for item in view._order] == sorted(
                (e for e in expected if e.binding[nljp._order_bound[0]] is not None),
                key=lambda e: (e.binding[nljp._order_bound[0]], e.seq),
            )


class CancelAfter(CancelToken):
    """Cancels itself after ``polls`` looks: mid-loop, not up front."""

    def __init__(self, polls):
        super().__init__()
        self.polls = polls

    @property
    def cancelled(self):
        self.polls -= 1
        return self.polls < 0


SWEEP = [skyband_query("b_h", "b_hr", k) for k in (30, 80, 55)]
#: Evaluates a hundred bindings after ``SWEEP``, where it fails.
LOOSER = skyband_query("b_h", "b_hr", 200)


def _failing(server, how):
    sql = LOOSER
    if how == "fault":
        session = server.session(
            fault_plan=FaultPlan([FaultSpec(site="inner-eval", after=20, times=None)])
        )
        return lambda: session.execute(sql)
    if how == "cancel":
        return lambda: server.session().execute(sql, cancel_token=CancelAfter(60))
    if how == "deadline":
        session = server.session(
            deadline_seconds=1.0,
            fault_plan=FaultPlan(
                [
                    FaultSpec(
                        site="inner-eval", kind="slow", delay_seconds=0.1,
                        after=5, times=None,
                    )
                ]
            ),
        )
        return lambda: session.execute(sql)
    raise AssertionError(how)


@pytest.mark.parametrize("how", ["fault", "cancel", "deadline"])
def test_a_failed_execution_leaves_slot_and_views_consistent(db, how):
    server = IcebergServer(db, max_attempts=1)
    expected = {
        sql: sorted(_run(IcebergServer(db), sql).rows) for sql in SWEEP + [LOOSER]
    }
    for sql in SWEEP[:2]:
        assert sorted(_run(server, sql).rows) == expected[sql]
    with pytest.raises(ReproError):
        _failing(server, how)()
    assert_consistent(server)
    for sql in SWEEP + [LOOSER]:
        assert sorted(_run(server, sql).rows) == expected[sql]
    assert_consistent(server)


@pytest.mark.parametrize(
    "budget, event", [(4000, "evicting under pressure"), (40, "lookups disabled")]
)
def test_a_cache_bytes_fallback_leaves_the_slot_consistent(db, budget, event):
    # Eviction, or a clear() when eviction cannot meet the budget; the
    # breaker is kept closed so every statement still runs NLJP.
    server = IcebergServer(
        db, max_cache_bytes=budget, degradation="fallback", breaker_threshold=100
    )
    reference = IcebergServer(db)
    events = []
    for sql in SWEEP + [LOOSER] + SWEEP:
        result = _run(server, sql)
        assert sorted(result.rows) == sorted(_run(reference, sql).rows)
        assert_consistent(server)
        events += result.stats.degradations
    assert any(event in line for line in events)
