"""The estimate→actual feedback loop: store, sketches, parity, and wins."""

import dataclasses
import re

import pytest

from repro.workloads.baseball import batting_db
from repro.testing import RECORD_SEED
from repro.engine import EngineConfig, execute
from repro.engine.cardinality import blend_estimate
from repro.engine.planner import FEEDBACK_MODES, plan_query
from repro.sql.parser import parse
from repro.storage.statistics import FeedbackStatistics, sketch_table
from repro.workloads import figure1_queries, make_skewed_db, skewed_query
from tests.modes import MODES, mode_kwargs

QUERIES = {name: q.sql for name, q in figure1_queries().items()}


def _plan_shape(explain_text):
    """Structural plan lines with all bracketed annotations stripped."""
    return [line.split("[")[0].rstrip() for line in explain_text.splitlines()]


# ---------------------------------------------------------------------------
# FeedbackStatistics store
# ---------------------------------------------------------------------------


class TestFeedbackStatistics:
    def test_record_and_lookup(self):
        store = FeedbackStatistics()
        store.record("scan:t|t.a = 1", est_rows=10.0, actual_rows=500.0, token=(1, 0))
        record = store.lookup("scan:t|t.a = 1", token=(1, 0))
        assert record is not None
        assert record.actual_rows == 500.0
        assert record.q_error == pytest.approx(50.0)
        assert store.lookup("scan:t|t.a = 2", token=(1, 0)) is None

    def test_token_mismatch_invalidates(self):
        store = FeedbackStatistics()
        store.record("fp", est_rows=10.0, actual_rows=100.0, token=(1, 0))
        assert store.lookup("fp", token=(2, 0)) is None
        # The stale entry is also dropped, not just hidden.
        assert len(store) == 0

    def test_same_token_rerecord_smooths(self):
        store = FeedbackStatistics()
        store.record("fp", est_rows=10.0, actual_rows=100.0, token=(1, 0))
        store.record("fp", est_rows=10.0, actual_rows=200.0, token=(1, 0))
        record = store.lookup("fp", token=(1, 0))
        assert record.observations == 2
        assert record.actual_rows == pytest.approx(150.0)  # 0.5/0.5 EMA
        assert record.max_q_error == pytest.approx(20.0)  # max ever seen

    def test_new_token_replaces(self):
        store = FeedbackStatistics()
        store.record("fp", est_rows=10.0, actual_rows=100.0, token=(1, 0))
        store.record("fp", est_rows=10.0, actual_rows=30.0, token=(2, 0))
        record = store.lookup("fp", token=(2, 0))
        assert record.observations == 1
        assert record.actual_rows == pytest.approx(30.0)

    def test_eviction_keeps_strong_entries(self):
        store = FeedbackStatistics(max_entries=2)
        store.record("weak", est_rows=10.0, actual_rows=11.0, token=(1, 0))
        store.record("strong", est_rows=10.0, actual_rows=1000.0, token=(1, 0))
        store.record("strong", est_rows=10.0, actual_rows=1000.0, token=(1, 0))
        store.record("new", est_rows=10.0, actual_rows=50.0, token=(1, 0))
        assert len(store) == 2
        assert store.lookup("weak", token=(1, 0)) is None
        assert store.lookup("strong", token=(1, 0)) is not None

    def test_version_advances_per_record(self):
        store = FeedbackStatistics()
        v0 = store.version
        store.record("fp", est_rows=1.0, actual_rows=2.0, token=(0, 0))
        assert store.version == v0 + 1


def test_blend_estimate_moves_toward_actual():
    store = FeedbackStatistics()
    store.record("fp", est_rows=10.0, actual_rows=1000.0, token=(0, 0))
    record = store.lookup("fp", token=(0, 0))
    blended = blend_estimate(10.0, record)
    assert 10.0 < blended <= 1000.0
    # A strong (high q-error, repeated) observation dominates the base.
    store.record("fp", est_rows=10.0, actual_rows=1000.0, token=(0, 0))
    blended = blend_estimate(10.0, store.lookup("fp", token=(0, 0)))
    assert blended > 300.0


# ---------------------------------------------------------------------------
# Online scan sketches
# ---------------------------------------------------------------------------


class TestSketches:
    def test_sketch_table_bounds_and_distinct(self):
        db = make_skewed_db()
        events = db.table("events")
        stats = sketch_table(events)
        kind = stats.columns["kind"]
        assert kind.minimum == 0 and kind.maximum == 7
        assert kind.nulls == 0
        assert kind.non_null == len(events)
        # 8 real kinds; the sketch's estimate must be in a sane band,
        # far from the sqrt(n) fallback (~77).
        assert 2 <= kind.distinct.estimate() <= 32
        user = stats.columns["user_id"]
        assert 100 <= user.distinct.estimate() <= 600
        assert kind.histogram is not None

    def test_sketch_cache_invalidated_by_mutation(self):
        db = make_skewed_db()
        events = db.table("events")
        first = events.sketch_statistics()
        assert events.sketch_statistics() is first  # cached
        events.insert((999_999, 3, 5))
        assert events.sketch_statistics() is not first

    def test_sketch_never_analyzes(self):
        db = make_skewed_db()
        events = db.table("events")
        events.sketch_statistics()
        assert events.statistics is None


# ---------------------------------------------------------------------------
# Parity: feedback must never change results
# ---------------------------------------------------------------------------


PARITY_DB = batting_db(120, seed=RECORD_SEED)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_feedback_parity(name):
    sql = QUERIES[name]
    base = EngineConfig(join_order="dp")
    baseline = execute(PARITY_DB, sql, base)
    for feedback in FEEDBACK_MODES:
        for mode in MODES:
            config = dataclasses.replace(
                base, feedback=feedback, **mode_kwargs(mode)
            )
            result = execute(PARITY_DB, sql, config)
            assert result.sorted_rows() == baseline.sorted_rows(), (
                f"{name} rows diverged under feedback={feedback}, mode={mode}"
            )


def test_observe_matches_off_work_counters():
    db_off = make_skewed_db()
    db_obs = make_skewed_db()
    sql = skewed_query()
    r_off = execute(db_off, sql, EngineConfig(join_order="dp", feedback="off"))
    r_obs = execute(db_obs, sql, EngineConfig(join_order="dp", feedback="observe"))
    # Observe never changes the plan, so the deterministic work
    # counters are bit-identical; only the harvest differs.
    assert r_obs.stats.as_dict() == r_off.stats.as_dict()
    assert r_obs.sorted_rows() == r_off.sorted_rows()
    assert len(db_off.feedback) == 0
    assert 0 < len(db_obs.feedback) <= db_obs.feedback.max_entries


def test_off_mode_plans_carry_no_feedback_artifacts():
    db = make_skewed_db()
    planned = plan_query(db, parse(skewed_query()), EngineConfig(join_order="dp"))
    text = planned.explain()
    assert "feedback" not in text
    from repro.obs import iter_plan_nodes

    for node in iter_plan_nodes(planned.root):
        assert node.feedback_fingerprint is None


# ---------------------------------------------------------------------------
# The headline win: skewed workload, observe → apply
# ---------------------------------------------------------------------------


class TestSkewedFeedbackWin:
    @pytest.fixture(scope="class")
    def loop(self):
        db = make_skewed_db()
        sql = skewed_query()

        def cfg(feedback, trace="off"):
            return EngineConfig(join_order="dp", feedback=feedback, trace=trace)

        before = execute(db, sql, cfg("off", trace="counters"))
        plan_before = plan_query(db, parse(sql), cfg("off")).explain()
        execute(db, sql, cfg("observe"))
        after = execute(db, sql, cfg("apply", trace="counters"))
        plan_after = plan_query(db, parse(sql), cfg("apply")).explain()
        return before, plan_before, after, plan_after

    def test_q_error_reduced_5x(self, loop):
        before, _, after, _ = loop
        q_before = before.report().to_dict()["max_q_error"]
        q_after = after.report().to_dict()["max_q_error"]
        assert q_before / q_after >= 5.0

    def test_plan_decision_flips(self, loop):
        _, plan_before, _, plan_after = loop
        assert _plan_shape(plan_before) != _plan_shape(plan_after)
        # The uncorrected plan drives the probe side from the
        # mis-estimated filtered events scan; the corrected one does not.
        assert "IndexNestedLoopJoin" in plan_before
        assert "HashJoin" in plan_after

    def test_explain_shows_corrections(self, loop):
        _, plan_before, _, plan_after = loop
        assert "[feedback: est" in plan_after
        assert "feedback" not in plan_before
        note = re.search(r"\[feedback: est ([\d.e+]+)->([\d.e+]+)\]", plan_after)
        assert note is not None
        assert float(note.group(2)) > float(note.group(1))

    def test_rows_bit_identical(self, loop):
        before, _, after, _ = loop
        assert sorted(before.rows) == sorted(after.rows)
        assert before.columns == after.columns


def test_harvest_only_on_success():
    from repro.errors import BudgetExceededError

    db = make_skewed_db()
    config = EngineConfig(
        join_order="dp", feedback="observe", max_rows_scanned=10
    )
    with pytest.raises(BudgetExceededError):
        execute(db, skewed_query(), config)
    assert len(db.feedback) == 0


def test_feedback_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(feedback="sometimes")
    for mode in FEEDBACK_MODES:
        assert EngineConfig(feedback=mode).feedback == mode


def test_smart_iceberg_feedback_knob():
    from repro.core.system import SmartIceberg

    db = make_skewed_db()
    system = SmartIceberg(db, feedback="apply")
    assert system.config.feedback == "apply"
    assert SmartIceberg(db).config.feedback == "off"
