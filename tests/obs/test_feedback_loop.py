"""``feedback="observe"``: actual rows counted, plans and results unchanged."""

import dataclasses

import pytest

from repro.core.system import SmartIceberg
from repro.workloads.baseball import batting_db, dense_config
from repro.testing import RECORD_SEED
from repro.engine import EngineConfig, execute
from repro.engine.layout import numpy_or_none
from repro.engine.planner import FEEDBACK_MODES, plan_query
from repro.sql.parser import parse
from repro.storage.catalog import Database
from repro.workloads import (
    BasketConfig,
    CyclicConfig,
    complex_query,
    figure1_queries,
    load_baskets,
    load_batting,
    load_edges,
    load_unpivoted,
    make_skewed_db,
    market_basket_query,
    skewed_query,
    skyband_query,
    triangle_hub_query,
)
from tests.modes import MODES, in_mode, mode_kwargs

QUERIES = {name: q.sql for name, q in figure1_queries().items()}


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
            with in_mode(mode):
                result = execute(PARITY_DB, sql, config)
            assert result.sorted_rows() == baseline.sorted_rows(), (
                f"{name} rows diverged under feedback={feedback}, mode={mode}"
            )


def _db_with(load, config, **kwargs):
    def build():
        db = Database()
        load(db, config, **kwargs)
        return db

    return build


#: Q1-Q8, then one literal of each ``adhoc_mix`` template (skyband,
#: complex, basket, triangle_hub), each with a builder of its database.
OBSERVE_CASES = [
    (name, lambda: batting_db(120, seed=RECORD_SEED), sql)
    for name, sql in sorted(QUERIES.items())
] + [
    (
        "skyband",
        _db_with(load_batting, dense_config(300, RECORD_SEED)),
        skyband_query("b_h", "b_hr", 50),
    ),
    (
        "complex",
        _db_with(load_unpivoted, dense_config(150, RECORD_SEED), n_categories=4),
        complex_query(4),
    ),
    (
        "basket",
        _db_with(load_baskets, BasketConfig(n_baskets=200, seed=RECORD_SEED)),
        market_basket_query(12),
    ),
    (
        "triangle_hub",
        _db_with(load_edges, CyclicConfig(n_edges=300, seed=RECORD_SEED)),
        triangle_hub_query(2),
    ),
]


def _served_run(db, sql, feedback, mode):
    """Pre-execution explain, work counters and rows of one statement
    on an engine configured like the server's."""
    with in_mode(mode):
        optimized = SmartIceberg(
            db, feedback=feedback, cross_query_memo=True, **mode_kwargs(mode)
        ).optimize(sql)
        explain = optimized.explain()
        result = optimized.execute()
    return explain, result.stats.as_dict(), result.rows


def test_observe_matches_off_work_counters():
    """Observe stamps and counts but never changes a plan: the
    pre-execution ``explain()``, the work counters and the rows equal
    those of ``off``, on the skewed join and on every served template
    in row and columnar mode.  Each run gets a fresh database, so
    neither warms the other's caches."""
    db_off = make_skewed_db()
    db_obs = make_skewed_db()
    sql = skewed_query()
    off = EngineConfig(join_order="dp", feedback="off")
    observe = EngineConfig(join_order="dp", feedback="observe")
    assert (
        plan_query(db_obs, parse(sql), observe).explain()
        == plan_query(db_off, parse(sql), off).explain()
    )
    r_off = execute(db_off, sql, off)
    r_obs = execute(db_obs, sql, observe)
    assert r_obs.stats.as_dict() == r_off.stats.as_dict()
    assert r_obs.sorted_rows() == r_off.sorted_rows()
    # Only the counted actuals differ.
    assert r_off.report().to_dict()["observations"] == 0
    assert r_obs.report().to_dict()["observations"] > 0

    modes = ["row", "columnar"] if numpy_or_none() is not None else ["row"]
    for name, make_db, sql in OBSERVE_CASES:
        for mode in modes:
            runs = [
                _served_run(make_db(), sql, feedback, mode)
                for feedback in FEEDBACK_MODES
            ]
            assert runs[1][0] == runs[0][0], f"{name} ({mode}): plan changed"
            assert runs[1][1] == runs[0][1], f"{name} ({mode}): counters changed"
            assert runs[1][2] == runs[0][2], f"{name} ({mode}): rows changed"


def test_off_mode_plans_carry_no_feedback_artifacts():
    db = make_skewed_db()
    planned = plan_query(db, parse(skewed_query()), EngineConfig(join_order="dp"))
    text = planned.explain()
    assert "feedback" not in text
    from repro.obs import iter_plan_nodes

    for node in iter_plan_nodes(planned.root):
        assert node.feedback_fingerprint is None


def test_feedback_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(feedback="sometimes")
    for mode in FEEDBACK_MODES:
        assert EngineConfig(feedback=mode).feedback == mode


def test_smart_iceberg_feedback_knob():
    db = make_skewed_db()
    system = SmartIceberg(db, feedback="observe")
    assert system.config.feedback == "observe"
    assert SmartIceberg(db).config.feedback == "off"
