"""The option surface, pinned: every settable engine and serving value.

Each option doubles the configurations the suites must cover, so a
new one should be a deliberate choice.  Adding (or removing) one shows
up as a diff to this file.  A plan's settings are fixed when it is
built; a call carries only what is per call (params, cancel token,
fault plan, deadline).
"""

import dataclasses
import inspect

import pytest

from repro import EngineConfig, IcebergServer, SmartIceberg
from repro.core.optimizer import OptimizedQuery, SmartIcebergOptimizer
from repro.engine import run_planned
from repro.engine.planner import FEEDBACK_MODES
from repro.serve.server import PreparedStatement, Session
from repro.storage.catalog import Database

SURFACE = {
    "SmartIceberg.__init__": (
        SmartIceberg.__init__,
        [
            "db", "apriori", "pruning", "memo", "config", "cache_index",
            "cache_max_entries", "cache_policy", "batch_size", "max_rows_scanned", "max_join_pairs",
            "max_cache_bytes", "deadline_seconds", "degradation",
            "fault_plan", "analyze", "trace", "feedback",
            "cross_query_memo", "technique_choice",
        ],
    ),
    "SmartIceberg.execute": (
        SmartIceberg.execute,
        ["statement", "params", "cancel_token", "fault_plan", "deadline_seconds"],
    ),
    "SmartIcebergOptimizer.__init__": (
        SmartIcebergOptimizer.__init__,
        [
            "db", "enable_apriori", "enable_pruning", "enable_memo",
            "config", "cache_index", "cache_max_entries", "cache_policy",
            "cross_query_memo", "technique_choice",
        ],
    ),
    "IcebergServer.__init__": (
        IcebergServer.__init__,
        [
            "db", "max_concurrent", "max_queue", "queue_timeout_seconds",
            "headroom_floor", "plan_cache_entries", "max_attempts",
            "backoff", "retry_sleep", "breaker_threshold",
            "breaker_recovery_seconds", "max_rows_scanned",
            "max_join_pairs", "clock", "registry", "query_log",
            "query_log_entries", "query_log_path", "engine_kwargs",
        ],
    ),
    "run_planned": (
        run_planned,
        [
            "planned", "params", "tracer", "cancel_token", "fault_plan",
            "deadline_seconds", "trace_label",
        ],
    ),
    "OptimizedQuery.execute": (
        OptimizedQuery.execute,
        ["params", "cancel_token", "fault_plan", "deadline_seconds", "trace_label"],
    ),
    "Session.execute": (Session.execute, ["sql", "params", "cancel_token"]),
    "PreparedStatement.execute": (PreparedStatement.execute, ["params"]),
}


def test_engine_config_fields():
    assert [field.name for field in dataclasses.fields(EngineConfig)] == [
        "join_policy", "join_order", "parallelism", "label",
        "batch_size", "max_rows_scanned",
        "max_join_pairs", "max_cache_bytes", "deadline_seconds",
        "degradation", "fault_plan", "analyze", "trace", "feedback",
    ]


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_parameter_names(name):
    function, expected = SURFACE[name]
    parameters = [p for p in inspect.signature(function).parameters if p != "self"]
    assert parameters == expected


def test_feedback_modes():
    assert FEEDBACK_MODES == ("off", "observe")


@pytest.mark.parametrize(
    "build",
    [
        lambda db: EngineConfig(feedback="apply"),
        lambda db: SmartIceberg(db, feedback="apply"),
        # Checked at construction: the server builds engines lazily.
        lambda db: IcebergServer(db, feedback="apply"),
    ],
    ids=["EngineConfig", "SmartIceberg", "IcebergServer"],
)
def test_removed_feedback_value_rejected(build):
    with pytest.raises(ValueError, match=r"\('off', 'observe'\)"):
        build(Database())


@pytest.mark.parametrize(
    "build",
    [
        lambda db: EngineConfig(execution_mode="row"),
        lambda db: SmartIceberg(db, execution_mode="columnar"),
    ],
    ids=["EngineConfig", "SmartIceberg"],
)
def test_execution_mode_is_not_an_option(build):
    """The path is the install's (columnar where NumPy imports), so
    there is no mode to set."""
    with pytest.raises(TypeError, match="execution_mode"):
        build(Database())
