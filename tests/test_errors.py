"""Coverage for the repro.errors hierarchy.

Every public error class must be raisable from real library paths,
catchable with a single ``except ReproError``, and carry its declared
extras (``LexerError.position``, budget fields, partial stats).
"""

import inspect

import pytest

from repro import Database, EngineConfig, SmartIceberg, SqlType, TableSchema, execute
from repro import errors as errors_module
from repro.errors import (
    BudgetExceededError,
    CatalogError,
    ExecutionError,
    GovernorError,
    InjectedFaultError,
    LexerError,
    OptimizationError,
    ParseError,
    PlanningError,
    QuantifierEliminationError,
    QueryCancelledError,
    ReproError,
    SchemaError,
    SqlError,
    TypeCheckError,
)
from repro.engine import plan_query, run_planned
from repro.sql.parser import parse


def tiny_db() -> Database:
    db = Database()
    table = db.create_table(
        "t",
        TableSchema.of(("id", SqlType.INTEGER), ("name", SqlType.TEXT)),
        primary_key=("id",),
    )
    table.insert_many([(1, "a"), (2, "b")])
    return db


class TestHierarchyShape:
    def test_every_public_error_derives_from_repro_error(self):
        classes = [
            obj
            for _, obj in inspect.getmembers(errors_module, inspect.isclass)
            if issubclass(obj, BaseException)
        ]
        assert len(classes) >= 14
        for cls in classes:
            assert issubclass(cls, ReproError), cls.__name__

    def test_governor_errors_are_execution_errors(self):
        assert issubclass(BudgetExceededError, GovernorError)
        assert issubclass(QueryCancelledError, GovernorError)
        assert issubclass(GovernorError, ExecutionError)
        assert issubclass(InjectedFaultError, ExecutionError)
        assert issubclass(TypeCheckError, ExecutionError)

    def test_sql_errors_group_frontend_failures(self):
        assert issubclass(LexerError, SqlError)
        assert issubclass(ParseError, SqlError)


class TestRaisedFromLibraryPaths:
    def test_lexer_error_keeps_position(self):
        with pytest.raises(LexerError) as info:
            parse("SELECT § FROM t")
        assert info.value.position == 7
        assert "offset 7" in str(info.value)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse("SELECT FROM WHERE")

    def test_catalog_error(self):
        with pytest.raises(CatalogError):
            Database().table("missing")

    def test_schema_error(self):
        with pytest.raises(SchemaError):
            TableSchema.of()  # zero columns

    def test_planning_error(self):
        with pytest.raises(PlanningError):
            execute(tiny_db(), "SELECT MEDIAN(id) FROM t")

    def test_execution_error_division_by_zero(self):
        with pytest.raises(ExecutionError, match="division by zero"):
            execute(tiny_db(), "SELECT id / 0 FROM t")

    def test_type_check_error_wraps_runtime_type_mismatch(self):
        """A compiled expression hitting a Python TypeError surfaces as
        TypeCheckError with partial stats, not as a bare TypeError."""
        db = tiny_db()
        with pytest.raises(TypeCheckError) as info:
            execute(db, "SELECT id FROM t WHERE id < name")
        assert info.value.stats is not None
        assert info.value.__cause__ is not None

    def test_budget_exceeded_error(self):
        db = tiny_db()
        config = EngineConfig(max_rows_scanned=0)
        with pytest.raises(BudgetExceededError) as info:
            execute(db, "SELECT id FROM t", config)
        assert info.value.budget == "rows_scanned"
        assert info.value.stats is not None

    def test_query_cancelled_error(self):
        from repro import CancelToken

        token = CancelToken()
        token.cancel("shutdown")
        planned = plan_query(tiny_db(), parse("SELECT id FROM t"))
        with pytest.raises(QueryCancelledError, match="shutdown"):
            run_planned(planned, cancel_token=token)

    def test_injected_fault_error(self):
        from repro.testing import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(site="scan")])
        config = EngineConfig(fault_plan=plan)
        with pytest.raises(InjectedFaultError) as info:
            execute(tiny_db(), "SELECT id FROM t", config)
        assert info.value.site == "scan"

    def test_optimization_error(self):
        with pytest.raises(OptimizationError):
            SmartIceberg(tiny_db(), technique_choice="bogus")

    def test_quantifier_elimination_error(self):
        from repro.logic.formula import Constraint, LinearTerm

        with pytest.raises(QuantifierEliminationError):
            Constraint(LinearTerm({}, 0), "!=")


class TestCatchAll:
    """Each failure above is catchable as plain ReproError."""

    @pytest.mark.parametrize(
        "trigger",
        [
            lambda: parse("SELECT §"),
            lambda: parse("SELECT FROM"),
            lambda: Database().table("missing"),
            lambda: TableSchema.of(),
            lambda: execute(tiny_db(), "SELECT MEDIAN(id) FROM t"),
            lambda: execute(tiny_db(), "SELECT id / 0 FROM t"),
            lambda: execute(tiny_db(), "SELECT id FROM t WHERE id < name"),
            lambda: execute(
                tiny_db(), "SELECT id FROM t", EngineConfig(max_rows_scanned=0)
            ),
            lambda: SmartIceberg(tiny_db(), technique_choice="bogus"),
        ],
    )
    def test_single_except_clause_suffices(self, trigger):
        with pytest.raises(ReproError):
            trigger()
