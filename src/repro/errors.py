"""Exception hierarchy for the Smart-Iceberg reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing parse errors from planning or execution errors.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library.

    Errors that escape query *execution* additionally carry the partial
    :class:`~repro.engine.stats.ExecutionStats` accumulated up to the
    failure point in ``stats`` (attached by the executor), so callers
    can see how much work a failed query performed.
    """

    #: Partial ExecutionStats at the failure point (execution errors).
    stats: Optional[Any] = None


class SqlError(ReproError):
    """Base class for errors in the SQL front end."""


class LexerError(SqlError):
    """Raised when the lexer encounters an unrecognized character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SqlError):
    """Raised when the parser cannot make sense of a token stream."""


class CatalogError(ReproError):
    """Raised for catalog problems: unknown or duplicate tables/columns."""


class SchemaError(ReproError):
    """Raised when data does not fit a table's declared schema."""


class PlanningError(ReproError):
    """Raised when a query cannot be planned (unsupported feature, etc.)."""


class ExecutionError(ReproError):
    """Raised when a planned query fails at run time."""


class TypeCheckError(ExecutionError):
    """Raised when an expression is applied to values of the wrong type."""


class GovernorError(ExecutionError):
    """Base class for errors raised by the execution governor.

    ``stats`` holds the partial :class:`ExecutionStats` of the aborted
    execution — the counters are accurate up to the abort point.
    """

    def __init__(self, message: str, stats: Optional[Any] = None) -> None:
        super().__init__(message)
        self.stats = stats


class BudgetExceededError(GovernorError):
    """Raised when an execution exceeds a configured resource budget.

    ``budget`` names the tripped knob (``rows_scanned``, ``join_pairs``,
    ``cache_bytes``, ``deadline_seconds``); ``limit`` and ``used`` give
    the ceiling and the measured value at the trip point.
    """

    def __init__(
        self,
        message: str,
        budget: str = "",
        limit: Optional[float] = None,
        used: Optional[float] = None,
        stats: Optional[Any] = None,
    ) -> None:
        super().__init__(message, stats=stats)
        self.budget = budget
        self.limit = limit
        self.used = used


class QueryCancelledError(GovernorError):
    """Raised when a cooperative :class:`CancelToken` is cancelled."""


class StaleImageError(ExecutionError):
    """Raised when an execution reads a table's column image and one of
    its indexes on either side of a write: the index holds a row the
    image does not.  The next attempt reads both after the write."""


class InjectedFaultError(ExecutionError):
    """Raised by the deterministic fault-injection harness.

    Tests use this to prove every failure path surfaces as a typed
    :class:`ReproError` (with partial stats) rather than a bare
    ``KeyError``/``RecursionError``.  ``site`` names the injection
    point (``scan``, ``join-pair``, ``cache-insert``, ``inner-eval``,
    ``qe``, ``reducer``, ``plan-cache``, ``admission``).
    """

    def __init__(self, message: str, site: str = "") -> None:
        super().__init__(message)
        self.site = site


class AnalysisError(ReproError):
    """Base class for errors raised by the static-analysis subsystem.

    Raised by :mod:`repro.analysis` when a query fails semantic
    analysis (unknown names, type mismatches) or when a physical plan
    fails verification.  ``SmartIceberg`` surfaces these *before*
    planning or execution starts, so a malformed query never reaches
    the executor.
    """


class UnknownTableError(AnalysisError):
    """Raised when a query references a table or alias that does not exist."""


class UnknownColumnError(AnalysisError):
    """Raised when a column reference resolves to no relation in scope."""


class AmbiguousColumnError(AnalysisError):
    """Raised when an unqualified column name matches several relations."""


class TypeMismatchError(AnalysisError):
    """Raised when the typechecker rejects an expression statically.

    Unlike :class:`TypeCheckError` (a runtime failure inside the
    executor), this is detected from the catalog's declared column
    types before any row is touched.
    """


class PlanVerificationError(AnalysisError):
    """Raised when a physical plan fails verification.

    The verifier proves that every logical conjunct of a query block
    is enforced by exactly one operator, that operator output schemas
    chain correctly, and that NLJP subsumption predicates survive a
    randomized counterexample search.  ``violations`` lists every
    failed proof obligation.
    """

    def __init__(self, message: str, violations: Optional[Any] = None) -> None:
        super().__init__(message)
        self.violations = list(violations or ())


class OptimizationError(ReproError):
    """Raised by the Smart-Iceberg optimizer for malformed inputs.

    Note that *inapplicability* of a technique is not an error; the
    optimizer reports inapplicability through result objects.  This
    exception signals genuine misuse, such as asking for a reducer on a
    relation that is not part of the query.
    """


class QuantifierEliminationError(ReproError):
    """Raised when the logic subsystem cannot eliminate a variable.

    This happens for non-linear constraints, which are outside the
    fragment handled by Fourier-Motzkin elimination.
    """


class ServerError(ReproError):
    """Base class for errors raised by the serving layer (:mod:`repro.serve`)."""


class SessionClosedError(ServerError):
    """Raised when a statement is submitted on a closed session."""


class AdmissionRejectedError(ServerError):
    """Raised when the admission controller refuses a query.

    ``reason`` is ``"queue-full"`` (no free slot and the wait queue is
    at capacity), ``"queue-deadline"`` (a slot did not free up within
    the queue deadline), or ``"headroom"`` (governed executions are
    running too close to their budgets for load shedding to admit
    more).  Rejection is a *transient* condition — the retry policy
    classifies it retryable and backs off before resubmitting.
    """

    def __init__(self, message: str, reason: str = "", waited_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.reason = reason
        self.waited_seconds = waited_seconds


class CircuitOpenError(ServerError):
    """Raised when a per-technique circuit breaker refuses a probe.

    Only raised when a caller explicitly demands a technique whose
    breaker is open; the server's default behaviour is to *degrade*
    (optimize without the tripped technique) rather than fail.
    ``technique`` names the breaker; ``retry_after_seconds`` is the
    remaining cool-down before a half-open probe is allowed.
    """

    def __init__(
        self, message: str, technique: str = "", retry_after_seconds: float = 0.0
    ) -> None:
        super().__init__(message)
        self.technique = technique
        self.retry_after_seconds = retry_after_seconds
