"""Typed retry policy: error taxonomy + deterministic backoff.

The serving layer retries only what a retry can actually fix.  Every
exception class in :mod:`repro.errors` is classified **exactly once**
in :data:`ERROR_TAXONOMY` as ``"retryable"`` (transient conditions —
injected faults, admission rejections, open circuits — where backing
off and resubmitting has a real chance of succeeding) or ``"fatal"``
(deterministic failures — parse errors, type errors, exceeded budgets,
failed analysis — that would fail identically on every attempt).
``tests/serve/test_retry.py`` enumerates the module and fails if a new
error class is added without a classification.

Backoff is exponential with multiplicative jitter drawn from a seeded
``random.Random`` stream, and **virtual**: :meth:`RetryPolicy.run`
never sleeps — it sums the scheduled delays and reports them to an
injectable ``sleep`` callable (the server's virtual clock), so retry
tests replay bit-identically with zero wall-clock cost, exactly like
the fault harness's virtual slowdowns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

from repro import errors
from repro.errors import (
    AdmissionRejectedError,
    AmbiguousColumnError,
    AnalysisError,
    BudgetExceededError,
    CatalogError,
    CircuitOpenError,
    ExecutionError,
    GovernorError,
    InjectedFaultError,
    LexerError,
    OptimizationError,
    ParseError,
    PlanningError,
    PlanVerificationError,
    QuantifierEliminationError,
    QueryCancelledError,
    ReproError,
    SchemaError,
    ServerError,
    SessionClosedError,
    SqlError,
    StaleImageError,
    TypeCheckError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)

RETRYABLE = "retryable"
FATAL = "fatal"

#: The complete classification: every concrete and base error class in
#: :mod:`repro.errors`, each exactly once.  Transient load/fault
#: conditions are retryable; everything deterministic is fatal — a
#: budget will trip again, a parse error will not fix itself, and a
#: cancellation was asked for.
ERROR_TAXONOMY: Dict[type, str] = {
    ReproError: FATAL,
    SqlError: FATAL,
    LexerError: FATAL,
    ParseError: FATAL,
    CatalogError: FATAL,
    SchemaError: FATAL,
    PlanningError: FATAL,
    ExecutionError: FATAL,
    TypeCheckError: FATAL,
    GovernorError: FATAL,
    BudgetExceededError: FATAL,
    QueryCancelledError: FATAL,
    StaleImageError: RETRYABLE,
    InjectedFaultError: RETRYABLE,
    AnalysisError: FATAL,
    UnknownTableError: FATAL,
    UnknownColumnError: FATAL,
    AmbiguousColumnError: FATAL,
    TypeMismatchError: FATAL,
    PlanVerificationError: FATAL,
    OptimizationError: FATAL,
    QuantifierEliminationError: FATAL,
    ServerError: FATAL,
    SessionClosedError: FATAL,
    AdmissionRejectedError: RETRYABLE,
    CircuitOpenError: RETRYABLE,
}

# The taxonomy must stay total over repro.errors: catch drift at import
# time, not in production when an unclassified error first escapes.
_DECLARED = {
    obj
    for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}
_MISSING = _DECLARED - set(ERROR_TAXONOMY)
if _MISSING:  # pragma: no cover - import-time invariant
    raise RuntimeError(
        f"unclassified error classes in repro.errors: "
        f"{sorted(cls.__name__ for cls in _MISSING)}"
    )


def classify_error(error: BaseException) -> str:
    """``"retryable"`` or ``"fatal"`` for any exception.

    Exact-type lookup first, then the MRO (so a future subclass
    inherits its parent's classification until it gets its own row).
    Non-``ReproError`` exceptions are fatal: an unclassified crash
    should surface loudly, not spin in a retry loop.
    """
    for cls in type(error).__mro__:
        category = ERROR_TAXONOMY.get(cls)
        if category is not None:
            return category
    return FATAL


@dataclass(frozen=True)
class BackoffSchedule:
    """Deterministic exponential backoff with seeded jitter.

    Delay for attempt *k* (0-based) is ``base * multiplier**k`` capped
    at ``max_seconds``, scaled by ``1 - jitter * u`` with ``u`` drawn
    from a per-``key`` ``random.Random`` stream — so two runs with the
    same seed and key replay the identical schedule, and concurrent
    sessions (different keys) never perturb each other's draws.
    """

    base_seconds: float = 0.05
    multiplier: float = 2.0
    max_seconds: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_seconds < 0:
            raise ValueError(f"base_seconds must be >= 0, got {self.base_seconds}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self, key: str = "") -> Iterator[float]:
        """The infinite delay sequence for one retry episode."""
        rng = random.Random(f"{self.seed}:backoff:{key}")
        attempt = 0
        while True:
            raw = min(self.base_seconds * self.multiplier**attempt, self.max_seconds)
            yield raw * (1.0 - self.jitter * rng.random())
            attempt += 1


class RetryPolicy:
    """Run a callable until success, a fatal error, or attempt exhaustion.

    ``max_attempts`` counts total tries (1 = no retry).  Retryable
    errors back off per ``schedule`` and try again; fatal errors are
    re-raised immediately.  When attempts run out the *last underlying
    typed error* is re-raised (annotated with ``retry_attempts`` and
    ``retry_backoff_seconds``) so callers always see a classified
    :class:`ReproError`, never a wrapper of our own invention.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        schedule: Optional[BackoffSchedule] = None,
        classify: Callable[[BaseException], str] = classify_error,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.schedule = schedule or BackoffSchedule()
        self.classify = classify
        self.sleep = sleep

    def run(
        self,
        fn: Callable[[], Any],
        key: str = "",
        on_retry: Optional[Callable[[BaseException, int, float], None]] = None,
    ) -> Any:
        """Execute ``fn`` under the policy.

        ``key`` seeds this episode's jitter stream (pass a per-call
        identity like ``"session-3:17"`` for independent, replayable
        schedules).  ``on_retry(error, attempt, delay)`` fires before
        each backoff — the server uses it for retry metrics.
        """
        delays = self.schedule.delays(key)
        backoff_total = 0.0
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except ReproError as error:
                if self.classify(error) == FATAL or attempt == self.max_attempts:
                    error.retry_attempts = attempt
                    error.retry_backoff_seconds = backoff_total
                    raise
                delay = next(delays)
                backoff_total += delay
                if on_retry is not None:
                    on_retry(error, attempt, delay)
                if self.sleep is not None:
                    self.sleep(delay)
        raise AssertionError("unreachable: loop either returns or raises")
