"""The execution governor: resource budgets and graceful degradation.

Production engines survive by bounding every query.  The paper's
techniques are pure wins only when nothing goes wrong — an unbounded
NLJP cache or a pathological binding order can make the "optimized"
plan blow memory or run forever — so the governor bounds the work a
query may perform and lets execution degrade instead of dying:

* **Budgets** — ``max_rows_scanned`` / ``max_join_pairs`` cap the
  deterministic work counters; ``deadline_seconds`` caps wall clock;
  ``max_cache_bytes`` caps the NLJP cache footprint.  All are fields on
  :class:`~repro.engine.planner.EngineConfig`.
* **Cancellation** — a cooperative :class:`CancelToken` lets a caller
  abort a running query from outside; operators poll it at row/batch
  boundaries and raise :class:`~repro.errors.QueryCancelledError`.
* **Degradation** — with ``degradation="fallback"`` the cache-bytes
  budget does not abort: the NLJP cache evicts under pressure and, if
  that is not enough, disables memo/pruning lookups entirely while the
  join keeps producing correct rows.  Every such event is recorded in
  ``ExecutionStats.degradations``.

Work-counter budgets and the deadline always abort (there is no
cheaper *correct* plan to switch to mid-run); the errors carry the
partial :class:`~repro.engine.stats.ExecutionStats` so callers see how
far the query got.

The governor is also the execution-side hook for the deterministic
fault-injection harness (:mod:`repro.testing.faults`): ``check(site)``
forwards named sites to the configured plan, which may raise a typed
error or report a deterministic virtual slowdown that counts toward
the deadline (no wall-clock randomness in tests).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.errors import BudgetExceededError, QueryCancelledError
from repro.engine.stats import ExecutionStats

#: Degradation modes accepted by EngineConfig.
DEGRADATION_MODES = ("fail", "fallback")


class CancelToken:
    """Cooperative cancellation flag shared between caller and engine.

    The caller keeps a reference and calls :meth:`cancel`; operators
    poll the token at row/batch boundaries via the governor.  Tokens
    are one-shot: once cancelled they stay cancelled.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason = ""

    def cancel(self, reason: str = "") -> None:
        self._cancelled = True
        if reason:
            self.reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        return f"CancelToken(cancelled={self._cancelled})"


class Governor:
    """Per-execution budget enforcement, threaded through operators.

    Operators call :meth:`check` at row/batch boundaries; the governor
    compares the execution's live :class:`ExecutionStats` against the
    configured ceilings and raises a typed error carrying those partial
    stats when one is exceeded.  A ``None`` governor on the execution
    context means ungoverned execution with zero overhead.
    """

    __slots__ = (
        "stats",
        "max_rows_scanned",
        "max_join_pairs",
        "max_cache_bytes",
        "deadline_seconds",
        "degradation",
        "cancel_token",
        "fault_plan",
        "degradations",
        "_clock",
        "_start",
        "_virtual_seconds",
    )

    def __init__(
        self,
        stats: ExecutionStats,
        max_rows_scanned: Optional[int] = None,
        max_join_pairs: Optional[int] = None,
        max_cache_bytes: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        degradation: str = "fail",
        cancel_token: Optional[CancelToken] = None,
        fault_plan: Optional[Any] = None,
        clock=time.monotonic,
    ) -> None:
        if degradation not in DEGRADATION_MODES:
            raise ValueError(
                f"degradation must be one of {DEGRADATION_MODES}, "
                f"got {degradation!r}"
            )
        self.stats = stats
        self.max_rows_scanned = max_rows_scanned
        self.max_join_pairs = max_join_pairs
        self.max_cache_bytes = max_cache_bytes
        self.deadline_seconds = deadline_seconds
        self.degradation = degradation
        self.cancel_token = cancel_token
        self.fault_plan = fault_plan
        self.degradations: List[str] = stats.degradations
        self._clock = clock
        self._start = clock()
        self._virtual_seconds = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config,
        stats: ExecutionStats,
        cancel_token: Optional[CancelToken] = None,
    ) -> Optional["Governor"]:
        """Build a governor from an EngineConfig and one call's cancel
        token; ``None`` if ungoverned.

        A governor is only created when something can actually trip —
        a budget, a deadline, a cancel token, or a fault plan — so the
        common unbudgeted path stays a no-op.
        """
        if (
            config.max_rows_scanned is None
            and config.max_join_pairs is None
            and config.max_cache_bytes is None
            and config.deadline_seconds is None
            and cancel_token is None
            and config.fault_plan is None
        ):
            return None
        return cls(
            stats,
            max_rows_scanned=config.max_rows_scanned,
            max_join_pairs=config.max_join_pairs,
            max_cache_bytes=config.max_cache_bytes,
            deadline_seconds=config.deadline_seconds,
            degradation=config.degradation,
            cancel_token=cancel_token,
            fault_plan=config.fault_plan,
        )

    # ------------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        """Wall clock since execution start plus injected virtual time."""
        return (self._clock() - self._start) + self._virtual_seconds

    def check(self, site: Optional[str] = None) -> None:
        """Enforce budgets/cancellation; observe fault site if named.

        Called at row/batch boundaries throughout the operator tree.
        Raises :class:`QueryCancelledError` or
        :class:`BudgetExceededError` with the partial stats attached.
        """
        if site is not None and self.fault_plan is not None:
            self._virtual_seconds += self.fault_plan.observe(site)
        token = self.cancel_token
        if token is not None and token.cancelled:
            reason = f": {token.reason}" if token.reason else ""
            raise QueryCancelledError(
                f"query cancelled{reason}", stats=self.stats
            )
        stats = self.stats
        if (
            self.max_rows_scanned is not None
            and stats.rows_scanned > self.max_rows_scanned
        ):
            raise BudgetExceededError(
                f"rows_scanned budget exceeded: "
                f"{stats.rows_scanned} > {self.max_rows_scanned}",
                budget="rows_scanned",
                limit=self.max_rows_scanned,
                used=stats.rows_scanned,
                stats=stats,
            )
        if (
            self.max_join_pairs is not None
            and stats.join_pairs > self.max_join_pairs
        ):
            raise BudgetExceededError(
                f"join_pairs budget exceeded: "
                f"{stats.join_pairs} > {self.max_join_pairs}",
                budget="join_pairs",
                limit=self.max_join_pairs,
                used=stats.join_pairs,
                stats=stats,
            )
        if self.deadline_seconds is not None:
            elapsed = self.elapsed_seconds()
            if elapsed > self.deadline_seconds:
                raise BudgetExceededError(
                    f"deadline exceeded: {elapsed:.3f}s > "
                    f"{self.deadline_seconds}s",
                    budget="deadline_seconds",
                    limit=self.deadline_seconds,
                    used=elapsed,
                    stats=stats,
                )

    def cache_over_budget(self, cache_bytes: int) -> bool:
        """Whether the NLJP cache footprint exceeds ``max_cache_bytes``."""
        return (
            self.max_cache_bytes is not None
            and cache_bytes > self.max_cache_bytes
        )

    def cache_budget_exceeded(self, cache_bytes: int) -> BudgetExceededError:
        """Typed error for a hard (``degradation="fail"``) cache trip."""
        return BudgetExceededError(
            f"cache_bytes budget exceeded: {cache_bytes} > "
            f"{self.max_cache_bytes}",
            budget="cache_bytes",
            limit=self.max_cache_bytes,
            used=cache_bytes,
            stats=self.stats,
        )

    def degrade(self, site: str, reason: str) -> None:
        """Record a graceful-degradation event on the execution stats."""
        self.degradations.append(f"{site}: {reason}")

    def headroom(self) -> Dict[str, float]:
        """Remaining budget fraction per configured ceiling, in [0, 1].

        Only budgets that are actually set appear; 0.0 means the budget
        was reached (or the limit was zero).  Exported as gauges by the
        metrics registry so dashboards can watch how close governed
        workloads run to their ceilings, and fed back into the serving
        layer's admission controller after every governed query: when
        the minimum fraction drops below the server's ``headroom_floor``
        new arrivals are shed until a healthier query reports in (see
        :meth:`repro.serve.admission.AdmissionController.note_headroom`).
        """
        fractions: Dict[str, float] = {}

        def remaining(limit, used) -> float:
            if limit <= 0:
                return 0.0
            return max(0.0, 1.0 - used / limit)

        if self.max_rows_scanned is not None:
            fractions["rows_scanned"] = remaining(
                self.max_rows_scanned, self.stats.rows_scanned
            )
        if self.max_join_pairs is not None:
            fractions["join_pairs"] = remaining(
                self.max_join_pairs, self.stats.join_pairs
            )
        if self.max_cache_bytes is not None:
            fractions["cache_bytes"] = remaining(
                self.max_cache_bytes, self.stats.cache_bytes
            )
        if self.deadline_seconds is not None:
            fractions["deadline_seconds"] = remaining(
                self.deadline_seconds, self.elapsed_seconds()
            )
        return fractions
