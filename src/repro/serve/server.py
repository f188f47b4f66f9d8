"""The resilient concurrent serving layer: :class:`IcebergServer`.

One server wraps one :class:`~repro.storage.catalog.Database` and
serves many concurrent :class:`Session` objects, composing the pieces
this package provides:

* **Admission** — every execute passes the
  :class:`~repro.serve.admission.AdmissionController` (bounded
  concurrency, bounded queue, governor-headroom load shedding).
* **Plan cache** — statements are optimized once per
  ``(template, technique mask)`` and shared across sessions via the
  version-validated :class:`~repro.serve.plan_cache.PlanCache`; the
  template is the statement with its HAVING thresholds lifted into
  parameters (:mod:`repro.serve.templates`), looked up through a
  text → template memo so a text is lexed once, and a plan is built at
  the values of the statement that first needs it.  Inserts and
  ANALYZE invalidate lazily through the database's version token.
  Prepared statements are just named handles onto this cache.
* **Retry** — each call runs under the
  :class:`~repro.serve.retry.RetryPolicy`: transient typed errors
  (injected faults, admission rejections, open circuits) back off on
  the virtual clock and retry; deterministic errors surface
  immediately, always as a classified :class:`~repro.errors.ReproError`.
* **Circuit breakers** — repeated per-technique degradation events
  trip the technique's :class:`~repro.serve.circuit.CircuitBreaker`;
  while open, the server plans *without* that technique (a different
  technique mask → a different plan-cache key), probing it again after
  the recovery window.
* **Fault sites** — the serving layer observes the ``"plan-cache"``
  and ``"admission"`` sites of a session's
  :class:`~repro.testing.faults.FaultPlan`, so the soak tests can
  inject failures into the serving machinery itself, not just the
  engine underneath.

Everything is deterministic under a fixed seed and injectable clock:
no real sleeps, no wall-clock-dependent control flow.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.system import SmartIceberg
from repro.engine.executor import Result
from repro.engine.operators import HashAggregate
from repro.engine.planner import FEEDBACK_MODES
from repro.errors import CircuitOpenError, ParseError, SessionClosedError
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.querylog import QueryLog, stable_fingerprint
from repro.serve.admission import AdmissionController
from repro.serve.circuit import CircuitBreaker
from repro.serve.plan_cache import MemoStore, PlanCache, PlanCacheEntry
from repro.serve.retry import BackoffSchedule, RetryPolicy
from repro.serve.templates import TemplateMemo
from repro.sql.parser import parse
from repro.storage.catalog import Database

#: The serving layer's view of the paper's techniques, as breaker-
#: guarded units: "apriori" is the generalized a-priori rewrite;
#: "memprune" bundles memoization + pruning (they share the NLJP
#: machinery, degrade together, and are toggled together).
TECHNIQUES = ("apriori", "memprune")

FULL_MASK: FrozenSet[str] = frozenset(TECHNIQUES)


def _breaker_for_degradation(event: str) -> Optional[str]:
    """Map a degradation-log entry to the technique breaker it charges.

    Degradation events are ``"site: reason"`` strings; a-priori events
    use sites like ``apriori[main]``, NLJP-side events use
    ``memprune``/``nljp-cache``/``cache`` sites (see
    ``Governor.degrade`` call sites).
    """
    site = event.split(":", 1)[0].strip().lower()
    if site.startswith("apriori"):
        return "apriori"
    if site.startswith(("memprune", "nljp", "cache")):
        return "memprune"
    return None


class PreparedStatement:
    """A session-scoped handle to one SQL statement.

    Preparation is *lazy*: the statement text is validated for reuse
    but optimization happens on first execution, through the shared
    plan cache — so the second execution of the same prepared
    statement (or of the same SQL from any other session) is a cache
    hit, and a data/stats change between executions transparently
    re-optimizes.
    """

    def __init__(self, session: "Session", sql: str) -> None:
        self.session = session
        self.sql = sql
        self.executions = 0

    def execute(self, params: Optional[Dict] = None) -> Result:
        self.executions += 1
        return self.session.execute(self.sql, params=params)

    def __repr__(self) -> str:
        return f"PreparedStatement({self.sql[:40]!r}..., executions={self.executions})"


class Session:
    """One client's handle onto the server.

    Sessions are cheap (no engine state of their own) and single-
    client: per-session fault plans, deadlines, and trace profiles
    live here, while plans, caches, breakers, and admission are shared
    through the server.  A closed session refuses further work with
    :class:`~repro.errors.SessionClosedError`.
    """

    def __init__(
        self,
        server: "IcebergServer",
        session_id: str,
        fault_plan: Optional[Any] = None,
        deadline_seconds: Optional[float] = None,
    ) -> None:
        self.server = server
        self.session_id = session_id
        self.fault_plan = fault_plan
        self.deadline_seconds = deadline_seconds
        self.closed = False  # unguarded: single boolean flip in close(); a racing execute may admit one final query, which a closing client tolerates
        self.queries = 0  # guarded-by: self._lock
        self.retries = 0  # guarded-by: self._lock
        #: ``(label, QueryProfile)`` pairs from traced executions.
        self.profiles: List[Tuple[str, Any]] = []  # guarded-by: self._lock
        self._lock = threading.Lock()

    def execute(
        self,
        sql: str,
        params: Optional[Dict] = None,
        cancel_token: Optional[Any] = None,
    ) -> Result:
        if self.closed:
            raise SessionClosedError(f"session {self.session_id!r} is closed")
        with self._lock:
            self.queries += 1
            sequence = self.queries
        return self.server._execute(
            self,
            sql,
            params=params,
            cancel_token=cancel_token,
            key=f"{self.session_id}:{sequence}",
        )

    def prepare(self, sql: str) -> PreparedStatement:
        if self.closed:
            raise SessionClosedError(f"session {self.session_id!r} is closed")
        return PreparedStatement(self, sql)

    def export_trace(self, path: str) -> int:
        """Write this session's traced profiles as one Chrome trace.

        Returns the number of profiles merged (0 writes nothing).
        Load the file at ``chrome://tracing`` / Perfetto; each query
        appears as its own process row.
        """
        from repro.obs.spans import merge_chrome_traces

        with self._lock:
            named = list(self.profiles)
        if not named:
            return 0
        document = merge_chrome_traces(named)
        with open(path, "w") as handle:
            json.dump(document, handle)
        return len(named)

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class IcebergServer:
    """Concurrent, fault-tolerant front end over :class:`SmartIceberg`.

    The server owns one engine instance per *technique mask* (the set
    of breaker-enabled techniques), all sharing the database.  Budgets
    passed here are instance-wide totals: they are fair-shared across
    the admission slots so ``max_concurrent`` saturated sessions stay
    within the total.
    """

    def __init__(
        self,
        db: Database,
        *,
        max_concurrent: int = 8,
        max_queue: int = 16,
        queue_timeout_seconds: float = 5.0,
        headroom_floor: float = 0.0,
        plan_cache_entries: int = 64,
        max_attempts: int = 3,
        backoff: Optional[BackoffSchedule] = None,
        retry_sleep: Optional[Callable[[float], None]] = None,
        breaker_threshold: int = 3,
        breaker_recovery_seconds: float = 30.0,
        max_rows_scanned: Optional[int] = None,
        max_join_pairs: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
        query_log: Optional[QueryLog] = None,
        query_log_entries: int = 512,
        query_log_path: Optional[str] = None,
        **engine_kwargs: Any,
    ) -> None:
        self.db = db
        self._engine_kwargs = dict(engine_kwargs)
        # Feedback default: *observe* — count each plan's actual rows
        # for the query log's q-errors; no estimate ever changes.  An
        # explicit ``feedback=`` kwarg wins; a caller-supplied
        # ``config=`` keeps its own setting (we never override it).
        # Engines are built lazily, so a bad value is refused here
        # rather than by the first request.
        base_config = self._engine_kwargs.get("config")
        feedback = self._engine_kwargs.setdefault(
            "feedback", "observe" if base_config is None else base_config.feedback
        )
        if feedback not in FEEDBACK_MODES:
            raise ValueError(
                f"feedback must be one of {FEEDBACK_MODES}, got {feedback!r}"
            )
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            max_queue=max_queue,
            queue_timeout_seconds=queue_timeout_seconds,
            headroom_floor=headroom_floor,
            clock=clock,
        )
        self.plan_cache = PlanCache(max_entries=plan_cache_entries)
        self.templates = TemplateMemo()
        self.memo = MemoStore(max_entries=plan_cache_entries)
        self.retry = RetryPolicy(
            max_attempts=max_attempts,
            schedule=backoff or BackoffSchedule(),
            sleep=retry_sleep,
        )
        self.breakers: Dict[str, CircuitBreaker] = {
            technique: CircuitBreaker(
                technique,
                failure_threshold=breaker_threshold,
                recovery_seconds=breaker_recovery_seconds,
                clock=clock,
            )
            for technique in TECHNIQUES
        }
        self._registry = registry if registry is not None else REGISTRY
        #: Structured flight recorder: one record per served execution
        #: (and per serving-layer failure).  ``python -m
        #: repro.obs.report`` summarizes it.
        self.query_log = (
            query_log
            if query_log is not None
            else QueryLog(max_entries=query_log_entries, path=query_log_path)
        )
        # Instance-wide budget totals → per-slot fair shares.
        if max_rows_scanned is not None:
            self._engine_kwargs["max_rows_scanned"] = self.admission.fair_share(
                max_rows_scanned
            )
        if max_join_pairs is not None:
            self._engine_kwargs["max_join_pairs"] = self.admission.fair_share(
                max_join_pairs
            )
        self._engines: Dict[FrozenSet[str], SmartIceberg] = {}  # guarded-by: self._engines_lock
        self._engines_lock = threading.RLock()
        self._sessions_lock = threading.Lock()
        self._session_counter = 0  # guarded-by: self._sessions_lock

    # ------------------------------------------------------------------
    def session(
        self,
        fault_plan: Optional[Any] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Session:
        with self._sessions_lock:
            self._session_counter += 1
            session_id = f"session-{self._session_counter}"
        return Session(
            self,
            session_id,
            fault_plan=fault_plan,
            deadline_seconds=deadline_seconds,
        )

    def _engine(self, mask: FrozenSet[str]) -> SmartIceberg:
        """The engine instance planning with exactly ``mask`` enabled."""
        with self._engines_lock:
            engine = self._engines.get(mask)
            if engine is None:
                engine = SmartIceberg(
                    self.db,
                    apriori="apriori" in mask,
                    pruning="memprune" in mask,
                    memo="memprune" in mask,
                    cross_query_memo="memprune" in mask,
                    **self._engine_kwargs,
                )
                self._engines[mask] = engine
            return engine

    def _technique_mask(self) -> FrozenSet[str]:
        """The techniques whose breakers currently admit execution.

        An open breaker excludes its technique from planning — the
        query still runs, just without that optimization.  Half-open
        probes *include* the technique; their outcome closes or
        re-opens the breaker.
        """
        return frozenset(
            technique
            for technique, breaker in self.breakers.items()
            if breaker.allow()
        )

    def require_technique(self, technique: str) -> None:
        """Raise :class:`CircuitOpenError` if a technique's breaker is open.

        For callers that *need* a technique (benchmark comparability,
        tests) rather than accepting the degraded mask.
        """
        breaker = self.breakers[technique]
        if breaker.state == "open" and not breaker.allow():
            raise CircuitOpenError(
                f"technique {technique!r} circuit is open",
                technique=technique,
                retry_after_seconds=breaker.retry_after_seconds(),
            )

    # ------------------------------------------------------------------
    def _execute(
        self,
        session: Session,
        sql: str,
        params: Optional[Dict],
        cancel_token: Optional[Any],
        key: str,
    ) -> Result:
        def attempt() -> Result:
            return self._execute_once(session, sql, params, cancel_token)

        def on_retry(error: BaseException, attempt_no: int, delay: float) -> None:
            with session._lock:
                session.retries += 1
            self._registry.counter(
                "repro_server_retries_total",
                "Serving-layer retry attempts by error class",
                ("error",),
            ).inc(error=type(error).__name__)

        try:
            result = self.retry.run(attempt, key=key, on_retry=on_retry)
        except Exception as error:
            self._registry.counter(
                "repro_server_queries_total",
                "Server queries by session outcome",
                ("outcome",),
            ).inc(outcome=f"error:{type(error).__name__}")
            self.query_log.append(
                session=session.session_id,
                sql_fingerprint=stable_fingerprint(sql),
                feedback_mode=self._engine_kwargs["feedback"],
                outcome=f"error:{type(error).__name__}",
                breaker_states={
                    technique: breaker.state
                    for technique, breaker in self.breakers.items()
                },
            )
            self._sync_serve_metrics()
            raise
        self._registry.counter(
            "repro_server_queries_total",
            "Server queries by session outcome",
            ("outcome",),
        ).inc(outcome="ok")
        return result

    def _execute_once(
        self,
        session: Session,
        sql: str,
        params: Optional[Dict],
        cancel_token: Optional[Any],
    ) -> Result:
        fault_plan = session.fault_plan
        if fault_plan is not None:
            # Serving-layer fault sites: raise typed injected errors
            # before the admission decision / plan-cache lookup.  The
            # returned virtual delay has no governor clock to charge at
            # this point, so only error-kind faults matter here.
            fault_plan.observe("admission")
        with self.admission.admit() as waited:
            self._registry.gauge(
                "repro_server_admission_wait_seconds",
                "Queue wait of the most recently admitted query",
            ).set(waited)
            if fault_plan is not None:
                fault_plan.observe("plan-cache")
            mask = self._technique_mask()
            template, new_text = self.templates.template(sql)
            bound = template.bind(params)
            try:
                try:
                    entry, cache_hit = self._lookup_or_build(
                        template.sql, mask, bound, new_text
                    )
                except ParseError:
                    if template.lifted:
                        parse(sql)  # the error at the statement's own offsets
                    raise

                def run() -> Result:
                    return entry.optimized.execute(
                        bound,
                        cancel_token=cancel_token,
                        fault_plan=fault_plan,
                        deadline_seconds=session.deadline_seconds,
                        trace_label=f"{session.session_id}:{sql[:40]}",
                    )

                result = self._run_locked(entry, mask, bound, run)
            except BaseException:
                # The techniques were never fully exercised: hand back
                # any half-open probe slots without judging them.
                for technique in mask:
                    self.breakers[technique].release_probe()
                raise
            self._after_execution(
                session, sql, mask, entry, result, waited=waited, cache_hit=cache_hit
            )
            return result

    def _run_locked(
        self,
        entry: PlanCacheEntry,
        mask: FrozenSet[str],
        params: Optional[Dict],
        run: Callable[[], Result],
    ) -> Result:
        """``run()`` under ``entry``'s execution lock and, when the plan
        shares an NLJP memo, under the lock of the memo slot it reads
        and fills.

        The slot is keyed by the technique mask, the payload meaning and
        the values of the parameters it reads; the NLJP catches its
        store up with any write since, under the slot's lock.
        """
        with entry.lock:
            if entry.memo is None:
                return run()
            nljp = entry.optimized.nljp
            meaning, reads = entry.memo
            values = tuple((params or {}).get(name) for name in reads)
            slot = self.memo.slot((mask, meaning, values), nljp.new_store)
            # Lock order: entry → slot (see plan_cache).
            with slot.lock:
                nljp.memo_store = slot.store
                try:
                    return run()
                finally:
                    # The slot owns the store: evicted, it is freed.
                    nljp.release_memo()

    def _lookup_or_build(
        self, sql: str, mask: FrozenSet[str], params: Optional[Dict], new_text: bool
    ) -> Tuple[PlanCacheEntry, bool]:
        """The cached (or freshly built) plan of template ``sql`` serving
        ``params``, plus a hit flag; ``new_text``, the statement's text
        has not been served before (it is counted as a miss).

        ``hit`` is ``True`` when the entry came from the shared cache
        (including waiting out another session's in-flight build) and
        ``False`` when this call was the build leader.
        """
        # Single-flight: concurrent first-touch misses on one key used
        # to optimize N times and race the store.  Now exactly one
        # session (the claim leader) builds; the rest wait on the
        # leader's latch and re-run the lookup.  A failed build still
        # releases in the finally, so waiters re-claim rather than hang.
        hit = True
        while True:
            live_token = self.db.version_token()
            entry = self.plan_cache.lookup(sql, mask, live_token, params, new_text)
            if entry is not None:
                break
            leader, latch = self.plan_cache.claim(sql, mask)
            if not leader:
                latch.wait()
                new_text = False  # this text's miss is counted
                continue
            hit = False
            try:
                optimized = self._engine(mask).optimize(sql, params)
                nljp = optimized.nljp
                # The NLJP memo outlives this execution and this plan:
                # every plan whose payloads mean the same reads and
                # fills one memo slot (see _memo_slot).
                memo = None
                if nljp is not None and nljp.enable_memo:
                    memo = nljp.memo_meaning(optimized.rewritten.ctes)
                # Fingerprinted before the first run: explain() gains
                # runtime lines (NLJP's loop path, say) once it has run.
                entry = self.plan_cache.store(
                    sql, mask, live_token, optimized,
                    fingerprint=stable_fingerprint(optimized.planned.explain()),
                    memo=memo,
                    guards=optimized.report.guards,
                )
            finally:
                self.plan_cache.release(sql, mask)
            break
        stats = self.plan_cache.stats()
        gauge = self._registry.gauge(
            "repro_server_plan_cache",
            "Shared plan cache state",
            ("stat",),
        )
        for name, value in stats.items():
            gauge.set(value, stat=name)
        return entry, hit

    def _sync_serve_metrics(self) -> None:
        """Export admission/breaker counters as registry gauges.

        The counters live inside their components' locks; the snapshot
        accessors copy them consistently, and gauges (not counters)
        carry them so re-exporting the running totals is idempotent.
        """
        admission = self._registry.gauge(
            "repro_server_admission_outcomes",
            "Admission decisions by outcome (running totals)",
            ("outcome",),
        )
        for outcome, count in self.admission.snapshot_outcomes().items():
            admission.set(count, outcome=outcome)
        transitions = self._registry.gauge(
            "repro_server_breaker_transitions",
            "Per-technique breaker state transitions (running totals)",
            ("technique", "state"),
        )
        for technique, breaker in self.breakers.items():
            for state, count in breaker.snapshot_transitions().items():
                transitions.set(count, technique=technique, state=state)

    def _plan_telemetry(
        self, entry: PlanCacheEntry, result: Result
    ) -> Dict[str, Any]:
        """Plan-shape and estimate-quality fields for the query log."""
        planned = result.plan
        if planned is None:
            return {}
        from repro.obs.tracer import iter_plan_nodes

        config = planned.env.config
        mis_estimates: List[Dict[str, Any]] = []
        folds: List[str] = []
        for node in iter_plan_nodes(planned.root):
            if isinstance(node, HashAggregate) and node.fold_ran is not None:
                folds.append(node.fold_ran)
            q_error = node.q_error()
            if q_error is not None:
                mis_estimates.append(
                    {
                        "operator": type(node).__name__,
                        "fingerprint": node.feedback_fingerprint,
                        "est": round(float(node.estimated_rows), 1),
                        "actual": node.actual_rows,
                        "loops": node.actual_loops or 1,
                        "q_error": round(q_error, 3),
                    }
                )
        mis_estimates.sort(key=lambda entry: -entry["q_error"])
        return {
            "plan_fingerprint": entry.fingerprint,
            "feedback_mode": config.feedback,
            "worst_q_errors": mis_estimates[:3],
            "aggregate_folds": folds,
        }

    def _after_execution(
        self,
        session: Session,
        sql: str,
        mask: FrozenSet[str],
        entry: PlanCacheEntry,
        result: Result,
        waited: float = 0.0,
        cache_hit: bool = False,
    ) -> None:
        # Governor feedback → admission load shedding.
        if result.governor is not None:
            self.admission.note_headroom(result.governor.headroom())
        # Degradation events → per-technique breakers.  Techniques that
        # ran clean this execution count as breaker successes (closing
        # half-open probes); techniques outside the mask are untouched.
        charged = set()
        for event in result.stats.degradations:
            technique = _breaker_for_degradation(event)
            if technique is not None and technique in mask:
                charged.add(technique)
        if charged:
            # A plan built under degradation carries the fallback shape
            # (and its degradation log) for life; drop it so the next
            # execution — possibly a half-open probe after the cause
            # cleared — re-optimizes instead of replaying the failure.
            self.plan_cache.discard(entry.sql, mask)
        for technique in mask:
            breaker = self.breakers[technique]
            if technique in charged:
                breaker.record_failure()
                self._registry.counter(
                    "repro_server_breaker_failures_total",
                    "Per-technique degradation events observed by breakers",
                    ("technique",),
                ).inc(technique=technique)
            else:
                breaker.record_success()
        if result.profile is not None:
            with session._lock:
                session.profiles.append(
                    (f"{session.session_id}:q{session.queries}", result.profile)
                )
        self.query_log.append(
            session=session.session_id,
            sql_fingerprint=stable_fingerprint(sql),
            technique_mask=sorted(mask),
            execution_mode=result.execution_mode,
            outcome="ok",
            plan_cache_hit=cache_hit,
            admission_wait_seconds=round(waited, 6),
            latency_seconds=round(result.elapsed_seconds, 6),
            rows=len(result.rows),
            rows_scanned=result.stats.rows_scanned,
            inner_evaluations=result.stats.inner_evaluations,
            inner_prefetch_discarded=result.stats.inner_prefetch_discarded,
            degradations=list(result.stats.degradations),
            breaker_states={
                technique: breaker.state
                for technique, breaker in self.breakers.items()
            },
            **self._plan_telemetry(entry, result),
        )
        self._sync_serve_metrics()
