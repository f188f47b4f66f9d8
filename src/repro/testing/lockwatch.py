"""Runtime lock-order watchdog: the dynamic oracle for ISSUE 9.

The static pass (:mod:`repro.analysis.concurrency`) extracts a lock
*acquisition-order* graph by reading code; it is deliberately
under-approximate (unresolvable calls add no edges) and coarse (one
node per lock *declaration*).  This module is the complement: wrap the
named locks of a live server, record every witnessed acquisition order
at runtime, and fail the moment two locks are ever taken in both
orders — the classic ABBA deadlock precondition, caught even when the
interleaving that would actually deadlock never happens in the run.

Usage in tests::

    watchdog = LockOrderWatchdog()
    server = IcebergServer(db)
    watch_server(server, watchdog)
    ... run the 8-thread soak ...
    watchdog.assert_no_inversions()

Witnessed-order semantics:

* Acquiring ``B`` while holding ``A`` records the edge ``A -> B``.
* An acquisition whose new edge closes a cycle in the witnessed graph
  is an **inversion**; it is recorded (and raised immediately when
  ``strict=True``).
* Re-acquiring the *same instance* is reentrancy, not ordering — no
  edge.  Nesting two *different instances of the same declaration*
  (same name) is reported: no global order is defined between them,
  so both orders are one interleaving away.
* ``Condition.wait`` releases the underlying lock for the duration of
  the wait: the watchdog pops the condition from the thread's held
  stack and re-pushes it when the wait returns, so a slot-holder
  sleeping in ``AdmissionController.acquire`` does not poison every
  lock other threads touch meanwhile.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple


class LockOrderError(AssertionError):
    """A witnessed lock-order inversion (potential ABBA deadlock)."""


class WatchedLock:
    """Proxy around a Lock/RLock/Condition that reports to a watchdog.

    Implements the full context-manager + Condition surface so it can
    stand in for any ``threading`` lock the serving layer uses.
    """

    def __init__(self, watchdog: "LockOrderWatchdog", inner: Any, name: str) -> None:
        self._watchdog = watchdog
        self._inner = inner
        self.name = name

    # -- lock surface ---------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watchdog._note_acquire(self)
        return acquired

    def release(self) -> None:
        self._watchdog._note_release(self)
        self._inner.release()

    def __enter__(self) -> "WatchedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.release()
        return False

    def locked(self) -> bool:
        inner_locked = getattr(self._inner, "locked", None)
        return bool(inner_locked()) if callable(inner_locked) else False

    # -- condition surface ------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        # Condition.wait releases the lock while sleeping; mirror that
        # in the held stack so waiting threads don't accumulate edges.
        self._watchdog._note_release(self)
        try:
            return self._inner.wait(timeout)
        finally:
            self._watchdog._note_acquire(self)

    def wait_for(
        self, predicate: Callable[[], bool], timeout: Optional[float] = None
    ) -> bool:
        self._watchdog._note_release(self)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._watchdog._note_acquire(self)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()

    def __repr__(self) -> str:
        return f"WatchedLock({self.name!r})"


class LockOrderWatchdog:
    """Records witnessed lock-acquisition orders; flags inversions.

    Thread-safe; one watchdog instance observes any number of locks
    across any number of threads.  ``strict=True`` raises
    :class:`LockOrderError` at the offending acquisition (pinpointing
    the stack); the default collects into :attr:`inversions` so a soak
    can finish and assert emptiness.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._mutex = threading.Lock()
        #: (held, acquired) -> description of the first witness.
        self._edges: Dict[Tuple[str, str], str] = {}  # guarded-by: self._mutex
        self._tls = threading.local()
        self.inversions: List[str] = []  # guarded-by: self._mutex
        self.acquisitions = 0  # guarded-by: self._mutex

    # -- wrapping ---------------------------------------------------------
    def wrap(self, inner: Any, name: str) -> WatchedLock:
        """A watched proxy for ``inner``; idempotent on re-wrap."""
        if isinstance(inner, WatchedLock):
            return inner
        return WatchedLock(self, inner, name)

    def wrap_attr(self, obj: Any, attr: str, name: str) -> WatchedLock:
        """Replace ``obj.<attr>`` with a watched proxy, in place."""
        wrapped = self.wrap(getattr(obj, attr), name)
        setattr(obj, attr, wrapped)
        return wrapped

    def lock_factory(
        self, name: str, inner_factory: Callable[[], Any] = threading.RLock
    ) -> Callable[[], WatchedLock]:
        """A factory producing watched locks that all share ``name``.

        Matches the static checker's per-declaration coarsening: every
        ``PlanCacheEntry.lock`` is one graph node.  Inject into
        ``PlanCache(lock_factory=...)`` so entry locks are born watched
        — there is no store-then-wrap race window.
        """

        def make() -> WatchedLock:
            return self.wrap(inner_factory(), name)

        return make

    # -- bookkeeping --------------------------------------------------------
    def _stack(self) -> List[Tuple[str, int]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _note_acquire(self, lock: WatchedLock) -> None:
        stack = self._stack()
        held_names = [
            name for name, instance in stack if instance != id(lock)
        ]
        stack.append((lock.name, id(lock)))
        with self._mutex:
            self.acquisitions += 1
            thread = threading.current_thread().name
            for held in held_names:
                key = (held, lock.name)
                if key in self._edges:
                    continue
                if held == lock.name:
                    self._record_inversion(
                        f"two instances of {lock.name!r} nested on thread "
                        f"{thread!r}: no global order is defined between "
                        f"locks of one declaration"
                    )
                elif self._has_path(lock.name, held):
                    self._record_inversion(
                        f"acquired {lock.name!r} while holding {held!r} on "
                        f"thread {thread!r}, but the order "
                        f"{lock.name!r} -> {held!r} was already witnessed "
                        f"({self._edges.get((lock.name, held), 'via a chain')})"
                    )
                self._edges[key] = f"thread {thread!r}"

    def _note_release(self, lock: WatchedLock) -> None:
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position][1] == id(lock):
                del stack[position]
                return

    def _record_inversion(self, message: str) -> None:  # requires-lock: self._mutex
        self.inversions.append(message)
        if self.strict:
            raise LockOrderError(message)

    def _has_path(self, src: str, dst: str) -> bool:  # requires-lock: self._mutex
        """Is ``dst`` reachable from ``src`` in the witnessed graph?"""
        seen = {src}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            for held, acquired in self._edges:
                if held == node and acquired not in seen:
                    seen.add(acquired)
                    frontier.append(acquired)
        return False

    # -- reporting ------------------------------------------------------
    def witnessed_edges(self) -> Dict[Tuple[str, str], str]:
        with self._mutex:
            return dict(self._edges)

    def assert_no_inversions(self) -> None:
        with self._mutex:
            if self.inversions:
                raise LockOrderError(
                    f"{len(self.inversions)} lock-order inversion(s):\n  "
                    + "\n  ".join(self.inversions)
                )


def watch_registry(
    registry: Any,
    watchdog: LockOrderWatchdog,
    name: str = "MetricsRegistry._lock",
) -> WatchedLock:
    """Instrument a metrics registry's shared lock.

    Metrics alias the registry lock at registration time, so metrics
    that already exist are re-aliased to the proxy here; metrics
    registered afterwards pick it up naturally.  Returns the proxy —
    ``proxy._inner`` is the original lock, should a test need to
    restore a shared (module-global) registry afterwards.
    """
    shared = watchdog.wrap_attr(registry, "_lock", name)
    for metric in registry._metrics.values():
        metric._lock = shared
    return shared


def unwatch_registry(registry: Any) -> None:
    """Undo :func:`watch_registry` (for module-global registries)."""
    shared = registry._lock
    if not isinstance(shared, WatchedLock):
        return
    registry._lock = shared._inner
    for metric in registry._metrics.values():
        if metric._lock is shared:
            metric._lock = shared._inner


def watch_server(server: Any, watchdog: LockOrderWatchdog) -> LockOrderWatchdog:
    """Instrument every serving-layer lock of an ``IcebergServer``.

    Names mirror the static checker's identities so a watchdog report
    reads against the same graph the analyzer prints.  Plan-cache
    *entry* locks and NLJP memo *slot* locks are covered through the
    injected factories: entries and slots made after this call are born
    watched.
    """
    plan_cache = server.plan_cache
    watchdog.wrap_attr(plan_cache, "_lock", "PlanCache._lock")
    plan_cache._lock_factory = watchdog.lock_factory("PlanCacheEntry.lock")
    watchdog.wrap_attr(server.memo, "_lock", "MemoStore._lock")
    server.memo._lock_factory = watchdog.lock_factory("MemoSlot.lock")
    watchdog.wrap_attr(
        server.admission, "_condition", "AdmissionController._condition"
    )
    for breaker in server.breakers.values():
        watchdog.wrap_attr(breaker, "_lock", "CircuitBreaker._lock")
    watchdog.wrap_attr(server, "_engines_lock", "IcebergServer._engines_lock")
    watchdog.wrap_attr(server, "_sessions_lock", "IcebergServer._sessions_lock")
    watch_registry(server._registry, watchdog)
    return watchdog


def watch_session(session: Any, watchdog: LockOrderWatchdog) -> LockOrderWatchdog:
    """Instrument one session's lock (sessions are created per client)."""
    watchdog.wrap_attr(session, "_lock", "Session._lock")
    return watchdog
