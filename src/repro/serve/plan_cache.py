"""Shared, version-validated plan cache for statement templates.

Optimizing a statement is the expensive part of serving it — parsing,
the Appendix D technique loop, planning, verification.  The cache
stores :class:`~repro.core.optimizer.OptimizedQuery` objects per
``(template, technique mask)`` pair, shared by every session of a
server.  The template is the statement with its HAVING thresholds
lifted into parameters (:mod:`repro.serve.templates`), so the
statements of a threshold sweep share one key.  Hits and misses are
still counted by statement text (:meth:`PlanCache.stats`).

**Guards.**  A plan is built at the values its first statement binds,
and the one decision those values can sway (is an a-priori reducer
trivial?) is recorded on it as guards
(:class:`~repro.core.optimizer.PlanGuard`).  A lookup serves a plan
only to values its guards decide the same way; other values miss and
plan a second entry under the same key.  Reducers never change rows
(Theorem 2), so the guards keep every statement on the plan its own
values would get, not merely on a correct one.

Plan staleness is handled with **version tokens**, not notification
hooks: the cache key's entry remembers ``Database.version_token()`` — a
``(catalog_version, data_version, stats_version)`` triple bumped by
DDL, inserts, and ANALYZE respectively — as of optimization time.
Every lookup re-reads the live token; a mismatch invalidates the entry
on the spot (lazy invalidation), so an insert or ANALYZE anywhere in
the database transparently forces a re-optimize on the next execution
without writers knowing the cache exists.

Each entry also carries an **execution lock**: the engine's plan
objects (NLJP operator state, its prune view, shared-CTE
materialization) are built for one execution at a time, so sessions
running the *same* cached plan serialize on the entry while distinct
plans run fully in parallel.

**The NLJP memo lives beside the plans, not in them.**  A payload (a
binding's inner aggregates, Appendix C) depends on what Q_R computes,
never on the HAVING threshold, so :class:`MemoStore` keeps one
:class:`~repro.core.cache.PayloadStore` per *meaning* of a payload:
the rendered Q_R with the bodies of the CTEs it reads, the values of
the statement parameters those read, the cache settings and the
technique mask.  Every plan with that meaning reads and fills the same
slot; each plan keeps its own prune views, one per set of Φ's parameter
values it ran with, which decide its Φ on the payloads
(:mod:`repro.core.cache`).  A slot is not keyed on the database version:
its store records which version of each table its payloads read and is
caught up by the execution that finds it behind, under the slot's lock
(:meth:`repro.core.nljp.NLJPOperator.catch_up`) -- rows appended to
the one table Q_R reads are folded into the payloads, any other change
to a table they read empties the store, and a write to any other table
or an ANALYZE leaves it as it is.  Slots are evicted
like plans, with their own never-hit allowance: a slot is hit whenever
an execution finds it, by any plan, so one-shot meanings cycle through
a small share of the ``max_entries`` slots while the slot of a hot plan,
or of a sweep whose every plan is one-shot, stays.  A plan keeps no
store alive past its execution (its view holds the store weakly), so
the slots bound the payloads held -- apart from the unpromising entries
a plan's view keeps until the plan runs again or leaves the cache.
Executions sharing a slot serialize on the slot's lock.  **Lock order:
entry → slot.**  The slot lock is always taken while the plan-entry
lock is held, never the other way round, and :attr:`MemoStore._lock`
only for a lookup under either.

**Scan resistance.**  A cache pays only for entries that are asked for
again (the admission question of Kalinsky et al.'s *Flexible Caching
in Trie Joins*), and an ad hoc client asks for none of its statements
twice.  :meth:`PlanCache.store` therefore lets only a small share of
the cache — the *never-hit allowance* — hold entries that have not yet
been hit, evicting the oldest of those before it touches a plan that
has repeated.

**Single-flight optimization.**  Concurrent first-touch misses on the
same key used to race: every session optimized the statement and the
last store won.  :meth:`PlanCache.claim` now hands exactly one caller
(the *leader*) the build for a key; the others receive the leader's
in-flight latch, wait on it, and re-run :meth:`PlanCache.lookup` once
the leader calls :meth:`PlanCache.release` — so N concurrent misses
cost one optimization, not N.  A leader that fails must still release
(callers use ``try/finally``); waiters then re-claim, so a crashed
build never wedges the key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

CacheKey = Tuple[str, FrozenSet[str]]


@dataclass
class PlanCacheEntry:
    """One cached optimized plan plus its validity token."""

    #: The template the plan was optimized from.
    sql: str
    techniques: FrozenSet[str]
    token: Tuple[int, ...]
    optimized: Any
    #: ``stable_fingerprint`` of the plan's ``explain()``, taken once
    #: when the plan is built, before any execution adds runtime lines.
    fingerprint: str = ""
    #: Serializes executions of this specific plan instance.
    lock: threading.RLock = field(default_factory=threading.RLock)
    hits: int = 0  # guarded-by: PlanCache._lock
    #: The plan's NLJP payload meaning and the statement parameters it
    #: reads (:meth:`repro.core.nljp.NLJPOperator.memo_meaning`), which
    #: pick its :class:`MemoSlot`; ``None``, the plan shares no memo.
    memo: Optional[Tuple[Any, Tuple[str, ...]]] = None
    #: The plan's guards: it serves the values every one of them holds at.
    guards: Tuple[Any, ...] = ()

    def serves(self, params: Optional[Dict[str, Any]]) -> bool:
        return all(guard.holds(params or {}) for guard in self.guards)


class TemplatePlans:
    """The plans cached under one key, one per way their guards decide
    (almost always one), and the hits any of them took."""

    __slots__ = ("plans", "hits")

    def __init__(self) -> None:
        self.plans: List[PlanCacheEntry] = []  # guarded-by: PlanCache._lock
        self.hits = 0  # guarded-by: PlanCache._lock

    def serving(self, params: Optional[Dict[str, Any]]) -> Optional[PlanCacheEntry]:  # requires-lock: PlanCache._lock
        """The plan whose guards hold at ``params``, if one is cached."""
        for entry in self.plans:
            if entry.serves(params):
                return entry
        return None


class PlanCache:
    """LRU map of ``(template, techniques)`` → :class:`TemplatePlans`.

    Scan-resistant: see :meth:`store` for the never-hit allowance.
    """

    def __init__(
        self,
        max_entries: int = 64,
        lock_factory: Any = threading.RLock,
    ) -> None:
        self.max_entries = max_entries
        #: How many entries may sit in the cache without ever having
        #: been hit.  A cached plan pins its layouts, compiled
        #: expressions and NLJP prune view (the payloads are the memo
        #: slots', see :class:`MemoStore`) and pays only if it is asked
        #: for again, so a stream of one-shot statements gets this much
        #: room and no more.
        self.never_hit_allowance = _never_hit_allowance(max_entries)
        # Entry-lock factory: tests inject a wrapping factory (see
        # repro.testing.lockwatch) so every per-plan execution lock is
        # born instrumented — there is no store-then-wrap race window.
        self._lock_factory = lock_factory
        self._entries: "OrderedDict[CacheKey, TemplatePlans]" = OrderedDict()  # guarded-by: self._lock
        self._in_flight: Dict[CacheKey, threading.Event] = {}  # guarded-by: self._lock
        self._lock = threading.RLock()
        self.hits = 0  # guarded-by: self._lock
        self.misses = 0  # guarded-by: self._lock
        self.template_hits = 0  # guarded-by: self._lock
        self.invalidations = 0  # guarded-by: self._lock
        self.evictions = 0  # guarded-by: self._lock
        self.flights = 0  # guarded-by: self._lock
        self.flight_waits = 0  # guarded-by: self._lock

    @staticmethod
    def key(sql: str, techniques: FrozenSet[str]) -> CacheKey:
        return (sql, techniques)

    def lookup(
        self,
        sql: str,
        techniques: FrozenSet[str],
        live_token: Tuple[int, ...],
        params: Optional[Dict[str, Any]] = None,
        new_text: bool = False,
    ) -> Optional[PlanCacheEntry]:
        """A valid cached entry serving ``params``, or ``None`` (miss,
        stale, or no plan whose guards hold there).

        ``new_text`` says the statement's text has not been served
        before: a plan found for it counts as a miss and a template hit
        (see :meth:`stats`).

        A stale key — its plans' recorded token differs from
        ``live_token`` — is dropped and counted as an invalidation
        *and* a miss: the caller re-optimizes and stores the fresh plan.
        """
        cache_key = self.key(sql, techniques)
        with self._lock:
            plans = self._entries.get(cache_key)
            if plans is None:
                self.misses += 1
                return None
            if plans.plans[0].token != live_token:
                del self._entries[cache_key]
                self.invalidations += 1
                self.misses += 1
                return None
            entry = plans.serving(params)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(cache_key)
            if new_text:
                self.misses += 1
                self.template_hits += 1
            else:
                self.hits += 1
            plans.hits += 1
            entry.hits += 1
            return entry

    def claim(
        self, sql: str, techniques: FrozenSet[str]
    ) -> Tuple[bool, threading.Event]:
        """Claim the (single-flight) build for a missed key.

        Returns ``(leader, latch)``.  The leader (``True``) must
        optimize, :meth:`store`, and then :meth:`release` — in a
        ``finally``, so a failed build frees the key.  Followers
        (``False``) wait on the latch and re-run :meth:`lookup`; a
        still-missing entry (leader failed, or the token moved) means
        they claim again.
        """
        cache_key = self.key(sql, techniques)
        with self._lock:
            latch = self._in_flight.get(cache_key)
            if latch is None:
                latch = threading.Event()
                self._in_flight[cache_key] = latch
                self.flights += 1
                return True, latch
            self.flight_waits += 1
            return False, latch

    def release(self, sql: str, techniques: FrozenSet[str]) -> None:
        """End the in-flight build for a key, waking every waiter."""
        cache_key = self.key(sql, techniques)
        with self._lock:
            latch = self._in_flight.pop(cache_key, None)
        if latch is not None:
            latch.set()

    def store(
        self,
        sql: str,
        techniques: FrozenSet[str],
        token: Tuple[int, ...],
        optimized: Any,
        fingerprint: str = "",
        memo: Optional[Tuple[Any, Tuple[str, ...]]] = None,
        guards: Tuple[Any, ...] = (),
    ) -> PlanCacheEntry:
        """Add the plan for this key and its guards, evicting on overflow.

        It joins the key's other plans when they hold the same token
        and decide other guards, and replaces them otherwise.

        Never-hit entries beyond the allowance go first, oldest first;
        then plain LRU.  Ad hoc statements therefore cycle through a
        small probation share of the cache and cannot flush plans that
        have proven they repeat.  A cache of at most eight entries is
        all allowance and behaves as plain LRU.

        With :meth:`claim`/:meth:`release` only one builder stores per
        in-flight window; if callers bypass single-flight, last store
        wins — both plans are equally valid for the token, so losing
        the race only costs the duplicated optimization work.
        """
        cache_key = self.key(sql, techniques)
        entry = PlanCacheEntry(
            sql=sql,
            techniques=techniques,
            token=token,
            optimized=optimized,
            fingerprint=fingerprint,
            lock=self._lock_factory(),
            memo=memo,
            guards=tuple(guards),
        )
        with self._lock:
            plans = self._entries.get(cache_key)
            if plans is None:
                plans = self._entries[cache_key] = TemplatePlans()
            plans.plans = [
                other
                for other in plans.plans
                if other.token == token and other.guards != entry.guards
            ] + [entry]
            self._entries.move_to_end(cache_key)
            self.evictions += _evict(
                self._entries, self.never_hit_allowance, self.max_entries
            )
        return entry

    def discard(self, sql: str, techniques: FrozenSet[str]) -> bool:
        """Drop a key and every plan under it, if present (counted as an
        invalidation).

        The server uses this when an execution of the cached plan
        reported technique degradation: the plan was built under a
        failure and must not keep serving (and keep charging the
        breaker) after the underlying cause clears.
        """
        cache_key = self.key(sql, techniques)
        with self._lock:
            if cache_key in self._entries:
                del self._entries[cache_key]
                self.invalidations += 1
                return True
            return False

    def invalidate_all(self) -> int:
        """Drop every entry (explicit flush); returns how many dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def plans(self) -> List[PlanCacheEntry]:
        """Every cached plan, least recently used key first."""
        with self._lock:
            return [entry for plans in self._entries.values() for entry in plans.plans]

    def stats(self) -> Dict[str, int]:
        """Counters since the cache was made.

        ``hits`` and ``misses`` count lookups by statement text: a hit
        is a text served before whose plan is still cached, and every
        other lookup is a miss.  ``template_hits`` counts the misses a
        plan cached for the text's template served, unoptimized; the
        other misses built a plan (or waited for one).  So the first
        execution of a statement is always a miss, and a threshold
        sweep reads misses and template hits, not hits.  (The query
        log's ``plan_cache_hit`` is true for a template hit too: no
        plan was built.)
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "template_hits": self.template_hits,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "flights": self.flights,
                "flight_waits": self.flight_waits,
            }


@dataclass
class MemoSlot:
    """One meaning of an NLJP payload: the store every plan with that
    meaning reads, fills and keeps exact on the data."""

    store: Any
    #: Serializes the executions that share the store; always taken
    #: after the plan-entry lock.
    lock: threading.RLock = field(default_factory=threading.RLock)
    hits: int = 0  # guarded-by: MemoStore._lock


class MemoStore:
    """Map of payload meaning → :class:`MemoSlot` (see the module
    docstring): the server-level NLJP memo, evicted like the plans."""

    def __init__(self, max_entries: int = 64) -> None:
        self.max_entries = max_entries
        self.never_hit_allowance = _never_hit_allowance(max_entries)
        self._slots: "OrderedDict[Hashable, MemoSlot]" = OrderedDict()  # guarded-by: self._lock
        self._lock = threading.RLock()
        # Slot-lock factory: repro.testing.lockwatch swaps in a watched
        # one, like PlanCache's entry locks.
        self._lock_factory = threading.RLock

    def slot(self, key: Hashable, new_store: Callable[[], Any]) -> MemoSlot:
        """The slot for ``key``; a new one holds an empty store
        (``new_store()``) and has not been hit yet."""
        with self._lock:
            slot = self._slots.get(key)
            if slot is not None:
                slot.hits += 1
                self._slots.move_to_end(key)
                return slot
            slot = MemoSlot(new_store(), self._lock_factory())
            self._slots[key] = slot
            self._slots.move_to_end(key)
            _evict(self._slots, self.never_hit_allowance, self.max_entries)
            return slot

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)


def _never_hit_allowance(max_entries: int) -> int:
    if max_entries < 1:
        raise ValueError(f"max_entries must be >= 1, got {max_entries}")
    return max(8, max_entries // 8)


def _evict(entries: "OrderedDict[Any, Any]", allowance: int, max_entries: int) -> int:
    """Scan-resistant eviction after an insertion (see
    :meth:`PlanCache.store`): never-hit entries beyond ``allowance``
    first, oldest first, then plain LRU down to ``max_entries``.
    Returns how many were evicted."""
    never_hit = [key for key, cached in entries.items() if cached.hits == 0]
    evicted = 0
    for key in never_hit[:-allowance]:
        del entries[key]
        evicted += 1
    while len(entries) > max_entries:
        entries.popitem(last=False)
        evicted += 1
    return evicted
