"""Shared, version-validated plan cache for prepared statements.

Optimizing a statement is the expensive part of serving it — parsing,
the Appendix D technique loop, planning, verification.  The cache
stores one :class:`~repro.core.optimizer.OptimizedQuery` per
``(SQL, technique mask)`` pair, shared by every session of a server.

Staleness is handled with **version tokens**, not notification hooks:
the cache key's entry remembers ``Database.version_token()`` — a
``(catalog_version, data_version, stats_version)`` triple bumped by
DDL, inserts, and ANALYZE respectively — as of optimization time.
Every lookup re-reads the live token; a mismatch invalidates the entry
on the spot (lazy invalidation), so an insert or ANALYZE anywhere in
the database transparently forces a re-optimize on the next execution
without writers knowing the cache exists.

Each entry also carries an **execution lock**: the engine's plan
objects (NLJP operator state, shared-CTE materialization) are built
for one execution at a time, so sessions running the *same* cached
plan serialize on the entry while distinct plans run fully in
parallel.  The cross-query NLJP memo (see
:meth:`repro.core.nljp.NLJPOperator.enable_shared_cache`) lives under
this lock too, which is what makes sharing it safe.

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
from typing import Any, Dict, FrozenSet, Optional, Tuple

CacheKey = Tuple[str, FrozenSet[str]]


@dataclass
class PlanCacheEntry:
    """One cached optimized plan plus its validity token."""

    sql: str
    techniques: FrozenSet[str]
    token: Tuple[int, ...]
    optimized: Any
    #: Serializes executions of this specific plan instance.
    lock: threading.RLock = field(default_factory=threading.RLock)
    hits: int = 0  # guarded-by: PlanCache._lock


class PlanCache:
    """LRU map of ``(sql, techniques)`` → :class:`PlanCacheEntry`.

    Scan-resistant: see :meth:`store` for the never-hit allowance.
    """

    def __init__(
        self,
        max_entries: int = 64,
        lock_factory: Any = threading.RLock,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        #: How many entries may sit in the cache without ever having
        #: been hit.  A cached plan pins ~200 KB (NLJP memo, layouts,
        #: compiled expressions) and pays only if it is asked for
        #: again, so a stream of one-shot statements gets this much
        #: room and no more.
        self.never_hit_allowance = max(8, max_entries // 8)
        # Entry-lock factory: tests inject a wrapping factory (see
        # repro.testing.lockwatch) so every per-plan execution lock is
        # born instrumented — there is no store-then-wrap race window.
        self._lock_factory = lock_factory
        self._entries: "OrderedDict[CacheKey, PlanCacheEntry]" = OrderedDict()  # guarded-by: self._lock
        self._in_flight: Dict[CacheKey, threading.Event] = {}  # guarded-by: self._lock
        self._lock = threading.RLock()
        self.hits = 0  # guarded-by: self._lock
        self.misses = 0  # guarded-by: self._lock
        self.invalidations = 0  # guarded-by: self._lock
        self.evictions = 0  # guarded-by: self._lock
        self.flights = 0  # guarded-by: self._lock
        self.flight_waits = 0  # guarded-by: self._lock

    @staticmethod
    def key(sql: str, techniques: FrozenSet[str]) -> CacheKey:
        return (sql, techniques)

    def lookup(
        self, sql: str, techniques: FrozenSet[str], live_token: Tuple[int, ...]
    ) -> Optional[PlanCacheEntry]:
        """A valid cached entry, or ``None`` (miss or stale).

        A stale entry — its recorded token differs from ``live_token``
        — is dropped and counted as an invalidation *and* a miss: the
        caller re-optimizes and stores the fresh plan.
        """
        cache_key = self.key(sql, techniques)
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is None:
                self.misses += 1
                return None
            if entry.token != live_token:
                del self._entries[cache_key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(cache_key)
            self.hits += 1
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
    ) -> PlanCacheEntry:
        """Insert (or replace) the plan for this key, evicting on overflow.

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
            lock=self._lock_factory(),
        )
        with self._lock:
            self._entries[cache_key] = entry
            self._entries.move_to_end(cache_key)
            never_hit = [
                key for key, cached in self._entries.items() if cached.hits == 0
            ]
            for key in never_hit[: -self.never_hit_allowance]:
                del self._entries[key]
                self.evictions += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def discard(self, sql: str, techniques: FrozenSet[str]) -> bool:
        """Drop one entry if present (counted as an invalidation).

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

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "flights": self.flights,
                "flight_waits": self.flight_waits,
            }
