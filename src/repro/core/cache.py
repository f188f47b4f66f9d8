"""Binding-keyed caches: NLJP's memo/pruning cache and the trie-join cache.

Two operators in this engine cache *sub-binding outcomes*:

* :class:`NLJPCache` — the NLJP operator's cache (Section 5.1, Section
  6, Section 7).  It maps a *binding* (the tuple of 𝕁_L values) to the
  memoized inner-query results for that binding, plus an *unpromising*
  flag (Definition 5: Φ fails for every 𝔾_R-partition of the joining
  R-tuples).
* :class:`TrieCache` — the leapfrog trie join's cache-across-bindings
  (:mod:`repro.engine.wcoj`, after *Flexible Caching in Trie Joins*,
  Kalinsky et al.).  It maps the *projection* of a variable-binding
  prefix onto the variables the remaining relations still reference to
  the set of suffix assignments enumerated below that point — two
  prefixes that agree on the projection share one subtree.

Both are policies over the same mechanism, so both derive from
:class:`BudgetedBindingCache`: an OrderedDict of entries under a
re-entrant lock, with replacement policies ``"none"`` (unbounded),
``"lru"``, and ``"utility"`` (evict the entry with the fewest hits),
incremental ``bytes_used`` accounting, and the governor's
graceful-degradation contract (``evict_until`` under memory pressure,
``clear`` when eviction cannot satisfy the budget).  The governor's
``max_cache_bytes`` ceiling therefore charges and degrades trie-join
caching exactly like NLJP caching, and either cache can be pinned
across executions of a prepared statement (the PR 7
``cross_query_memo`` path).

The NLJP cache serves two distinct reads:

* **memoization** — exact-match lookup by binding (``get``), and
* **pruning** — search for an unpromising cached binding that
  subsumes/is subsumed by a new binding (``first_pruner``; for a window
  of bindings at once, on an array image of the same candidates in the
  same order, ``prunable``).

The paper implements the cache as a PostgreSQL table, optionally with
a primary-key index (the "CI" configuration of Figure 4).  Here the
exact-match path is a dict, and the pruning path either scans all
unpromising entries (no CI) or only the bucket agreeing on the
equality-constrained attributes of the derived subsumption predicate
(CI).  ``prune_checks`` counts candidate comparisons either way, so
benchmarks see the index's effect.

**Concurrency.**  The serving layer (:mod:`repro.serve`) keeps one
cache alive across the executions of a prepared statement and may be
asked for it from many sessions, so every structural operation happens
under an internal re-entrant lock and :meth:`NLJPCache.first_pruner`
holds it for its whole walk — which stops at the first hit, a
candidate or two on a warm cache — so an eviction racing the pruning
scan can never mutate a list mid-iteration.  Single-query executions pay one
uncontended lock acquisition per operation, which profiles as noise
next to the inner query evaluation each operation guards.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.layout import numpy_or_none

Binding = Tuple[Any, ...]

#: Payload rows: one per 𝔾_R group of the joining R-tuples, as
#: (group_values, aggregate_values).  Empty list = binding joins nothing.
PayloadRows = Tuple[Tuple[Binding, Tuple[Any, ...]], ...]

#: Replacement policies shared by every binding cache.
CACHE_POLICIES = ("none", "lru", "utility")


@dataclass(slots=True)
class CacheEntry:
    binding: Binding
    payload: PayloadRows
    unpromising: bool
    hits: int = 0  # guarded-by: BudgetedBindingCache._lock


def _order_key(item: Tuple[Any, int, CacheEntry]) -> Any:
    """Sort key of one ``NLJPCache._order`` item (for ``bisect``)."""
    return item[0]


def _identity_index(entries: List[CacheEntry], entry: CacheEntry) -> int:
    return next(i for i, candidate in enumerate(entries) if candidate is entry)


#: dtype of the array-image column a binding value of this exact type
#: can go in (``bool`` and every other type: none).
_ARRAY_KINDS = {int: "i8", float: "f8"}


def _value_bytes(value: Any) -> int:
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, str):
        return len(value)
    return 8


def entry_bytes(entry: CacheEntry) -> int:
    """Measured footprint of one NLJP cache entry.

    Charged like a PostgreSQL heap row (matching
    :meth:`repro.storage.table.Table.estimated_bytes`) so cache sizes
    are comparable with input-table sizes (Figure 3) — and so the
    governor's ``max_cache_bytes`` ceiling has meaningful units.
    """
    per_row_overhead = 24
    total = per_row_overhead
    total += sum(_value_bytes(v) for v in entry.binding)
    total += 1  # unpromising flag
    for group_values, aggregate_values in entry.payload:
        total += sum(_value_bytes(v) for v in group_values)
        for value in aggregate_values:
            if isinstance(value, tuple):  # algebraic partial state
                total += sum(_value_bytes(v) for v in value)
            else:
                total += _value_bytes(value)
    return total


class BudgetedBindingCache:
    """Shared policy layer for binding-keyed caches.

    Provides the OrderedDict entry map, the re-entrant lock, the
    ``lookups``/``hits``/``evictions`` counters, incremental
    ``bytes_used`` accounting, and the replacement policies.
    Subclasses implement :meth:`_entry_bytes` plus optional hooks for
    side structures (:meth:`_forget`, :meth:`_reset_side_structures`)
    and provide their own typed ``put``.

    This is the surface the governor's graceful degradation drives:
    when ``max_cache_bytes`` trips with ``degradation="fallback"`` the
    operator calls :meth:`evict_until` (never evicting the entry just
    inserted), and :meth:`clear` when eviction alone cannot satisfy the
    budget — identically for NLJP and trie-join caches.
    """

    def __init__(
        self, max_entries: Optional[int] = None, policy: str = "none"
    ) -> None:
        if policy not in CACHE_POLICIES:
            raise ValueError(f"unknown cache policy {policy!r}")
        if policy != "none" and max_entries is None:
            raise ValueError(f"policy {policy!r} requires max_entries")
        self.max_entries = max_entries
        self.policy = policy
        self._entries: "OrderedDict[Binding, Any]" = OrderedDict()  # guarded-by: self._lock
        self._lock = threading.RLock()
        self.lookups = 0  # guarded-by: self._lock
        self.hits = 0  # guarded-by: self._lock
        self.evictions = 0  # guarded-by: self._lock
        # Measured footprint, maintained incrementally on put/evict so
        # the governor can use it as a live ceiling input.
        self.bytes_used = 0  # guarded-by: self._lock

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _entry_bytes(self, entry: Any) -> int:
        raise NotImplementedError

    def _forget(self, binding: Binding, entry: Any) -> None:  # requires-lock: self._lock
        """Remove an evicted or replaced entry from subclass side structures."""

    def _reset_side_structures(self) -> None:  # requires-lock: self._lock
        """Drop subclass side structures on :meth:`clear`."""

    # ------------------------------------------------------------------
    def get(self, binding: Binding) -> Optional[Any]:
        """Memoization lookup; refreshes LRU order on hit."""
        with self._lock:
            self.lookups += 1
            entry = self._entries.get(binding)
            if entry is None:
                return None
            self.hits += 1
            entry.hits += 1
            if self.policy == "lru":
                self._entries.move_to_end(binding)
            return entry

    def missed(self, count: int) -> None:
        """Count ``count`` lookups the caller knows :meth:`get` would miss."""
        with self._lock:
            self.lookups += count

    def missing(self, bindings: Sequence[Binding]) -> List[Binding]:
        """The ``bindings`` :meth:`get` would miss as the cache stands,
        in order; nothing is counted or touched."""
        with self._lock:
            held = self._entries
            return [binding for binding in bindings if binding not in held]

    def _admit(self, binding: Binding, entry: Any) -> None:  # requires-lock: self._lock
        """Insert under the entry-count policy; caller holds the lock."""
        previous = self._entries.get(binding)
        if previous is None and self.max_entries is not None:
            while len(self._entries) >= self.max_entries:
                self._evict_one()
        elif previous is not None:
            self.bytes_used -= self._entry_bytes(previous)
            self._forget(binding, previous)
        self.bytes_used += self._entry_bytes(entry)
        self._entries[binding] = entry

    def _evict_one(self, keep: Optional[Any] = None) -> bool:  # requires-lock: self._lock
        """Evict one victim by policy; ``keep`` is never chosen.

        For policy ``"none"`` (no entry-count replacement configured)
        victims go in insertion order — the behaviour the governor
        relies on when it forces eviction under memory pressure.
        Returns False when no evictable entry exists.
        """
        candidates = (
            b for b in self._entries if keep is None or self._entries[b] is not keep
        )
        if self.policy == "utility":
            victim_binding = min(
                candidates, key=lambda b: self._entries[b].hits, default=None
            )
        else:  # lru or none: oldest first
            victim_binding = next(candidates, None)
        if victim_binding is None:
            return False
        victim = self._entries.pop(victim_binding)
        self.evictions += 1
        self.bytes_used -= self._entry_bytes(victim)
        self._forget(victim_binding, victim)
        return True

    def evict_until(
        self, max_bytes: int, keep: Optional[Any] = None
    ) -> int:
        """Evict by policy until ``bytes_used <= max_bytes``.

        Used by the governor's graceful-degradation path when the
        ``max_cache_bytes`` budget trips.  ``keep`` (typically the
        just-inserted entry) is never evicted.  Returns the number of
        entries evicted; if the budget still cannot be met (e.g. the
        kept entry alone exceeds it) the caller is expected to disable
        the cache entirely.
        """
        evicted = 0
        with self._lock:
            while self.bytes_used > max_bytes:
                if not self._evict_one(keep=keep):
                    break
                evicted += 1
        return evicted

    def clear(self) -> None:
        """Drop every entry (cache disabled under memory pressure)."""
        with self._lock:
            self._entries.clear()
            self._reset_side_structures()
            self.bytes_used = 0

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of cached bindings (the paper's Figure 3 row counts)."""
        with self._lock:
            return len(self._entries)

    def estimated_bytes(self) -> int:
        """Footprint charged like a PostgreSQL heap table.

        Matches :meth:`repro.storage.table.Table.estimated_bytes` so
        cache sizes are comparable with input-table sizes (Figure 3).
        Maintained incrementally on put/evict (see :func:`entry_bytes`),
        so this is O(1) and safe to consult per insertion.
        """
        with self._lock:
            return self.bytes_used

    def counters(self) -> Tuple[int, int, int]:
        """Consistent snapshot of ``(lookups, hits, evictions)``.

        The shared-cache path charges per-execution deltas against a
        baseline; reading the three counters individually could observe
        a concurrent execution between reads, so baselines and final
        readings both come from this locked snapshot.
        """
        with self._lock:
            return (self.lookups, self.hits, self.evictions)


class NLJPCache(BudgetedBindingCache):
    """Binding-keyed cache with optional equality-bucket index."""

    def __init__(
        self,
        equality_positions: Sequence[int] = (),
        use_index: bool = True,
        max_entries: Optional[int] = None,
        policy: str = "none",
        order_position: Optional[int] = None,
    ) -> None:
        super().__init__(max_entries=max_entries, policy=policy)
        self.equality_positions = tuple(equality_positions)
        self.use_index = use_index and bool(self.equality_positions)
        self.order_position = order_position if use_index else None
        self._unpromising_buckets: Dict[Binding, List[CacheEntry]] = {}  # guarded-by: self._lock
        self._unpromising_all: List[CacheEntry] = []  # guarded-by: self._lock
        # Unpromising entries sorted by binding[order_position]: a single
        # insort-maintained list of (key, seq, entry) tuples.  The
        # monotonic seq breaks ties between equal keys (preserving
        # insertion order) so tuple comparison never reaches the entry.
        self._order: List[Tuple[Any, int, CacheEntry]] = []  # guarded-by: self._lock
        self._order_seq = 0  # guarded-by: self._lock
        # The array image :meth:`prunable` tests a window of bindings
        # against, built at its first call (``_imaged``) and kept in
        # step by ``put``/``_forget`` from then on: one int64/float64
        # array per binding position holding the bindings of ``_order``
        # (with an order index) or of ``_unpromising_all`` (without), in
        # that list's order.  ``None`` = no exact image: not asked for,
        # NumPy missing, equality buckets, or an entry it cannot hold
        # (see ``_image_insert``) -- until the next ``clear()``.
        self._imaged = False  # guarded-by: self._lock
        self._image: Optional[List[Any]] = None  # guarded-by: self._lock
        self._image_types: Tuple[type, ...] = ()  # guarded-by: self._lock
        self._image_rows = 0  # guarded-by: self._lock
        # Moves whenever the pruning candidates change: a window decided
        # under one version is void under another.
        self._version = 0  # guarded-by: self._lock

    def _entry_bytes(self, entry: CacheEntry) -> int:
        return entry_bytes(entry)

    def _bucket_key(self, binding: Binding) -> Binding:
        return tuple(binding[position] for position in self.equality_positions)

    # ------------------------------------------------------------------
    def put(
        self, binding: Binding, payload: PayloadRows, unpromising: bool
    ) -> CacheEntry:
        entry = CacheEntry(binding=binding, payload=payload, unpromising=unpromising)
        with self._lock:
            self._admit(binding, entry)
            if unpromising:
                self._version += 1
                at: Optional[int] = len(self._unpromising_all)
                self._unpromising_all.append(entry)
                if self.use_index:
                    self._unpromising_buckets.setdefault(
                        self._bucket_key(binding), []
                    ).append(entry)
                if self.order_position is not None:
                    key = binding[self.order_position]
                    at = None
                    if key is not None:
                        self._order_seq += 1
                        item = (key, self._order_seq, entry)
                        at = bisect.bisect_right(self._order, item)
                        self._order.insert(at, item)
                self._image_insert(at, binding)
            return entry

    def _forget(self, victim_binding: Binding, victim: CacheEntry) -> None:  # requires-lock: self._lock
        if not victim.unpromising:
            return
        self._version += 1
        at: Optional[int] = _identity_index(self._unpromising_all, victim)
        del self._unpromising_all[at]
        if self.use_index:
            bucket = self._unpromising_buckets[self._bucket_key(victim_binding)]
            del bucket[_identity_index(bucket, victim)]
        if self.order_position is not None:
            at = None
            for position, (_, _, entry) in enumerate(self._order):
                if entry is victim:
                    del self._order[position]
                    at = position
                    break
        if self._image is not None and at is not None:
            rows = self._image_rows
            for column in self._image:
                column[at : rows - 1] = column[at + 1 : rows]
            self._image_rows = rows - 1

    def _reset_side_structures(self) -> None:  # requires-lock: self._lock
        self._unpromising_buckets.clear()
        self._unpromising_all.clear()
        self._order.clear()
        self._version += 1
        self._imaged, self._image = False, None

    def _image_insert(self, at: Optional[int], binding: Binding) -> None:  # requires-lock: self._lock
        """Mirror an insertion at ``at`` of the imaged list (``None``:
        the entry is not in it, its order key being NULL, and no
        binding with a key walks it).

        The image is given up for an entry whose array comparisons
        would not be Python's: a NULL or non-numeric attribute, an
        integer beside floats in one position (``2**53 + 1`` differs
        from every ``float64``) or outside ``int64``, a NaN (it has no
        place in a sorted order).
        """
        image = self._image
        if image is None or at is None:
            return
        types = tuple(map(type, binding))
        rows = self._image_rows
        if not image and set(types) <= _ARRAY_KINDS.keys():
            np = numpy_or_none()
            image.extend(np.empty(16, dtype=_ARRAY_KINDS[kind]) for kind in types)
            self._image_types = types
        if not image or types != self._image_types or (
            float in types and any(value != value for value in binding)
        ):
            self._image = None
            return
        if rows == len(image[0]):
            image[:] = [numpy_or_none().resize(column, 2 * rows) for column in image]
        try:
            for column, value in zip(image, binding):
                if at < rows:
                    column[at + 1 : rows + 1] = column[at:rows]
                column[at] = value
        except OverflowError:
            self._image = None
            return
        self._image_rows = rows + 1

    # ------------------------------------------------------------------
    def _candidates(
        self,
        binding: Binding,
        low: Optional[Any],
        high: Optional[Any],
        low_strict: bool,
        high_strict: bool,
    ) -> Iterator[CacheEntry]:  # requires-lock: self._lock
        """Unpromising entries that *could* subsume this binding, lazily.

        With the equality index, only the bucket matching the
        equality-constrained attributes is walked.  With an order
        index (``order_position``), ``low``/``high`` bound the
        candidate's value at that position and only the qualifying
        range is walked.  Otherwise all unpromising entries are
        candidates.  The caller holds the lock for the whole walk, so
        no eviction or insert can mutate a list mid-iteration.
        """
        if self.use_index:
            yield from self._unpromising_buckets.get(self._bucket_key(binding), ())
        elif self.order_position is not None and (
            low is not None or high is not None
        ):
            order = self._order
            start = 0
            stop = len(order)
            if low is not None:
                cut = bisect.bisect_right if low_strict else bisect.bisect_left
                start = cut(order, low, key=_order_key)
            if high is not None:
                cut = bisect.bisect_left if high_strict else bisect.bisect_right
                stop = cut(order, high, key=_order_key)
            for position in range(start, stop):
                yield order[position][2]
        else:
            yield from self._unpromising_all

    def prune_candidates(
        self,
        binding: Binding,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> Tuple[CacheEntry, ...]:
        """Every candidate of :meth:`first_pruner`'s walk, in its order.

        An immutable snapshot taken under the cache lock — the
        reference enumeration for tests and tools; the operator itself
        stops at the first hit and never builds it.
        """
        with self._lock:
            return tuple(
                self._candidates(binding, low, high, low_strict, high_strict)
            )

    def first_pruner(
        self,
        binding: Binding,
        should_prune: Callable[[Binding, Binding], bool],
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> Tuple[int, Optional[CacheEntry]]:
        """The pruning query Q_C: ``(checks, hit)``.

        Walks the candidates in order under the cache lock, applying
        ``should_prune(binding, candidate.binding)`` to each, and stops
        at the first entry that prunes ``binding`` (``hit``; ``None``
        when none does).  ``checks`` is the number of candidates tested
        — what the caller charges to ``prune_checks``.
        """
        checks = 0
        with self._lock:
            for entry in self._candidates(
                binding, low, high, low_strict, high_strict
            ):
                checks += 1
                if should_prune(binding, entry.binding):
                    return checks, entry
        return checks, None

    def version(self) -> int:
        """Moves whenever the pruning candidates change."""
        with self._lock:
            return self._version

    def prunable(
        self,
        bindings: Sequence[Binding],
        columns: Sequence[Any],
        memo: bool,
        test: Callable[[Sequence[Any], Sequence[Any]], Any],
        order_bound: Optional[Tuple[int, bool, bool]] = None,
    ) -> Optional[Tuple[int, Any, Any]]:
        """Q_C for a window of bindings at once: ``(version, pruned, checks)``.

        ``columns`` are the ``bindings`` as one int64/float64 array per
        position, ``test(new, cached)`` is ``should_prune`` over arrays,
        and ``order_bound`` = ``(position, is_low, strict)`` says which
        of :meth:`first_pruner`'s ``low``/``high`` a binding's value at
        the order index sets.  ``pruned[i]`` and ``checks[i]`` are what
        ``first_pruner`` returns for binding ``i`` against the cache as
        it stands — as long as :meth:`version` still reads ``version``;
        a binding ``get`` would hit (only looked at with ``memo``) is
        never pruned.  Nothing is counted or touched: the caller runs a
        binding that is not pruned through ``get``/``first_pruner``
        itself.  ``None`` when the candidates have no exact array image
        of the columns' dtypes, or there are none.
        """
        np = numpy_or_none()
        with self._lock:
            if not self._imaged:
                self._imaged = True
                self._image = None if self.use_index or np is None else []
                self._image_rows = 0
                walked = (
                    (item[2] for item in self._order)
                    if self.order_position is not None
                    else self._unpromising_all
                )
                for at, entry in enumerate(walked):
                    self._image_insert(at, entry.binding)
            rows = self._image_rows
            if not self._image or not rows:
                return None
            cached = [column[:rows] for column in self._image]
            indexed = None if order_bound is None else order_bound[0]
            if indexed != self.order_position or (
                [c.dtype for c in columns] != [c.dtype for c in cached]
            ):
                return None
            pruned = np.zeros(len(bindings), dtype=bool)
            checks = np.zeros(len(bindings), dtype=np.int64)
            if memo:
                held = np.fromiter(
                    map(self._entries.__contains__, bindings), bool, len(bindings)
                )
                todo = np.flatnonzero(~held)
                columns = [column[todo] for column in columns]
            else:
                todo = slice(None)
            start = np.zeros(len(columns[0]), dtype=np.int64)
            stop = np.full(len(start), rows)
            if order_bound is not None:
                position, is_low, strict = order_bound
                cut = np.searchsorted(
                    cached[position],
                    columns[position],
                    side="right" if strict == is_low else "left",
                )
                if is_low:
                    start = cut
                else:
                    stop = cut
            pruned[todo], checks[todo] = _first_hits(
                np, test, columns, cached, start, stop
            )
            return self._version, pruned, checks


#: Candidate tests one round of :func:`_first_hits` may evaluate at once
#: (an upper bound on its scratch memory, ~1 MB per operand).
_ROUND_TESTS = 1 << 16


def _first_hits(np, test, columns, cached, start, stop):
    """:meth:`NLJPCache.first_pruner`'s walk for many bindings at once.

    Binding ``i`` walks ``cached[start[i]:stop[i]]`` in order; returns
    ``(pruned, checks)`` arrays — a hit at range offset ``k`` charges
    ``k + 1`` checks, no hit the range length.  Every round tests the
    next few candidates of all unresolved bindings together, few at
    first (on a warm cache the first or second candidate prunes), so
    the work stays near the number of checks charged.
    """
    checks = stop - start
    pruned = np.zeros(len(start), dtype=bool)
    todo = np.flatnonzero(checks > 0)
    offset, width = 0, 4
    while len(todo):
        width = max(1, min(width, _ROUND_TESTS // len(todo)))
        at = (start[todo] + offset)[:, None] + np.arange(width)
        last = stop[todo, None] - 1
        hit = test(
            [column[todo, None] for column in columns],
            [column[np.minimum(at, last)] for column in cached],
        ) & (at <= last)
        found = hit.any(axis=1)
        pruned[todo[found]] = True
        checks[todo[found]] = offset + hit[found].argmax(axis=1) + 1
        offset += width
        todo = todo[~found & (checks[todo] > offset)]
        width *= 8
    return pruned, checks


# ----------------------------------------------------------------------
# Trie-join cache (Kalinsky et al., "Flexible Caching in Trie Joins")


@dataclass(slots=True)
class TrieEntry:
    """One cached subtree of the leapfrog enumeration.

    ``binding`` is the cache key: the enumeration level tagged with the
    values of the already-bound variables that the relations still
    active at or below that level reference.  ``payload`` is the tuple
    of suffix assignments (values of the remaining variables, in
    variable order) enumerated below the cache point — replaying them
    reproduces the subtree without touching the tries again.
    """

    binding: Binding
    payload: Tuple[Tuple[Any, ...], ...]
    hits: int = 0  # guarded-by: BudgetedBindingCache._lock


def trie_entry_bytes(entry: TrieEntry) -> int:
    """Footprint of one trie-cache entry, in :func:`entry_bytes` units."""
    per_row_overhead = 24
    total = per_row_overhead
    total += sum(_value_bytes(v) for v in entry.binding)
    for suffix in entry.payload:
        total += sum(_value_bytes(v) for v in suffix)
    return total


class TrieCache(BudgetedBindingCache):
    """Cache-across-bindings for the leapfrog trie join.

    Keys are *projected* binding prefixes (see :class:`TrieEntry`), so
    any two enumeration paths that agree on the variables the remaining
    relations reference share one cached subtree — the Kalinsky et al.
    observation that makes caching profitable on cycles longer than a
    triangle.  Policy, byte accounting, governor degradation, and
    cross-query pinning are inherited unchanged from
    :class:`BudgetedBindingCache`, i.e. identical to the NLJP cache.
    """

    def _entry_bytes(self, entry: TrieEntry) -> int:
        return trie_entry_bytes(entry)

    def put(
        self, binding: Binding, payload: Tuple[Tuple[Any, ...], ...]
    ) -> TrieEntry:
        entry = TrieEntry(binding=binding, payload=payload)
        with self._lock:
            self._admit(binding, entry)
            return entry
