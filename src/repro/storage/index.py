"""Secondary indexes over in-memory tables.

Two index kinds mirror what the paper's PostgreSQL setup used:

* :class:`HashIndex` — equality lookups (plays the role of a hash/PK
  index; used for equality join attributes and the NLJP cache's primary
  key, the "CI" configuration in Figure 4).
* :class:`SortedIndex` — range lookups over one or more columns (plays
  the role of the secondary B-tree "BT" index in Figure 4).  Backed by a
  sorted list with ``bisect``; supports >=, >, <=, < probes on a prefix
  of the key.

Indexes store *row ids* (positions in the owning table), so they stay
valid as long as the table is append-only, which is all the engine
needs; deletes rebuild indexes.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Key = Tuple[Any, ...]


class HashIndex:
    """Equality index mapping key tuples to lists of row ids.

    Rows whose key contains a NULL are not indexed: SQL equality can
    never match a NULL, so such rows can never satisfy an equality
    probe.
    """

    def __init__(self, name: str, column_positions: Sequence[int]) -> None:
        self.name = name
        self.column_positions = tuple(column_positions)
        self._buckets: Dict[Key, List[int]] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    @property
    def distinct_keys(self) -> int:
        return len(self._buckets)

    def key_of(self, row: Sequence[Any]) -> Key:
        return tuple(row[position] for position in self.column_positions)

    def insert(self, row_id: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        if any(value is None for value in key):
            return
        self._buckets.setdefault(key, []).append(row_id)

    def lookup(self, key: Key) -> Sequence[int]:
        """Row ids whose key equals ``key``; empty for NULL-containing keys."""
        if any(value is None for value in key):
            return ()
        return tuple(self._buckets.get(key, ()))

    def clear(self) -> None:
        self._buckets.clear()


class SortedIndex:
    """Ordered index over one or more columns, supporting range probes.

    The index keeps ``(key, row_id)`` pairs sorted by key.  ``range_scan``
    returns row ids whose *first* key column lies in ``[low, high]``
    (either bound optional, either bound strict); multi-column keys are
    supported for ordering but range probes bound only the leading
    column, matching how a B-tree on ``(h, hr)`` is used by the queries
    in the paper.
    """

    def __init__(self, name: str, column_positions: Sequence[int]) -> None:
        self.name = name
        self.column_positions = tuple(column_positions)
        # Replaced whole by a fold, never changed in place: a reader
        # holds one consistent list.
        self._keys: List[Key] = []  # unguarded: replaced whole under the lock, read as one list object
        self._row_ids: List[int] = []  # unguarded: replaced whole under the lock, read as one list object
        # A writer buffers into ``_pending`` while readers fold it in:
        # the lock keeps a fold from dropping a row buffered meanwhile.
        self._pending: List[Tuple[Key, int]] = []  # guarded-by: self._lock
        self._lock = threading.Lock()
        # (the ``_row_ids`` list it was built from, the array).
        self._row_id_array: Any = None  # unguarded: a pair checked against ``_row_ids`` by identity

    def __len__(self) -> int:
        self._flush()
        return len(self._row_ids)

    def key_of(self, row: Sequence[Any]) -> Key:
        return tuple(row[position] for position in self.column_positions)

    def insert(self, row_id: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        if any(value is None for value in key):
            return
        with self._lock:
            self._pending.append((key, row_id))

    def _flush(self) -> None:
        """Fold buffered inserts into the sorted arrays.

        Buffering makes bulk loads O(n log n) overall instead of
        O(n^2) from repeated mid-list insertion.
        """
        if not self._pending:  # unguarded: a racing insert is folded by the next flush
            return
        with self._lock:
            merged = sorted(list(zip(self._keys, self._row_ids)) + self._pending)
            self._keys = [key for key, _ in merged]
            self._row_ids = [row_id for _, row_id in merged]
            self._pending.clear()

    def range_bounds(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> Tuple[int, int]:
        """The ``[start, stop)`` index-order positions matching the bounds.

        The positions returned enumerate exactly the row ids
        :meth:`range_scan` would yield, in the same order — columnar
        range joins slice the index-ordered store with them instead of
        iterating row by row.
        """
        self._flush()
        if low is None:
            start = 0
        elif low_strict:
            start = bisect.bisect_right(self._keys, (low,), key=lambda k: k[:1])
        else:
            start = bisect.bisect_left(self._keys, (low,), key=lambda k: k[:1])
        if high is None:
            stop = len(self._keys)
        elif high_strict:
            stop = bisect.bisect_left(self._keys, (high,), key=lambda k: k[:1])
        else:
            stop = bisect.bisect_right(self._keys, (high,), key=lambda k: k[:1])
        return start, max(start, stop)

    def row_id_array(self) -> Any:
        """Row ids in index order, as an ``int64`` ndarray (columnar
        readers only: they run where NumPy imports).  Cached until the
        next flush."""
        import numpy

        self._flush()
        row_ids = self._row_ids
        cached = self._row_id_array
        if cached is None or cached[0] is not row_ids:
            cached = (row_ids, numpy.asarray(row_ids, dtype=numpy.int64))
            self._row_id_array = cached
        return cached[1]

    def range_scan(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> Iterator[int]:
        """Yield row ids whose leading key column is within the bounds."""
        self._flush()
        if low is None:
            start = 0
        elif low_strict:
            start = bisect.bisect_right(self._keys, (low,), key=lambda k: k[:1])
        else:
            start = bisect.bisect_left(self._keys, (low,), key=lambda k: k[:1])
        if high is None:
            stop = len(self._keys)
        elif high_strict:
            stop = bisect.bisect_left(self._keys, (high,), key=lambda k: k[:1])
        else:
            stop = bisect.bisect_right(self._keys, (high,), key=lambda k: k[:1])
        for position in range(start, stop):
            yield self._row_ids[position]

    def lookup(self, key: Key) -> Sequence[int]:
        """Row ids whose full key equals ``key`` (equality probe)."""
        self._flush()
        if any(value is None for value in key):
            return ()
        start = bisect.bisect_left(self._keys, key)
        result = []
        for position in range(start, len(self._keys)):
            if self._keys[position] != key:
                break
            result.append(self._row_ids[position])
        return tuple(result)

    def clear(self) -> None:
        with self._lock:
            self._keys = []
            self._row_ids = []
            self._pending.clear()


def build_index(
    kind: str, name: str, column_positions: Sequence[int], rows: Iterable[Sequence[Any]]
) -> "HashIndex | SortedIndex":
    """Construct and bulk-load an index of the requested ``kind``."""
    if kind == "hash":
        index: HashIndex | SortedIndex = HashIndex(name, column_positions)
    elif kind == "sorted":
        index = SortedIndex(name, column_positions)
    else:
        raise ValueError(f"unknown index kind {kind!r}")
    for row_id, row in enumerate(rows):
        index.insert(row_id, row)
    return index
