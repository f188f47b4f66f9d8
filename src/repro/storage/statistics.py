"""Table/column statistics: the ANALYZE subsystem.

The paper's Appendix D optimization procedure presumes the system can
*compare the cost* of technique/plan combinations.  This module supplies
the raw material: per-table row counts and per-column statistics —
distinct counts (exact below a threshold, a KMV sketch above it),
min/max, null fraction, and an equi-width histogram — collected by
:func:`analyze` and kept incrementally fresh on insert.

The estimators built on top live in :mod:`repro.engine.cardinality`
(selectivity) and :mod:`repro.engine.cost` (calibrated unit costs).
ANALYZE is the only source: a table never analyzed has no statistics,
and observed actual rows are reported, never stored or fed back.

Everything here is deterministic: the sketch hashes values with BLAKE2b
rather than Python's per-process-salted ``hash``, so two runs over the
same data produce identical estimates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Above this many *distinct* values a column's exact value set is
#: converted into a KMV sketch (bounded memory, bounded relative error).
EXACT_DISTINCT_THRESHOLD = 4096

#: Number of minimum hashes retained by the KMV sketch.
KMV_SIZE = 256

#: Default bucket count for equi-width histograms.
HISTOGRAM_BUCKETS = 32

_HASH_SPACE = float(2**64)


def stable_hash64(value: Any) -> int:
    """A 64-bit hash that is stable across processes and runs.

    Python's builtin ``hash`` is salted per process for strings, which
    would make distinct-count estimates non-reproducible; BLAKE2b of the
    value's typed repr is not.
    """
    data = f"{type(value).__name__}:{value!r}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class KMVSketch:
    """K-minimum-values distinct-count estimator.

    Keeps the ``k`` smallest 64-bit hashes seen.  With ``m`` distinct
    values hashed uniformly into [0, 2^64), the ``k``-th smallest hash
    sits near ``k/m`` of the space, so ``m ≈ (k-1) * 2^64 / h_k``.
    Expected relative error is about ``1/sqrt(k-2)`` (~6% at k=256).
    """

    __slots__ = ("k", "_hashes", "_members")

    def __init__(self, k: int = KMV_SIZE) -> None:
        self.k = k
        self._hashes: List[int] = []  # sorted ascending, at most k
        self._members: set = set()

    def add(self, value: Any) -> None:
        self.add_hash(stable_hash64(value))

    def add_hash(self, h: int) -> None:
        if h in self._members:
            return
        hashes = self._hashes
        if len(hashes) >= self.k:
            if h >= hashes[-1]:
                return
            self._members.discard(hashes[-1])
            hashes.pop()
        import bisect

        bisect.insort(hashes, h)
        self._members.add(h)

    def estimate(self) -> float:
        hashes = self._hashes
        if len(hashes) < self.k:
            return float(len(hashes))
        return (self.k - 1) * _HASH_SPACE / float(hashes[-1])

    def __len__(self) -> int:
        return len(self._hashes)


class DistinctCounter:
    """Hybrid distinct counter: exact set, spilling to a KMV sketch.

    Exact for small tables (below :data:`EXACT_DISTINCT_THRESHOLD`
    distinct values), sketched above — the shape the tentpole asks for.
    """

    __slots__ = ("threshold", "_exact", "_sketch")

    def __init__(self, threshold: int = EXACT_DISTINCT_THRESHOLD) -> None:
        self.threshold = threshold
        self._exact: Optional[set] = set()
        self._sketch: Optional[KMVSketch] = None

    @property
    def is_exact(self) -> bool:
        return self._exact is not None

    def add(self, value: Any) -> None:
        if self._exact is not None:
            self._exact.add(value)
            if len(self._exact) > self.threshold:
                self._spill()
        else:
            assert self._sketch is not None
            self._sketch.add(value)

    def _spill(self) -> None:
        sketch = KMVSketch()
        assert self._exact is not None
        for value in self._exact:
            sketch.add(value)
        self._exact = None
        self._sketch = sketch

    def estimate(self) -> float:
        if self._exact is not None:
            return float(len(self._exact))
        assert self._sketch is not None
        return self._sketch.estimate()


@dataclass
class Histogram:
    """Equi-width histogram over a numeric column.

    ``counts[i]`` holds values in ``[low + i*width, low + (i+1)*width)``
    (last bucket closed).  Values inserted later that fall outside the
    original range are clamped into the end buckets, so incremental
    maintenance degrades gracefully instead of going stale.
    """

    low: float
    high: float
    counts: List[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def width(self) -> float:
        return (self.high - self.low) / len(self.counts)

    @classmethod
    def build(cls, values: Sequence[float], buckets: int = HISTOGRAM_BUCKETS) -> Optional["Histogram"]:
        if not values:
            return None
        low = float(min(values))
        high = float(max(values))
        if low == high:
            return cls(low=low, high=high, counts=[len(values)])
        histogram = cls(low=low, high=high, counts=[0] * buckets)
        for value in values:
            histogram.add(float(value))
        return histogram

    def _bucket_of(self, value: float) -> int:
        if self.high == self.low:
            return 0
        position = int((value - self.low) / (self.high - self.low) * len(self.counts))
        return min(max(position, 0), len(self.counts) - 1)

    def add(self, value: float) -> None:
        self.counts[self._bucket_of(value)] += 1

    def fraction_below(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of values ``< value`` (``<=`` if inclusive).

        Linear interpolation inside the containing bucket; the standard
        equi-width estimator.
        """
        total = self.total
        if total == 0:
            return 0.0
        if value < self.low:
            return 0.0
        if value > self.high or (value == self.high and inclusive):
            return 1.0
        if self.high == self.low:
            # Single-point histogram: all mass at one value.
            return 1.0 if (inclusive and value >= self.low) else 0.0
        position = self._bucket_of(value)
        below = sum(self.counts[:position])
        bucket_low = self.low + position * self.width
        within = (value - bucket_low) / self.width
        below += self.counts[position] * min(max(within, 0.0), 1.0)
        return min(max(below / total, 0.0), 1.0)

    def fraction_between(
        self,
        low: Optional[float],
        high: Optional[float],
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> float:
        upper = 1.0 if high is None else self.fraction_below(high, inclusive=not high_strict)
        lower = 0.0 if low is None else self.fraction_below(low, inclusive=low_strict)
        return min(max(upper - lower, 0.0), 1.0)


@dataclass
class ColumnStats:
    """Statistics for one column of one table."""

    name: str
    non_null: int = 0
    nulls: int = 0
    minimum: Optional[Any] = None
    maximum: Optional[Any] = None
    distinct: DistinctCounter = field(default_factory=DistinctCounter)
    histogram: Optional[Histogram] = None

    @property
    def row_count(self) -> int:
        return self.non_null + self.nulls

    @property
    def null_fraction(self) -> float:
        total = self.row_count
        return self.nulls / total if total else 0.0

    @property
    def distinct_count(self) -> float:
        return self.distinct.estimate()

    def note(self, value: Any) -> None:
        """Incremental update for one inserted value."""
        if value is None:
            self.nulls += 1
            return
        self.non_null += 1
        self.distinct.add(value)
        try:
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        except TypeError:
            pass  # mixed un-orderable types: keep whatever we have
        if self.histogram is not None and isinstance(value, (int, float)) and not isinstance(value, bool):
            self.histogram.add(float(value))


@dataclass
class TableStats:
    """Statistics for one table: row count plus per-column stats."""

    table_name: str
    row_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def note_insert(self, row: Sequence[Any], column_names: Sequence[str]) -> None:
        """Keep the statistics fresh for one appended row."""
        self.row_count += 1
        for name, value in zip(column_names, row):
            stats = self.columns.get(name)
            if stats is not None:
                stats.note(value)

    def summary(self) -> str:
        lines = [f"{self.table_name}: {self.row_count} rows"]
        for name in sorted(self.columns):
            c = self.columns[name]
            lines.append(
                f"  {name}: ndv~{c.distinct_count:.0f} "
                f"null={c.null_fraction:.3f} min={c.minimum!r} max={c.maximum!r}"
                + (" hist" if c.histogram is not None else "")
            )
        return "\n".join(lines)


def analyze_table(table, buckets: int = HISTOGRAM_BUCKETS) -> TableStats:
    """Collect full statistics for one table (the ANALYZE primitive).

    ``table`` is a :class:`repro.storage.table.Table`; typed loosely to
    avoid an import cycle (table.py attaches the result to itself).
    """
    names = table.schema.column_names
    stats = TableStats(table_name=table.name, row_count=len(table))
    per_column: List[ColumnStats] = [ColumnStats(name=name) for name in names]
    numeric_values: List[List[float]] = [[] for _ in names]
    for row in table.rows:
        for position, value in enumerate(row):
            column = per_column[position]
            if value is None:
                column.nulls += 1
                continue
            column.non_null += 1
            column.distinct.add(value)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric_values[position].append(float(value))
    for position, column in enumerate(per_column):
        values = numeric_values[position]
        if values:
            column.minimum = min(values)
            column.maximum = max(values)
            column.histogram = Histogram.build(values, buckets=buckets)
        else:
            # Non-numeric: min/max by value order when orderable.
            observed = [
                row[position] for row in table.rows if row[position] is not None
            ]
            if observed:
                try:
                    column.minimum = min(observed)
                    column.maximum = max(observed)
                except TypeError:
                    pass
        stats.columns[column.name] = column
    return stats


def analyze(db, buckets: int = HISTOGRAM_BUCKETS) -> Dict[str, TableStats]:
    """ANALYZE every table of a database; returns stats keyed by name.

    Also attaches the stats to each table (``table.statistics``) so the
    planner's cardinality estimator finds them, and so subsequent
    inserts keep them incrementally fresh.
    """
    collected: Dict[str, TableStats] = {}
    for name in db.table_names:
        table = db.table(name)
        collected[name] = table.analyze(buckets=buckets)
    return collected
