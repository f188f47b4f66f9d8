"""In-memory tables with optional secondary indexes."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, SchemaError
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.schema import TableSchema
from repro.storage.statistics import (
    HISTOGRAM_BUCKETS,
    TableStats,
    analyze_table,
)

Row = Tuple[Any, ...]


class Table:
    """An append-oriented, schema-validated, in-memory relation.

    Rows are tuples positioned per the schema.  Row ids are stable list
    positions, which the index layer relies on.  The table is the unit
    the Smart-Iceberg rewrites operate over: a reducer produces a new
    (smaller) ``Table``, and NLJP's cache is itself a ``Table``.
    """

    def __init__(self, name: str, schema: TableSchema) -> None:
        self.name = name.lower()
        self.schema = schema
        self._rows: List[Row] = []
        self._indexes: Dict[str, HashIndex | SortedIndex] = {}
        self._statistics: Optional[TableStats] = None
        self._column_store: Optional[Any] = None
        # Monotonic change counters consumed by the serving layer's
        # plan cache: ``data_version`` advances on every mutation,
        # ``stats_version`` on every ANALYZE/invalidate.  A cached plan
        # is valid only while both are unchanged (see
        # repro.serve.plan_cache).
        self._data_version = 0
        self._stats_version = 0

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"

    @property
    def rows(self) -> Sequence[Row]:
        return self._rows

    def row(self, row_id: int) -> Row:
        return self._rows[row_id]

    def column_values(self, name: str) -> List[Any]:
        """All values of one column, in row order (useful for stats)."""
        position = self.schema.index_of(name)
        return [row[position] for row in self._rows]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any]) -> int:
        """Validate and append one row; returns its row id."""
        validated = self.schema.validate_row(row)
        row_id = len(self._rows)
        self._rows.append(validated)
        for index in self._indexes.values():
            index.insert(row_id, validated)
        if self._statistics is not None:
            self._statistics.note_insert(validated, self.schema.column_names)
        self._column_store = None
        self._data_version += 1
        return row_id

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def insert_dicts(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append rows given as ``{column: value}`` mappings."""
        names = self.schema.column_names
        return self.insert_many(
            tuple(record.get(name) for name in names) for record in records
        )

    def truncate(self) -> None:
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()
        self._statistics = None
        self._column_store = None
        self._data_version += 1
        self._stats_version += 1

    # ------------------------------------------------------------------
    # Columnar image
    # ------------------------------------------------------------------
    def column_store(self):
        """The table's columnar image (typed columns + zone maps).

        Built lazily by columnar execution, cached until the
        next mutation.  Returns a
        :class:`repro.engine.layout.ColumnStore`.  The cache is tagged
        with the data version it was built at, so an image built while
        a write ran is never served once the write has finished.
        """
        cached = self._column_store
        version = self._data_version
        if cached is None or cached[0] != version:
            from repro.engine.layout import ColumnStore

            cached = (
                version,
                ColumnStore.from_rows(list(self._rows), self.schema.column_names),
            )
            self._column_store = cached
        return cached[1]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def statistics(self) -> Optional[TableStats]:
        """Collected statistics, or ``None`` before ``analyze()``."""
        return self._statistics

    def analyze(self, buckets: int = HISTOGRAM_BUCKETS) -> TableStats:
        """(Re)collect full statistics; kept fresh by later inserts."""
        self._statistics = analyze_table(self, buckets=buckets)
        self._stats_version += 1
        return self._statistics

    def invalidate_statistics(self) -> None:
        self._statistics = None
        self._stats_version += 1

    @property
    def data_version(self) -> int:
        """Monotonic counter advanced by every insert/truncate."""
        return self._data_version

    @property
    def stats_version(self) -> int:
        """Monotonic counter advanced by ANALYZE/invalidate/truncate."""
        return self._stats_version

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(
        self, name: str, columns: Sequence[str], kind: str = "hash"
    ) -> "HashIndex | SortedIndex":
        """Create and bulk-load a secondary index.

        ``kind`` is ``"hash"`` (equality) or ``"sorted"`` (range); see
        :mod:`repro.storage.index`.
        """
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists on {self.name!r}")
        positions = [self.schema.index_of(column) for column in columns]
        if kind == "hash":
            index: HashIndex | SortedIndex = HashIndex(key, positions)
        elif kind == "sorted":
            index = SortedIndex(key, positions)
        else:
            raise SchemaError(f"unknown index kind {kind!r}")
        for row_id, row in enumerate(self._rows):
            index.insert(row_id, row)
        self._indexes[key] = index
        return index

    def drop_index(self, name: str) -> None:
        try:
            del self._indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"no index {name!r} on {self.name!r}") from None

    @property
    def indexes(self) -> Dict[str, "HashIndex | SortedIndex"]:
        return dict(self._indexes)

    def find_hash_index(self, columns: Sequence[str]) -> Optional[HashIndex]:
        """A hash index exactly covering ``columns`` (order-insensitive)."""
        wanted = frozenset(self.schema.index_of(column) for column in columns)
        for index in self._indexes.values():
            if isinstance(index, HashIndex) and frozenset(index.column_positions) == wanted:
                return index
        return None

    def find_sorted_index(self, leading_column: str) -> Optional[SortedIndex]:
        """A sorted index whose leading key column is ``leading_column``."""
        wanted = self.schema.index_of(leading_column)
        for index in self._indexes.values():
            if isinstance(index, SortedIndex) and index.column_positions[0] == wanted:
                return index
        return None

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self._rows]

    def estimated_bytes(self) -> int:
        """Rough storage footprint, used by the Figure 3 cache-size bench.

        Approximates what a PostgreSQL heap would charge: per-row header
        plus per-value payload (8 bytes for numerics, string length for
        text, 1 for bools/NULLs).
        """
        per_row_overhead = 24
        total = 0
        for row in self._rows:
            total += per_row_overhead
            for value in row:
                if value is None or isinstance(value, bool):
                    total += 1
                elif isinstance(value, str):
                    total += len(value)
                else:
                    total += 8
        return total
