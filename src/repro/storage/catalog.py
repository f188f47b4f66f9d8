"""The database catalog: named tables plus declared constraints.

The catalog is the engine's single entry point.  Besides holding
tables, it records each table's primary key and any additional
functional dependencies — the metadata Theorems 2 and 3 of the paper
consume when deciding whether a-priori or pruning is safe.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CatalogError
from repro.constraints.fd import FDSet, FunctionalDependency
from repro.storage.schema import Column, TableSchema
from repro.storage.statistics import HISTOGRAM_BUCKETS, TableStats
from repro.storage.table import Table


class Database:
    """A named collection of tables with constraint metadata."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._fds: Dict[str, FDSet] = {}
        self._primary_keys: Dict[str, Tuple[str, ...]] = {}
        self._domains: Dict[Tuple[str, str], Tuple[Optional[float], Optional[float]]] = {}
        # Advanced by every DDL change (create/drop table, constraint
        # or domain declarations).  Together with the per-table data
        # and statistics versions this forms ``version_token()``, the
        # invalidation key of the serving layer's shared plan cache.
        self._catalog_version = 0

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: TableSchema | Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
    ) -> Table:
        """Create a table; an optional primary key adds an FD and index."""
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        if not isinstance(schema, TableSchema):
            schema = TableSchema(schema)
        table = Table(key, schema)
        self._tables[key] = table
        self._fds[key] = FDSet()
        self._catalog_version += 1
        if primary_key:
            self.declare_key(key, primary_key)
            table.create_index(f"{key}_pkey", list(primary_key), kind="hash")
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        del self._tables[key]
        del self._fds[key]
        self._primary_keys.pop(key, None)
        self._catalog_version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def with_table(self, table: Table) -> "Database":
        """This catalog with ``table`` in place of the table of its name:
        every other table, constraint and domain is shared.  What a
        plan over some of a table's rows is planned against (see
        :meth:`repro.core.nljp.NLJPOperator.catch_up`)."""
        view = copy.copy(self)
        view._tables = {**self._tables, table.name: table}
        return view

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def declare_key(self, table_name: str, key_columns: Sequence[str]) -> None:
        """Declare ``key_columns`` as a key of the table.

        Records the FD ``key → all columns``.  The first declared key is
        remembered as the primary key.
        """
        table = self.table(table_name)
        columns = tuple(column.lower() for column in key_columns)
        for column in columns:
            table.schema.index_of(column)  # validates existence
        self._fds[table.name].add_key(columns, table.schema.column_names)
        self._primary_keys.setdefault(table.name, columns)
        self._catalog_version += 1

    def declare_fd(
        self, table_name: str, lhs: Iterable[str], rhs: Iterable[str]
    ) -> None:
        """Declare an arbitrary functional dependency on a table."""
        table = self.table(table_name)
        dependency = FunctionalDependency.of(lhs, rhs)
        for column in dependency.lhs | dependency.rhs:
            table.schema.index_of(column)
        self._fds[table.name].add(dependency)
        self._catalog_version += 1

    def fds(self, table_name: str) -> FDSet:
        """The declared FD set of a table (empty set if none declared)."""
        return self._fds[self.table(table_name).name]

    def primary_key(self, table_name: str) -> Optional[Tuple[str, ...]]:
        return self._primary_keys.get(self.table(table_name).name)

    def is_superkey(self, table_name: str, columns: Iterable[str]) -> bool:
        """Is ``columns`` a superkey of the table per declared FDs?"""
        table = self.table(table_name)
        return self.fds(table_name).is_superkey(columns, table.schema.column_names)

    # ------------------------------------------------------------------
    # Statistics (ANALYZE)
    # ------------------------------------------------------------------
    def analyze(self, buckets: int = HISTOGRAM_BUCKETS) -> Dict[str, TableStats]:
        """Collect statistics for every table (the ANALYZE command).

        The cost-based join-order enumerator and the Smart-Iceberg
        technique selection consume these; without ANALYZE they fall
        back to row counts and index distinct-key counts alone.
        Statistics stay incrementally fresh under subsequent inserts.
        """
        return {
            name: self.table(name).analyze(buckets=buckets)
            for name in self.table_names
        }

    def statistics(self, table_name: str) -> Optional[TableStats]:
        """Collected statistics for one table (None before analyze)."""
        return self.table(table_name).statistics

    # ------------------------------------------------------------------
    # Versioning (plan-cache invalidation)
    # ------------------------------------------------------------------
    @property
    def catalog_version(self) -> int:
        """Monotonic counter advanced by every DDL change."""
        return self._catalog_version

    @property
    def data_version(self) -> int:
        """Sum of per-table mutation counters (inserts/truncates)."""
        return sum(table.data_version for table in self._tables.values())

    @property
    def stats_version(self) -> int:
        """Sum of per-table statistics epochs (ANALYZE/invalidate)."""
        return sum(table.stats_version for table in self._tables.values())

    def version_token(self) -> Tuple[int, int, int]:
        """``(catalog, data, stats)`` versions as one comparable token.

        Any DDL, insert, truncate, or ANALYZE changes the token, so a
        plan cached under one token is provably planned against the
        current schema, data, and statistics while the token matches.
        The per-table counters only ever advance; a dropped table's
        contribution is covered by the catalog-version bump of the
        DROP itself.
        """
        return (self.catalog_version, self.data_version, self.stats_version)

    # ------------------------------------------------------------------
    # Value domains (CHECK-style bounds)
    # ------------------------------------------------------------------
    def declare_domain(
        self,
        table_name: str,
        column: str,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> None:
        """Declare value bounds for a column (like a CHECK constraint).

        The monotonicity analysis (Table 2) needs to know that a SUM
        argument is nonnegative before classifying ``SUM(A) >= c`` as
        monotone; declaring ``lower=0`` provides exactly that fact.
        """
        table = self.table(table_name)
        table.schema.index_of(column)
        self._domains[(table.name, column.lower())] = (lower, upper)
        self._catalog_version += 1

    def domain(
        self, table_name: str, column: str
    ) -> Tuple[Optional[float], Optional[float]]:
        """Declared (lower, upper) bounds; (None, None) if undeclared."""
        table = self.table(table_name)
        return self._domains.get((table.name, column.lower()), (None, None))

    def is_nonnegative(self, table_name: str, column: str) -> bool:
        lower, _ = self.domain(table_name, column)
        return lower is not None and lower >= 0
