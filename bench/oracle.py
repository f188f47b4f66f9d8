"""An independent answer for every statement the benchmark sends.

The five query templates are plain SQL that the standard library's
``sqlite3`` also runs, so a mirror of the workload's tables gives
each result a second opinion that shares no code with the system
under test.  Rows compare as multisets; floats to nine significant
digits, because the two engines sum in different orders.
"""

from __future__ import annotations

import hashlib
import sqlite3
from typing import Any, Iterable, List, Sequence, Tuple

from repro import Database

Row = Tuple[Any, ...]


def normalized(rows: Iterable[Sequence[Any]]) -> List[Row]:
    """Rows in a canonical order with floats rounded for comparison."""
    return sorted(
        (
            tuple(
                float(f"{value:.9g}") if isinstance(value, float) else value
                for value in row
            )
            for row in rows
        ),
        key=repr,
    )


def digest(results: Iterable[Iterable[Sequence[Any]]]) -> str:
    """One hash over a sequence of results, each as normalized rows."""
    state = hashlib.sha256()
    for rows in results:
        state.update(repr(normalized(rows)).encode())
        state.update(b"\x00")
    return state.hexdigest()


class Oracle:
    """A ``sqlite3`` mirror of a workload's database."""

    def __init__(self, db: Database) -> None:
        self._connection = sqlite3.connect(":memory:")
        for name in db.table_names:
            table = db.table(name)
            columns = table.schema.column_names
            self._connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            self.insert(name, table.rows)
            # The same access paths, or SQLite's nested loops take
            # longer than the run being checked.
            for index_name, index in table.indexes.items():
                keys = ", ".join(columns[p] for p in index.column_positions)
                self._connection.execute(f"CREATE INDEX {index_name} ON {name} ({keys})")

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> None:
        rows = list(rows)
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            self._connection.executemany(
                f"INSERT INTO {table} VALUES ({marks})", rows
            )

    def agrees(self, sql: str, rows: Iterable[Sequence[Any]]) -> bool:
        expected = self._connection.execute(sql).fetchall()
        return normalized(expected) == normalized(rows)

    def close(self) -> None:
        self._connection.close()
