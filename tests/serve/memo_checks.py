"""Checks the served-memo suites share: an independent ``sqlite3``
mirror of the tables served, and the payloads of a server's memo slots
against fresh evaluations on the data as it stands."""

import sqlite3

from repro.core.cache import entry_bytes
from repro.engine.operators import ExecutionContext


def normalized(rows):
    """Rows as a multiset, floats to nine significant digits (the two
    engines sum in different orders)."""
    return sorted(
        (
            tuple(float(f"{v:.9g}") if isinstance(v, float) else v for v in row)
            for row in rows
        ),
        key=repr,
    )


class Mirror:
    """``tables`` (the batting table unless named) in an in-memory
    SQLite database."""

    def __init__(self, db, tables=("batting",)):
        self.connection = sqlite3.connect(":memory:")
        for name in tables:
            table = db.table(name)
            columns = ", ".join(table.schema.column_names)
            self.connection.execute(f"CREATE TABLE {name} ({columns})")
            self.insert(table.rows, name)

    def insert(self, rows, table="batting"):
        rows = list(rows)
        marks = ", ".join("?" * len(rows[0]))
        self.connection.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)

    def rows(self, sql):
        return normalized(self.connection.execute(sql).fetchall())


def fresh_payloads_agree(server):
    """Assert that every entry of every memo slot a cached plan reads,
    and a read has caught up with the data since the last write, holds
    what Q_R evaluates to for its binding on the data as it stands --
    the same groups, in the same order, with the same states -- and
    that the store's bytes are its entries'; returns how many entries
    were checked."""
    checked = 0
    seen = set()
    for (sql, mask), entry in list(server.plan_cache._entries.items()):
        if entry.memo is None:
            continue
        meaning, reads = entry.memo
        assert reads == ()
        key = (mask, meaning, ())
        slot = server.memo._slots.get(key)
        if slot is None or key in seen:
            continue
        if slot.store.watermark() != entry.optimized.nljp._watermark():
            continue  # no read has met the last write yet
        seen.add(key)
        nljp = server._engine(mask).optimize(sql).nljp
        store = slot.store
        held = store.entries()
        for cached in held:
            fresh = nljp._run_inner(ExecutionContext(), cached.binding)
            assert cached.payload == fresh, (sql, cached.binding)
        assert store.estimated_bytes() == sum(entry_bytes(e) for e in held)
        checked += len(held)
    return checked
