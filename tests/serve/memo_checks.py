"""Checks the served-memo suites share: an independent ``sqlite3``
mirror of the tables served, and the payloads of a server's memo slots
against fresh evaluations on the data as it stands."""

import sqlite3

from repro.core.cache import entry_bytes
from repro.engine.operators import ExecutionContext
from repro.serve.templates import lift


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


def served_entry(server, sql, params=None, mask=None):
    """The cached plan ``server`` serves ``sql`` at ``params`` with: an
    entry of its template's key whose guards hold at the values bound."""
    template = lift(sql)
    mask = server._technique_mask() if mask is None else mask
    entry = server.plan_cache._entries[(template.sql, mask)].serving(
        template.bind(params)
    )
    assert entry is not None, sql
    return entry


def memo_slot_key(server, sql, params=None, mask=None):
    """``(meaning, values)`` of the memo slot serving ``sql`` reads and
    fills (``None``: its plan shares no memo)."""
    entry = served_entry(server, sql, params, mask)
    if entry.memo is None:
        return None
    meaning, reads = entry.memo
    bound = lift(sql).bind(params) or {}
    return meaning, tuple(bound.get(name) for name in reads)


def fresh_payloads_agree(server):
    """Assert that every entry of every memo slot a cached plan reads,
    and a read has caught up with the data since the last write, holds
    what Q_R evaluates to for its binding, at the slot's parameter
    values, on the data as it stands -- the same groups, in the same
    order, with the same states -- and that the store's bytes are its
    entries'; returns how many entries were checked."""
    checked = 0
    plans = [entry for entry in server.plan_cache.plans() if entry.memo is not None]
    for (mask, meaning, values), slot in list(server.memo._slots.items()):
        entry = next(
            (e for e in plans if e.techniques == mask and e.memo[0] == meaning), None
        )
        if entry is None:
            continue
        if slot.store.watermark() != entry.optimized.nljp._watermark():
            continue  # no read has met the last write yet
        params = _values_served(server, entry, dict(zip(entry.memo[1], values)))
        nljp = server._engine(mask).optimize(entry.sql, params).nljp
        store = slot.store
        held = store.entries()
        for cached in held:
            ctx = ExecutionContext(params=dict(params))
            nljp.env.ctx_holder["ctx"] = ctx
            try:
                fresh = nljp._run_inner(ctx, cached.binding)
            finally:
                nljp.env.ctx_holder.pop("ctx", None)
            assert cached.payload == fresh, (entry.sql, cached.binding)
        assert store.estimated_bytes() == sum(entry_bytes(e) for e in held)
        checked += len(held)
    return checked


def _values_served(server, entry, reads):
    """Parameter values ``entry`` serves, with ``reads`` for the
    parameters its Q_R reads: the lifted values of a text the server
    served from it."""
    with server.templates._lock:
        known = list(server.templates._templates.values())
    for template in known:
        if template.sql == entry.sql:
            params = dict(template.bind(None) or {}, **reads)
            if entry.serves(params):
                return params
    raise AssertionError(f"no text served from {entry.sql!r}")
