"""Unit tests for the columnar layout primitives.

Covers the :class:`Layout` resolution rules the fused-kernel compiler
leans on, the :class:`ColumnBatch` storage invariants (dictionary
round-trips, validity-bitmap NULL handling), NULL three-valued-logic
parity between row and columnar filters, and — the load-bearing one —
zone-map skip *soundness* under randomized predicates: a skipped chunk
must never change the result, for any predicate, on any data.  Column
batches only exist where NumPy imports: without it those tests skip.
"""

import random

import pytest

from repro import EngineConfig
from repro.engine import execute
from repro.engine.layout import (
    Column,
    ColumnBatch,
    ColumnStore,
    Layout,
    numpy_or_none,
)
from repro.errors import PlanningError
from repro.storage import Database, SqlType, TableSchema
from repro.testing import without_numpy

import dataclasses

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="column batches need NumPy"
)


class TestLayoutResolve:
    LAYOUT = Layout(
        [("a", "id"), ("a", "v"), ("b", "id"), ("b", "w"), (None, "anon")]
    )

    def test_qualified_resolution_is_exact(self):
        assert self.LAYOUT.resolve("a", "id") == 0
        assert self.LAYOUT.resolve("b", "id") == 2
        assert self.LAYOUT.resolve("b", "w") == 3

    def test_qualified_unknown_raises(self):
        with pytest.raises(PlanningError, match="unknown column"):
            self.LAYOUT.resolve("a", "w")
        with pytest.raises(PlanningError, match="unknown column"):
            self.LAYOUT.resolve("c", "id")

    def test_unqualified_unique_resolves(self):
        assert self.LAYOUT.resolve(None, "v") == 1
        assert self.LAYOUT.resolve(None, "anon") == 4

    def test_unqualified_ambiguous_raises(self):
        # "id" exists under both aliases: must not silently pick one.
        with pytest.raises(PlanningError, match="ambiguous"):
            self.LAYOUT.resolve(None, "id")

    def test_resolution_is_case_insensitive(self):
        assert self.LAYOUT.resolve("A", "ID") == 0
        assert self.LAYOUT.resolve(None, "V") == 1

    def test_try_resolve_returns_none_instead_of_raising(self):
        assert self.LAYOUT.try_resolve(None, "id") is None
        assert self.LAYOUT.try_resolve("c", "x") is None
        assert self.LAYOUT.try_resolve("a", "v") == 1

    def test_concat_shifts_positions(self):
        left = Layout([("a", "x")])
        right = Layout([("b", "x")])
        combined = left.concat(right)
        assert combined.resolve("b", "x") == 1
        with pytest.raises(PlanningError, match="ambiguous"):
            combined.resolve(None, "x")


@needs_numpy
class TestColumnBatchInvariants:
    def test_dict_encoding_round_trip(self):
        values = ["cubs", "sox", None, "cubs", "mets", None, "sox", "cubs"]
        column = Column.from_values(values)
        assert column.tolist() == values
        assert [column.value_at(i) for i in range(len(values))] == values

    def test_dict_dictionary_is_sorted_and_deduplicated(self):
        column = Column.from_values(["b", "a", "c", "a", "b"]).materialize()
        if column.kind == "dict":
            assert list(column.dictionary) == sorted(set(column.dictionary))
            assert len(set(column.dictionary)) == len(column.dictionary)
        assert column.tolist() == ["b", "a", "c", "a", "b"]

    def test_validity_bitmap_restores_nulls(self):
        values = [1, None, 3, None, 5]
        column = Column.from_values(values).materialize()
        assert column.tolist() == values
        assert column.value_at(1) is None
        assert column.value_at(2) == 3
        # Exact ints, not numpy scalars, at the row boundary.
        assert type(column.value_at(2)) is int

    def test_from_rows_to_rows_round_trip(self):
        rows = [
            (1, "a", 1.5, True, None),
            (2, None, None, False, "x"),
            (3, "b", -0.0, None, "y"),
        ]
        batch = ColumnBatch.from_rows(rows, 5)
        assert batch.to_rows() == rows
        assert len(batch) == 3

    def test_take_compress_slice_round_trips(self):
        rows = [(i, f"s{i % 3}", i * 0.5 if i % 4 else None) for i in range(20)]
        batch = ColumnBatch.from_rows(rows, 3)
        assert batch.slice(5, 12).to_rows() == rows[5:12]
        np = numpy_or_none()
        indices = np.asarray([3, 3, 0, 19], dtype=np.int64)
        assert batch.take(indices).to_rows() == [rows[3], rows[3], rows[0], rows[19]]
        mask = np.asarray([i % 2 == 0 for i in range(20)])
        assert batch.compress(mask).to_rows() == rows[0::2]

    def test_column_store_zone_maps_cover_all_chunks(self):
        rows = [(i,) for i in range(100)]
        store = ColumnStore.from_rows(rows, ["v"])
        zones = store.zone_maps(32)
        assert len(zones) == 4  # ceil(100 / 32)
        first = zones[0][0]
        assert first.minimum == 0 and first.maximum == 31
        last = zones[3][0]
        assert last.minimum == 96 and last.maximum == 99
        assert last.non_null == 4 and last.nulls == 0


def _null_db():
    db = Database()
    schema = TableSchema.of(
        ("id", SqlType.INTEGER), ("v", SqlType.INTEGER), ("s", SqlType.TEXT)
    )
    table = db.create_table("t", schema)
    table.insert_many(
        [
            (1, 10, "a"),
            (2, None, "b"),
            (3, 5, None),
            (4, None, None),
            (5, 7, "a"),
            (6, 12, "c"),
        ]
    )
    return db


@needs_numpy
class TestNullThreeValuedLogicParity:
    """Columnar validity bitmaps must reproduce row-mode SQL 3VL."""

    PREDICATES = (
        "v > 6",
        "NOT (v > 6)",
        "v = 7 OR s = 'a'",
        "v IS NULL",
        "v IS NOT NULL",
        "s IS NULL AND v IS NULL",
        "v BETWEEN 5 AND 10",
        "NOT (v BETWEEN 5 AND 10)",
        "v > 6 AND s = 'a'",
        "v IN (5, 7)",
        "s IN ('a', 'c')",
    )

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_filter_parity_with_nulls(self, predicate):
        db = _null_db()
        sql = f"SELECT id, v, s FROM t WHERE {predicate}"
        with without_numpy():
            row = execute(db, sql, EngineConfig.postgres())
        columnar = execute(
            db, sql, dataclasses.replace(EngineConfig.postgres(), batch_size=2)
        )
        assert columnar.rows == row.rows, predicate
        assert columnar.stats.parity_dict() == row.stats.parity_dict(), predicate


def _random_predicate(rng):
    """One random predicate over (k, v, f, s); zone-analyzable or not."""
    comparisons = ("<", "<=", "=", "!=", ">=", ">")
    choices = []
    op = rng.choice(comparisons)
    choices.append(f"k {op} {rng.randrange(-5, 260)}")
    op = rng.choice(comparisons)
    choices.append(f"v {op} {rng.randrange(-50, 150)}")
    op = rng.choice(comparisons)
    choices.append(f"f {op} {rng.uniform(-2.0, 3.0):.3f}")
    choices.append(f"s = '{rng.choice('abcdexyz')}'")
    lo = rng.randrange(0, 200)
    choices.append(f"k BETWEEN {lo} AND {lo + rng.randrange(0, 60)}")
    choices.append(rng.choice(("v IS NULL", "v IS NOT NULL")))
    first = rng.choice(choices)
    if rng.random() < 0.5:
        second = rng.choice(choices)
        return f"({first}) {rng.choice(('AND', 'OR'))} ({second})"
    return first


class TestZoneMapSoundness:
    """Randomized skip soundness: a pruned chunk never changes results.

    500+ seeded trials over a table whose ``k`` column is clustered
    (insertion order) and whose ``v``/``f``/``s`` columns are not, with
    a tiny chunk size so nearly every selective predicate actually
    exercises the pruning path.  Row mode is the oracle: identical
    rows, identical folded counters, and the scanned/skipped split
    must sum exactly to the row-mode scan count.
    """

    N_TRIALS = 500
    SEED = 20170808

    @classmethod
    def _build_db(cls, rng):
        db = Database()
        schema = TableSchema.of(
            ("k", SqlType.INTEGER),
            ("v", SqlType.INTEGER),
            ("f", SqlType.FLOAT),
            ("s", SqlType.TEXT),
        )
        table = db.create_table("t", schema)
        rows = []
        for k in range(240):
            v = None if rng.random() < 0.1 else rng.randrange(0, 100)
            f = rng.uniform(-1.0, 2.0)
            s = None if rng.random() < 0.05 else rng.choice("abcdexyz")
            rows.append((k, v, f, s))
        table.insert_many(rows)
        return db

    @needs_numpy
    def test_randomized_predicates_are_sound(self):
        rng = random.Random(self.SEED)
        db = self._build_db(rng)
        base = EngineConfig.postgres()
        columnar_config = dataclasses.replace(base, batch_size=16)
        skips_seen = 0
        for trial in range(self.N_TRIALS):
            predicate = _random_predicate(rng)
            sql = f"SELECT k, v, s FROM t WHERE {predicate}"
            with without_numpy():
                row = execute(db, sql, base)
            columnar = execute(db, sql, columnar_config)
            assert columnar.rows == row.rows, f"trial {trial}: {predicate}"
            assert columnar.stats.parity_dict() == row.stats.parity_dict(), (
                f"trial {trial}: {predicate}"
            )
            stats = columnar.stats
            assert (
                stats.rows_scanned + stats.rows_skipped == row.stats.rows_scanned
            ), f"trial {trial}: {predicate}"
            if stats.chunks_skipped:
                skips_seen += 1
        # The trial distribution must actually exercise the skip path.
        assert skips_seen > 50, f"only {skips_seen} trials skipped chunks"
