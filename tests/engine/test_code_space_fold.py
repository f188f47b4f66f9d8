"""GROUP BY in code space against the row reference.

``HashAggregate.execute_columnar`` folds through a
:class:`repro.engine.aggregates.GroupFold`: batch keys become codes,
COUNT / integer SUM / AVG / MIN / MAX stay NumPy arrays across batches,
and when every batch stayed in code space the output is emitted as
columns.  The contract: rows (group order and Python types included)
and every work counter equal ``HashAggregate.execute``'s, whatever the
batch boundaries, the key kinds or the dictionaries.

* a seeded differential over random tables and aggregate lists;
* the batches that must leave code space — NULL, NaN and ``obj`` keys,
  a key whose kind or dictionary changes between batches, float
  SUM/AVG, an int64 bound crossed across batches, DISTINCT — and the
  exact-AVG rule;
* NLJP's inner and block kernels, which fold through the same object;
* the no-NumPy fallback.
"""

from __future__ import annotations

import random

import pytest

import repro.engine.aggregates as aggregates
import repro.engine.layout as layout
from repro import EngineConfig, SmartIceberg
from repro.engine import operators as ops
from repro.engine.aggregates import GroupFold, make_spec
from repro.engine.executor import execute
from repro.engine.expressions import ExpressionCompiler
from repro.engine.layout import ColumnBatch, Layout
from repro.sql import ast
from repro.sql.parser import parse_expression
from repro.testing import without_numpy
from repro.workloads import (
    BaseballConfig,
    BasketConfig,
    CyclicConfig,
    figure1_queries,
    load_baskets,
    make_batting_db,
    make_cyclic_db,
    market_basket_query,
    triangle_hub_query,
)

needs_numpy = pytest.mark.skipif(
    layout.numpy_or_none() is None, reason="the code-space fold needs NumPy"
)

COLUMNS = ("s", "i", "t", "f", "g")


class PerBatchRows(ops.RowsSource):
    """Rows encoded batch by batch, each with dictionaries and kinds of
    its own — what an aggregate over cells built per batch is handed."""

    def execute_columnar(self, ctx):
        size = ctx.batch_size
        for start in range(0, len(self.rows), size):
            chunk = self.rows[start : start + size]
            ctx.stats.rows_scanned += len(chunk)
            yield ColumnBatch.from_rows(chunk, len(self.layout))


def _aggregate(rows, keys, calls, per_batch=False):
    source = (PerBatchRows if per_batch else ops.RowsSource)(rows, COLUMNS, "r")
    compiler = ExpressionCompiler(source.layout)
    specs = []
    for text in calls:
        call = parse_expression(text)
        star = isinstance(call.args[0], ast.Star)
        specs.append(make_spec(call, None if star else compiler.compile(call.args[0])))
    output = Layout([(None, f"c{n}") for n in range(len(keys) + len(calls))])
    return ops.HashAggregate(
        source, [compiler.compile(parse_expression(key)) for key in keys], specs, output
    )


def _typed(rows):
    """Rows as (type, repr) pairs: ``1``/``True``/``1.0``, ``-0.0``/``0.0``
    and NaN are told apart."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


def _counters(stats):
    counters = stats.as_dict()
    counters.pop("fused_compilations")
    return counters


def _check(aggregate, batch_size):
    """The columnar run against the row run; the fold it took."""
    reference = ops.ExecutionContext()
    expected = list(aggregate.execute(reference))
    ctx = ops.ExecutionContext(batch_size=batch_size)
    batches = list(aggregate.execute_columnar(ctx))
    got = [row for batch in batches for row in batch.to_rows()]
    assert _typed(got) == _typed(expected)
    assert _counters(ctx.stats) == _counters(reference.stats)
    assert all(0 < batch.length <= batch_size for batch in batches)
    return aggregate.fold_ran


# ---------------------------------------------------------------------------
# Seeded differential
# ---------------------------------------------------------------------------

KEYS = [["s"], ["i"], ["t"], ["f"], ["s", "i"], ["t", "s"], ["f", "i", "s"]]

AGGREGATES = [
    "COUNT(*)",
    "COUNT(r.i)",
    "COUNT(r.s)",
    "COUNT(r.f)",
    "SUM(r.i)",
    "AVG(r.i)",
    "SUM(r.t)",
    "AVG(r.g)",
    "MIN(r.i)",
    "MAX(r.g)",
    "MIN(r.s)",
    "MAX(r.s)",
    "MIN(r.t)",
    "MAX(r.t)",
    "MIN(r.f)",
    "MAX(r.f)",
    "SUM(r.f)",
    "AVG(r.f)",
    "COUNT(DISTINCT r.s)",
]


def _random_rows(rng, count, key_nulls, nan):
    floats = [0.5, 1.5, -2.25, 0.0, -0.0, 3.0]

    def maybe(value, nulls=True):
        return None if nulls and rng.random() < 0.15 else value

    rows = []
    for _ in range(count):
        f = rng.choice(floats)
        if nan and rng.random() < 0.1:
            f = float("nan")  # a new object each time, as decoded values are
        rows.append(
            (
                maybe(rng.choice("abcde"), key_nulls),
                maybe(rng.randrange(-3, 4), key_nulls),
                maybe(rng.random() < 0.5, key_nulls),
                maybe(f, key_nulls),
                maybe(rng.choice([1, 7, 2**40, -(2**35)])),
            )
        )
    return rows


@needs_numpy
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("batch_size", [1, 3, 4096])
def test_random_group_bys_equal_the_row_reference(seed, batch_size):
    rng = random.Random(seed)
    for _ in range(4):
        rows = _random_rows(
            rng, rng.choice([0, 1, 7, 60]), key_nulls=rng.random() < 0.3, nan=rng.random() < 0.2
        )
        keys = rng.choice(KEYS + [[]])
        calls = rng.sample(AGGREGATES[:16], rng.randint(1, 3))
        if rng.random() < 0.3:
            calls.append(rng.choice(AGGREGATES[16:]))
        for per_batch in (False, True):
            _check(_aggregate(rows, keys, calls, per_batch), batch_size)


# ---------------------------------------------------------------------------
# What stays in code space, and what leaves it
# ---------------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("batch_size", [1, 3, 4096])
def test_dictionary_integer_and_bool_keys_stay_in_code_space(batch_size):
    rng = random.Random(5)
    rows = _random_rows(rng, 200, key_nulls=False, nan=False)
    for keys in (["s"], ["i", "s"], ["t", "i", "s"]):
        aggregate = _aggregate(
            rows,
            keys,
            ["COUNT(*)", "SUM(r.i)", "AVG(r.g)", "MIN(r.s)", "MAX(r.t)", "COUNT(r.g)"],
        )
        assert _check(aggregate, batch_size) == "codes → columns"


@needs_numpy
def test_columns_keep_the_input_dictionary_and_carry_null_sums():
    rows = [("b", 1, True, 0.5, None), ("a", 2, False, 1.5, 4), ("b", 3, True, 2.5, None)]
    aggregate = _aggregate(rows, ["s"], ["COUNT(*)", "SUM(r.g)", "AVG(r.i)", "MIN(r.f)"])
    ctx = ops.ExecutionContext(batch_size=2)
    (batch,) = aggregate.execute_columnar(ctx)
    key, count, total, average, least = batch.columns
    assert (key.kind, key.dictionary) == ("dict", ("a", "b"))
    assert (count.kind, total.kind, average.kind, least.kind) == ("i8", "i8", "f8", "f8")
    assert total.validity.tolist() == [False, True]
    assert batch.to_rows() == [("b", 2, None, 2.0, 0.5), ("a", 1, 4, 2.0, 1.5)]
    assert aggregate.describe()[1] == "  fold: codes → columns"
    assert aggregate.to_dict()["fold"] == "codes → columns"


@needs_numpy
def test_a_group_with_no_value_has_null_extremes_in_every_output_form():
    rows = [("a", 1, True, 0.5, 1), (None, 2, None, None, None), ("b", 1, False, 1.5, 2)]
    calls = ["MIN(r.s)", "MAX(r.t)", "MIN(r.f)", "SUM(r.g)", "AVG(r.g)"]
    for batch_size in (1, 4096):
        assert _check(_aggregate(rows, ["i"], calls), batch_size) == "codes → columns"
    fold = _aggregate(rows, ["i"], calls).columnar_fold(ops.ExecutionContext())
    fold.add(ColumnBatch.from_rows(rows, 5))
    assert fold.rows() == [(1, "a", True, 0.5, 3, 1.5), (2, None, None, None, None, None)]
    fold.add(ColumnBatch.from_rows(rows[1:], 5))  # one evaluation after another
    assert fold.rows() == [(2, None, None, None, None, None), (1, "b", False, 1.5, 2, 2.0)]


@needs_numpy
def test_signed_zero_keys_merge_and_keep_the_first_seen_sign():
    rows = [(None, 0, True, -0.0, 1), (None, 0, True, 0.0, 2), (None, 0, True, 1.5, 3)]
    for per_batch in (False, True):
        for batch_size in (1, 4096):
            aggregate = _aggregate(rows, ["f"], ["COUNT(*)", "SUM(r.g)"], per_batch)
            assert _check(aggregate, batch_size) == "codes → columns"
    assert list(aggregate.execute(ops.ExecutionContext()))[0][0] == -0.0


@needs_numpy
def test_a_null_key_in_a_later_batch_flushes_and_takes_the_row_path():
    rows = [("a", 1, True, 0.5, 1), ("b", 1, True, 0.5, 2), ("a", 1, True, 0.5, 3)]
    rows += [(None, 1, True, 0.5, 4), ("c", 1, True, 0.5, 5), ("b", 1, True, 0.5, 6)]
    aggregate = _aggregate(rows, ["s"], ["COUNT(*)", "SUM(r.g)"])
    assert _check(aggregate, 3) == "codes → rows (batch 1: NULL key)"
    assert _check(aggregate, 4096) == "rows (NULL key)"


@needs_numpy
def test_nan_and_object_keys_take_the_row_path():
    rows = [(None, 1, True, float("nan"), 1), (None, 1, True, float("nan"), 2)]
    assert _check(_aggregate(rows, ["f"], ["COUNT(*)"]), 4096) == "rows (NaN key)"
    mixed = [(None, 1, True, 0.5, 1), (None, True, True, 0.5, 2)]
    assert _check(_aggregate(mixed, ["i"], ["COUNT(*)"]), 4096) == "rows (obj key)"


@needs_numpy
def test_a_key_whose_kind_changes_between_batches_merges_as_python_does():
    # 1 and True are one dict key; the second batch holds bools.
    rows = [(None, 1, True, 0.5, 1), (None, 2, True, 0.5, 2)]
    rows += [(None, True, True, 0.5, 3), (None, False, True, 0.5, 4)]
    aggregate = _aggregate(rows, ["i"], ["COUNT(*)", "SUM(r.g)"], per_batch=True)
    assert _check(aggregate, 2) == "codes → rows (batch 1: key kind changed)"
    assert list(aggregate.execute(ops.ExecutionContext())) == [(1, 2, 4), (2, 1, 2), (False, 1, 4)]


@needs_numpy
def test_a_dictionary_that_changes_between_batches_is_not_merged_by_code():
    rows = [("a", 1, True, 0.5, 1), ("b", 1, True, 0.5, 2)]
    rows += [("b", 1, True, 0.5, 3), ("c", 1, True, 0.5, 4), ("b", 1, True, 0.5, 5)]
    aggregate = _aggregate(rows, ["s"], ["COUNT(*)", "MAX(r.s)"], per_batch=True)
    assert _check(aggregate, 2) == "codes → rows (batch 1: key kind changed)"
    # One store-level dictionary across batches stays in code space.
    assert _check(_aggregate(rows, ["s"], ["COUNT(*)", "MAX(r.s)"]), 2) == "codes → columns"


@needs_numpy
@pytest.mark.parametrize(
    "call, reason",
    [
        ("SUM(r.f)", "float SUM"),
        ("AVG(r.f)", "float AVG"),
        ("COUNT(DISTINCT r.s)", "DISTINCT"),
        ("MIN(r.f)", "NaN or -0.0 MIN"),
    ],
)
def test_aggregates_without_an_exact_array_form_take_the_row_path(call, reason):
    rows = [("a", 1, True, 0.1, 1), ("a", 2, True, 0.2, 2), ("b", 3, False, -0.0, 3)]
    assert _check(_aggregate(rows, ["s"], ["COUNT(*)", call]), 4096) == f"rows ({reason})"


@needs_numpy
def test_an_integer_sum_crossing_int64_across_batches_stays_exact():
    rows = [("a", 2**62, True, 0.5, 1)] * 3 + [("b", 5, True, 0.5, 1)]
    aggregate = _aggregate(rows, ["s"], ["SUM(r.i)", "AVG(r.i)"])
    assert _check(aggregate, 1) == "codes → rows (batch 1: int64 bound)"
    assert _check(aggregate, 4096) == "rows (int64 bound)"
    assert list(aggregate.execute(ops.ExecutionContext()))[0] == ("a", 3 * 2**62, 2**62 / 1)


@needs_numpy
def test_averages_past_two_to_the_53_divide_as_python_does():
    big = 2**60 + 12345
    rows = [("a", big + n, True, 0.5, 1) for n in range(4)] + [("b", 2**53 + 1, True, 0.5, 1)] * 3
    aggregate = _aggregate(rows, ["s"], ["AVG(r.i)", "SUM(r.i)"])
    assert _check(aggregate, 4096) == "codes → columns"
    assert _check(aggregate, 1) == "codes → columns"


@needs_numpy
def test_scalar_and_keyed_aggregates_over_empty_input():
    assert _check(_aggregate([], [], ["COUNT(*)", "SUM(r.i)", "MIN(r.s)"]), 4096)
    aggregate = _aggregate([], ["s"], ["COUNT(*)"])
    _check(aggregate, 4096)
    assert list(aggregate.execute(ops.ExecutionContext())) == []


@needs_numpy
def test_pending_batches_are_merged_as_they_accumulate(monkeypatch):
    monkeypatch.setattr(aggregates, "_MERGE_SLACK", 2)
    rng = random.Random(9)
    rows = _random_rows(rng, 300, key_nulls=False, nan=False)
    for keys in (["s", "i"], ["f"], []):
        aggregate = _aggregate(rows, keys, ["COUNT(*)", "SUM(r.g)", "MIN(r.s)", "MAX(r.i)"])
        assert _check(aggregate, 3) == "codes → columns"


# ---------------------------------------------------------------------------
# The same fold under NLJP's kernels and in served plans
# ---------------------------------------------------------------------------


def _counting_folds(monkeypatch):
    calls = []
    add = GroupFold.add

    def counted(self, batch):
        calls.append(batch.length)
        return add(self, batch)

    monkeypatch.setattr(GroupFold, "add", counted)
    return calls


def _parity(stats):
    counters = stats.as_dict()
    for name in ("fused_compilations", "inner_prefetch_discarded"):
        counters.pop(name)
    return counters


@needs_numpy
def test_the_inner_kernel_folds_through_group_fold(monkeypatch):
    db = make_batting_db(BaseballConfig(n_rows=150, seed=3))
    sql = figure1_queries()["Q1"].sql
    with without_numpy():
        reference = SmartIceberg(db).execute(sql)
    calls = _counting_folds(monkeypatch)
    optimized = SmartIceberg(db).optimize(sql)
    result = optimized.execute()
    assert calls
    assert "inner: kernel" in optimized.explain()
    assert optimized.nljp.qr_plan.child.fold_ran == "codes → columns"
    assert result.rows == reference.rows
    assert _parity(result.stats) == _parity(reference.stats)


@needs_numpy
def test_the_block_kernel_folds_through_group_fold(monkeypatch):
    db = make_cyclic_db(CyclicConfig(n_edges=300, seed=7))
    sql = triangle_hub_query(2)
    # Forced: by estimate, the reduced join alone runs faster.
    knobs = dict(cross_query_memo=True, technique_choice="first-applicable")
    with without_numpy():
        reference = SmartIceberg(db, **knobs).execute(sql)
    calls = _counting_folds(monkeypatch)
    optimized = SmartIceberg(db, **knobs).optimize(sql)
    result = optimized.execute()
    assert calls
    assert "block kernel" in optimized.explain()
    assert optimized.nljp.qr_plan.child.fold_ran == "codes → columns"
    assert result.rows == reference.rows
    assert _parity(result.stats) == _parity(reference.stats)


@needs_numpy
def test_explain_names_the_fold_each_aggregate_ran():
    db = make_batting_db(BaseballConfig(n_rows=40, seed=1))
    load_baskets(db, BasketConfig(n_baskets=200, seed=4))
    columnar = execute(db, market_basket_query(5), EngineConfig())
    with without_numpy():
        row = execute(db, market_basket_query(5), EngineConfig())
    assert "fold: codes → columns" in columnar.plan.explain()
    assert "fold:" not in row.plan.explain()
    assert columnar.rows == row.rows


@needs_numpy
def test_the_query_log_and_report_count_the_folds():
    from repro import Database, IcebergServer
    from repro.obs.report import aggregate, render

    db = Database()
    load_baskets(db, BasketConfig(n_baskets=200, seed=4))
    server = IcebergServer(db)
    server.session().execute(market_basket_query(5))
    record = server.query_log.to_list()[-1]
    assert "codes → columns" in record["aggregate_folds"]
    summary = aggregate(server.query_log.to_list())
    assert summary["aggregate_folds"]["codes → columns"] == len(record["aggregate_folds"])
    assert "aggregate folds:" in render(summary)


def test_without_numpy_the_columnar_path_is_the_row_path():
    """An install without NumPy has no columnar context to fold in: its
    contexts are row contexts, and the aggregate folds row by row."""
    rows = [("a", 1, True, 0.5, 1), ("b", 2, False, 1.5, None), ("a", 3, True, 2.5, 4)]
    aggregate = _aggregate(rows, ["s"], ["COUNT(*)", "SUM(r.g)", "AVG(r.f)"])
    with without_numpy():
        ctx = ops.ExecutionContext(batch_size=2)
        got = ops.materialize(aggregate, ctx)
    assert (ctx.columnar, ctx.batch_size) == (False, None)
    assert _typed(got) == _typed([("a", 2, 5, 1.5), ("b", 1, None, 1.5)])
    assert aggregate.fold_ran is None
