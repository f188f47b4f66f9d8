"""The two vector forms of columnar execution against what they replace.

* :class:`~repro.engine.layout.KeyGrouping` — the one equi-match helper
  behind ``HashJoin.execute_columnar`` and ``IndexNestedLoopJoin.
  execute_columnar`` — against the per-key ``dict`` loop: the same
  ``(probe position, build row)`` pairs *in the same order* (probe
  order, then bucket insertion order), and at operator level the row
  path's rows, in order, and its ``ExecutionStats.parity_dict()``.
* The fused ``IN (subquery)`` mask against the row closure
  ``membership``, on the cases where SQL's NULL rule bites.

Keys cover what Python's ``==``/``hash`` rule makes awkward for arrays:
``1 == 1.0 == True``, ``0.0 == -0.0``, NaN (equal to nothing), a 2^70
integer (no int64), strings, NULL components, duplicate and absent keys,
empty sides.  The array form either reproduces the dict's matches or
declines the batch; both outcomes are checked.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineConfig
from repro.engine import execute
from repro.engine import layout, operators as ops
from repro.engine.expressions import ExpressionCompiler, columnar_filter
from repro.engine.layout import Column, KeyGrouping, Layout
from repro.sql import ast
from repro.sql.parser import parse_expression
from repro.storage import Database, SqlType, TableSchema
from repro.testing import without_numpy
from tests.modes import in_mode

pytestmark = pytest.mark.skipif(
    layout.numpy_or_none() is None, reason="the vector forms need NumPy"
)

BIG = 2**70

NAN = object()  # stands for a NaN until a value is drawn


def _values(*choices):
    """Draw from ``choices`` (repeats weigh).  A fresh NaN per draw:
    the dict loop matches NaN by *identity*, and no decoded column
    value is identical to another."""
    return st.sampled_from(choices).map(lambda v: float("nan") if v is NAN else v)


INTS = _values(None, 0, 1, 2, 0, 1)
FLOATS = _values(None, 0.0, -0.0, 1.0, 2.5, 1.0, NAN)
BOOLS = _values(None, True, False, True)
TEXTS = _values(None, "", "a", "b", "a")
MIXED = _values(None, 0, 1, 1, 1.0, 1.0, True, True, False, 0.0, -0.0, "a", NAN, BIG)
KINDS = {"int": INTS, "float": FLOATS, "bool": BOOLS, "text": TEXTS, "mixed": MIXED}


def _null_key(key):
    return any(value is None for value in key)


def _loop_pairs(build_keys, probe_keys):
    """The loop both joins ran per batch: a dict of buckets, one lookup
    per probe key, NULL keys on either side matching nothing."""
    buckets = {}
    for position, key in enumerate(build_keys):
        if not _null_key(key):
            buckets.setdefault(key, []).append(position)
    pairs = []
    for position, key in enumerate(probe_keys):
        if not _null_key(key):
            pairs.extend((position, row) for row in buckets.get(key, ()))
    return pairs


def _columns(keys, width):
    return [Column.from_values([key[i] for key in keys]) for i in range(width)]


@st.composite
def key_sets(draw):
    width = draw(st.integers(1, 2))
    build_kinds = [draw(st.sampled_from(sorted(KINDS))) for _ in range(width)]
    # Mostly the same kind on both sides; sometimes not (declined).
    probe_kinds = [
        kind if draw(st.integers(0, 7)) else draw(st.sampled_from(sorted(KINDS)))
        for kind in build_kinds
    ]
    build = draw(st.lists(st.tuples(*(KINDS[k] for k in build_kinds)), max_size=16))
    probe = draw(st.lists(st.tuples(*(KINDS[k] for k in probe_kinds)), max_size=16))
    return width, build, probe


@settings(max_examples=400, deadline=None, derandomize=True)
@given(keys=key_sets(), limit=st.sampled_from([1, 3, 1 << 13]))
def test_key_grouping_matches_the_dict_loop_in_order(keys, limit):
    width, build, probe = keys
    build_columns = _columns(build, width)
    probe_columns = _columns(probe, width)
    # What the loop sees is what the columns decode to.
    expected = _loop_pairs(
        list(zip(*(column.tolist() for column in build_columns))) if build else [],
        list(zip(*(column.tolist() for column in probe_columns))) if probe else [],
    )
    grouping = KeyGrouping.build(build_columns)
    if grouping is None:
        assert any(column.kind == "obj" for column in build_columns)
        return
    runs = grouping.match(probe_columns, limit)
    if runs is None:
        assert [c.kind for c in probe_columns] != [c.kind for c in build_columns]
        return
    got = []
    for probe_idx, build_rows in runs:
        assert len(probe_idx) == len(build_rows) > 0
        # A run ends at a probe row boundary once it holds ``limit`` pairs.
        assert len(probe_idx) - list(probe_idx).count(probe_idx[-1]) < limit
        got.extend(zip(probe_idx.tolist(), build_rows.tolist()))
    assert got == expected


def test_key_grouping_declines_what_arrays_cannot_compare():
    ints = Column.from_values([1, 2, 1])
    assert KeyGrouping.build([Column.from_values([1, BIG])]) is None  # obj
    assert KeyGrouping.build([Column.from_values([1, 1.0, True])]) is None
    assert KeyGrouping.build([]) is None
    grouping = KeyGrouping.build([ints])
    assert grouping.match([Column.from_values([1.0, 2.0])], 8) is None  # f8 vs i8
    assert grouping.match([Column.from_values([True])], 8) is None  # bool vs i8
    (run,) = grouping.match([Column.from_values([1, None, 5])], 8)
    assert [array.tolist() for array in run] == [[0, 0], [0, 2]]


def test_store_keeps_one_grouping_per_key_and_table_version():
    db = Database()
    table = db.create_table(
        "t", TableSchema.of(("k", SqlType.INTEGER), ("v", SqlType.INTEGER))
    )
    table.insert_many([(1, 10), (2, 20), (1, 30)])
    store = table.column_store()
    grouping = store.key_grouping((0,))
    assert store.key_grouping((0,)) is grouping
    assert store.key_grouping((0, 1)) is not grouping
    table.insert((2, 40))  # the insert hook drops the store, and both with it
    assert table.column_store() is not store
    (run,) = table.column_store().key_grouping((0,)).match([Column.from_values([2])], 8)
    assert run[1].tolist() == [1, 3]


# ---------------------------------------------------------------------------
# Operator level: both joins x inner_filter x residual
# ---------------------------------------------------------------------------

SQL_TYPES = {
    "int": SqlType.INTEGER,
    "float": SqlType.FLOAT,
    "bool": SqlType.BOOLEAN,
    "text": SqlType.TEXT,
}
TYPED = {kind: KINDS[kind] for kind in SQL_TYPES}
# Now and then a 2^70 row, which makes the stored column ``obj``.
TYPED["int"] = _values(None, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, BIG)

#: (inner_filter, residual) over ``l(k0, k1, w)`` and ``r(k0, k1, v)``.
INNER_FILTERS = [None, "r.v >= 1", "COALESCE(r.v, 0) >= 1"]  # fused / row closure
RESIDUALS = [None, "l.w <= r.v", "COALESCE(l.w, 0) <= COALESCE(r.v, 0)"]


@st.composite
def join_inputs(draw):
    width = draw(st.integers(1, 2))
    inner_kinds = [draw(st.sampled_from(sorted(TYPED))) for _ in range(width)]
    outer_kinds = [
        kind if draw(st.integers(0, 7)) else draw(st.sampled_from(sorted(KINDS)))
        for kind in inner_kinds
    ]
    payload = st.one_of(st.none(), st.integers(0, 3))
    inner = draw(
        st.lists(st.tuples(*(TYPED[k] for k in inner_kinds), payload), max_size=12)
    )
    outer = draw(
        st.lists(st.tuples(*(KINDS[k] for k in outer_kinds), payload), max_size=12)
    )
    return width, inner_kinds, inner, outer


def _compiled(text, layout_):
    if text is None:
        return None
    return ExpressionCompiler(layout_).compile(parse_expression(text))


def _key(alias, width, layout_):
    refs = tuple(ast.ColumnRef(alias, f"k{i}") for i in range(width))
    return ExpressionCompiler(layout_).compile(ast.TupleExpr(refs))


def _run(plan, method, batch_size=None):
    ctx = ops.ExecutionContext(batch_size=batch_size)
    if method == "execute":
        rows = list(plan.execute(ctx))
    else:
        rows = [row for batch in plan.execute_columnar(ctx) for row in batch.to_rows()]
    return rows, ctx.stats.parity_dict()


def _three_ways(make_plan, monkeypatch):
    """Row path, columnar through the helper, columnar through the loop."""
    expected = _run(make_plan(), "execute")
    helper = _run(make_plan(), "execute_columnar", batch_size=4)
    with monkeypatch.context() as patch:
        patch.setattr(KeyGrouping, "build", classmethod(lambda cls, columns: None))
        loop = _run(make_plan(), "execute_columnar", batch_size=4)
    # repr: 0.0 and -0.0 are equal and must still not be confused.
    assert repr(helper[0]) == repr(expected[0]) == repr(loop[0])
    assert helper[1] == expected[1] == loop[1]


def _inner_table(width, kinds, rows):
    db = Database()
    names = [f"k{i}" for i in range(width)] + ["v"]
    types = [SQL_TYPES[kind] for kind in kinds] + [SqlType.INTEGER]
    table = db.create_table("r", TableSchema.of(*zip(names, types)))
    table.insert_many(rows)
    return table, names


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    inputs=join_inputs(),
    inner_filter=st.sampled_from(INNER_FILTERS),
    residual=st.sampled_from(RESIDUALS),
)
def test_index_join_columnar_equals_row_path(inputs, inner_filter, residual):
    width, kinds, inner, outer = inputs
    table, names = _inner_table(width, kinds, inner)
    index = table.create_index("r_key", names[:width], kind="hash")
    outer_names = [f"k{i}" for i in range(width)] + ["w"]

    def make_plan():
        source = ops.RowsSource(outer, outer_names, "l")
        joined = source.layout.concat(Layout([("r", name) for name in names]))
        return ops.IndexNestedLoopJoin(
            source,
            table,
            "r",
            index,
            _key("l", width, source.layout),
            residual=_compiled(residual, joined),
            inner_filter=_compiled(inner_filter, Layout([("r", n) for n in names])),
        )

    with pytest.MonkeyPatch.context() as monkeypatch:
        _three_ways(make_plan, monkeypatch)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    inputs=join_inputs(),
    build=st.sampled_from(["inner", "outer"]),
    residual=st.sampled_from(RESIDUALS),
)
def test_hash_join_columnar_equals_row_path(inputs, build, residual):
    width, kinds, inner, outer = inputs
    table, names = _inner_table(width, kinds, inner)
    outer_names = [f"k{i}" for i in range(width)] + ["w"]

    def make_plan():
        left = ops.RowsSource(outer, outer_names, "l")
        right = ops.TableScan(table, "r")
        return ops.HashJoin(
            left,
            right,
            _key("l", width, left.layout),
            _key("r", width, right.layout),
            residual=_compiled(residual, left.layout.concat(right.layout)),
            build=build,
        )

    with pytest.MonkeyPatch.context() as monkeypatch:
        _three_ways(make_plan, monkeypatch)


def test_index_join_reads_counters_off_array_lengths():
    """``index_probes`` is one per outer row — NULL and absent keys
    included — and ``join_pairs`` counts pairs after ``inner_filter``
    and before the residual, as the row path charges them."""
    table, names = _inner_table(1, ["int"], [(1, 0), (1, 5), (2, 5), (None, 5)])
    index = table.create_index("r_key", ["k0"], kind="hash")
    outer = [(1, 9), (None, 9), (7, 9), (2, 0), (1, 9)]
    source = ops.RowsSource(outer, ["k0", "w"], "l")
    inner_layout = Layout([("r", name) for name in names])
    plan = ops.IndexNestedLoopJoin(
        source,
        table,
        "r",
        index,
        _key("l", 1, source.layout),
        residual=_compiled("l.w <= r.v", source.layout.concat(inner_layout)),
        inner_filter=_compiled("r.v >= 1", inner_layout),
    )
    rows, stats = _run(plan, "execute_columnar", batch_size=2)
    assert rows == [(2, 0, 2, 5)]
    assert stats["index_probes"] == 5
    assert stats["join_pairs"] == 3  # (1,·)→row 1 twice, (2,·)→row 2
    assert (rows, stats) == _run(plan, "execute")


# ---------------------------------------------------------------------------
# Fused IN (subquery) against the row closure
# ---------------------------------------------------------------------------


def _in_db(sub_rows):
    db = Database()
    t = db.create_table(
        "t",
        TableSchema.of(
            ("id", SqlType.INTEGER),
            ("a", SqlType.INTEGER),
            ("s", SqlType.TEXT),
            ("big", SqlType.INTEGER),  # one 2^70 value: an ``obj`` column
        ),
    )
    t.insert_many(
        [
            (0, 1, "x", 1),
            (1, 2, "y", BIG),
            (2, None, "x", 2),
            (3, 1, None, None),
            (4, 3, "z", 3),
            (5, None, None, 1),
        ]
    )
    u = db.create_table(
        "u", TableSchema.of(("a", SqlType.INTEGER), ("s", SqlType.TEXT))
    )
    u.insert_many(sub_rows)
    return db


SUBQUERY_ROWS = {
    "plain": [(1, "x"), (2, "y"), (1, "x")],
    "with-null": [(1, "x"), (None, "y"), (3, None)],
    "empty": [],
}

IN_PREDICATES = [
    "a IN (SELECT a FROM u)",  # NULL needle, NULL in the result
    "a NOT IN (SELECT a FROM u)",
    "s IN (SELECT s FROM u)",  # dictionary-coded needle
    "s NOT IN (SELECT s FROM u)",
    "(a, s) IN (SELECT a, s FROM u)",  # tuple needle, one NULL component
    "(a, s) NOT IN (SELECT a, s FROM u)",
    "big IN (SELECT a FROM u)",  # obj needle: no codes but the rows
    "big NOT IN (SELECT a FROM u)",
    "(big, s) IN (SELECT a, s FROM u)",
    "NOT (a IN (SELECT a FROM u)) OR s = 'z'",  # the false mask, under NOT
    "a IN (SELECT a FROM u) AND id >= 1",
]


@pytest.mark.parametrize("sub", sorted(SUBQUERY_ROWS))
@pytest.mark.parametrize("predicate", IN_PREDICATES)
def test_fused_in_subquery_equals_row_closure(predicate, sub):
    db = _in_db(SUBQUERY_ROWS[sub])
    sql = f"SELECT id FROM t WHERE {predicate}"
    with without_numpy():
        row = execute(db, sql, EngineConfig())
    for batch_size in (2, 4096):
        columnar = execute(db, sql, EngineConfig(batch_size=batch_size))
        assert columnar.rows == row.rows, (predicate, sub, batch_size)
        assert columnar.stats.parity_dict() == row.stats.parity_dict()
        # Fused: the scan filter (the subquery's own scan has none).
        assert columnar.stats.fused_compilations == 1
        scan = columnar.plan.root.child.child
        assert columnar_filter(scan.predicate).fused


def test_fused_in_is_the_three_valued_membership():
    """Row by row against ``membership``'s own answers, not just the
    rows a filter keeps: TRUE, FALSE and NULL each where SQL says."""
    db = _in_db(SUBQUERY_ROWS["with-null"])
    answers = {}
    for mode in ("row", "columnar"):
        kept = {}
        for name, predicate in {
            "true": "a IN (SELECT a FROM u)",
            "false": "NOT (a IN (SELECT a FROM u))",
            "not-in-true": "a NOT IN (SELECT a FROM u)",
        }.items():
            sql = f"SELECT id FROM t WHERE {predicate}"
            with in_mode(mode):
                kept[name] = execute(db, sql, EngineConfig()).rows
        answers[mode] = kept
    assert answers["row"] == answers["columnar"]
    # 1 and 3 are in the result; 2 is not, but the result holds a NULL,
    # so ``2 IN`` is unknown — never false — and NOT IN is never true.
    assert answers["columnar"] == {
        "true": [(0,), (3,), (4,)],
        "false": [],
        "not-in-true": [],
    }


def test_a_pruned_scan_still_runs_its_subquery():
    """Zone maps could skip every chunk of ``id > 100``; row mode would
    still have run (and charged) the subquery at the first row."""
    db = _in_db(SUBQUERY_ROWS["plain"])
    sql = "SELECT id FROM t WHERE id > 100 AND a IN (SELECT a FROM u)"
    with without_numpy():
        row = execute(db, sql, EngineConfig())
    columnar = execute(db, sql, EngineConfig(batch_size=2))
    assert columnar.rows == row.rows == []
    assert columnar.stats.parity_dict() == row.stats.parity_dict()
    assert columnar.stats.chunks_skipped == 0
