"""The inner kernel against the operator tree it stands in for.

NLJP lowers a scan-shaped Q_R once per plan, where NumPy imports, to
:class:`repro.engine.kernel.InnerKernel` and calls it per binding.  The
contract: rows (group order included) and every work counter except
``fused_compilations`` equal the tree's in the same context, and the
row path's modulo the zone-map split.

Two differentials, both seeded:

* *plan level* — random single-relation select-aggregates over a table
  with NULLs, duplicate keys and every access path; the kernel's rows
  and counters for each binding against ``ops.materialize`` of the very
  plan it was lowered from, row at a time and in columnar batches;
* *statement level* — iceberg statements through ``SmartIceberg``, the
  tree on the row path (:func:`repro.testing.without_numpy`, where no
  kernel is lowered) and forced in place in a columnar context
  (``nljp.inner_kernel = None``).

Plus the failure and sharing paths: budgets and faults inside a kernel
evaluation, and one cached plan executed by two sessions at once.

Tests that need the kernel skip without NumPy; the tree-path, fault and
shared-plan tests run either way (the tier-1 CI job installs none).
"""

from __future__ import annotations

import contextlib
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.layout as layout
from repro import Database, EngineConfig, IcebergServer, SmartIceberg, SqlType, TableSchema
from repro.engine import operators as ops
from repro.engine.kernel import lower_inner
from repro.engine.planner import plan_query
from repro.errors import BudgetExceededError, InjectedFaultError, StaleImageError
from repro.obs.tracer import iter_plan_nodes
from repro.serve.retry import RETRYABLE, classify_error
from repro.sql.parser import parse
from repro.testing import without_numpy
from repro.testing.faults import FaultPlan, FaultSpec
from repro.workloads import BaseballConfig, figure1_queries, make_batting_db
from tests.modes import in_mode, mode_kwargs

needs_numpy = pytest.mark.skipif(
    layout.numpy_or_none() is None, reason="the inner kernel needs NumPy"
)


# ---------------------------------------------------------------------------
# Plan-level differential
# ---------------------------------------------------------------------------

#: Access paths: (FROM item, WITH prefix, conjuncts the path consumes).
SOURCES = {
    "range": ("r", "", [":p <= r.a"]),  # IndexRangeScan on r_a
    "range-both": ("r", "", [":p < r.a", "r.a <= :q"]),
    "point": ("r", "", ["r.k = :p"]),  # IndexPointScan on r_k
    "table": ("u", "", []),  # TableScan: u has no index
    "cte": ("c r", "WITH c AS (SELECT k, a, b, f, s, g, t FROM r WHERE k >= 0) ", []),
}

#: Residual predicates, all with a fused columnar filter.
PREDICATES = [
    "",
    "{r}.b >= :q",
    "(:p < {r}.a OR :q < {r}.b)",
    "{r}.b IS NOT NULL AND {r}.s <= 'm'",
    "{r}.b BETWEEN :p AND :q",
    "{r}.t AND NOT ({r}.a = :q)",
]

#: Every aggregate the fold vectorizes, and ones it folds row by row.
AGGREGATES = [
    "COUNT(*)",
    "COUNT({r}.b)",
    "COUNT({r}.s)",
    "SUM({r}.b)",
    "AVG({r}.a)",
    "MIN({r}.b)",
    "MAX({r}.f)",
    "MIN({r}.s)",
    "MAX({r}.t)",
    "SUM({r}.t)",
    "SUM({r}.f)",  # float: accumulators, in row order
    "AVG({r}.f)",
    "COUNT(DISTINCT {r}.b)",
    "SUM({r}.a + {r}.b)",  # computed argument
]

GROUPS = ["", "{r}.g", "{r}.s", "{r}.g, {r}.t"]


@st.composite
def tables(draw):
    small = st.integers(min_value=0, max_value=6)
    rows = draw(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(0, 4)),  # k: duplicate keys
                st.one_of(st.none(), small),  # a: range-indexed, NULLs unindexed
                st.one_of(st.none(), small),
                st.one_of(st.none(), st.sampled_from([0.5, 1.25, -0.0, 0.0, 3.0, 1e300])),
                st.one_of(st.none(), st.sampled_from(["a", "m", "z", ""])),
                st.one_of(st.none(), st.integers(0, 2)),
                st.one_of(st.none(), st.booleans()),
            ),
            max_size=24,
        )
    )
    return rows


def _database(rows) -> Database:
    db = Database()
    schema = TableSchema.of(
        ("k", SqlType.INTEGER),
        ("a", SqlType.INTEGER),
        ("b", SqlType.INTEGER),
        ("f", SqlType.FLOAT),
        ("s", SqlType.TEXT),
        ("g", SqlType.INTEGER),
        ("t", SqlType.BOOLEAN),
    )
    r = db.create_table("r", schema)
    r.insert_many(rows)
    r.create_index("r_a", ["a"], kind="sorted")
    r.create_index("r_k", ["k"], kind="hash")
    db.create_table("u", schema).insert_many(rows)
    return db


def _select(source: str, predicate: str, aggregates, group: str) -> str:
    from_item, with_prefix, consumed = SOURCES[source]
    alias = from_item.split()[-1]
    conjuncts = list(consumed)
    if predicate:
        conjuncts.append(predicate.format(r=alias))
    items = [g.strip() for g in group.format(r=alias).split(",") if g.strip()]
    items += [aggregate.format(r=alias) for aggregate in aggregates]
    sql = f"{with_prefix}SELECT {', '.join(items)} FROM {from_item}"
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if group:
        sql += " GROUP BY " + group.format(r=alias)
    return sql


def _inner_plan(db: Database, sql: str) -> ops.PhysicalOperator:
    return plan_query(db, parse(sql), EngineConfig.smart()).root.child


def _counters(ctx: ops.ExecutionContext):
    counters = ctx.stats.as_dict()
    counters.pop("fused_compilations")
    return counters


def _tree(plan, bindings, columnar):
    with contextlib.nullcontext() if columnar else without_numpy():
        ctx = ops.ExecutionContext(batch_size=7)
        rows = []
        for binding in bindings:
            ctx.params.update(binding)
            rows.append(ops.materialize(plan, ctx))
    return rows, ctx


def _kernel(plan, bindings):
    kernel, why = lower_inner(plan)
    assert kernel is not None, why
    ctx = ops.ExecutionContext()
    rows = []
    for binding in bindings:
        ctx.params.update(binding)
        rows.append(kernel.run(ctx))
    return rows, ctx


@needs_numpy
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=tables(),
    source=st.sampled_from(sorted(SOURCES)),
    predicate=st.sampled_from(PREDICATES),
    aggregates=st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3),
    group=st.sampled_from(GROUPS),
    bindings=st.lists(
        st.fixed_dictionaries(
            {
                # NULL bindings, empty ranges (p > every a), whole ranges.
                "p": st.one_of(st.none(), st.integers(-1, 8)),
                "q": st.one_of(st.none(), st.integers(-1, 8)),
            }
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_kernel_equals_tree_on_random_inners(
    rows, source, predicate, aggregates, group, bindings
):
    db = _database(rows)
    plan = _inner_plan(db, _select(source, predicate, aggregates, group))
    expected_rows, expected = _tree(plan, bindings, columnar=False)
    columnar_rows, columnar = _tree(plan, bindings, columnar=True)
    got_rows, got = _kernel(plan, bindings)
    # repr: 0.0 and -0.0 are equal and must still not be confused.
    assert repr(got_rows) == repr(expected_rows) == repr(columnar_rows)
    assert got.stats.parity_dict() == expected.stats.parity_dict()
    assert got.stats.parity_dict() == columnar.stats.parity_dict()


@needs_numpy
def test_every_access_path_is_lowered():
    db = _database([(1, 2, 3, 0.5, "a", 1, True)])
    scans = {
        source: type(lower_inner(_inner_plan(db, _select(source, "", ["COUNT(*)"], "")))[0].scan).__name__
        for source in SOURCES
    }
    assert scans == {
        "range": "IndexRangeScan",
        "range-both": "IndexRangeScan",
        "point": "IndexPointScan",
        "table": "TableScan",
        "cte": "_MaterializedScan",
    }


@needs_numpy
@pytest.mark.parametrize(
    "sql,reason",
    [
        (
            "SELECT COUNT(*) FROM r, u WHERE r.k = u.k AND :p <= r.a",
            "join-shaped Q_R",
        ),
        (
            "SELECT COUNT(*) FROM u WHERE ABS(u.a) >= :p",
            "predicate has no fused filter",
        ),
        (
            "SELECT DISTINCT COUNT(*) FROM u WHERE u.a >= :p",
            "Distinct above the projection",
        ),
        (
            "SELECT u.g, COUNT(*) FROM u WHERE u.a >= :p GROUP BY u.g HAVING COUNT(*) > 1",
            "Filter under the projection",
        ),
    ],
)
def test_declined_shapes_say_why(sql, reason):
    db = _database([(1, 2, 3, 0.5, "a", 1, True)])
    kernel, why = lower_inner(_inner_plan(db, sql))
    assert kernel is None
    assert why.startswith(reason)


@needs_numpy
def test_integer_sum_beyond_int64_stays_exact():
    """An INTEGER column may hold what ``int64`` cannot; the sum does
    not wrap."""
    db = Database()
    table = db.create_table("u", TableSchema.of(("a", SqlType.INTEGER)))
    table.insert_many([(2**62,), (2**62,), (2**62,), (5,)])
    plan = _inner_plan(db, "SELECT SUM(u.a), MAX(u.a) FROM u WHERE u.a >= :p")
    got, _ = _kernel(plan, [{"p": 0}])
    assert got == [[(3 * 2**62 + 5, 2**62)]]
    table.insert((2**70,))  # no longer an int64 column at all
    got, _ = _kernel(plan, [{"p": 0}])
    assert got == [[(3 * 2**62 + 5 + 2**70, 2**70)]]


# ---------------------------------------------------------------------------
# Statement-level differential
# ---------------------------------------------------------------------------


def _points_db() -> Database:
    """Points with NULL coordinates, duplicates, and a group column."""
    db = Database()
    table = db.create_table(
        "pt",
        TableSchema.of(
            ("id", SqlType.INTEGER),
            ("x", SqlType.INTEGER),
            ("y", SqlType.INTEGER),
            ("w", SqlType.INTEGER),
            ("g", SqlType.TEXT),
        ),
        primary_key=("id",),
    )
    import random

    rng = random.Random(19)
    rows = []
    for i in range(90):
        x = None if i % 17 == 0 else rng.randint(0, 12)
        y = None if i % 23 == 0 else rng.randint(0, 12)
        w = None if i % 7 == 0 else rng.randint(-5, 30)
        rows.append((i, x, y, w, "ab"[i % 2] if i % 11 else None))
    table.insert_many(rows)
    table.create_index("pt_x", ["x"], kind="sorted")
    return db


STATEMENTS = {
    "skyband": (
        "SELECT L.id, COUNT(*) FROM pt L, pt R "
        "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
        "GROUP BY L.id HAVING COUNT(*) <= 12"
    ),
    "sum-min": (
        "SELECT L.id, SUM(R.w), MIN(R.w), COUNT(R.w) FROM pt L, pt R "
        "WHERE L.x < R.x AND L.y < R.y "
        "GROUP BY L.id HAVING COUNT(*) <= 20"
    ),
    "avg-monotone": (
        "SELECT L.id, AVG(R.w) FROM pt L, pt R "
        "WHERE L.x <= R.x AND L.y <= R.y "
        "GROUP BY L.id HAVING COUNT(*) >= 15"
    ),
    "combining": (
        "SELECT L.g, COUNT(*), SUM(R.w) FROM pt L, pt R "
        "WHERE L.x = R.x AND L.y < R.y "
        "GROUP BY L.g HAVING COUNT(*) >= 3"
    ),
}


def _nljp_of(optimized):
    return next(
        (node for node in iter_plan_nodes(optimized.planned.root) if hasattr(node, "qr_plan")),
        None,
    )


def _execute(db, sql, mode="columnar", tree=False, **knobs):
    """Optimize and run ``sql`` on the path ``mode`` names; ``tree``
    forces NLJP's operator tree for Q_R in place."""
    with in_mode(mode):
        optimized = SmartIceberg(db, apriori=False, **mode_kwargs(mode), **knobs).optimize(sql)
        nljp = _nljp_of(optimized)
        if tree and nljp is not None:
            nljp.inner_kernel = None
        result = optimized.execute()
    return result, nljp


def _counters_of(result):
    counters = result.stats.as_dict()
    counters.pop("fused_compilations")
    return counters


@needs_numpy
@pytest.mark.parametrize("name", sorted(STATEMENTS))
@pytest.mark.parametrize("mode", ["row", "batch", "columnar"])
def test_statement_kernel_equals_tree(name, mode):
    """The kernel against the tree on the path ``mode`` names: on the
    row path, which lowers no kernel, every counter modulo the zone-map
    split; in a columnar context at the same batch size, with the tree
    forced in place, every counter."""
    db = _points_db()
    sql = STATEMENTS[name]
    kernel_mode = "columnar" if mode == "row" else mode
    result, nljp = _execute(db, sql, kernel_mode)
    tree, tree_nljp = _execute(db, sql, mode, tree=True)
    assert nljp is not None and nljp.inner_kernel is not None, (
        nljp and nljp.inner_description()
    )
    assert tree_nljp.inner_kernel is None
    assert result.stats.inner_evaluations > 0
    # Unsorted: NLJP's output order follows binding and payload group
    # order, and both must survive the kernel.
    assert result.rows == tree.rows
    if mode == "row":
        assert tree_nljp.inner_description() == "operators (NumPy unavailable)"
        assert result.stats.parity_dict() == tree.stats.parity_dict()
    else:
        assert _counters_of(result) == _counters_of(tree)


@needs_numpy
def test_grouped_inner_keeps_payload_group_order():
    """G_R ≠ ∅: the optimizer leaves this partition alone, so build the
    operator by hand.  NLJP emits a binding's groups in payload order,
    which is HashAggregate's first-seen scan order."""
    from repro.core.iceberg import IcebergBlock
    from repro.core.nljp import NLJPOperator
    from repro.core.pruning import check_pruning
    from repro.engine.planner import PlanEnv

    db = _points_db()
    sql = (
        "SELECT L.id, R.g, COUNT(*), MAX(R.y), SUM(R.w) FROM pt L, pt R "
        "WHERE L.x <= R.x AND L.y <= R.y "
        "GROUP BY L.id, R.g HAVING COUNT(*) >= 6"
    )
    ran = {}
    for tree in (False, True):
        with without_numpy() if tree else contextlib.nullcontext():
            view = IcebergBlock(parse(sql).body, db).partition(["l"])
            env = PlanEnv(db=db, config=EngineConfig.smart())
            nljp = NLJPOperator(view, env, pruning=check_pruning(view))
            assert (nljp.inner_kernel is None) == tree
            assert nljp.g_right == ("r.g",)
            ctx = ops.ExecutionContext()
            ran[tree] = (list(nljp.execute(ctx)), _counters(ctx))
    assert ran[False] == ran[True]
    rows, counters = ran[False]
    assert counters["inner_evaluations"] > 0
    assert len({row[1] for row in rows}) == 3  # 'a', 'b' and NULL groups
    assert set(rows) == set(SmartIceberg(db).execute_baseline(sql).rows)


def test_tree_path_without_numpy_is_taken_and_correct():
    """What the tier-1 CI job's leg without NumPy runs: the operators,
    which say so, and answer like the baseline."""
    db = _points_db()
    sql = STATEMENTS["skyband"]
    result, nljp = _execute(db, sql, "row")
    assert nljp.inner_kernel is None
    assert "inner: operators (NumPy unavailable)" in "\n".join(nljp.describe())
    baseline = SmartIceberg(db).execute_baseline(sql)
    assert sorted(result.rows) == sorted(baseline.rows)


@needs_numpy
def test_describe_and_to_dict_name_the_inner():
    db = make_batting_db(BaseballConfig(n_rows=60, seed=21))
    nljp = _nljp_of(SmartIceberg(db).optimize(figure1_queries()["Q1"].sql))
    assert "  inner: kernel (IndexRangeScan batting_h_hr)" in nljp.describe()
    assert nljp.to_dict()["inner"] == "kernel (IndexRangeScan batting_h_hr)"


# ---------------------------------------------------------------------------
# Budgets, faults, sharing
# ---------------------------------------------------------------------------

BATTING = make_batting_db(BaseballConfig(n_rows=200, seed=21))
Q1 = figure1_queries()["Q1"].sql


@needs_numpy
def test_rows_scanned_budget_trips_inside_a_kernel_evaluation():
    with pytest.raises(BudgetExceededError) as info:
        # Q_B's 200 rows are scanned as one batch first, so the fourth
        # evaluation is where the budget runs out.
        SmartIceberg(BATTING, max_rows_scanned=700).execute(Q1)
    error = info.value
    assert error.budget == "rows_scanned"
    stats = error.stats
    # The evaluation that crossed the limit charged its whole index
    # range before its one scan check.
    assert stats.rows_scanned == error.used > 700
    assert stats.inner_evaluations == 4 and stats.index_probes == 4
    assert stats.aggregation_inputs < stats.rows_scanned


def test_inner_eval_fault_fires_at_the_parents_observation():
    """Hit #11, with the partial counters of ten whole evaluations —
    the numbers the tree gives (and gave before the kernel): in place,
    in the kernel's columnar context, every counter; on the row path,
    all but Q_B's scan, which is pulled there a row at a time."""
    partial = {}
    for path, tree in (("kernel", False), ("tree", True), ("row", True)):
        plan = FaultPlan([FaultSpec(site="inner-eval", after=10)])
        seam = without_numpy() if path == "row" else contextlib.nullcontext()
        with seam, pytest.raises(InjectedFaultError) as info:
            optimized = SmartIceberg(BATTING, fault_plan=plan).optimize(Q1)
            if tree:
                optimized.nljp.inner_kernel = None
            optimized.execute()
        assert "hit #11" in str(info.value)
        assert plan.hits("inner-eval") == 11
        counters = info.value.stats.as_dict()
        counters.pop("fused_compilations")
        partial[path] = counters
    assert partial["kernel"] == partial["tree"]
    for counters in partial.values():
        assert counters["inner_evaluations"] == 11
        assert counters["index_probes"] == 10
        assert counters["aggregation_inputs"] == 668
    assert partial["row"]["rows_scanned"] == 958
    # A columnar Q_B is scanned as one batch of 200 rows, not 18 of them.
    columnar = layout.numpy_or_none() is not None
    assert partial["kernel"]["rows_scanned"] == (958 - 18 + 200 if columnar else 958)


def test_two_sessions_share_one_cached_plan():
    """The kernel is immutable and its columns are per execution, so
    concurrent executions of one cached plan cannot see each other."""
    db = make_batting_db(BaseballConfig(n_rows=150, seed=21))
    expected = sorted(SmartIceberg(db).execute(Q1).rows)
    server = IcebergServer(db)
    results = {}

    def client(name: str) -> None:
        session = server.session()
        results[name] = [sorted(session.execute(Q1).rows) for _ in range(3)]

    threads = [threading.Thread(target=client, args=(f"c{i}",)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {"c0": [expected] * 3, "c1": [expected] * 3}


@needs_numpy
def test_kernel_state_is_per_execution():
    """Two contexts running one kernel interleaved keep their own
    columns and counters."""
    db = make_batting_db(BaseballConfig(n_rows=80, seed=21))
    nljp = _nljp_of(SmartIceberg(db).optimize(Q1))
    kernel = nljp.inner_kernel
    first, second = ops.ExecutionContext(), ops.ExecutionContext()
    for ctx, bound in ((first, 0), (second, 10**6)):
        ctx.params.update(dict.fromkeys(nljp.param_names, bound))
    assert kernel.run(first) != kernel.run(second) == [(0, 0)]
    assert first.materialized.keys() == second.materialized.keys()
    assert all(
        first.materialized[key] is not second.materialized[key]
        for key in first.materialized
    )
    assert first.stats.rows_scanned > second.stats.rows_scanned == 0


@needs_numpy
def test_a_stale_image_beside_a_newer_index_fails_typed(monkeypatch):
    """A read racing ``insert_many`` can take the table's column image
    before a write and the index after it: the index's row ids run past
    the image.  That is a typed, retryable error, not an IndexError."""
    db = make_batting_db(BaseballConfig(n_rows=80, seed=21))
    table = db.table("batting")
    nljp = _nljp_of(SmartIceberg(db).optimize(Q1))
    kernel = nljp.inner_kernel
    assert type(kernel.scan).__name__ == "IndexRangeScan"
    image = table.column_store()
    table.insert_many([(90_000 + i,) + table.rows[i][1:] for i in range(5)])
    monkeypatch.setattr(table, "column_store", lambda: image)
    ctx = ops.ExecutionContext()
    ctx.params.update(dict.fromkeys(nljp.param_names, 0))
    with pytest.raises(StaleImageError, match="past a column image of 80 rows"):
        kernel.run(ctx)
    assert classify_error(StaleImageError("")) == RETRYABLE
