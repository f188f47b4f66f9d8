"""The block kernel against the operator tree it evaluates ahead of.

A join-shaped Q_R is lowered to :class:`repro.engine.kernel.BlockKernel`;
under a columnar context NLJP has it evaluate the next block of bindings
together and consumes the results one binding at a time.  The contract:
rows (payload group order included), every work counter, the cache's
entries, their hits and their LRU order equal the tree's, whatever was
evaluated ahead — only ``inner_prefetch_discarded`` says that anything
was.

* *plan level* — random select-aggregates over two or three relations,
  every access path and both join operators the kernel accepts; a
  block's evaluations, consumed, against ``ops.materialize`` of the very
  plan, binding by binding;
* *statement level* — NLJP operators over the cyclic, unpivoted and
  basket schemas (NULLs, duplicate rows, float weights), the tree forced
  with ``operator.inner_kernel = None``, across cache policies, governor
  ceilings, early stops and an injected fault;
* speculation, sharing, descriptions, and the no-NumPy fallback.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.layout as layout
from repro import Database, EngineConfig, IcebergServer, SmartIceberg, SqlType, TableSchema
from repro.core import nljp as nljp_module
from repro.core.iceberg import IcebergBlock
from repro.core.nljp import NLJPOperator
from repro.core.pruning import check_pruning
from repro.engine import operators as ops
from repro.engine.governor import Governor
from repro.engine.kernel import BlockKernel, lower_inner
from repro.engine.planner import PlanEnv, plan_query
from repro.errors import InjectedFaultError
from repro.obs.tracer import iter_plan_nodes
from repro.sql.parser import parse
from repro.testing import without_numpy
from repro.testing.faults import FaultPlan, FaultSpec
from repro.workloads import CyclicConfig, complex_query, make_cyclic_db, triangle_hub_query

needs_numpy = pytest.mark.skipif(
    layout.numpy_or_none() is None, reason="the block kernel needs NumPy"
)

#: Counters that say how a statement was evaluated, not what it cost.
MODE_VARIANT = ("fused_compilations", "inner_prefetch_discarded")


def _counters(stats):
    counters = stats.as_dict()
    for name in MODE_VARIANT:
        counters.pop(name)
    return counters


# ---------------------------------------------------------------------------
# Plan-level differential
# ---------------------------------------------------------------------------

SCHEMA = TableSchema.of(
    ("k", SqlType.INTEGER),
    ("a", SqlType.INTEGER),
    ("b", SqlType.INTEGER),
    ("f", SqlType.FLOAT),
    ("s", SqlType.TEXT),
    ("g", SqlType.INTEGER),
    ("t", SqlType.BOOLEAN),
)

#: The leaf ``r``'s access paths (conjuncts the scan consumes).
LEAVES = ["r.k = :p", ":p <= r.a", "r.a < :q AND :p <= r.a", ""]

#: (second relation, join conjuncts): ``w`` has hash indexes (the wide
#: ``w_kg`` too), ``u`` has none, so it is hash-joined.
JOINS = [
    ("w", "w.k = r.b"),
    ("w", "w.k = r.b AND w.g = :q"),  # an equality on the binding: w_kg
    ("w", "w.b = r.b AND w.a >= :p"),
    ("w", "w.k = r.g AND w.s <= 'm' AND r.a < w.a"),
    ("u", "u.k = r.k"),
    ("u", "u.k = r.b AND u.a >= :p"),
    ("u", "u.g = r.g AND u.b = r.b AND r.a <= u.a"),
]

AGGREGATES = [
    "COUNT(*)",
    "SUM({x}.f)",  # float: accumulators, in row order
    "AVG({x}.f)",
    "SUM({x}.b)",
    "MIN({x}.s)",
    "MAX(r.a)",
    "COUNT({x}.t)",
    "COUNT(DISTINCT {x}.b)",
    "SUM(r.a + {x}.b)",
]

GROUPS = ["", "{x}.g", "r.s, {x}.t"]


def _rows(max_size):
    small = st.integers(min_value=0, max_value=6)
    return st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 4)),
            st.one_of(st.none(), small),
            st.one_of(st.none(), small),
            st.one_of(st.none(), st.sampled_from([0.5, 0.1, 0.2, -0.0, 0.0, 3.0, 1e300])),
            st.one_of(st.none(), st.sampled_from(["a", "m", "z", ""])),
            st.one_of(st.none(), st.integers(0, 2)),
            st.one_of(st.none(), st.booleans()),
        ),
        max_size=max_size,
    )


def _plan_database(r_rows, w_rows, u_rows) -> Database:
    db = Database()
    r = db.create_table("r", SCHEMA)
    r.insert_many(r_rows)
    r.create_index("r_a", ["a"], kind="sorted")
    r.create_index("r_k", ["k"], kind="hash")
    w = db.create_table("w", SCHEMA)
    w.insert_many(w_rows)
    w.create_index("w_k", ["k"], kind="hash")
    w.create_index("w_b", ["b"], kind="hash")
    w.create_index("w_kg", ["k", "g"], kind="hash")
    db.create_table("u", SCHEMA).insert_many(u_rows)
    return db


def _select(leaf, join, third, aggregates, group) -> str:
    table, conjunct = join
    conjuncts = [c for c in (leaf, conjunct) if c]
    from_items = f"r, {table}"
    if third:
        from_items += ", w w2"
        conjuncts.append(f"w2.k = {table}.g AND w2.a <> :q")
    group = group.format(x=table)
    items = ([group] if group else []) + [a.format(x=table) for a in aggregates]
    sql = f"SELECT {', '.join(items)} FROM {from_items} WHERE {' AND '.join(conjuncts)}"
    return sql + (f" GROUP BY {group}" if group else "")


def _tree(plan, bindings):
    with without_numpy():
        ctx = ops.ExecutionContext()
        rows = []
        for binding in bindings:
            ctx.params.update(binding)
            rows.append(ops.materialize(plan, ctx))
    return rows, _counters(ctx.stats)


def _block(kernel, bindings, batch_size):
    ctx = ops.ExecutionContext(batch_size=batch_size)
    evaluations = kernel.evaluate(ctx, [(b["p"], b["q"]) for b in bindings])
    assert _counters(ctx.stats) == _counters(ops.ExecutionContext().stats)
    rows = []
    for binding, evaluation in zip(bindings, evaluations):
        ctx.params.update(binding)
        rows.append(kernel.run(ctx, evaluation))
    return rows, _counters(ctx.stats)


@needs_numpy
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    tables=st.tuples(_rows(24), _rows(24), _rows(24)),
    leaf=st.sampled_from(LEAVES),
    join=st.sampled_from(JOINS),
    third=st.booleans(),
    aggregates=st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3),
    group=st.sampled_from(GROUPS),
    hash_first=st.booleans(),
    run_limit=st.sampled_from([1, 3, 1 << 13]),
    batch_size=st.sampled_from([3, 1024]),
    bindings=st.lists(
        st.fixed_dictionaries(
            {
                # NULL and duplicate bindings, ones that join nothing.
                "p": st.one_of(st.none(), st.integers(-1, 8)),
                "q": st.one_of(st.none(), st.integers(-1, 8)),
            }
        ),
        min_size=1,
        max_size=9,
    ),
)
def test_block_equals_tree_on_random_joins(
    tables, leaf, join, third, aggregates, group, hash_first, run_limit, batch_size,
    bindings,
):
    db = _plan_database(*tables)
    config = EngineConfig(join_policy="hash-first") if hash_first else EngineConfig.smart()
    sql = _select(leaf, join, third, aggregates, group)
    plan = plan_query(db, parse(sql), config).root.child
    kernel, why = lower_inner(plan, ("p", "q"))
    if kernel is None:  # a range join, which the kernel leaves to the tree
        assert "SortedIndexRangeJoin" in why, why
        return
    assert isinstance(kernel, BlockKernel)
    expected = _tree(plan, bindings)
    with pytest.MonkeyPatch.context() as patch:
        # Runs of one and three pairs: every run boundary, in every join.
        patch.setattr(ops, "COLUMNAR_MATCH_ROWS", run_limit)
        got = _block(kernel, bindings, batch_size)
    # repr: 0.0 and -0.0 are equal and must still not be confused.
    assert repr(got) == repr(expected)


@needs_numpy
def test_every_chain_shape_is_lowered_and_named():
    db = _plan_database([(1, 2, 3, 0.5, "a", 1, True)] * 3, [(1, 2, 3, 0.5, "a", 1, True)], [])

    def described(sql, config=EngineConfig.smart()):
        plan = plan_query(db, parse(sql), config).root.child
        kernel, why = lower_inner(plan, ("p", "q"))
        return kernel.describe() if kernel is not None else why

    count = "SELECT COUNT(*) FROM "
    assert described(count + "r, w WHERE r.k = :p AND w.k = r.b") == (
        "IndexPointScan r_k → IndexNestedLoopJoin w_k"
    )
    # The binding's equality widens the probe from w_k to w_kg.
    assert described(count + "r, w WHERE :p <= r.a AND w.k = r.b AND w.g = :q") == (
        "IndexRangeScan r_a → IndexNestedLoopJoin w_kg"
    )
    assert described(count + "r, u WHERE u.k = r.k AND u.a >= :p") == (
        "TableScan r → HashJoin (TableScan u)"
    )
    assert described(count + "w, r WHERE w.k = :p AND w.a < r.a") == (
        "join-shaped Q_R: SortedIndexRangeJoin"
    )
    assert described(count + "r, w WHERE w.k = r.b AND ABS(w.a) >= :p") == (
        "join-shaped Q_R: IndexNestedLoopJoin, predicate has no fused filter"
    )
    sql = count + "r, w WHERE r.k = :p AND w.k = r.b"
    plan = plan_query(db, parse(sql), EngineConfig.smart()).root.child
    assert lower_inner(plan) == (
        None,
        "join-shaped Q_R: IndexNestedLoopJoin, and no binding to make a block of",
    )


# ---------------------------------------------------------------------------
# Statement-level differential
# ---------------------------------------------------------------------------


def _cyclic(rng: random.Random, size: int) -> Database:
    db = Database()
    table = db.create_table(
        "edge",
        TableSchema.of(
            ("src", SqlType.INTEGER), ("dst", SqlType.INTEGER), ("weight", SqlType.FLOAT)
        ),
    )
    null = lambda value: None if rng.random() < 0.08 else value
    table.insert_many(
        (
            null(rng.randint(0, 6)),
            null(rng.randint(0, 6)),
            null(rng.choice([0.1, 0.2, 0.5, 1e300, -0.0, 3.0])),
        )
        for _ in range(size)  # no key: duplicate edges, duplicate bindings
    )
    table.create_index("edge_pkey", ["src", "dst"], kind="hash")
    table.create_index("edge_src", ["src"], kind="hash")
    table.create_index("edge_dst", ["dst"], kind="hash")
    return db


def _unpivoted(rng: random.Random, size: int) -> Database:
    db = Database()
    table = db.create_table(
        "perf",
        TableSchema.of(
            ("id", SqlType.INTEGER),
            ("category", SqlType.TEXT),
            ("attr", SqlType.TEXT),
            ("val", SqlType.FLOAT),
        ),
        primary_key=("id", "attr"),
    )
    db.declare_fd("perf", ["id"], ["category"])
    rows = []
    for player in range(max(1, size // 3)):
        category = rng.choice(["c", "of", "p"])
        for attr in ("h", "hr", "sb"):
            value = None if rng.random() < 0.08 else float(rng.randint(0, 9))
            rows.append((player, category, attr, value))
    table.insert_many(rows)
    table.create_index("perf_cat_attr", ["category", "attr"], kind="hash")
    table.create_index("perf_id", ["id"], kind="hash")
    return db


def _baskets(rng: random.Random, size: int) -> Database:
    db = Database()
    table = db.create_table(
        "basket", TableSchema.of(("bid", SqlType.INTEGER), ("item", SqlType.TEXT))
    )
    null = lambda value: None if rng.random() < 0.06 else value
    table.insert_many(
        (null(rng.randint(0, max(2, size // 5))), null(rng.choice("abcdefg")))
        for _ in range(size)
    )
    table.create_index("basket_pkey", ["bid", "item"], kind="hash")
    table.create_index("basket_bid", ["bid"], kind="hash")
    return db


def _loose_baskets(rng: random.Random, size: int) -> Database:
    """Baskets with no index at all: Q_R hash-joins two full scans."""
    db = _baskets(rng, size)
    for name in ("basket_pkey", "basket_bid"):
        db.table("basket").drop_index(name)
    return db


def _objects(rng: random.Random, size: int) -> Database:
    """Skyband points whose inner side joins a tag table: the one
    schema here whose Q_C is decided a window at a time."""
    db = Database()
    points = db.create_table(
        "object",
        TableSchema.of(
            ("id", SqlType.INTEGER),
            ("x", SqlType.INTEGER),
            ("y", SqlType.INTEGER),
            ("tag", SqlType.TEXT),
        ),
        primary_key=("id",),
    )
    points.insert_many(
        (i, rng.randint(0, 9), rng.randint(0, 9), rng.choice(["a", "b", None]))
        for i in range(size)
    )
    tags = db.create_table(
        "label", TableSchema.of(("tag", SqlType.TEXT), ("rank", SqlType.INTEGER))
    )
    tags.insert_many([("a", 1), ("a", 2), ("b", 3)])
    tags.create_index("label_tag", ["tag"], kind="hash")
    return db


TRIANGLE = (
    "FROM edge e1, edge e2, edge e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src "
)

#: name -> (schema, SQL, driver aliases).
STATEMENTS = {
    "triangles": (
        _cyclic,
        "SELECT e1.src, COUNT(*) " + TRIANGLE + "GROUP BY e1.src HAVING COUNT(*) >= 2",
        ["e1"],
    ),
    "weights": (  # float SUM and AVG, combined across bindings
        _cyclic,
        "SELECT e1.src, SUM(e3.weight), AVG(e2.weight), COUNT(*) "
        + TRIANGLE
        + "GROUP BY e1.src HAVING COUNT(*) >= 1",
        ["e1"],
    ),
    "paths": (  # pruning through equality buckets, and the memo
        _cyclic,
        "SELECT e1.src, e1.dst, e1.weight, COUNT(*) FROM edge e1, edge e2, edge e3 "
        "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e1.weight <= e3.weight "
        "GROUP BY e1.src, e1.dst, e1.weight HAVING COUNT(*) <= 3",
        ["e1"],
    ),
    "fans": (  # G_R is not empty: payload group order
        _cyclic,
        "SELECT e1.src, e3.dst, COUNT(*), SUM(e2.weight) FROM edge e1, edge e2, edge e3 "
        "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e1.weight <= e3.weight "
        "GROUP BY e1.src, e3.dst HAVING COUNT(*) >= 2",
        ["e1"],
    ),
    "complex": (_unpivoted, complex_query(2), ["s1", "s2"]),
    "triples": (
        _baskets,
        "SELECT i1.item, COUNT(*) FROM basket i1, basket i2, basket i3 "
        "WHERE i1.bid = i2.bid AND i2.bid = i3.bid "
        "AND i1.item < i2.item AND i2.item < i3.item "
        "GROUP BY i1.item HAVING COUNT(*) >= 2",
        ["i1"],
    ),
    "triples-hashed": (
        _loose_baskets,
        "SELECT i1.item, COUNT(*), MIN(i3.item) FROM basket i1, basket i2, basket i3 "
        "WHERE i1.bid = i2.bid AND i2.bid = i3.bid "
        "AND i1.item < i2.item AND i2.item < i3.item "
        "GROUP BY i1.item HAVING COUNT(*) >= 2",
        ["i1"],
    ),
    "tagged-skyband": (  # a windowed loop around a block kernel
        _objects,
        "SELECT L.id, COUNT(*) FROM object L, object R, label T "
        "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
        "AND R.tag = T.tag GROUP BY L.id HAVING COUNT(*) <= 4",
        ["l"],
    ),
}


def _operator(db, sql, left, **options) -> NLJPOperator:
    view = IcebergBlock(parse(sql).body, db).partition(left)
    env = PlanEnv(db=db, config=EngineConfig.smart())
    return NLJPOperator(view, env, pruning=check_pruning(view), **options)


def _observe(name, seed, size, tree, options, budget, take, batch_size, fault, executions=2):
    """Run ``executions`` times on one shared store; everything visible."""
    schema, sql, left = STATEMENTS[name]
    operator = _operator(schema(random.Random(seed), size), sql, left, **options)
    assert isinstance(operator.inner_kernel, BlockKernel), operator.inner_description()
    if tree:
        operator.inner_kernel = None
    store = operator.memo_store = operator.new_store()
    seen = []
    discarded = 0
    for _ in range(executions):
        ctx = ops.ExecutionContext(batch_size=batch_size)
        plan = None
        if fault is not None:
            plan = FaultPlan([FaultSpec(site="inner-eval", after=fault)])
        if budget is not None or plan is not None:
            ctx.governor = Governor(
                ctx.stats, max_cache_bytes=budget, degradation="fallback", fault_plan=plan
            )
        produced = operator.execute(ctx)
        try:
            rows = list(itertools.islice(produced, take))
        except InjectedFaultError as error:
            rows = ["fault", str(error)]
        produced.close()
        seen.append((repr(rows), _counters(ctx.stats), list(ctx.stats.degradations)))
        discarded += ctx.stats.inner_prefetch_discarded
        state = ctx.materialized.get(operator.inner_kernel)
        if state is not None and take is None and fault is None:
            # Whatever was evaluated ahead was consumed, or dropped.
            assert not state.prefetched
    view = operator.prune_view  # the plan's verdicts, kept between executions
    entries = [
        (repr(binding), repr(entry.payload), view.holds(entry), entry.hits)
        for binding, entry in store._entries.items()  # in LRU order
    ]
    return (seen, entries, store.counters()), discarded, operator


CACHES = [
    {},
    {"cache_max_entries": 5, "cache_policy": "lru"},  # evicts inside a block
    {"cache_max_entries": 5, "cache_policy": "utility"},
]
TECHNIQUES = [
    {"enable_memo": True, "enable_pruning": True},
    {"enable_memo": True, "enable_pruning": False},
    # No memo: a duplicate binding is evaluated, and charged, twice.
    {"enable_memo": False, "enable_pruning": True},
    {"enable_memo": False, "enable_pruning": False},
]


@needs_numpy
@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(STATEMENTS)),
    seed=st.integers(0, 10_000),
    size=st.integers(0, 70),
    technique=st.sampled_from(TECHNIQUES),
    bounded=st.sampled_from(CACHES),
    cache_index=st.booleans(),
    budget=st.sampled_from([None, None, 150, 600]),
    take=st.sampled_from([None, None, None, 0, 1, 3]),
    batch_size=st.sampled_from([7, 64, 4096]),
    fault=st.sampled_from([None, None, None, 0, 5, 12]),
    min_block=st.sampled_from([2, 4, 16]),
)
def test_blocks_equal_the_tree(
    name, seed, size, technique, bounded, cache_index, budget, take, batch_size,
    fault, min_block,
):
    options = {**technique, **bounded, "cache_index": cache_index}
    arguments = (options, budget, take, batch_size, fault)
    with pytest.MonkeyPatch.context() as patch:
        # Small blocks: several to a statement, evictions and faults inside.
        patch.setattr(nljp_module, "_MIN_BLOCK", min_block)
        blocks, _, operator = _observe(name, seed, size, False, *arguments)
    tree, discarded, reference = _observe(name, seed, size, True, *arguments)
    assert blocks == tree
    assert discarded == 0 and reference.inner_description() == "operators ()"
    assert operator.inner_description().startswith("block kernel (")


@needs_numpy
def test_a_duplicate_binding_without_memo_is_charged_twice():
    observed = {}
    for tree in (False, True):
        (seen, _, _), _, _ = _observe(
            "triangles", 3, 60, tree, {"enable_memo": False}, None, None, 4096, None, 1
        )
        observed[tree] = seen[0][1]
    assert observed[False] == observed[True]
    schema, sql, left = STATEMENTS["triangles"]
    operator = _operator(schema(random.Random(3), 60), sql, left)
    bindings = [
        tuple(row[p] for p in operator.binding_positions)
        for row in ops.materialize(operator.qb_plan, ops.ExecutionContext())
    ]
    assert len(set(bindings)) < len(bindings) == observed[False]["inner_evaluations"]


@pytest.mark.parametrize("columnar", [True, False])
def test_only_the_bindings_names_are_set_and_they_are_taken_back(columnar):
    """Also when the inner raises, and also a statement parameter that
    a binding's name hides; on either path."""
    with contextlib.nullcontext() if columnar else without_numpy():
        _bindings_names_are_taken_back()


def _bindings_names_are_taken_back():
    schema, sql, left = STATEMENTS["triangles"]
    operator = _operator(schema(random.Random(3), 60), sql, left)
    hidden = operator.param_names[0]
    for fault in (None, FaultPlan([FaultSpec(site="scan", after=4)])):
        ctx = ops.ExecutionContext(batch_size=64)
        ctx.params.update({hidden: "the statement's", "k": 1})
        ctx.governor = Governor(ctx.stats, fault_plan=fault)
        seen = []
        inner = operator._run_inner
        operator._run_inner = lambda c, b: seen.append(dict(c.params)) or inner(c, b)
        raised = False
        try:
            list(operator.execute(ctx))
        except InjectedFaultError:
            raised = True
        finally:
            del operator._run_inner
        assert raised == (fault is not None)
        assert seen and all(params == seen[0] for params in seen)
        assert ctx.params == seen[0] == {hidden: "the statement's", "k": 1}


# ---------------------------------------------------------------------------
# Speculation
# ---------------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("name", ["paths", "tagged-skyband", "complex"])
def test_a_pruned_prefetch_is_dropped_and_counted(name):
    """An unpromising insertion inside a block prunes a binding the
    block had evaluated ahead: the result is dropped, the pruning
    decision and its checks are the loop's."""
    arguments = ({}, None, None, 4096, None, 1)
    (seen, entries, counters), discarded, operator = _observe(name, 11, 70, False, *arguments)
    tree, _, _ = _observe(name, 11, 70, True, *arguments)
    assert (seen, entries, counters) == tree
    stats = seen[0][1]
    assert stats["pruned_bindings"] > 0 and stats["prune_checks"] > 0
    assert 0 < discarded <= stats["pruned_bindings"]
    if name == "tagged-skyband":
        assert operator.loop_ran.startswith("windowed")


@needs_numpy
def test_speculation_backs_off_while_it_is_wasted():
    """All but the first few bindings are pruned: blocks halve down to
    none, so far fewer results are thrown away than bindings pruned."""
    db = Database()
    points = db.create_table(
        "object",
        TableSchema.of(
            ("id", SqlType.INTEGER), ("x", SqlType.INTEGER), ("y", SqlType.INTEGER),
            ("tag", SqlType.TEXT),
        ),
        primary_key=("id",),
    )
    # Distinct text tags keep Q_B's batch out of the windowed loop, so
    # every pruning decision is made inside a block.
    points.insert_many((i, 0, 0, "a") for i in range(600))
    labels = db.create_table(
        "label", TableSchema.of(("tag", SqlType.TEXT), ("rank", SqlType.INTEGER))
    )
    labels.insert_many([("a", 1)])
    labels.create_index("label_tag", ["tag"], kind="hash")
    sql = (
        "SELECT L.id, COUNT(*) FROM object L, object R, label T "
        "WHERE L.x <= R.x AND L.y <= R.y AND L.tag = R.tag AND R.tag = T.tag "
        "GROUP BY L.id HAVING COUNT(*) <= 4"
    )
    observed = {}
    for tree in (False, True):
        operator = _operator(db, sql, ["l"], enable_memo=False)
        if tree:
            operator.inner_kernel = None
        ctx = ops.ExecutionContext(batch_size=4096)
        observed[tree] = (list(operator.execute(ctx)), _counters(ctx.stats))
        if not tree:
            discarded = ctx.stats.inner_prefetch_discarded
            assert operator.loop_ran.startswith("per binding")
    assert observed[False] == observed[True]
    pruned = observed[False][1]["pruned_bindings"]
    assert pruned > 500
    assert 0 < discarded <= pruned // 2 + nljp_module._MIN_BLOCK


# ---------------------------------------------------------------------------
# Sharing, descriptions, fallbacks
# ---------------------------------------------------------------------------


#: These statements run faster, by estimate, as the a-priori join alone;
#: Listing 9's rule makes them run the NLJP these tests are about.
FORCED = dict(technique_choice="first-applicable")
#: ``triangle_hub``'s NLJP with a join-shaped Q_R is the server's.
BLOCK_NLJP = dict(cross_query_memo=True, **FORCED)


def _nljp_of(optimized):
    return next(
        node for node in iter_plan_nodes(optimized.planned.root) if hasattr(node, "qr_plan")
    )


def test_two_sessions_share_one_cached_plan():
    db = make_cyclic_db(CyclicConfig(n_edges=300, seed=7))
    sql = triangle_hub_query(2)
    expected = sorted(SmartIceberg(db).execute(sql).rows)
    server = IcebergServer(db)
    results = {}

    def client(name: str) -> None:
        session = server.session()
        results[name] = [sorted(session.execute(sql).rows) for _ in range(3)]

    threads = [threading.Thread(target=client, args=(f"c{i}",)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {"c0": [expected] * 3, "c1": [expected] * 3}


@needs_numpy
def test_prefetch_state_is_per_execution():
    """Two contexts running one kernel keep their own results: what one
    evaluated ahead the other neither sees nor pays for."""
    db = make_cyclic_db(CyclicConfig(n_edges=300, seed=7))
    nljp = _nljp_of(SmartIceberg(db, **BLOCK_NLJP).optimize(triangle_hub_query(2)))
    kernel = nljp.inner_kernel
    assert isinstance(kernel, BlockKernel)
    first, second = (ops.ExecutionContext(batch_size=64) for _ in range(2))
    bindings = [(src, dst) for src, dst, _ in db.table("edge").rows[:20]]
    kernel.prefetch(first, dict.fromkeys(bindings, 1))
    assert kernel.take(second, bindings[0]) is None
    assert first.materialized[kernel] is not second.materialized[kernel]
    ahead = kernel.take(first, bindings[0])
    assert ahead is not None and kernel.take(first, bindings[0]) is None
    first.params.update(zip(nljp.param_names, bindings[0]))
    kernel.run(first, ahead)
    assert first.stats.index_probes > 0 == second.stats.index_probes


@needs_numpy
def test_describe_and_to_dict_say_which_path_ran_and_why():
    db = make_cyclic_db(CyclicConfig(n_edges=300, seed=7))
    optimized = SmartIceberg(db, **BLOCK_NLJP).optimize(triangle_hub_query(2))
    nljp = _nljp_of(optimized)
    block = "block kernel (IndexPointScan edge_src → IndexNestedLoopJoin edge_pkey)"
    assert f"  inner: {block}" in nljp.describe()
    with without_numpy():
        row = SmartIceberg(db, **BLOCK_NLJP).optimize(triangle_hub_query(2))
        row.execute()
    assert _nljp_of(row).to_dict()["inner"] == "operators (NumPy unavailable)"
    optimized.execute()
    assert nljp.to_dict()["inner"] == block
    assert f"  inner: {block}" in nljp.describe()


@needs_numpy
@pytest.mark.parametrize("knobs", [dict(trace="timing"), dict(feedback="observe")])
def test_observers_see_the_trees_rows_and_loops(knobs):
    """Q_R's nodes never run, yet EXPLAIN ANALYZE, the feedback store
    and the span tree read what they read off the tree: rows per
    evaluation and loops per node, and spans that sum to the totals."""
    from repro.workloads.baseball import dense_config
    from repro.workloads import load_unpivoted

    db = Database()
    load_unpivoted(db, dense_config(240, 2017), n_categories=4)
    seen = {}
    for tree in (False, True):
        optimized = SmartIceberg(db, **FORCED, **knobs).optimize(complex_query(4))
        nljp = _nljp_of(optimized)
        if tree:
            nljp.inner_kernel = None
        result = optimized.execute()
        explained = nljp.qr_plan.explain()
        # The tree runs Q_R row at a time; only the kernel's fold has a line.
        assert ("fold: codes → columns" in explained) == (not tree)
        explained = "\n".join(
            line for line in explained.splitlines() if "fold:" not in line
        )
        seen[tree] = (result.rows, _counters(result.stats), explained)
        assert "loops=453" in seen[tree][2]
        if result.profile is not None:
            totals = result.profile.total_stats()
            assert {k: v for k, v in totals.items() if v} == {
                k: v for k, v in result.stats.as_dict().items() if v
            }
            kernels = [
                span for span in result.profile.root.walk() if span.kind == "kernel"
            ]
            assert [span.name for span in kernels] == ([] if tree else ["BlockKernel"])
            if not tree:
                assert kernels[0].loops == kernels[0].attrs["prefetched"] == 453
    assert seen[False] == seen[True]


def test_the_tree_is_the_fallback_without_numpy():
    """What the tier-1 CI job's leg without NumPy runs."""
    db = make_cyclic_db(CyclicConfig(n_edges=300, seed=7))
    engine = SmartIceberg(db, **BLOCK_NLJP)
    with without_numpy():
        optimized = engine.optimize(triangle_hub_query(2))
        nljp = _nljp_of(optimized)
        assert nljp.inner_kernel is None
        assert "  inner: operators (NumPy unavailable)" in nljp.describe()
        result = optimized.execute()
        baseline = engine.execute_baseline(triangle_hub_query(2))
    assert result.stats.inner_prefetch_discarded == 0
    assert sorted(result.rows) == sorted(baseline.rows)


@needs_numpy
def test_the_query_log_and_report_carry_the_speculation_counters():
    from repro.obs.report import aggregate, render
    from repro.workloads import load_unpivoted
    from repro.workloads.baseball import dense_config

    db = Database()
    load_unpivoted(db, dense_config(240, 2017), n_categories=4)
    server = IcebergServer(db, **FORCED)
    result = server.session().execute(complex_query(4))
    record = server.query_log.to_list()[-1]
    assert record["inner_evaluations"] == result.stats.inner_evaluations > 0
    assert record["inner_prefetch_discarded"] == result.stats.inner_prefetch_discarded
    summary = aggregate(server.query_log.to_list())
    assert summary["inner"] == {
        "evaluations": result.stats.inner_evaluations,
        "prefetch_discarded": result.stats.inner_prefetch_discarded,
    }
    assert "inner evaluations" in render(summary)
