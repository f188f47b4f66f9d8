"""NLJP's windowed skip-ahead against the per-binding loop it fronts.

Under a columnar context ``NLJPOperator._skip_ahead`` decides Q_C for a
window of upcoming bindings on arrays (``NLJPCache.prunable``) and
charges the pruned ones without walking them.  Nothing it skips may
differ from ``_lookup_or_compute`` taking every binding in turn: rows
*in order*, every counter, the pruning candidates, the memo's order and
each entry's hits — also when the consumer stops early, the cache evicts
or the governor takes it away mid-stream.

* ``TestKernel`` — ``prunable`` against ``first_pruner`` pair by pair on
  random caches, including the values an array cannot hold exactly
  (NULL, NaN, integers beside floats, text), where it must decline.
* ``TestDifferential`` — whole executions, windowed against the loop
  forced per binding, over random binding streams.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import nljp as nljp_module
from repro.core.cache import NLJPCache
from repro.core.iceberg import IcebergBlock
from repro.core.nljp import NLJPOperator
from repro.core.pruning import check_pruning
from repro.engine import EngineConfig, layout
from repro.engine.governor import Governor
from repro.engine.operators import ExecutionContext
from repro.engine.planner import PlanEnv
from repro.sql.parser import parse
from repro.storage import Database, SqlType, TableSchema

np = layout.numpy_or_none()
pytestmark = pytest.mark.skipif(np is None, reason="the skip-ahead needs NumPy")

NAN = object()  # stands for a NaN until a value is drawn


def _values(*choices):
    return st.sampled_from(choices).map(lambda v: float("nan") if v is NAN else v)


INTS = _values(0, 1, 2, 3, 4, 5, 2, 3)
FLOATS = _values(0.0, -0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 1.0)
#: What an int64/float64 array cannot hold beside the rest, exactly.
ODD_INTS = _values(None, 2**53 + 1, 2**63, 1.0, "a", True)
ODD_FLOATS = _values(None, NAN, 2**53 + 1, "a")


# ---------------------------------------------------------------------------
# The kernel against the walk
# ---------------------------------------------------------------------------

PREDICATES = {
    # new ⪰ cached of a two-attribute dominance (the skyband's p⪰) ...
    "dominance": (
        lambda new, cached: new[0] is not None
        and new[1] is not None
        and cached[0] is not None
        and cached[1] is not None
        and new[0] <= cached[0]
        and new[1] <= cached[1],
        lambda new, cached: (new[0] <= cached[0]) & (new[1] <= cached[1]),
    ),
    # ... and a disjunction with an atom over the cached side alone.
    "band": (
        lambda new, cached: None not in new
        and None not in cached
        and (
            cached[0] < cached[1]
            or (new[1] <= cached[1] and cached[0] <= new[0])
        ),
        lambda new, cached: (cached[0] < cached[1])
        | ((new[1] <= cached[1]) & (cached[0] <= new[0])),
    ),
}


def _bound(order_bound, binding):
    if order_bound is None:
        return {}
    position, is_low, strict = order_bound
    side = "low" if is_low else "high"
    return {side: binding[position], f"{side}_strict": strict}


@st.composite
def caches(draw):
    kind = draw(st.sampled_from(["int", "float"]))
    plain, odd = (INTS, ODD_INTS) if kind == "int" else (FLOATS, ODD_FLOATS)
    value = st.one_of(plain, plain, plain, odd) if draw(st.booleans()) else plain
    bindings = st.tuples(value, value)
    cached = draw(st.lists(st.tuples(bindings, st.booleans()), max_size=30))
    evicted = draw(st.lists(st.integers(0, 29), max_size=4))
    window = draw(st.lists(st.tuples(plain, plain), min_size=1, max_size=40))
    order_bound = draw(
        st.sampled_from([None, (0, True, False), (0, True, True), (1, False, False), (1, False, True)])
    )
    return kind, cached, evicted, window, order_bound


class TestKernel:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        case=caches(),
        predicate=st.sampled_from(sorted(PREDICATES)),
        memo=st.booleans(),
        ask_early=st.booleans(),
    )
    def test_prunable_is_first_pruner_pair_by_pair(
        self, case, predicate, memo, ask_early
    ):
        kind, cached, evicted, window, order_bound = case
        should_prune, test = PREDICATES[predicate]
        cache = NLJPCache(
            order_position=None if order_bound is None else order_bound[0],
            max_entries=64,
            policy="lru",
        )
        columns = [
            np.array([b[p] for b in window], dtype="i8" if kind == "int" else "f8")
            for p in range(2)
        ]
        if ask_early:  # the image is kept from the first call on
            assert cache.prunable(window, columns, memo, test, order_bound) is None
        for binding, unpromising in cached:
            try:
                cache.put(binding, (), unpromising)
            except TypeError:  # bisect cannot order text beside numbers
                return
        for index in evicted:
            if index < len(cached):
                cache.evict_until(cache.estimated_bytes() - 1)
        try:
            expected = [
                cache.first_pruner(b, should_prune, **_bound(order_bound, b))
                for b in window
            ]
        except TypeError:  # a text key under the order index
            return
        if order_bound is not None and any(
            b[order_bound[0]] != b[order_bound[0]] for b in window
        ):
            return  # NLJP walks a NaN key per binding
        decided = cache.prunable(window, columns, memo, test, order_bound)
        if decided is None:
            return
        version, pruned, checks = decided
        assert version == cache.version()
        held = [memo and cache.get(b) is not None for b in window]
        for position, (count, hit) in enumerate(expected):
            if held[position]:
                assert not pruned[position]
            else:
                assert bool(pruned[position]) == (hit is not None), window[position]
                assert int(checks[position]) == count, window[position]

    def test_declines_what_arrays_cannot_hold(self):
        test = PREDICATES["dominance"][1]
        window = [(1, 1)]
        columns = [np.array([1]), np.array([1])]
        for odd in ((None, 5), (2**63, 5), (1.5, 5), ("a", 5), (True, 5)):
            cache = NLJPCache()
            cache.put((3, 3), (), True)
            assert cache.prunable(window, columns, False, test) is not None
            cache.put(odd, (), True)
            assert cache.prunable(window, columns, False, test) is None
            cache.clear()
            cache.put((3, 3), (), True)
            assert cache.prunable(window, columns, False, test) is not None
        cache = NLJPCache()
        cache.put((3.0, float("nan")), (), True)
        floats = [np.array([1.0]), np.array([1.0])]
        assert cache.prunable([(1.0, 1.0)], floats, False, test) is None

    def test_declines_other_dtypes_and_other_indexes(self):
        test = PREDICATES["dominance"][1]
        cache = NLJPCache(order_position=0)
        cache.put((3, 3), (), True)
        ints = [np.array([1]), np.array([1])]
        assert cache.prunable([(1, 1)], ints, False, test, (0, True, False))
        floats = [np.array([1.0]), np.array([1])]
        assert cache.prunable([(1.0, 1)], floats, False, test, (0, True, False)) is None
        assert cache.prunable([(1, 1)], ints, False, test) is None
        assert cache.prunable([(1, 1)], ints, False, test, (1, True, False)) is None
        bucketed = NLJPCache(equality_positions=(0,))
        bucketed.put((3, 3), (), True)
        assert bucketed.prunable([(1, 1)], ints, False, test) is None

    def test_wide_ranges_stay_inside_the_round_budget(self, monkeypatch):
        from repro.core import cache as cache_module

        monkeypatch.setattr(cache_module, "_ROUND_TESTS", 64)
        should_prune, test = PREDICATES["dominance"]
        cache = NLJPCache()
        for value in range(300):
            cache.put((value % 7, value % 11), (), True)
        window = [(a, b) for a in range(9) for b in range(13)]
        columns = [np.array([b[p] for b in window]) for p in range(2)]
        _, pruned, checks = cache.prunable(window, columns, False, test)
        for position, binding in enumerate(window):
            count, hit = cache.first_pruner(binding, should_prune)
            assert (int(checks[position]), bool(pruned[position])) == (
                count,
                hit is not None,
            )


# ---------------------------------------------------------------------------
# Whole executions
# ---------------------------------------------------------------------------

QUERIES = {
    # anti-monotone Φ: prune when new ⪰ cached
    "skyband": (
        "SELECT L.id, COUNT(*) FROM object L, object R "
        "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
        "GROUP BY L.id HAVING COUNT(*) <= 3"
    ),
    # monotone Φ: prune when new ⪯ cached
    "dominated": (
        "SELECT L.id, COUNT(*) FROM object L, object R "
        "WHERE L.x <= R.x AND L.y <= R.y "
        "GROUP BY L.id HAVING COUNT(*) >= 4"
    ),
    # a disjunctive p⪰ comparing two attributes of one binding
    "band": (
        "SELECT L.id, COUNT(*) FROM object L, object R "
        "WHERE L.x <= R.x AND R.x <= L.y "
        "GROUP BY L.id HAVING COUNT(*) >= 3"
    ),
    # a text equality attribute
    "tagged": (
        "SELECT L.id, COUNT(*) FROM object L, object R "
        "WHERE L.tag = R.tag AND L.x <= R.x AND L.y <= R.y "
        "GROUP BY L.id HAVING COUNT(*) >= 3"
    ),
    # G_L is no key: combining mode, memo only
    "grouped": (
        "SELECT L.x, COUNT(*) FROM object L, object R "
        "WHERE L.x <= R.x AND L.y <= R.y "
        "GROUP BY L.x HAVING COUNT(*) >= 4"
    ),
}


def _database(rows, x_type, y_type):
    db = Database()
    table = db.create_table(
        "object",
        TableSchema.of(
            ("id", SqlType.INTEGER),
            ("x", x_type),
            ("y", y_type),
            ("tag", SqlType.TEXT),
        ),
        primary_key=("id",),
    )
    table.insert_many((i,) + row for i, row in enumerate(rows))
    return db


def _operator(db, sql, **kwargs):
    block = IcebergBlock(parse(sql).body, db)
    view = block.partition(["l"])
    env = PlanEnv(db=db, config=EngineConfig.smart())
    return NLJPOperator(view, env, pruning=check_pruning(view), **kwargs)


def _observe(db, sql, per_binding, options, budget, take, batch_size, executions):
    """Run ``executions`` times on one pinned cache; everything visible."""
    operator = _operator(db, sql, **options)
    if per_binding:
        operator._loop_reason = operator._loop_reason or "the reference"
    cache = operator.enable_shared_cache()
    seen = []
    for _ in range(executions):
        ctx = ExecutionContext(batch_size=batch_size, columnar=True)
        if budget is not None:
            ctx.governor = Governor(
                ctx.stats, max_cache_bytes=budget, degradation="fallback"
            )
        produced = operator.execute(ctx)
        rows = list(itertools.islice(produced, take))
        produced.close()
        seen.append((repr(rows), ctx.stats.as_dict()))
    entries = [
        (repr(binding), entry.hits, entry.unpromising)
        for binding, entry in cache._entries.items()
    ]
    probes = [(0, 0), (2, 2), (9, 9), (0.5, 2.5), (None, 1)]
    candidates = [
        repr([e.binding for e in cache.prune_candidates(probe)]) for probe in probes
    ] + [
        repr([e.binding for e in cache.prune_candidates(probe, low=probe[0])])
        for probe in probes[:4]
    ]
    return seen, entries, candidates, cache.counters(), operator.loop_ran


@st.composite
def streams(draw):
    x_type, y_type = draw(
        st.sampled_from(
            [
                (SqlType.INTEGER, SqlType.INTEGER),
                (SqlType.FLOAT, SqlType.FLOAT),
                (SqlType.INTEGER, SqlType.FLOAT),
            ]
        )
    )
    odd = draw(st.booleans())

    def column(sql_type):
        if sql_type is SqlType.INTEGER:
            plain, rare = INTS, _values(None, 2**53 + 1, 2**63)
        else:
            plain, rare = FLOATS, _values(None, NAN, 2**53 + 1)
        return st.one_of(plain, plain, plain, plain, rare) if odd else plain

    row = st.tuples(column(x_type), column(y_type), _values("a", "b", "a", None))
    return x_type, y_type, draw(st.lists(row, min_size=25, max_size=70))


CACHES = [
    {},
    {"cache_max_entries": 5, "cache_policy": "lru"},
    {"cache_max_entries": 5, "cache_policy": "utility"},
]
TECHNIQUES = [
    {"enable_memo": True, "enable_pruning": False},
    {"enable_memo": False, "enable_pruning": True},
    {"enable_memo": True, "enable_pruning": True},
]


class TestDifferential:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        stream=streams(),
        query=st.sampled_from(sorted(QUERIES)),
        technique=st.sampled_from(TECHNIQUES),
        bounded=st.sampled_from(CACHES),
        cache_index=st.booleans(),
        budget=st.sampled_from([None, None, 150, 400]),
        take=st.sampled_from([None, None, 0, 1, 3]),
        batch_size=st.sampled_from([7, 64, 4096]),
        eager=st.sampled_from([True, True, False]),
    )
    def test_windowed_equals_per_binding(
        self, stream, query, technique, bounded, cache_index, budget, take,
        batch_size, eager,
    ):
        x_type, y_type, rows = stream
        db = _database(rows, x_type, y_type)
        options = {**technique, **bounded, "cache_index": cache_index}
        saved = nljp_module._MIN_WINDOW, nljp_module._WINDOW_PAYS
        if eager:  # windows from the second binding on, however few they skip
            nljp_module._MIN_WINDOW, nljp_module._WINDOW_PAYS = 1, 0
        try:
            windowed = _observe(
                db, QUERIES[query], False, options, budget, take, batch_size, 3
            )
            reference = _observe(
                db, QUERIES[query], True, options, budget, take, batch_size, 3
            )
        finally:
            nljp_module._MIN_WINDOW, nljp_module._WINDOW_PAYS = saved
        assert windowed[:-1] == reference[:-1]

    def test_warm_skyband_is_windowed_with_the_walks_counters(self):
        rng = random.Random(17)
        rows = [(rng.randint(0, 30), rng.randint(0, 30), "a") for _ in range(400)]
        db = _database(rows, SqlType.INTEGER, SqlType.INTEGER)
        calls = []
        observed = {}
        for per_binding in (False, True):
            operator = _operator(db, QUERIES["skyband"])
            if per_binding:
                operator._loop_reason = "the reference"
            cache = operator.enable_shared_cache()
            decide = cache.prunable
            cache.prunable = lambda *a, **k: calls.append(per_binding) or decide(*a, **k)
            runs = []
            for _ in range(2):
                ctx = ExecutionContext(batch_size=4096, columnar=True)
                runs.append((list(operator.execute(ctx)), ctx.stats.as_dict()))
            observed[per_binding] = runs
            assert ("windowed" in operator.loop_description()) == (not per_binding)
        assert observed[False] == observed[True]
        assert calls and not any(calls)
        warm = observed[False][1][1]
        assert warm["inner_evaluations"] == 0 and warm["pruned_bindings"] > 300


class TestLoopDescription:
    def test_says_which_loop_ran(self, object_db):
        operator = _operator(object_db, QUERIES["skyband"])
        assert "  loop: windowed (under a columnar context)" in operator.describe()
        list(operator.execute(ExecutionContext()))
        assert operator.to_dict()["loop"] == "per binding (row/batch mode)"
        list(operator.execute(ExecutionContext(batch_size=64, columnar=True)))
        assert operator.to_dict()["loop"] == "windowed (i8,i8; order index on l.x)"
        assert "  loop: windowed (i8,i8; order index on l.x)" in operator.describe()

    def test_says_why_a_plan_walks_per_binding(self, object_db, monkeypatch):
        memo_only = _operator(object_db, QUERIES["skyband"], enable_pruning=False)
        assert memo_only.loop_description() == "per binding (no Q_C)"
        few = _database([(1, 2, "a"), (2, 1, "b")], SqlType.INTEGER, SqlType.INTEGER)
        short = _operator(few, QUERIES["skyband"])
        list(short.execute(ExecutionContext(batch_size=64, columnar=True)))
        assert (
            short.loop_description()
            == "per binding (too few bindings for a window to pay)"
        )
        rows = [(i % 7, i % 5, "ab"[i % 2]) for i in range(40)]
        db = _database(rows, SqlType.INTEGER, SqlType.INTEGER)
        assert (
            _operator(db, QUERIES["tagged"]).loop_description()
            == "per binding (equality buckets)"
        )
        scanned = _operator(db, QUERIES["tagged"], cache_index=False)
        list(scanned.execute(ExecutionContext(batch_size=64, columnar=True)))
        assert scanned.loop_description() == "per binding (text attribute)"
        nulls = _database(rows + [(None, 1, "a")], SqlType.INTEGER, SqlType.INTEGER)
        holed = _operator(nulls, QUERIES["skyband"])
        list(holed.execute(ExecutionContext(batch_size=64, columnar=True)))
        assert holed.loop_description() == "per binding (NULLs in Q_B)"
        monkeypatch.setattr(layout, "_np", None)
        assert (
            _operator(db, QUERIES["skyband"]).loop_description()
            == "per binding (NumPy unavailable)"
        )
