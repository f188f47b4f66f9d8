"""Join-order parity and adversarial-permutation tests.

The tentpole's contract: every ``join_order`` setting — ``syntactic``
(the literal FROM order), ``greedy``, and ``dp`` — produces the
identical multiset of result rows in every execution mode; the
cost-based orders differ only in *work* (``join_pairs``,
``rows_scanned``).  The adversarial tests pin the headline win: on
multiway iceberg queries with a pathologically permuted FROM clause,
``dp`` cuts ``join_pairs`` by at least 5x at the BENCH seed.  Cyclic
joins (triangles, 4-cycles) are checked against brute force and across
modes.
"""

import itertools
import random
import re

import pytest

from repro.workloads.baseball import batting_db
from repro.testing import RECORD_SEED
from repro.engine import EngineConfig, execute
from repro.engine.planner import plan_query
from repro.sql.parser import parse
from repro.storage.catalog import Database
from repro.storage.schema import TableSchema
from repro.storage.types import SqlType
from repro.workloads import (
    CyclicConfig,
    figure1_queries,
    make_cyclic_db,
    square_query,
    triangle_hub_query,
    triangle_query,
)
from tests.modes import MODES, in_mode, mode_kwargs

JOIN_ORDERS = ("syntactic", "greedy", "dp")

QUERIES = {name: q.sql for name, q in figure1_queries().items()}


def permute_from(sql: str) -> str:
    """Reverse the item list of every FROM clause in the SQL text."""

    def reverse(match: re.Match) -> str:
        items = [item.strip() for item in match.group(2).split(",")]
        return match.group(1) + ", ".join(reversed(items))

    return re.sub(r"(?m)^(\s*FROM )(.+)$", reverse, sql)


def run(db, sql, join_order, mode="row", **knobs):
    with in_mode(mode):
        return execute(
            db, sql, EngineConfig(join_order=join_order, **mode_kwargs(mode), **knobs)
        )


@pytest.fixture(scope="module")
def small_db():
    return batting_db(60, seed=RECORD_SEED)


@pytest.fixture(scope="module")
def bench_db():
    return batting_db(120, seed=RECORD_SEED)


class TestQSuiteParity:
    """Identical rows for Q1-Q8 across all orders and modes."""

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_rows_identical_across_orders_and_modes(self, small_db, name):
        sql = QUERIES[name]
        reference = run(small_db, sql, "syntactic")
        expected = reference.sorted_rows()
        for join_order in JOIN_ORDERS:
            for mode in MODES:
                result = run(small_db, sql, join_order, mode)
                assert result.sorted_rows() == expected, (join_order, mode)
                assert result.stats.rows_output == reference.stats.rows_output, (
                    join_order,
                    mode,
                )

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_permuted_from_parity_and_no_worse(self, small_db, name):
        # On the worst (reversed) FROM permutation the cost-based orders
        # never evaluate more join pairs than the syntactic plan.
        sql = permute_from(QUERIES[name])
        assert sql != QUERIES[name]
        syntactic = run(small_db, sql, "syntactic")
        # Permutation must not change the answer either.
        assert (
            syntactic.sorted_rows()
            == run(small_db, QUERIES[name], "syntactic").sorted_rows()
        )
        for join_order in ("greedy", "dp"):
            result = run(small_db, sql, join_order)
            assert result.sorted_rows() == syntactic.sorted_rows(), join_order
            assert result.stats.join_pairs <= syntactic.stats.join_pairs, join_order


def cohort_skyband(attr_a: str, attr_b: str, k: int = 50) -> str:
    """Q1/Q2 stated as a three-relation join (Appendix D's multiway
    shape): ``M`` bridges each record to its (year, round) cohort, and
    the skyband condition compares against cohort members only.

    The FROM order below is the adversarial permutation: ``L, R`` share
    only the (non-equi) dominance conjuncts, so a syntactic plan starts
    with an O(n^2) nested loop, while the natural order joins the
    key-equal bridge ``M`` first.
    """
    return (
        "SELECT L.playerid, L.year, L.round, COUNT(*)\n"
        "FROM batting L, batting R, batting M\n"
        "WHERE L.playerid = M.playerid AND L.year = M.year AND L.round = M.round\n"
        "  AND M.year = R.year AND M.round = R.round\n"
        f"  AND L.{attr_a} <= R.{attr_a} AND L.{attr_b} <= R.{attr_b}\n"
        "GROUP BY L.playerid, L.year, L.round\n"
        f"HAVING COUNT(*) <= {k}"
    )


class TestAdversarialMultiway:
    """The acceptance headline: >= 5x fewer join_pairs under dp."""

    @pytest.mark.parametrize(
        "attrs", [("b_h", "b_hr"), ("b_hr", "b_sb")], ids=["Q1-shape", "Q2-shape"]
    )
    def test_dp_cuts_join_pairs_5x(self, bench_db, attrs):
        sql = cohort_skyband(*attrs)
        syntactic = run(bench_db, sql, "syntactic")
        for join_order in ("greedy", "dp"):
            result = run(bench_db, sql, join_order)
            assert result.sorted_rows() == syntactic.sorted_rows(), join_order
            assert result.stats.join_pairs * 5 <= syntactic.stats.join_pairs, (
                join_order,
                result.stats.join_pairs,
                syntactic.stats.join_pairs,
            )

    def test_batch_mode_counters_match_row_mode(self, bench_db):
        sql = cohort_skyband("b_h", "b_hr")
        row = run(bench_db, sql, "dp", "row")
        batch = run(bench_db, sql, "dp", "batch")
        assert row.sorted_rows() == batch.sorted_rows()
        assert row.stats.parity_dict() == batch.stats.parity_dict()


class TestExplain:
    def test_explain_shows_estimates(self, small_db):
        planned = plan_query(small_db, parse(QUERIES["Q1"]), EngineConfig())
        text = planned.explain()
        assert "est_rows=" in text
        assert "est_cost=" in text
        assert "actual_rows" not in text

    def test_explain_analyze_shows_actuals(self, small_db):
        planned = plan_query(small_db, parse(QUERIES["Q1"]), EngineConfig())
        text = planned.explain(analyze=True)
        assert "est_rows=" in text
        assert "actual_rows=" in text

    def test_estimated_cost_exposed(self, small_db):
        planned = plan_query(small_db, parse(QUERIES["Q1"]), EngineConfig())
        assert planned.estimated_cost() is not None
        assert planned.estimated_cost() > 0


class TestConfig:
    def test_join_order_validated(self):
        with pytest.raises(ValueError, match="join_order"):
            EngineConfig(join_order="random")

    def test_baselines_stay_syntactic(self):
        # The bench baselines reproduce the paper's measured systems,
        # which join in FROM order.
        assert EngineConfig.postgres().join_order == "syntactic"
        assert EngineConfig.vendor().join_order == "syntactic"
        assert EngineConfig.smart().join_order == "syntactic"
        assert EngineConfig().join_order == "dp"


class TestHashBuildSide:
    @staticmethod
    def _two_table_db():
        db = Database()
        big = db.create_table(
            "big", TableSchema.of(("k", SqlType.INTEGER), ("v", SqlType.INTEGER))
        )
        big.insert_many([(i % 25, i) for i in range(500)])
        small = db.create_table(
            "small", TableSchema.of(("k", SqlType.INTEGER), ("name", SqlType.TEXT))
        )
        small.insert_many([(i, f"n{i}") for i in range(25)])
        db.analyze()
        return db

    def test_builds_on_smaller_input(self):
        db = self._two_table_db()
        # Outer (small, 25 rows) is smaller than inner (big, 500 rows):
        # the hash table must be built on the outer side.
        sql = "SELECT s.name, b.v FROM small s, big b WHERE s.k = b.k"
        config = EngineConfig(join_policy="hash-first", join_order="syntactic")
        planned = plan_query(db, parse(sql), config)
        assert "build=outer" in planned.explain()
        # And with the sides swapped the build stays on the (now inner)
        # smaller input, i.e. the traditional default.
        swapped = plan_query(
            db,
            parse("SELECT s.name, b.v FROM big b, small s WHERE s.k = b.k"),
            config,
        )
        assert "build=outer" not in swapped.explain()

    def test_build_side_does_not_change_rows(self):
        db = self._two_table_db()
        sql = "SELECT s.name, b.v FROM small s, big b WHERE s.k = b.k"
        reference = None
        for join_order in JOIN_ORDERS:
            for mode in MODES:
                rows = run(db, sql, join_order, mode, join_policy="hash-first").sorted_rows()
                if reference is None:
                    reference = rows
                assert rows == reference, (join_order, mode)


def _edge_db(edges):
    db = Database()
    schema = TableSchema.of(("src", SqlType.INTEGER), ("dst", SqlType.INTEGER))
    db.create_table("edge", schema).insert_many(edges)
    return db


class TestCyclicJoins:
    """Cyclic join graphs, where every pairwise order builds
    intermediates larger than the answer."""

    CYCLIC = make_cyclic_db(CyclicConfig(n_edges=400, seed=7))

    @pytest.mark.parametrize(
        "sql",
        [triangle_query(), square_query(), triangle_hub_query()],
        ids=["triangle", "square", "hub"],
    )
    def test_cyclic_queries_all_modes(self, sql):
        for join_order in ("syntactic", "dp"):
            row = run(self.CYCLIC, sql, join_order)
            for mode in MODES:
                result = run(self.CYCLIC, sql, join_order, mode)
                assert result.rows == row.rows, (join_order, mode)
                assert result.stats.parity_dict() == row.stats.parity_dict(), (
                    join_order,
                    mode,
                )

    def test_null_join_keys_never_match(self):
        db = _edge_db([(1, 2), (2, 3), (3, 1), (None, 1), (1, None), (None, None)])
        for mode in MODES:
            result = run(db, triangle_query(), "dp", mode)
            assert len(result.rows) == 3, mode  # the one triangle, from each corner

    def test_randomized_triangles_match_brute_force(self):
        rng = random.Random(99)
        edges = set()
        while len(edges) < 120:
            a, b = rng.randrange(18), rng.randrange(18)
            if a != b:
                edges.add((a, b))
        expected = sorted(
            e1 + e2 + e3
            for e1, e2, e3 in itertools.product(sorted(edges), repeat=3)
            if e1[1] == e2[0] and e2[1] == e3[0] and e3[1] == e1[0]
        )
        db = _edge_db(sorted(edges))
        for mode in MODES:
            result = run(
                db,
                "SELECT * FROM edge e1, edge e2, edge e3 "
                "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src",
                "dp",
                mode,
            )
            assert sorted(result.rows) == expected, mode
