"""One cached plan per statement template.

The server keys its plan cache on a statement's template: the text
with every HAVING threshold lifted into a parameter
(:mod:`repro.serve.templates`).  A plan is built at the values of the
statement that first needs it, and the decision those values sway
(whether an a-priori reducer is trivial) is kept as a guard, so every
statement runs the plan a fresh optimization of its own text gets.
Answers are checked against the ``sqlite3`` mirror, which shares no
code with the engine.
"""

import re

import pytest

from repro import Database, IcebergServer, SmartIceberg
from repro.errors import ParseError
from repro.obs.querylog import stable_fingerprint
from repro.serve import templates
from repro.serve.server import FULL_MASK
from repro.serve.templates import lift
from repro.workloads import (
    BaseballConfig,
    BasketConfig,
    CyclicConfig,
    complex_query,
    load_baskets,
    load_batting,
    load_edges,
    load_unpivoted,
    market_basket_query,
    pairs_query,
    skyband_query,
    triangle_hub_query,
)
from repro.workloads.baseball import batting_db
from tests.serve.memo_checks import Mirror, normalized, served_entry

# The statement grids of the benchmark's ad hoc workloads.
PAIRS_GRID = [
    pairs_query(c, k, agg)
    for c in range(2, 7)
    for k in range(5, 201, 5)
    for agg in ("AVG", "SUM")
]
MIX_GRID = (
    [
        skyband_query(attr_a, attr_b, k)
        for attr_a, attr_b in (("b_h", "b_hr"), ("b_hr", "b_sb"), ("b_h", "b_rbi"))
        for k in range(50, 350, 7)
    ]
    + [complex_query(t) for t in range(4, 44)]
    + [market_basket_query(t) for t in range(10, 90)]
    + [triangle_hub_query(t) for t in range(2, 42)]
)


def _config(n_rows, seed):
    team_seasons = max(8, n_rows // 12)
    n_teams = max(3, int(round((team_seasons / 1.5) ** 0.5)))
    return BaseballConfig(
        n_rows=n_rows, n_teams=n_teams, n_years=max(4, team_seasons // n_teams), seed=seed
    )


def _mix_db():
    db = Database()
    load_batting(db, _config(100, 2017))
    load_unpivoted(db, _config(100, 2018))
    load_baskets(db, BasketConfig(n_baskets=100, seed=2019))
    load_edges(db, CyclicConfig(n_edges=100, seed=2020))
    return db


def _shape(text):
    """A plan's explain() with its numbers and parameter names blanked."""
    return re.sub(r":_having_\d+|\d+(\.\d+)?", "#", text)


def _fresh_plan(server, sql):
    """What optimizing ``sql`` afresh on ``server``'s engine explains."""
    return server._engine(FULL_MASK).optimize(sql).planned.explain()


def _serves_its_fresh_plan(server, sql):
    """The plan ``sql`` was served with is the one its own text gets: it
    explains as the template optimized afresh at the statement's values,
    and that reads as the literal statement's plan."""
    template = lift(sql)
    entry = served_entry(server, sql, mask=FULL_MASK)
    bound = server._engine(FULL_MASK).optimize(template.sql, template.bind(None))
    assert entry.fingerprint == stable_fingerprint(bound.planned.explain()), sql
    assert _shape(bound.planned.explain()) == _shape(_fresh_plan(server, sql)), sql


@pytest.mark.parametrize(
    "grid, build, tables",
    [
        (PAIRS_GRID, lambda: batting_db(60, seed=3), ("batting",)),
        (MIX_GRID, _mix_db, ("batting", "perf", "basket", "edge")),
    ],
    ids=["adhoc_pairs", "adhoc_mix"],
)
def test_every_grid_statement_runs_its_fresh_plan(grid, build, tables):
    db = build()
    mirror = Mirror(db, tables)
    server = IcebergServer(db)
    session = server.session()
    for sql in grid:
        rows = session.execute(sql).rows
        assert normalized(rows) == mirror.rows(sql), sql
        _serves_its_fresh_plan(server, sql)
    # Every text is new, so every lookup is a miss; all but the first
    # of each template found its template's plan.
    stats = server.plan_cache.stats()
    templates_seen = {lift(sql).sql for sql in grid}
    assert (stats["hits"], stats["misses"]) == (0, len(grid))
    assert stats["template_hits"] == len(grid) - len(templates_seen)


def test_a_triviality_flip_plans_a_second_entry():
    # The skyband groups by a key of batting: every group is one row, so
    # a reducer whose Φ holds at COUNT(*) = 1 (k >= 1) keeps every group
    # and is dropped, and at k = 0 it is kept.
    db = batting_db(120, seed=4)
    mirror = Mirror(db)
    server = IcebergServer(db)
    session = server.session()
    for k in (1, 0, 1, 5, 0):
        sql = skyband_query(k=k)
        assert normalized(session.execute(sql).rows) == mirror.rows(sql)
        _serves_its_fresh_plan(server, sql)
    plans = server.plan_cache._entries[(lift(skyband_query(k=1)).sql, FULL_MASK)].plans
    assert [[guard.outcome for guard in entry.guards] for entry in plans] == [
        [True],
        [False],
    ]
    engine = server._engine(FULL_MASK)
    assert "a-priori[main]: reduce" not in engine.optimize(skyband_query(k=1)).explain()
    assert "a-priori[main]: reduce" in engine.optimize(skyband_query(k=0)).explain()
    # Three new texts, two of them planned; two texts served again.
    stats = server.plan_cache.stats()
    assert (stats["hits"], stats["misses"], stats["template_hits"]) == (2, 3, 1)


def test_a_statement_parameter_keeps_its_name():
    db = batting_db(120, seed=4)
    mirror = Mirror(db)
    sql = skyband_query(k=30).replace("GROUP BY", "AND L.b_h >= :_having_1 GROUP BY")
    template = lift(sql)
    assert template.lifted == (("_having_2", 30),)
    assert ":_having_1 GROUP BY" in template.sql
    session = IcebergServer(db).session()
    for floor in (0, 5):
        rows = session.execute(sql, params={"_having_1": floor}).rows
        assert normalized(rows) == mirror.rows(sql.replace(":_having_1", str(floor)))


def test_a_text_served_before_is_not_lexed_again(monkeypatch):
    db = batting_db(120, seed=4)
    calls = []
    tokenize = templates.tokenize
    monkeypatch.setattr(templates, "tokenize", lambda text: calls.append(text) or tokenize(text))
    server = IcebergServer(db)
    session = server.session()
    first, second = skyband_query(k=20), skyband_query(k=40)
    for sql in (first, first, second, first, second):
        session.execute(sql)
    assert calls == [first, second]
    stats = server.plan_cache.stats()
    assert (stats["hits"], stats["misses"], stats["template_hits"]) == (3, 2, 1)


def test_a_parse_error_points_into_the_statement_sent():
    db = batting_db(50, seed=4)
    sql = (
        "SELECT b.teamid, COUNT(*) FROM batting b GROUP BY b.teamid "
        "HAVING COUNT(*) >= 5 ORDER BY b.teamid LIMIT x"
    )
    with pytest.raises(ParseError, match=f"at offset {sql.index('x')}$"):
        IcebergServer(db, max_attempts=1).session().execute(sql)


@pytest.mark.parametrize(
    "sql, lifted",
    [
        ("SELECT a FROM t GROUP BY a HAVING 5 < COUNT(*)", (5,)),
        ("SELECT a FROM t GROUP BY a HAVING COUNT(*) >= 2 AND SUM(b) <= 2.5", (2, 2.5)),
        ("SELECT a FROM t GROUP BY a HAVING COUNT(*) >= 2 ORDER BY a LIMIT 3", (2,)),
        # Not a whole operand of a comparison with an aggregate call.
        ("SELECT a FROM t GROUP BY a HAVING COUNT(*) + 1 > 5", ()),
        ("SELECT a FROM t GROUP BY a HAVING COUNT(*) > 5 * 2", ()),
        # Outside HAVING.
        ("SELECT a FROM t WHERE b > 5 GROUP BY a LIMIT 5", ()),
        ("SELECT a FROM t GROUP BY a ORDER BY COUNT(*) > 5", ()),
        # Inside a subquery's HAVING.
        (
            "SELECT a FROM t WHERE a IN (SELECT a FROM t GROUP BY a HAVING COUNT(*) >= 4)",
            (4,),
        ),
        # A statement that does not lex is its own template.
        ("SELECT a FROM t GROUP BY a HAVING COUNT(*) > 'oops", ()),
    ],
)
def test_what_is_lifted(sql, lifted):
    assert tuple(value for _name, value in lift(sql).lifted) == lifted


class TestPreparedAtTheirValues:
    """A parameterized HAVING is planned at the value it runs with, as
    its literal statement is (on this table each literal k runs NLJP,
    where a plan decided at no value keeps the a-priori reducer)."""

    K = (0, 1, 5, 20, 50)

    @pytest.fixture(scope="class")
    def db(self):
        return batting_db(240, seed=11)

    def test_library(self, db):
        engine = SmartIceberg(db)
        prepared = skyband_query(k=0).replace("<= 0", "<= :k")
        for k in self.K:
            literal = engine.optimize(skyband_query(k=k))
            bound = engine.optimize(prepared, {"k": k})
            assert _shape(bound.explain().replace(":k", "0")) == _shape(literal.explain())
            rows = engine.execute(prepared, {"k": k}).rows
            assert sorted(rows) == sorted(literal.execute().rows)
        unbound = engine.optimize(prepared)
        assert "a-priori[main]: reduce" in unbound.explain()
        assert "a-priori[main]: reduce" not in engine.optimize(skyband_query(k=20)).explain()

    def test_served(self, db):
        server = IcebergServer(db)
        prepared = server.session().prepare(skyband_query(k=0).replace("<= 0", "<= :k"))
        for k in self.K:
            rows = prepared.execute({"k": k}).rows
            literal = skyband_query(k=k)
            assert sorted(rows) == sorted(IcebergServer(db).session().execute(literal).rows)
            entry = served_entry(server, prepared.sql, {"k": k}, FULL_MASK)
            assert _shape(entry.optimized.report.summary().replace(":k", "0")) == _shape(
                server._engine(FULL_MASK).optimize(literal).report.summary()
            )
