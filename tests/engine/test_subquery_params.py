"""An IN subquery that reads a statement parameter, run again at
another value.

A compiled ``IN``/``EXISTS`` keeps its subquery's rows between
evaluations; they are keyed on the database version *and* on the
values of the parameters the subquery reads, so a plan executed at one
value never answers for another.  The a-priori reducers of a template
plan (:mod:`repro.serve.templates`) have exactly this shape.  Checked
on the installed path and on the row interpreter, in the library and on
the server, against the statement with the value written as a literal.
"""

import pytest

from repro import IcebergServer, SmartIceberg
from repro.engine import execute
from repro.engine.planner import EngineConfig
from repro.testing import without_numpy
from repro.workloads import pairs_query
from repro.workloads.baseball import batting_db

REDUCED = (
    "SELECT COUNT(*) FROM batting b WHERE b.playerid IN "
    "(SELECT s.playerid FROM batting s GROUP BY s.playerid HAVING COUNT(*) >= :c)"
)
PAIRS = pairs_query(c=5, k=20, agg="AVG").replace("COUNT(*) >= 5", "COUNT(*) >= :c")


@pytest.fixture(params=["numpy", "no numpy"])
def path(request):
    if request.param == "numpy":
        yield
    else:
        with without_numpy():
            yield


@pytest.fixture(scope="module")
def db():
    return batting_db(200, seed=1)


def _literal(db, sql, c):
    return sorted(execute(db, sql.replace(":c", str(c)), EngineConfig.postgres()).rows)


@pytest.mark.parametrize("sql", [REDUCED, PAIRS], ids=["reducer", "pairs"])
def test_one_plan_at_every_value(db, path, sql):
    optimized = SmartIceberg(db).optimize(sql)
    for c in (5, 1, 3, 5):
        assert sorted(optimized.execute({"c": c}).rows) == _literal(db, sql, c), c


@pytest.mark.parametrize("sql", [REDUCED, PAIRS], ids=["reducer", "pairs"])
def test_one_prepared_statement_at_every_value(db, path, sql):
    statement = IcebergServer(db).session().prepare(sql)
    for c in (5, 1, 3, 5):
        assert sorted(statement.execute({"c": c}).rows) == _literal(db, sql, c), c


def test_the_values_differ(db):
    # The values above change the answer; otherwise nothing is tested.
    assert len({tuple(_literal(db, REDUCED, c)) for c in (1, 3, 5)}) == 3
    assert len({len(_literal(db, PAIRS, c)) for c in (1, 3, 5)}) == 3
