"""The optimizer's technique choice: an NLJP over an a-priori-reduced
statement runs only when it is estimated faster than the reduced join.

The differential half checks that whichever plan the choice takes, the
answer is the one the forced NLJP (Listing 9's first-applicable rule),
a-priori alone and the PostgreSQL-like baseline give.  The plan-shape
half pins which plan it takes on the paper's templates, and that the
library and the server take the same one.
"""

import json

import pytest

from repro import Database, SmartIceberg
from repro.workloads.baseball import dense_config
from repro.engine import EngineConfig, execute
from repro.errors import OptimizationError
from repro.serve import IcebergServer
from repro.workloads import (
    BasketConfig,
    CyclicConfig,
    complex_query,
    figure1_queries,
    load_baskets,
    load_batting,
    load_edges,
    load_unpivoted,
    market_basket_query,
    pairs_query,
    skyband_query,
    triangle_hub_query,
)

FORCED = dict(technique_choice="first-applicable")
APRIORI_ONLY = dict(pruning=False, memo=False)


@pytest.fixture(scope="module")
def mix_db() -> Database:
    db = Database()
    load_batting(db, dense_config(1200))
    load_unpivoted(db, dense_config(1000, 2018))
    load_edges(db, CyclicConfig(n_edges=1000, seed=2020))
    load_baskets(db, BasketConfig(n_baskets=400, seed=2019))
    return db


@pytest.fixture(scope="module")
def pairs_db() -> Database:
    db = Database()
    load_batting(db, dense_config(600))
    return db


CASES = (
    [("complex", complex_query(k)) for k in (6, 12, 20)]
    + [("triangle_hub", triangle_hub_query(k)) for k in (4, 10, 20)]
)
IDS = [f"{kind}{i % 3}" for i, (kind, _) in enumerate(CASES)]
PAIRS = [
    pairs_query(c=c, k=k, agg=agg)
    for c, k, agg in ((3, 20, "AVG"), (3, 50, "AVG"), (5, 20, "SUM"))
]


def _agree(db: Database, sql: str) -> None:
    expected = execute(db, sql, EngineConfig.postgres()).sorted_rows()
    for knobs in ({}, FORCED, APRIORI_ONLY):
        assert SmartIceberg(db, **knobs).execute(sql).sorted_rows() == expected, knobs


@pytest.mark.parametrize("sql", [sql for _, sql in CASES], ids=IDS)
def test_chosen_plan_answers_as_every_other_plan(mix_db, sql):
    _agree(mix_db, sql)


@pytest.mark.parametrize("sql", PAIRS, ids=["c3k20avg", "c3k50avg", "c5k20sum"])
def test_pairs_chosen_plan_answers_as_every_other_plan(pairs_db, sql):
    _agree(pairs_db, sql)


class TestPlanShape:
    @pytest.mark.parametrize("sql", [sql for _, sql in CASES], ids=IDS)
    def test_reduced_join_beats_nljp_on_complex_and_triangle(self, mix_db, sql):
        optimized = SmartIceberg(mix_db).optimize(sql)
        decision = optimized.report.technique
        assert optimized.nljp is None
        assert decision.chosen == "a-priori join"
        assert decision.alternatives
        assert all(a.startswith("NLJP on ") for a in decision.alternatives)
        # Forced, the same statement runs Listing 9's first partition.
        assert SmartIceberg(mix_db, **FORCED).optimize(sql).nljp is not None

    @pytest.mark.parametrize("sql", [
        skyband_query("b_h", "b_hr", 100),
        figure1_queries()["Q8"].sql,
    ], ids=["skyband", "Q8"])
    def test_statements_without_a_reducer_keep_listing_9(self, mix_db, sql):
        optimized = SmartIceberg(mix_db).optimize(sql)
        assert not optimized.report.apriori
        assert optimized.nljp is not None
        assert optimized.report.technique.chosen == "NLJP on l"
        assert not optimized.report.technique.alternatives

    @pytest.mark.parametrize("sql", [
        complex_query(12),
        triangle_hub_query(10),
        skyband_query("b_h", "b_hr", 100),
        figure1_queries()["Q8"].sql,
    ], ids=["complex", "triangle_hub", "skyband", "Q8"])
    def test_library_and_server_choose_the_same_plan(self, mix_db, sql):
        library = SmartIceberg(mix_db).optimize(sql)
        with IcebergServer(mix_db).session() as session:
            served = session.execute(sql)
        # The server's memo outlives one execution, so it may admit more
        # partitions; the plan it chooses is the library's.
        (decision,) = served.plan.decisions
        assert decision.chosen == library.report.technique.chosen
        assert served.sorted_rows() == library.execute().sorted_rows()


class TestDecisionRecord:
    def test_explain_names_the_choice_and_each_rejected_estimate(self, mix_db):
        optimized = SmartIceberg(mix_db).optimize(complex_query(12))
        lines = [
            line for line in optimized.explain().splitlines()
            if line.startswith("technique:")
        ]
        assert len(lines) == 1
        decision = optimized.report.technique
        assert lines[0] == decision.render()
        assert lines[0].startswith("technique: a-priori join (est ")
        for alternative in decision.alternatives:
            assert f"{alternative} (est " in lines[0]

    def test_to_dict_carries_the_same_record(self, mix_db):
        optimized = SmartIceberg(mix_db).optimize(triangle_hub_query(10))
        dumped = json.loads(json.dumps(optimized.planned.to_dict()))
        (decision,) = dumped["decisions"]
        assert decision == optimized.report.technique.to_dict()
        assert decision["stage"] == "technique"
        assert decision["chosen"] == "a-priori join"
        assert decision["est_ms"] > 0
        assert all(a["est_ms"] > decision["est_ms"] for a in decision["alternatives"])

    def test_no_admissible_partition_is_recorded_too(self, mix_db):
        optimized = SmartIceberg(mix_db).optimize(market_basket_query(10))
        assert optimized.nljp is None
        assert optimized.report.technique.render() == (
            "technique: a-priori join — "
            "no NLJP partition passed the memo/pruning checks"
        )

    def test_unknown_choice_rejected(self, mix_db):
        with pytest.raises(OptimizationError):
            SmartIceberg(mix_db, technique_choice="cheapest")
