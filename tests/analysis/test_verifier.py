"""Tests for the plan verifier and the machine-readable plan dump.

The centerpiece is the dropped-conjunct mutation: reverting the
planner's duplicate-column dedup (the PR-3 bug class) must turn into a
hard verification error, under every join-order policy.
"""

import dataclasses
import json
from itertools import combinations

import pytest

from repro import SmartIceberg
from repro.analysis import verify_or_raise, verify_planned
from repro.engine import EngineConfig
from repro.engine import planner as planner_module
from repro.engine.planner import plan_query
from repro.errors import PlanVerificationError
from repro.sql.parser import parse
from repro.workloads import BaseballConfig, figure1_queries, make_batting_db
from tests.modes import in_mode


DB = make_batting_db(BaseballConfig(n_rows=300, seed=21))

JOIN_ORDERS = ("syntactic", "greedy", "dp")
MODES = ("row", "columnar")


def smart_config(join_order):
    return dataclasses.replace(EngineConfig.smart(), join_order=join_order)


class TestStrictAcceptance:
    """``analyze="strict"`` on the paper workloads: zero violations,
    bit-identical results versus ``analyze="off"``."""

    @pytest.mark.parametrize("name", [f"Q{i}" for i in range(1, 9)])
    def test_strict_equals_off_across_planners_and_modes(self, name):
        sql = figure1_queries()[name].sql
        reference = None
        for join_order in JOIN_ORDERS:
            for mode in MODES:
                rows = {}
                for analyze in ("off", "strict"):
                    system = SmartIceberg(
                        DB, config=smart_config(join_order), analyze=analyze
                    )
                    # Strict mode raises on any analyzer or verifier
                    # violation, so reaching rows at all is the "zero
                    # violations" half of the acceptance criterion.
                    with in_mode(mode):
                        rows[analyze] = system.execute(sql).sorted_rows()
                assert rows["strict"] == rows["off"], (
                    f"{name} [{join_order}/{mode}] differs across "
                    "analyze modes"
                )
                if reference is None:
                    reference = rows["strict"]
                assert rows["strict"] == reference, (
                    f"{name} [{join_order}/{mode}] differs across plans"
                )

    @pytest.mark.parametrize("join_order", JOIN_ORDERS)
    @pytest.mark.parametrize("name", [f"Q{i}" for i in range(1, 9)])
    def test_engine_plans_verify_clean(self, name, join_order):
        planned = plan_query(
            DB, parse(figure1_queries()[name].sql), smart_config(join_order)
        )
        assert verify_planned(planned) == []


# A 3-way self-join whose equi conjuncts target the same inner column
# twice (M.year = L.year AND M.year = R.year).  Post-dedup, only one
# can feed the hash-index probe key; the other must survive in the
# residual filter.
MUTATION_SQL = (
    "SELECT COUNT(*) FROM batting L, batting R, batting M "
    "WHERE L.teamid = R.teamid AND L.year = R.year AND L.round = R.round "
    "AND M.teamid = L.teamid AND M.year = L.year AND M.year = R.year "
    "AND M.round = L.round"
)


def _matching_hash_index_without_dedup(table, equi, config):
    """The pre-PR-3 buggy search: duplicate inner columns not deduped.

    ``find_hash_index`` compares column *sets*, so the duplicated
    column still matches an index, but only one of the duplicate
    conjuncts can feed the probe key — the other is silently dropped
    from both the key and the residual.
    """
    columns = [column for _, column, _ in equi]
    index = table.find_hash_index(columns)
    chosen = list(equi)
    if index is None:
        for size in range(len(equi) - 1, 0, -1):
            for subset in combinations(equi, size):
                index = table.find_hash_index([c for _, c, _ in subset])
                if index is not None:
                    chosen = list(subset)
                    break
            if index is not None:
                break
    if index is None:
        return None, []
    return index, chosen


class TestDroppedConjunctMutation:
    @pytest.mark.parametrize("join_order", JOIN_ORDERS)
    def test_correct_planner_verifies_clean(self, join_order):
        planned = plan_query(
            DB, parse(MUTATION_SQL), smart_config(join_order)
        )
        assert verify_planned(planned) == []

    @pytest.mark.parametrize("join_order", JOIN_ORDERS)
    def test_mutant_reported_as_dropped_predicate(self, join_order, monkeypatch):
        monkeypatch.setattr(
            planner_module,
            "_matching_hash_index",
            _matching_hash_index_without_dedup,
        )
        planned = plan_query(
            DB, parse(MUTATION_SQL), smart_config(join_order)
        )
        violations = verify_planned(planned)
        assert any("dropped predicate" in v for v in violations), violations
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_or_raise(planned)
        assert excinfo.value.violations == violations

    def test_strict_mode_turns_mutation_into_hard_error(self, monkeypatch):
        monkeypatch.setattr(
            planner_module,
            "_matching_hash_index",
            _matching_hash_index_without_dedup,
        )
        system = SmartIceberg(DB, analyze="strict")
        with pytest.raises(PlanVerificationError):
            system.optimize(MUTATION_SQL)

    def test_warn_mode_records_verifier_note(self, monkeypatch):
        monkeypatch.setattr(
            planner_module,
            "_matching_hash_index",
            _matching_hash_index_without_dedup,
        )
        optimized = SmartIceberg(DB, analyze="warn").optimize(MUTATION_SQL)
        assert any(
            note.startswith("verifier:") and "dropped predicate" in note
            for note in optimized.report.notes
        )


def walk_nodes(node):
    yield node
    for child in node.get("children", ()):
        yield from walk_nodes(child)
    for key in ("subplan", "qb_plan", "qr_plan"):
        if key in node:
            yield from walk_nodes(node[key])


class TestPlanToDict:
    """Satellite (b): machine-readable plan dump mirroring explain()."""

    def test_structure_and_json_serializable(self):
        planned = plan_query(
            DB, parse(figure1_queries()["Q1"].sql), EngineConfig.smart()
        )
        node = planned.to_dict()
        json.dumps(node)  # must not raise
        assert node["columns"] == list(planned.columns)
        root = node["root"]
        assert {"operator", "columns", "children"} <= set(root)

    def test_operators_mirror_explain(self):
        planned = plan_query(
            DB, parse(figure1_queries()["Q1"].sql), EngineConfig.smart()
        )
        dumped = {
            n["operator"] for n in walk_nodes(planned.to_dict()["root"])
        }
        for line in planned.explain().splitlines():
            assert line.split()[0] in dumped

    def test_nljp_node_exposes_features_and_subplans(self):
        optimized = SmartIceberg(DB).optimize(figure1_queries()["Q1"].sql)
        document = optimized.planned.to_dict()
        json.dumps(document)
        nljp = next(
            n for n in walk_nodes(document["root"]) if "qb_plan" in n
        )
        assert set(nljp["features"]) == {"pruning", "memo", "mode"}
        assert nljp["features"]["pruning"] is True
        assert "pruning_predicate" in nljp

    def test_cte_scan_includes_subplan(self):
        sql = (
            "WITH best AS (SELECT b.playerid, MAX(b.b_h) AS hits "
            "FROM batting b GROUP BY b.playerid) "
            "SELECT t.playerid FROM best t WHERE t.hits > 20"
        )
        planned = plan_query(DB, parse(sql), EngineConfig.smart())
        document = planned.to_dict()
        json.dumps(document)
        assert any(
            "subplan" in n for n in walk_nodes(document["root"])
        ), "materialized CTE scan should embed its sub-plan"
