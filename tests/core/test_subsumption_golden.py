"""Golden file of every subsumption predicate the repo derives.

``golden/subsumption_predicates.json`` records, for each join condition
Θ below, the derived p⪰ as formula text and as rendered SQL.  It was
generated on the commit *before* the DNF de-duplication / per-engine
derivation cache landed and must stay bit-identical: a change to the
logic layer may make the derivation cheaper, never different.

Three kinds of case:

* **statements** are optimized by a fresh ``SmartIceberg`` under
  Listing 9's first-applicable rule while a spy on the optimizer's
  ``check_pruning`` records the Theorem 3 decision for every NLJP
  partition candidate it tries — accepted or not;
* **partitions** take one L/R split of a statement's block and derive
  from its Θ directly, which reaches the join conditions Theorem 3
  rejects before deriving (basket, triangle, skewed);
* **conditions** go straight to ``derive_subsumption``.

Regenerate (only when a predicate is *meant* to change, with a
``qe.equivalent`` proof in the PR)::

    PYTHONPATH=src python -m tests.core.test_subsumption_golden --write
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import pytest

import repro.core.optimizer as optimizer_module
from repro import Database, SmartIceberg
from repro.core.iceberg import IcebergBlock
from repro.core.subsumption import SubsumptionPredicate, derive_subsumption
from repro.errors import QuantifierEliminationError
from repro.sql import ast, render
from repro.sql.parser import parse, parse_expression
from repro.workloads import (
    BaseballConfig,
    BasketConfig,
    CyclicConfig,
    SkewedConfig,
    complex_query,
    discount_query,
    figure1_queries,
    load_discount_schema,
    load_unpivoted,
    make_basket_db,
    make_batting_db,
    make_cyclic_db,
    make_skewed_db,
    market_basket_query,
    skewed_query,
    skyband_query,
    square_query,
    triangle_hub_query,
    triangle_query,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "subsumption_predicates.json"

ATTR_PAIRS = (("b_h", "b_hr"), ("b_hr", "b_sb"), ("b_h", "b_rbi"))


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _batting() -> Database:
    return make_batting_db(BaseballConfig(n_rows=120, n_years=3, seed=7))


def _perf() -> Database:
    db = Database()
    load_unpivoted(db, BaseballConfig(n_rows=60, n_years=3, seed=7))
    return db


def _discount() -> Database:
    db = Database()
    load_discount_schema(db, n_baskets=40, n_items=12, n_discounts=4, seed=7)
    return db


_DATABASES: Dict[str, Callable[[], Database]] = {
    "batting": _batting,
    "perf": _perf,
    "basket": lambda: make_basket_db(BasketConfig(n_baskets=60, seed=7)),
    "discount": _discount,
    "cyclic": lambda: make_cyclic_db(CyclicConfig(n_edges=60, seed=7)),
    "skewed": lambda: make_skewed_db(
        SkewedConfig(n_events=200, n_users=20, n_regions=4)
    ),
}


def _statements() -> Dict[str, Tuple[str, str]]:
    """Case name → (database name, SQL)."""
    cases: Dict[str, Tuple[str, str]] = {
        f"figure1.{name}": ("batting", query.sql)
        for name, query in figure1_queries().items()
    }
    for attr_a, attr_b in ATTR_PAIRS:
        for form in ("weak", "strong"):
            cases[f"skyband.{form}.{attr_a}.{attr_b}"] = (
                "batting",
                skyband_query(attr_a, attr_b, 25, strict_form=form),
            )
    cases["skyband.monotone"] = (
        "batting",
        "SELECT L.playerid, L.year, L.round, COUNT(*) FROM batting L, batting R "
        "WHERE L.b_h <= R.b_h AND L.b_hr <= R.b_hr "
        "GROUP BY L.playerid, L.year, L.round HAVING COUNT(*) >= 10",
    )
    cases["complex"] = ("perf", complex_query(4))
    cases["market_basket"] = ("basket", market_basket_query(3))
    cases["basket.equality_strict"] = (
        "basket",
        "SELECT i1.item, COUNT(*) FROM basket i1, basket i2 "
        "WHERE i1.bid = i2.bid AND i1.item < i2.item "
        "GROUP BY i1.item HAVING COUNT(*) >= 2",
    )
    cases["discount"] = ("discount", discount_query(3))
    cases["triangle"] = ("cyclic", triangle_query())
    cases["square"] = ("cyclic", square_query())
    cases["triangle_hub"] = ("cyclic", triangle_hub_query(2))
    cases["skewed"] = ("skewed", skewed_query(SkewedConfig(n_kinds=8, hot_kind=7)))
    return cases


#: Case name → (statement case, driver-side aliases).
_PARTITIONS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "market_basket.i1": ("market_basket", ("i1",)),
    "basket.equality_strict.i1": ("basket.equality_strict", ("i1",)),
    "basket.equality_strict.i2": ("basket.equality_strict", ("i2",)),
    "complex.s1_s2": ("complex", ("s1", "s2")),
    "complex.s1": ("complex", ("s1",)),
    "discount.l": ("discount", ("l",)),
    "triangle.e1": ("triangle", ("e1",)),
    "square.e1_e2": ("square", ("e1", "e2")),
    "triangle_hub.e1": ("triangle_hub", ("e1",)),
    "triangle_hub.e1_e2": ("triangle_hub", ("e1", "e2")),
    "skewed.u": ("skewed", ("u",)),
    "skyband.weak.b_h.b_hr.r": ("skyband.weak.b_h.b_hr", ("r",)),
}

_PAIRS = ("hits1", "hruns1", "hits2", "hruns2")

#: Case name → (Θ conjuncts, J_L, J_R), as ``derive_subsumption`` takes them.
_CONDITIONS: Dict[str, Tuple[Sequence[str], Sequence[str], Sequence[str]]] = {
    # The two conditions bench/layers.py times.
    "bench.pairs": (
        tuple(f"R.{a} >= L.{a}" for a in _PAIRS)
        + (" OR ".join(f"R.{a} > L.{a}" for a in _PAIRS),),
        [f"l.{a}" for a in _PAIRS],
        [f"r.{a}" for a in _PAIRS],
    ),
    "bench.skyband": (
        ("L.b_h <= R.b_h", "L.b_hr <= R.b_hr", "L.b_h < R.b_h OR L.b_hr < R.b_hr"),
        ["l.b_h", "l.b_hr"],
        ["r.b_h", "r.b_hr"],
    ),
    # tests/core/test_subsumption.py
    "example10.simplified": (
        ("L.x < R.x", "L.y < R.y"), ["l.x", "l.y"], ["r.x", "r.y"],
    ),
    "example11.full": (
        ("L.x <= R.x", "L.y <= R.y", "L.x < R.x OR L.y < R.y"),
        ["l.x", "l.y"],
        ["r.x", "r.y"],
    ),
    "equality_plus_strict": (
        ("L.a = R.a", "L.v < R.v"), ["l.a", "l.v"], ["r.a", "r.v"],
    ),
    "sum_of_attributes": (
        ("L.x + L.y <= R.x", "L.y >= R.y"), ["l.x", "l.y"], ["r.x", "r.y"],
    ),
    "text_equality": (
        ("L.cat = R.cat", "L.v <= R.v"), ["l.cat", "l.v"], ["r.cat", "r.v"],
    ),
    "listing10": (
        (
            "s1.category = t1.category",
            "t1.attr = s1.attr",
            "t2.attr = s2.attr",
            "t1.val > s1.val",
            "t2.val > s2.val",
        ),
        ["s1.category", "s1.attr", "s2.attr", "s1.val", "s2.val"],
        ["t1.category", "t1.attr", "t2.attr", "t1.val", "t2.val"],
    ),
    "weak_dominance": (
        ("L.x <= R.x", "L.y <= R.y"), ["l.x", "l.y"], ["r.x", "r.y"],
    ),
    "pure_equality": (("L.a = R.a",), ["l.a"], ["r.a"]),
    "division_by_constant": (("L.x / 2 <= R.x",), ["l.x"], ["r.x"]),
    # Three-attribute dominance: the k-way strict disjunction one size
    # below the pairs condition.
    "dominance3": (
        tuple(f"L.{a} <= R.{a}" for a in "xyz")
        + (" OR ".join(f"L.{a} < R.{a}" for a in "xyz"),),
        [f"l.{a}" for a in "xyz"],
        [f"r.{a}" for a in "xyz"],
    ),
    "not_equal": (("L.x <> R.x",), ["l.x"], ["r.x"]),
    "between": (("R.x BETWEEN L.lo AND L.hi",), ["l.hi", "l.lo"], ["r.x"]),
    "scaled_offset": (
        ("2 * L.x + 3 <= R.x", "L.y - 1 < R.y"), ["l.x", "l.y"], ["r.x", "r.y"],
    ),
    # Outside the linear fragment: the failure text is golden too.
    "nonlinear": (("L.x * L.y < R.x",), ["l.x", "l.y"], ["r.x"]),
    "unknown_function": (("ABS(L.x) < R.x",), ["l.x"], ["r.x"]),
}


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def _predicate_record(predicate: SubsumptionPredicate) -> Dict[str, Any]:
    sql = predicate.to_sql(
        lambda i: ast.Parameter(f"b{i}"),
        lambda i: ast.ColumnRef("c", predicate.attributes[i].replace(".", "_")),
    )
    return {
        "attributes": list(predicate.attributes),
        "formula": repr(predicate.formula),
        "sql": render(sql),
        "equality_attributes": list(predicate.equality_attributes()),
        "ordered_attribute": predicate.ordered_attribute(),
    }


def _statement_record(db: Database, sql: str) -> List[Dict[str, Any]]:
    """Every ``check_pruning`` decision one cold optimization takes."""
    decisions: List[Dict[str, Any]] = []
    real = optimizer_module.check_pruning

    def spy(view, *args, **kwargs):
        decision = real(view, *args, **kwargs)
        decisions.append(
            {
                "driver": sorted(view.left_aliases),
                "applicable": decision.applicable,
                "reason": decision.reason,
                "direction": decision.direction.value if decision.direction else None,
                "predicate": (
                    _predicate_record(decision.predicate)
                    if decision.predicate is not None
                    else None
                ),
            }
        )
        return decision

    optimizer_module.check_pruning = spy
    try:
        SmartIceberg(db, technique_choice="first-applicable").optimize(sql)
    finally:
        optimizer_module.check_pruning = real
    return decisions


def _derive_record(
    theta: Sequence[ast.Expr], j_left: Sequence[str], j_right: Sequence[str]
) -> Dict[str, Any]:
    try:
        predicate = derive_subsumption(theta, j_left, j_right)
    except QuantifierEliminationError as error:
        return {"error": str(error)}
    return _predicate_record(predicate)


def _partition_record(db: Database, sql: str, left: Sequence[str]) -> Dict[str, Any]:
    view = IcebergBlock(parse(sql).body, db).partition(list(left))
    record = _derive_record(
        list(view.theta), sorted(view.j_left), sorted(view.j_right)
    )
    record["theta"] = [render(conjunct) for conjunct in view.theta]
    return record


def _condition_record(
    conjuncts: Sequence[str], j_left: Sequence[str], j_right: Sequence[str]
) -> Dict[str, Any]:
    return _derive_record(
        [parse_expression(text) for text in conjuncts], j_left, j_right
    )


def generate() -> Dict[str, Any]:
    databases = {name: build() for name, build in _DATABASES.items()}
    cases = _statements()
    sections = {
        "statements": {
            name: _statement_record(databases[db_name], sql)
            for name, (db_name, sql) in cases.items()
        },
        "partitions": {
            name: _partition_record(databases[cases[case][0]], cases[case][1], left)
            for name, (case, left) in _PARTITIONS.items()
        },
        "conditions": {
            name: _condition_record(*case) for name, case in _CONDITIONS.items()
        },
    }
    # Through JSON once, so tuples compare as the lists the file holds.
    return json.loads(json.dumps(sections))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def derived() -> Dict[str, Any]:
    return generate()


def test_same_cases_as_golden(golden, derived):
    for section in ("statements", "partitions", "conditions"):
        assert sorted(derived[section]) == sorted(golden[section])


@pytest.mark.parametrize("name", sorted(_statements()))
def test_statement_predicates_bit_identical(name, golden, derived):
    assert derived["statements"][name] == golden["statements"][name]


@pytest.mark.parametrize("name", sorted(_PARTITIONS))
def test_partition_predicates_bit_identical(name, golden, derived):
    assert derived["partitions"][name] == golden["partitions"][name]


@pytest.mark.parametrize("name", sorted(_CONDITIONS))
def test_condition_predicates_bit_identical(name, golden, derived):
    assert derived["conditions"][name] == golden["conditions"][name]


def test_golden_covers_the_papers_predicates(golden):
    """The file is not vacuous: the shapes the paper prints are in it."""
    q4 = [d for d in golden["statements"]["figure1.Q4"] if d["applicable"]]
    for pairs in (golden["conditions"]["bench.pairs"], q4[0]["predicate"]):
        assert pairs["sql"].count("<=") == 4 and "OR" not in pairs["sql"]
    assert golden["conditions"]["listing10"]["equality_attributes"] == [0, 1, 2]
    assert "error" in golden["conditions"]["nonlinear"]


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--write"]:
        print(__doc__)
        return 2
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(generate(), indent=1, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
