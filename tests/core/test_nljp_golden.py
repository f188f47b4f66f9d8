"""Golden file of rows and work counters for every NLJP-shaped workload.

``golden/nljp_counters.json`` records, for each case below, the sorted
result rows and ``ExecutionStats.as_dict()`` (minus the mode-variant
``fused_compilations`` and ``inner_prefetch_discarded``) under every
system toggle on the row and the columnar path.
It was generated on the commit *before* NLJP's inner query was lowered
to a columnar kernel and must stay bit-identical: the kernel may make
Q_R cheaper to evaluate, never change a row, a counter or a pruning
decision.

The row path is the one an install without NumPy runs
(:func:`repro.testing.without_numpy`), so the tier-1 job's leg without
NumPy checks it and the other legs check both paths.

Regenerate (only when a counter is *meant* to change)::

    PYTHONPATH=src python -m tests.core.test_nljp_golden --write
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

from repro import Database, SmartIceberg
from repro.workloads.baseball import batting_db, dense_config
from repro.engine.layout import numpy_or_none
from repro.workloads import (
    BaseballConfig,
    CyclicConfig,
    complex_query,
    figure1_queries,
    load_unpivoted,
    make_batting_db,
    make_cyclic_db,
    pairs_query,
    skyband_query,
    triangle_hub_query,
)
from tests.modes import in_mode

GOLDEN = pathlib.Path(__file__).parent / "golden" / "nljp_counters.json"

MODES = ("row", "columnar")

SYSTEMS: Dict[str, Dict[str, Any]] = {
    # The goldens record the paper's rule: every admissible NLJP runs.
    "all": dict(technique_choice="first-applicable"),
    "pruning": dict(apriori=False, memo=False),
    "memo": dict(apriori=False, pruning=False),
    "apriori": dict(memo=False, pruning=False),
}

#: Figure 4's Smart-Iceberg rows: (secondary indexes, cache index).
INDEX_CONFIGS: Dict[str, Tuple[bool, bool]] = {
    "PK": (False, False),
    "PK+BT": (True, False),
    "PK+BT+CI": (True, True),
}


def _perf() -> Database:
    db = Database()
    load_unpivoted(db, dense_config(240, 2017), n_categories=4)
    return db


_DATABASES: Dict[str, Callable[[], Database]] = {
    "batting": lambda: make_batting_db(BaseballConfig(n_rows=400, seed=21)),
    "dense": lambda: batting_db(400),
    "dense-no-bt": lambda: batting_db(300, with_indexes=False),
    "dense-bt": lambda: batting_db(300, with_indexes=True),
    "cyclic": lambda: make_cyclic_db(CyclicConfig(n_edges=300, seed=7)),
    "perf": _perf,
}


def _cases() -> Iterator[Tuple[str, str, str, Dict[str, Dict[str, Any]]]]:
    """(case name, database name, SQL, {variant: SmartIceberg toggles})."""
    for name, query in figure1_queries().items():
        yield f"figure1.{name}", "batting", query.sql, SYSTEMS
    sql = skyband_query("b_h", "b_hr", 50)
    for label, (with_bt, cache_index) in INDEX_CONFIGS.items():
        yield (
            f"figure4.{label}",
            "dense-bt" if with_bt else "dense-no-bt",
            sql,
            {"smart": dict(apriori=False, cache_index=cache_index)},
        )
    for c, k, agg in ((2, 20, "AVG"), (3, 50, "SUM")):
        yield f"pairs.c{c}.k{k}.{agg}", "dense", pairs_query(c=c, k=k, agg=agg), SYSTEMS
    for form in ("weak", "strong"):
        yield (
            f"skyband.{form}",
            "batting",
            skyband_query("b_hr", "b_sb", 25, strict_form=form),
            SYSTEMS,
        )
    yield "triangle_hub", "cyclic", triangle_hub_query(2), SYSTEMS
    yield "complex", "perf", complex_query(4), SYSTEMS


def _jsonable(rows) -> List[List[Any]]:
    return [list(row) for row in rows]


def _run(db: Database, sql: str, toggles: Dict[str, Any], mode: str):
    with in_mode(mode):
        result = SmartIceberg(db, **toggles).execute(sql)
    stats = result.stats.as_dict()
    stats.pop("fused_compilations")
    # What a block kernel evaluated ahead in vain: speculation, columnar only.
    stats.pop("inner_prefetch_discarded")
    return _jsonable(result.sorted_rows()), stats


def _modes() -> Tuple[str, ...]:
    # Without NumPy there is only the row path.
    return MODES if numpy_or_none() is not None else MODES[:1]


def generate() -> Dict[str, Any]:
    databases: Dict[str, Database] = {}
    document: Dict[str, Any] = {}
    for case, db_name, sql, variants in _cases():
        db = databases.get(db_name)
        if db is None:
            db = databases[db_name] = _DATABASES[db_name]()
        rows = None
        stats: Dict[str, Dict[str, int]] = {}
        for variant, toggles in variants.items():
            for mode in MODES:
                got_rows, got_stats = _run(db, sql, toggles, mode)
                if rows is None:
                    rows = got_rows
                assert got_rows == rows, f"{case} {variant}/{mode}: rows differ"
                stats[f"{variant}/{mode}"] = got_stats
        document[case] = {"rows": rows, "stats": stats}
    return document


_GOLDEN_DOC: Dict[str, Any] = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
_DB_CACHE: Dict[str, Database] = {}


@pytest.mark.parametrize(
    "case,db_name,sql,variants",
    [pytest.param(*entry, id=entry[0]) for entry in _cases()],
)
def test_rows_and_counters_match_golden(case, db_name, sql, variants):
    expected = _GOLDEN_DOC[case]
    db = _DB_CACHE.get(db_name)
    if db is None:
        db = _DB_CACHE[db_name] = _DATABASES[db_name]()
    for variant, toggles in variants.items():
        for mode in _modes():
            rows, stats = _run(db, sql, toggles, mode)
            assert rows == expected["rows"], f"{case} {variant}/{mode}: rows"
            assert stats == expected["stats"][f"{variant}/{mode}"], (
                f"{case} {variant}/{mode}: counters"
            )


def test_golden_covers_every_case():
    assert sorted(_GOLDEN_DOC) == sorted(entry[0] for entry in _cases())


def _dump(document: Dict[str, Any]) -> str:
    """One line per case's rows and per variant's counters."""
    compact = lambda value: json.dumps(value, sort_keys=True, separators=(",", ":"))
    cases = []
    for case in sorted(document):
        entry = document[case]
        stats = ",\n".join(
            f"   {json.dumps(variant)}: {compact(counters)}"
            for variant, counters in sorted(entry["stats"].items())
        )
        cases.append(
            f' {json.dumps(case)}: {{\n  "rows": {compact(entry["rows"])},\n'
            f'  "stats": {{\n{stats}\n  }}\n }}'
        )
    return "{\n" + ",\n".join(cases) + "\n}\n"


if __name__ == "__main__":
    if "--write" not in sys.argv:
        sys.exit("usage: python -m tests.core.test_nljp_golden --write")
    GOLDEN.write_text(_dump(generate()))
    print(f"wrote {GOLDEN}")
