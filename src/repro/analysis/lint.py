"""Lint CLI: run the static analyzer + lint rules over queries.

Usage::

    python -m repro.analysis.lint Q1 Q4          # paper queries
    python -m repro.analysis.lint all            # Q1-Q8 + every example
    python -m repro.analysis.lint --db batting "SELECT b_h FROM batting"
    python -m repro.analysis.lint --db basket my_query.sql
    python -m repro.analysis.lint --strict all   # any finding fails
    python -m repro.analysis.lint --trace t.json all   # + Chrome trace
    python -m repro.analysis.lint --concurrency  # lock-discipline pass
    python -m repro.analysis.lint --concurrency path/to/module.py

Named targets resolve to (schema, SQL) pairs: ``Q1``..``Q8`` are the
Figure 1 suite over the batting schema; ``complex``, ``market_basket``
and ``discount`` are the paper's example queries over their own
schemas; ``triangle``, ``square`` and ``triangle_hub`` are the cyclic
workload over the edge graph.  Free-form targets are SQL text (or a
path to a ``.sql`` file) analyzed against ``--db``.

``--trace PATH`` additionally *executes* every linted named target
under the Smart-Iceberg optimizer with ``trace="timing"`` and writes
the merged Chrome ``trace_event`` artifact to PATH — the lint CLI
doubles as a workload runner for flame-graph inspection.

``--concurrency`` switches the CLI to the whole-program
lock-discipline pass (:mod:`repro.analysis.concurrency`): with no
targets it checks the installed ``repro`` package; with targets it
treats each as a Python file to check in isolation (fixtures).

Exit status: 0 clean, 1 when any query fails semantic analysis or any
ERROR-severity finding fires (``--strict`` fails on *any* finding),
2 on usage errors or analyzer crashes.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.lints import Severity, lint_query
from repro.errors import AnalysisError
from repro.storage import Database

#: Tiny deterministic schema builders — linting needs catalogs (schemas,
#: domains, FDs), not data, so every database is built at token scale.
_DB_BUILDERS: Dict[str, Callable[[], Database]] = {}


def _builder(name: str):
    def register(fn: Callable[[], Database]):
        _DB_BUILDERS[name] = fn
        return fn

    return register


@_builder("batting")
def _batting_db() -> Database:
    from repro.workloads.baseball import BaseballConfig, make_batting_db

    return make_batting_db(BaseballConfig(n_rows=50, n_years=3, seed=7))


@_builder("perf")
def _perf_db() -> Database:
    from repro.workloads.baseball import BaseballConfig, load_unpivoted

    db = Database()
    load_unpivoted(db, BaseballConfig(n_rows=50, n_years=3, seed=7))
    return db


@_builder("basket")
def _basket_db() -> Database:
    from repro.workloads.basket import BasketConfig, make_basket_db

    return make_basket_db(BasketConfig())


@_builder("discount")
def _discount_db() -> Database:
    from repro.workloads.basket import load_discount_schema

    db = Database()
    load_discount_schema(db, n_baskets=40, n_items=12, n_discounts=4, seed=7)
    return db


@_builder("cyclic")
def _cyclic_db() -> Database:
    from repro.workloads.cyclic import CyclicConfig, make_cyclic_db

    return make_cyclic_db(CyclicConfig(n_edges=60, seed=7))


def named_targets() -> Dict[str, Tuple[str, str]]:
    """Named lint targets: target name -> (schema name, SQL text)."""
    from repro.workloads.cyclic import (
        square_query,
        triangle_hub_query,
        triangle_query,
    )
    from repro.workloads.queries import (
        complex_query,
        discount_query,
        figure1_queries,
        market_basket_query,
    )

    targets: Dict[str, Tuple[str, str]] = {
        name: ("batting", query.sql)
        for name, query in figure1_queries().items()
    }
    targets["complex"] = ("perf", complex_query())
    targets["market_basket"] = ("basket", market_basket_query())
    targets["discount"] = ("discount", discount_query())
    targets["triangle"] = ("cyclic", triangle_query())
    targets["square"] = ("cyclic", square_query())
    targets["triangle_hub"] = ("cyclic", triangle_hub_query())
    return targets


def _resolve_sql(target: str) -> str:
    """Free-form target: a path to a SQL file, or inline SQL text."""
    if target.endswith(".sql") or os.path.isfile(target):
        with open(target) as handle:
            return handle.read()
    return target


def run_target(
    label: str, db: Database, sql: str, strict: bool, out=sys.stdout
) -> bool:
    """Lint one query; returns True when it passes."""
    try:
        findings = lint_query(db, sql)
    except AnalysisError as error:
        print(f"{label}: error[{type(error).__name__}] {error}", file=out)
        return False
    for finding in findings:
        print(f"{label}: {finding}", file=out)
    if not findings:
        print(f"{label}: ok", file=out)
        return True
    worst = max(finding.severity for finding in findings)
    return worst < Severity.ERROR and not strict


def trace_targets(
    targets: Dict[str, Tuple[str, str]],
    database: Callable[[str], Database],
    out_path: str,
    out=sys.stdout,
) -> int:
    """Execute named targets under ``trace="timing"``; write one trace.

    Targets that cannot execute on the tiny lint-scale schemas are
    reported and skipped — the artifact covers whatever ran.  Returns
    the number of profiles written.
    """
    import json

    from repro.core.system import SmartIceberg
    from repro.errors import ReproError
    from repro.obs.spans import merge_chrome_traces

    named_profiles = []
    for label, (db_name, sql) in targets.items():
        try:
            result = SmartIceberg(database(db_name), trace="timing").execute(sql)
        except ReproError as error:
            print(
                f"{label}: trace skipped [{type(error).__name__}] {error}",
                file=out,
            )
            continue
        if result.profile is not None:
            named_profiles.append((label, result.profile))
    with open(out_path, "w") as handle:
        json.dump(merge_chrome_traces(named_profiles), handle, indent=2)
        handle.write("\n")
    return len(named_profiles)


def run_concurrency(paths: List[str], strict: bool, out=None) -> int:
    """Run the lock-discipline pass; returns the process exit code."""
    from repro.analysis.concurrency import check_package, check_paths

    out = out if out is not None else sys.stdout
    if paths:
        missing = [path for path in paths if not os.path.isfile(path)]
        if missing:
            print(f"concurrency: no such file: {', '.join(missing)}", file=out)
            return 2
        report = check_paths(paths)
    else:
        report = check_package()
    for finding in report.findings:
        print(finding, file=out)
    for rule, count in sorted(report.counts_by_rule().items()):
        print(f"concurrency: {count} x {rule}", file=out)
    print(
        f"concurrency: {len(report.findings)} finding(s) in "
        f"{report.modules_checked} module(s); {len(report.locks)} lock(s), "
        f"{len(report.lock_graph)} order edge(s), "
        f"{len(report.concurrent)} concurrent function(s)",
        file=out,
    )
    return 0 if report.ok(strict) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Static analysis + lints for iceberg queries.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="Q1..Q8, complex, market_basket, discount, 'all', "
        "a .sql file, or literal SQL; with --concurrency, Python files "
        "(default: the installed repro package)",
    )
    parser.add_argument(
        "--db",
        choices=sorted(_DB_BUILDERS),
        default="batting",
        help="schema for free-form SQL targets (default: batting)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any finding, not only errors",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="also execute the linted named targets under trace='timing' "
        "and write a merged Chrome trace to PATH",
    )
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="run the lock-discipline / lock-order pass instead of "
        "query lints",
    )
    args = parser.parse_args(argv)

    if args.concurrency:
        if args.trace:
            parser.error("--trace cannot be combined with --concurrency")
        try:
            return run_concurrency(args.targets, args.strict)
        except Exception as error:  # noqa: BLE001 — crash contract: exit 2
            print(
                f"concurrency: crashed [{type(error).__name__}] {error}",
                file=sys.stderr,
            )
            return 2

    if not args.targets:
        parser.error("at least one target is required (or use --concurrency)")

    known = named_targets()
    databases: Dict[str, Database] = {}

    def database(name: str) -> Database:
        if name not in databases:
            databases[name] = _DB_BUILDERS[name]()
        return databases[name]

    ok = True
    traceable: Dict[str, Tuple[str, str]] = {}
    for target in args.targets:
        if target == "all":
            for label, (db_name, sql) in known.items():
                ok &= run_target(label, database(db_name), sql, args.strict)
                traceable[label] = (db_name, sql)
        elif target in known:
            db_name, sql = known[target]
            ok &= run_target(target, database(db_name), sql, args.strict)
            traceable[target] = (db_name, sql)
        else:
            sql = _resolve_sql(target)
            label = target if len(target) <= 40 else target[:37] + "..."
            ok &= run_target(label, database(args.db), sql, args.strict)
            traceable[label] = (args.db, sql)
    if args.trace:
        count = trace_targets(traceable, database, args.trace)
        print(f"wrote {args.trace}: Chrome trace with {count} query profiles")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
