"""CI gate for the observability subsystem.

Run as ``python -m repro.obs.check``.  Four checks on Q1 over a small
batting table, exit 1 if any fails:

1. **Trace parity** — ``trace="off"`` vs ``trace="timing"`` on Q1 must
   be bit-identical in rows and counters, and the span tree's
   exclusive deltas must sum exactly to the query totals.
2. **Chrome-trace schema** — ``profile.to_chrome_trace()`` must match
   the golden ``trace_event`` shape (metadata + complete events with
   the required keys) that ``chrome://tracing``/Perfetto consume.
3. **Prometheus schema** — the registry render must match the text
   exposition format (HELP/TYPE headers, well-formed sample lines)
   and contain the metrics the executor and the optimizer promise to
   record (the latter: subsumption derivations by outcome).
4. **Query-log schema** — a ``QueryLog`` record must carry exactly the
   promised field set, survive a JSONL round trip, and aggregate
   cleanly through ``repro.obs.report``.

Performance is the served-query benchmark's (``python -m bench.run``),
not this gate's.
"""

from __future__ import annotations

import argparse
import json
import re
from typing import Any, Dict, List, Optional

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(Inf)?$"
)

_PROMETHEUS_EXPECTED = (
    "repro_queries_total",
    "repro_query_seconds",
    "repro_work_total",
    "repro_work_cost_total",
    "repro_cache_bytes_high_water",
    "repro_subsumption_derivations_total",
)

#: Label values ``repro_subsumption_derivations_total`` must show after
#: one engine has optimized the same statement twice.
_DERIVATION_OUTCOMES = ("derived", "reused")

#: Batting rows of the table Q1 runs over (seeded with ``RECORD_SEED``).
_Q1_ROWS = 300


class CheckFailure(Exception):
    pass


def check_trace_parity(db, sql: str) -> Dict[str, Any]:
    """off vs timing bit-identical; span sums equal query totals.

    Runs on the path the install has (columnar where NumPy imports):
    tracing shadows ``execute_columnar`` as it does ``execute``, and
    the span tree must sum to the query totals exactly, zone-map
    counters included.
    """
    import dataclasses

    from repro.engine.executor import execute
    from repro.engine.planner import EngineConfig

    off = execute(db, sql, EngineConfig.postgres())
    timed = execute(
        db, sql, dataclasses.replace(EngineConfig.postgres(), trace="timing")
    )
    path = timed.execution_mode
    if off.sorted_rows() != timed.sorted_rows():
        raise CheckFailure(f"trace=timing ({path}) changed the result rows on Q1")
    if off.stats.as_dict() != timed.stats.as_dict():
        raise CheckFailure(
            f"trace=timing ({path}) changed the work counters on Q1: "
            f"off={off.stats.as_dict()} timing={timed.stats.as_dict()}"
        )
    if timed.profile is None:
        raise CheckFailure(f"trace=timing ({path}) produced no profile")
    totals = timed.profile.total_stats()
    query_totals = timed.stats.as_dict()
    if totals != query_totals:
        diff = {
            name: (totals.get(name), query_totals.get(name))
            for name in set(totals) | set(query_totals)
            if totals.get(name) != query_totals.get(name)
        }
        raise CheckFailure(f"span-delta sum != query totals ({path}): {diff}")
    return {"profile": timed.profile, "spans": sum(1 for _ in timed.profile.spans())}


def check_chrome_schema(profile) -> int:
    """Golden trace_event shape: what chrome://tracing requires."""
    trace = profile.to_chrome_trace()
    if set(trace) != {"traceEvents", "displayTimeUnit"}:
        raise CheckFailure(f"chrome trace top-level keys wrong: {sorted(trace)}")
    events = trace["traceEvents"]
    if not events:
        raise CheckFailure("chrome trace has no events")
    saw_complete = saw_meta = False
    for event in events:
        missing = {"name", "ph", "pid", "tid"} - set(event)
        if missing:
            raise CheckFailure(f"chrome event missing keys {missing}: {event}")
        if event["ph"] == "M":
            saw_meta = True
        elif event["ph"] == "X":
            saw_complete = True
            missing = {"ts", "dur", "cat", "args"} - set(event)
            if missing:
                raise CheckFailure(
                    f"complete event missing keys {missing}: {event['name']}"
                )
            if event["dur"] <= 0:
                raise CheckFailure(f"non-positive dur on {event['name']}")
        else:
            raise CheckFailure(f"unexpected event phase {event['ph']!r}")
    if not (saw_complete and saw_meta):
        raise CheckFailure("chrome trace lacks metadata or complete events")
    json.dumps(trace)  # must be serializable as-is
    return len(events)


def check_querylog_schema() -> int:
    """Golden query-log record shape and JSONL round trip."""
    import io

    from repro.obs.querylog import (
        QUERY_LOG_FIELDS,
        QueryLog,
        validate_records,
    )
    from repro.obs.report import aggregate

    log = QueryLog(max_entries=8)
    record = log.append(
        session="check",
        sql_fingerprint="deadbeefdeadbeef",
        outcome="ok",
        latency_seconds=0.001,
        plan_cache_hit=False,
        degradations=[],
        worst_q_errors=[],
    )
    if tuple(record) != QUERY_LOG_FIELDS:
        raise CheckFailure(
            f"query-log record fields drifted from the golden schema: "
            f"{tuple(record)} != {QUERY_LOG_FIELDS}"
        )
    line = json.dumps(record)
    parsed = json.loads(io.StringIO(line).readline())
    problems = validate_records([parsed])
    if problems:
        raise CheckFailure(f"query-log JSONL round trip invalid: {problems}")
    summary = aggregate([parsed])
    if summary["queries"] != 1 or summary["outcomes"].get("ok") != 1:
        raise CheckFailure(f"report aggregation mangled the record: {summary}")
    return len(QUERY_LOG_FIELDS)


def check_prometheus_schema(db, sql: str) -> int:
    """Golden exposition-format shape for the process registry.

    The executor's metrics are already there from the earlier checks;
    the optimizer's derivation counter needs an optimizer to have run,
    so Q1 is optimized twice on one engine — once cold, once warm.
    """
    from repro.core.system import SmartIceberg
    from repro.obs.metrics import REGISTRY

    engine = SmartIceberg(db)
    engine.optimize(sql)  # derived
    engine.optimize(sql)  # reused
    text = REGISTRY.render()
    if not text.endswith("\n"):
        raise CheckFailure("prometheus render must end with a newline")
    helped = set()
    typed = set()
    samples = 0
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
        elif line.startswith("# TYPE "):
            typed.add(line.split()[2])
        elif line:
            if not _SAMPLE_LINE.match(line):
                raise CheckFailure(f"malformed prometheus sample line: {line!r}")
            samples += 1
    if helped != typed:
        raise CheckFailure(f"HELP/TYPE mismatch: {helped ^ typed}")
    missing = [name for name in _PROMETHEUS_EXPECTED if name not in typed]
    if missing:
        raise CheckFailure(f"expected metrics missing from registry: {missing}")
    for outcome in _DERIVATION_OUTCOMES:
        sample = f'repro_subsumption_derivations_total{{outcome="{outcome}"}} '
        if not any(line.startswith(sample) for line in text.splitlines()):
            raise CheckFailure(
                f"no {outcome!r} sample of repro_subsumption_derivations_total "
                "after optimizing Q1 twice on one engine"
            )
    return samples


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro.obs.check", description=__doc__
    ).parse_args(argv)

    from repro.workloads.baseball import batting_db
    from repro.testing import RECORD_SEED
    from repro.workloads import figure1_queries

    db = batting_db(_Q1_ROWS, seed=RECORD_SEED)
    sql = figure1_queries()["Q1"].sql
    failures: List[str] = []

    def step(name: str, fn) -> Any:
        try:
            value = fn()
        except CheckFailure as error:
            failures.append(f"{name}: {error}")
            print(f"FAIL {name}: {error}")
            return None
        print(f"ok   {name}")
        return value

    parity = step("trace-parity", lambda: check_trace_parity(db, sql))
    if parity is not None:
        step("chrome-schema", lambda: check_chrome_schema(parity["profile"]))
    step("prometheus-schema", lambda: check_prometheus_schema(db, sql))
    step("querylog-schema", check_querylog_schema)

    if failures:
        for failure in failures:
            print(f"OBS CHECK FAILED: {failure}")
        return 1
    print("obs check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
