"""CI gate for the observability subsystem.

Run as ``python -m repro.obs.check --baseline BENCH_1.json``.  Four
checks, exit 1 if any fails:

1. **Baseline equality** — a fresh ``trace="off"`` Q1 run on the
   baseline system must reproduce the cost and every shared work
   counter recorded in the pre-PR ``BENCH_1.json``.  The counters are
   deterministic and machine-independent, so *any* drift — including
   work sneaking into the ``trace="off"`` path — fails loudly, which
   is a far sharper guard than a wall-clock percentage on shared CI
   hardware.  The measured off-vs-timing wall-clock overhead is
   reported alongside for the humans.
2. **Trace parity** — ``trace="off"`` vs ``trace="timing"`` on Q1 must
   be bit-identical in rows and counters, and the span tree's
   exclusive deltas must sum exactly to the query totals.
3. **Chrome-trace schema** — ``profile.to_chrome_trace()`` must match
   the golden ``trace_event`` shape (metadata + complete events with
   the required keys) that ``chrome://tracing``/Perfetto consume.
4. **Prometheus schema** — the registry render must match the text
   exposition format (HELP/TYPE headers, well-formed sample lines)
   and contain the metrics the executor and the optimizer promise to
   record (the latter: subsumption derivations by outcome).

With ``--wcoj-baseline BENCH_4.json`` a fifth check validates the
recorded worst-case-optimal-join section: the AGM gate line chose the
trie join, the pairwise/WCOJ ``join_pairs`` ratio meets the recorded
floor, and the bit-identity flags are true.

A sixth check always runs: the **query-log golden schema** — a
``QueryLog`` record must carry exactly the promised field set, survive
a JSONL round trip, and aggregate cleanly through ``repro.obs.report``.
With ``--feedback-baseline BENCH_5.json`` a seventh check validates
the recorded feedback section: ``feedback=apply`` cut the max q-error
by the recorded floor, flipped a plan decision, and stayed
bit-identical to ``feedback=off``.
"""

from __future__ import annotations

import argparse
import json
import re
import time
from typing import Any, Dict, List, Optional

#: Work-counter keys whose values may legitimately differ from a
#: pre-PR baseline: none.  Shared keys must match exactly; keys new
#: in this PR (absent from the baseline record) are skipped.

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


class CheckFailure(Exception):
    pass


def _postgres(mode: str, trace: str = "off"):
    """The baseline configuration in an explicit mode: the committed
    records, and the untraced runs traced ones are held against, are
    row mode's — whatever mode ships as the default."""
    import dataclasses

    from repro.engine.planner import EngineConfig

    return dataclasses.replace(
        EngineConfig.postgres(), execution_mode=mode, trace=trace
    )


def _find_baseline_record(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The Q1/base/row record; stale system labels fail loudly.

    Record ``system`` fields must use the suite system names the
    document itself declares (``suite.systems``).  Historically the
    "base" runner leaked its config label ("postgres") into committed
    baselines, which made every downstream ``system == "base"`` filter
    silently miss — so a mismatched label is a hard failure here, not
    something to paper over with an alias.
    """
    declared = doc.get("suite", {}).get("systems")
    if declared:
        stale = sorted(
            {
                str(record.get("system"))
                for record in doc.get("records", [])
                if record.get("system") not in declared
            }
        )
        if stale:
            raise CheckFailure(
                f"baseline records use labels {stale} not declared in "
                f"suite.systems {declared} — regenerate the baseline "
                f"with python -m repro.bench.record"
            )
    for record in doc.get("records", []):
        if (
            record.get("query") == "Q1"
            and record.get("mode") == "row"
            and record.get("system") == "base"
        ):
            return record
    raise CheckFailure("baseline has no Q1 base-system row-mode record")


def check_baseline_equality(baseline_path: str) -> Dict[str, Any]:
    """Fresh trace=off Q1 vs the recorded baseline: exact counter match."""
    from repro.bench.figures import _batting_db
    from repro.bench.record import RECORD_SEED
    from repro.engine.executor import execute
    from repro.workloads import figure1_queries

    with open(baseline_path) as handle:
        doc = json.load(handle)
    record = _find_baseline_record(doc)
    n_rows = doc.get("suite", {}).get("n_rows", 300)
    seed = doc.get("suite", {}).get("seed", RECORD_SEED)

    sql = figure1_queries()["Q1"].sql
    db = _batting_db(n_rows, seed=seed)
    result = execute(db, sql, _postgres(record["mode"]))

    if result.stats.cost() != record["cost"]:
        raise CheckFailure(
            f"Q1 cost drift vs baseline: now {result.stats.cost()}, "
            f"recorded {record['cost']} — trace=off is doing different work"
        )
    counters = result.stats.as_dict()
    shared = set(counters) & set(record["counters"])
    drift = {
        name: (counters[name], record["counters"][name])
        for name in sorted(shared)
        if counters[name] != record["counters"][name]
    }
    if drift:
        raise CheckFailure(f"Q1 counter drift vs baseline (now, recorded): {drift}")
    if len(result.rows) != record["rows"]:
        raise CheckFailure(
            f"Q1 row-count drift: now {len(result.rows)}, "
            f"recorded {record['rows']}"
        )
    return {"n_rows": n_rows, "shared_counters": len(shared), "db": db, "sql": sql}


def check_trace_parity(db, sql: str) -> Dict[str, Any]:
    """off vs timing bit-identical; span sums equal query totals.

    Runs the check in row mode *and* columnar mode: tracing shadows
    ``execute_columnar`` too, and the columnar span tree must sum to
    the columnar query totals exactly (including the zone-map
    counters), while the columnar rows and folded counters stay
    identical to the untraced row-mode run.
    """
    from repro.engine.executor import execute

    off = execute(db, sql, _postgres("row"))
    spans = None
    profile = None
    for mode in ("row", "columnar"):
        timed = execute(db, sql, _postgres(mode, trace="timing"))
        if off.sorted_rows() != timed.sorted_rows():
            raise CheckFailure(
                f"trace=timing ({mode}) changed the result rows on Q1"
            )
        if off.stats.parity_dict() != timed.stats.parity_dict():
            raise CheckFailure(
                f"trace=timing ({mode}) changed the work counters on Q1: "
                f"off={off.stats.parity_dict()} "
                f"timing={timed.stats.parity_dict()}"
            )
        if mode == "row" and off.stats.as_dict() != timed.stats.as_dict():
            raise CheckFailure(
                f"trace=timing changed the work counters on Q1: "
                f"off={off.stats.as_dict()} timing={timed.stats.as_dict()}"
            )
        if timed.profile is None:
            raise CheckFailure(f"trace=timing ({mode}) produced no profile")
        totals = timed.profile.total_stats()
        query_totals = timed.stats.as_dict()
        if totals != query_totals:
            diff = {
                name: (totals.get(name), query_totals.get(name))
                for name in set(totals) | set(query_totals)
                if totals.get(name) != query_totals.get(name)
            }
            raise CheckFailure(
                f"span-delta sum != query totals ({mode}): {diff}"
            )
        if mode == "row":
            profile = timed.profile
            spans = sum(1 for _ in timed.profile.spans())
    return {"profile": profile, "spans": spans}


def measure_overhead(db, sql: str, repeats: int = 5) -> Dict[str, float]:
    """Best-of-N wall clock, trace=off vs trace=timing (report only).

    Wall-clock ratios on shared CI hardware are noise; the *enforced*
    zero-overhead guarantee is the deterministic counter equality of
    :func:`check_baseline_equality`.  This is the human-facing number.
    """
    from repro.engine.executor import execute
    from repro.engine.planner import EngineConfig

    def best(config) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            execute(db, sql, config)
            times.append(time.perf_counter() - start)
        return min(times)

    off = best(EngineConfig.postgres())
    timed = best(
        EngineConfig(
            join_policy="index-first", join_order="syntactic",
            parallelism=2.0, label="postgres", trace="timing",
        )
    )
    return {
        "off_seconds": off,
        "timing_seconds": timed,
        "timing_overhead_pct": 100.0 * (timed - off) / off if off > 0 else 0.0,
    }


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


def check_wcoj_record(path: str) -> Dict[str, Any]:
    """Schema + invariants of a recorded BENCH_4-style wcoj section."""
    from repro.bench.record import WCOJ_MIN_RATIO

    with open(path) as handle:
        doc = json.load(handle)
    wcoj = doc.get("wcoj")
    if not isinstance(wcoj, dict):
        raise CheckFailure(f"{path} has no wcoj section (run with --wcoj)")
    required = {
        "query", "n_edges", "seed", "gate", "rows", "auto_join_pairs",
        "pairwise_join_pairs", "join_pairs_ratio", "rows_identical",
        "auto_chose_wcoj", "square_rows_identical", "square_cache_hits",
    }
    missing = required - set(wcoj)
    if missing:
        raise CheckFailure(f"wcoj section missing keys: {sorted(missing)}")
    gate = wcoj["gate"]
    if not isinstance(gate, str) or "agm_pairs=" not in gate:
        raise CheckFailure(f"wcoj gate line lacks the AGM bound: {gate!r}")
    if "-> wcoj" not in gate:
        raise CheckFailure(f"auto gate did not choose the trie join: {gate!r}")
    if not wcoj["rows_identical"] or not wcoj["square_rows_identical"]:
        raise CheckFailure("recorded wcoj run was not bit-identical to pairwise")
    if wcoj["join_pairs_ratio"] < WCOJ_MIN_RATIO:
        raise CheckFailure(
            f"join_pairs ratio {wcoj['join_pairs_ratio']} below the "
            f"{WCOJ_MIN_RATIO}x floor"
        )
    if wcoj["square_cache_hits"] <= 0:
        raise CheckFailure("square query recorded no trie-cache hits")
    return wcoj


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
        feedback_corrections=[],
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


def check_feedback_record(path: str) -> Dict[str, Any]:
    """Schema + invariants of a recorded BENCH_5-style feedback section."""
    from repro.bench.record import FEEDBACK_MIN_RATIO

    with open(path) as handle:
        doc = json.load(handle)
    feedback = doc.get("feedback")
    if not isinstance(feedback, dict):
        raise CheckFailure(f"{path} has no feedback section (run with --feedback)")
    required = {
        "query", "n_events", "n_users", "seed", "observations",
        "max_q_error_before", "max_q_error_after", "q_error_ratio",
        "plan_changed", "corrections_in_explain", "rows_identical",
        "plan_before", "plan_after",
    }
    missing = required - set(feedback)
    if missing:
        raise CheckFailure(f"feedback section missing keys: {sorted(missing)}")
    if not feedback["rows_identical"]:
        raise CheckFailure("recorded apply run was not bit-identical to off")
    if not feedback["plan_changed"]:
        raise CheckFailure("feedback=apply did not change any plan decision")
    if feedback["q_error_ratio"] < FEEDBACK_MIN_RATIO:
        raise CheckFailure(
            f"q-error ratio {feedback['q_error_ratio']} below the "
            f"{FEEDBACK_MIN_RATIO}x floor"
        )
    if feedback["observations"] <= 0:
        raise CheckFailure("feedback run harvested no observations")
    if feedback["corrections_in_explain"] <= 0:
        raise CheckFailure(
            "corrected plan shows no [feedback: est ...] annotations"
        )
    return feedback


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
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.check", description=__doc__
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_1.json",
        help="pre-PR benchmark record (default: BENCH_1.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="overhead-report repeats"
    )
    parser.add_argument(
        "--wcoj-baseline",
        default=None,
        metavar="PATH",
        help="also validate a recorded wcoj section (e.g. BENCH_4.json)",
    )
    parser.add_argument(
        "--feedback-baseline",
        default=None,
        metavar="PATH",
        help="also validate a recorded feedback section (e.g. BENCH_5.json)",
    )
    args = parser.parse_args(argv)

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

    base = step("baseline-equality", lambda: check_baseline_equality(args.baseline))
    if base is None:
        for failure in failures:
            print(f"OBS CHECK FAILED: {failure}")
        return 1
    db, sql = base["db"], base["sql"]

    parity = step("trace-parity", lambda: check_trace_parity(db, sql))
    if parity is not None:
        step("chrome-schema", lambda: check_chrome_schema(parity["profile"]))
    step("prometheus-schema", lambda: check_prometheus_schema(db, sql))
    step("querylog-schema", check_querylog_schema)
    if args.wcoj_baseline:
        step("wcoj-record", lambda: check_wcoj_record(args.wcoj_baseline))
    if args.feedback_baseline:
        step(
            "feedback-record",
            lambda: check_feedback_record(args.feedback_baseline),
        )

    overhead = measure_overhead(db, sql, repeats=args.repeats)
    print(
        f"info overhead (report only; the enforced gate is counter "
        f"equality): trace=off best {overhead['off_seconds']:.4f}s, "
        f"trace=timing best {overhead['timing_seconds']:.4f}s "
        f"({overhead['timing_overhead_pct']:+.1f}%)"
    )

    if failures:
        for failure in failures:
            print(f"OBS CHECK FAILED: {failure}")
        return 1
    print("obs check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
