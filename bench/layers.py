"""The per-layer pass: one exact prefix of a stream, layer by layer.

The timed run wraps nothing, so it cannot say where the time went.
This pass can: it serves the first requests of client 0's stream and
takes each distinct statement through the layers' public functions one
call at a time — parse, resolve, optimize, plan, execute — with a span
recorded *here* around each call.  Spans live in memory until the pass
ends.  Counts come from the same calls, so a count and the time next
to it describe the same work, and with ``PYTHONHASHSEED=0`` the counts
repeat exactly.

``*_ms`` metrics are medians over the replayed statements unless
``bench/README.md`` says otherwise for the metric.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.core.subsumption as subsumption
from repro import Database, SmartIceberg
from repro.analysis import resolve_query
from repro.engine.planner import plan_query
from repro.logic import fme
from repro.sql.parser import parse, parse_expression
from repro.storage.index import HashIndex

from bench import oracle
from bench.loadgen import ClientLog, geometric_mean, perform, run_clients
from bench.workloads import Live, Request, Workload, figure1_requests, set_up


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the span that caused this one
    request: int  # spans of one request share this number

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans kept in memory; ``to_dicts`` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str, request: int, parent: Optional[int] = None) -> Iterator[int]:
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(record)
        try:
            yield index
        finally:
            record.end = time.perf_counter()

    def add(self, name: str, start: float, seconds: float, parent: int, request: int) -> None:
        """A span whose duration the program itself reported."""
        self.spans.append(Span(name, start, start + seconds, parent, request))

    def milliseconds(self, name: str) -> List[float]:
        return [1000 * span.seconds for span in self.spans if span.name == name]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [asdict(span) for span in self.spans]


# ---------------------------------------------------------------------------
# Counting shims on the logic layer
# ---------------------------------------------------------------------------


class LogicProbe:
    """Counts FME decisions and times ``qe.simplify`` while installed.

    The logic layer has no public counters, so around each replayed
    ``optimize`` the module attributes it is reached through are
    replaced by counting wrappers (``repro.logic.fme.is_satisfiable`` /
    ``implies``, and the ``simplify`` that ``repro.core.subsumption``
    calls).  The timed run never sees them.
    """

    def __init__(self) -> None:
        self.is_satisfiable_calls = 0
        self.implies_calls = 0
        self.simplify_seconds = 0.0

    def __enter__(self) -> "LogicProbe":
        self._saved = (fme.is_satisfiable, fme.implies, subsumption.simplify)
        is_satisfiable, implies, simplify = self._saved

        def counted_is_satisfiable(constraints):
            self.is_satisfiable_calls += 1
            return is_satisfiable(constraints)

        def counted_implies(premise, conclusion):
            self.implies_calls += 1
            return implies(premise, conclusion)

        def timed_simplify(formula):
            started = time.perf_counter()
            try:
                return simplify(formula)
            finally:
                self.simplify_seconds += time.perf_counter() - started

        fme.is_satisfiable = counted_is_satisfiable
        fme.implies = counted_implies
        subsumption.simplify = timed_simplify
        return self

    def __exit__(self, *exc_info: Any) -> None:
        fme.is_satisfiable, fme.implies, subsumption.simplify = self._saved


# ---------------------------------------------------------------------------
# Probes that do not depend on the stream
# ---------------------------------------------------------------------------

# The two join conditions the paper's queries prune on, as
# ``derive_subsumption`` receives them.
_PAIRS_ATTRIBUTES = ("hits1", "hruns1", "hits2", "hruns2")
JOIN_CONDITIONS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "pairs": (
        tuple(f"R.{a} >= L.{a}" for a in _PAIRS_ATTRIBUTES)
        + (" OR ".join(f"R.{a} > L.{a}" for a in _PAIRS_ATTRIBUTES),),
        _PAIRS_ATTRIBUTES,
    ),
    "skyband": (
        ("L.b_h <= R.b_h", "L.b_hr <= R.b_hr", "L.b_h < R.b_h OR L.b_hr < R.b_hr"),
        ("b_h", "b_hr"),
    ),
}


def derive_ms(condition: str, repeats: int) -> float:
    conjuncts, attributes = JOIN_CONDITIONS[condition]
    theta = [parse_expression(text) for text in conjuncts]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subsumption.derive_subsumption(
            theta,
            [f"l.{a}" for a in attributes],
            [f"r.{a}" for a in attributes],
        )
        times.append(1000 * (time.perf_counter() - started))
    return statistics.median(times)


def storage_probe(db: Database) -> Dict[str, float]:
    """The storage layer's costs, on a scratch copy of ``batting``."""
    source = db.table("batting")
    new_rows = [(2_000_000 + i,) + row[1:] for i, row in enumerate(source.rows[:25])]
    scratch = Database()
    started = time.perf_counter()
    table = scratch.create_table(
        "batting", source.schema, primary_key=db.primary_key("batting")
    )
    table.insert_many(source.rows)
    load_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for name, index in source.indexes.items():
        if name not in table.indexes:
            table.create_index(
                name,
                [source.schema.column_names[p] for p in index.column_positions],
                kind="hash" if isinstance(index, HashIndex) else "sorted",
            )
    index_seconds = time.perf_counter() - started
    started = time.perf_counter()
    scratch.analyze()
    analyze_seconds = time.perf_counter() - started
    started = time.perf_counter()
    table.column_store()
    column_store_seconds = time.perf_counter() - started
    # Indexes and statistics are live here, as they are for a write
    # that arrives between two served reads.
    started = time.perf_counter()
    table.insert_many(new_rows)
    insert_seconds = time.perf_counter() - started
    return {
        "storage.load_rows_per_s": len(source) / load_seconds,
        "storage.index_build_ms": 1000 * index_seconds,
        "storage.analyze_ms": 1000 * analyze_seconds,
        "storage.column_store_build_ms": 1000 * column_store_seconds,
        "storage.insert_us_per_row": 1e6 * insert_seconds / len(new_rows),
    }


def null_query_ms(live: Live, repeats: int) -> float:
    """Served median of a warm one-group point query.

    It does next to no engine work, so it is the serving layer's cost
    per request plus the executor's fixed cost.
    """
    playerid = live.db.table("batting").rows[0][0]
    sql = (
        "SELECT playerid, COUNT(*) FROM batting "
        f"WHERE playerid = {playerid} GROUP BY playerid HAVING COUNT(*) >= 1"
    )
    session = live.server.session()
    session.execute(sql)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        session.execute(sql)
        times.append(1000 * (time.perf_counter() - started))
    return statistics.median(times)


def trace_overhead_share(db: Database, repeats: int) -> float:
    """(Q1 traced with timing - Q1 untraced) / untraced, on medians."""
    sql = figure1_requests(("Q1",))[0].sql
    plans = {
        mode: SmartIceberg(db, trace=mode).optimize(sql) for mode in ("off", "timing")
    }
    times: Dict[str, List[float]] = {mode: [] for mode in plans}
    for _ in range(repeats):
        for mode, plan in plans.items():
            started = time.perf_counter()
            plan.execute()
            times[mode].append(time.perf_counter() - started)
    off = statistics.median(times["off"])
    return (statistics.median(times["timing"]) - off) / off


def client_scaling(live: Live, workload: Workload, seed: int, seconds: float) -> float:
    """Requests per second with two clients over one client's, warm."""
    live.sessions.append(live.server.session())
    live.streams.append(workload.stream(seed, 1, live.db))
    rates = []
    for clients in (1, 2):
        started, logs = run_clients(live, seconds, clients)
        done = [sample.end for log in logs for sample in log.samples]
        rates.append(len(done) / (max(done) - started))
    return rates[1] / rates[0]


def work_ratio_vs_base(db: Database, smart_cost: Dict[str, int]) -> float:
    """Figure 1's shape as a count: baseline work over Smart-Iceberg work.

    Geometric mean over the statements of ``smart_cost`` (SQL text →
    ``stats.cost()`` of its cold optimized execution).
    """
    system = SmartIceberg(db)
    return geometric_mean(
        [
            system.execute_baseline(sql).stats.cost() / cost
            for sql, cost in smart_cost.items()
        ]
    )


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


@dataclass
class Replay:
    """What one statement's trip through the layers measured."""

    sql: str
    optimize_seconds: float
    execute_seconds: float
    layers_seconds: float  # parse + optimize + execute
    served_seconds: float  # its first, plan-cache-missing served execution
    simplify_seconds: float
    reducers: int  # a-priori reducers the optimizer applied
    stats: Any  # the cold execution's ExecutionStats


def _replay(
    db: Database,
    request: Request,
    number: int,
    served_seconds: float,
    spans: SpanLog,
    probe: LogicProbe,
) -> Replay:
    """One statement through parse, resolve, optimize, plan, execute."""
    simplify_before = probe.simplify_seconds
    with spans.span("replay", number) as parent:
        with spans.span("sql.parse", number, parent) as parsed:
            query = parse(request.sql)
        with spans.span("analysis.resolve", number, parent):
            resolve_query(db, query)
        # A fresh engine, so nothing an earlier statement left behind
        # makes this one look cheaper.
        with probe, spans.span("core.optimize", number, parent) as optimize:
            optimized = SmartIceberg(db).optimize(request.sql)
        cursor = spans.spans[optimize].start
        for phase, seconds in optimized.report.phases:
            spans.add(f"core.optimize.{phase}", cursor, seconds, optimize, number)
            cursor += seconds
        with spans.span("engine.plan", number, parent):
            plan_query(db, query)
        with spans.span("engine.execute", number, parent) as execute:
            result = optimized.execute()
    optimize_seconds = spans.spans[optimize].seconds
    execute_seconds = spans.spans[execute].seconds
    return Replay(
        sql=request.sql,
        optimize_seconds=optimize_seconds,
        execute_seconds=execute_seconds,
        layers_seconds=spans.spans[parsed].seconds + optimize_seconds + execute_seconds,
        served_seconds=served_seconds,
        simplify_seconds=probe.simplify_seconds - simplify_before,
        reducers=len(optimized.report.apriori),
        stats=result.stats,
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


_SPAN_OF_KIND = {"write": "storage.insert_many", "epoch": "serve.restart"}


def layers_pass(workload: Workload, seed: int, scale: float) -> Dict[str, Any]:
    """The pass's document: metrics, breakdown rows, digest and spans."""
    live = set_up(workload, seed, scale)
    metrics: Dict[str, float] = storage_probe(live.db)
    spans = SpanLog()
    log = ClientLog()
    prefix = list(itertools.islice(live.streams[0], workload.prefix))

    cache_before = live.server.plan_cache.stats()
    queued_before = live.server.admission.snapshot_outcomes()["queued"]
    replays: List[Replay] = []
    served: List[Any] = []  # results of the served reads, in order
    admit_us: List[float] = []
    seen = set()
    probe = LogicProbe()
    for number, request in enumerate(prefix):
        if request.sql:
            with spans.span("serve.admission", number) as admission:
                with live.server.admission.admit():
                    pass
            admit_us.append(1e6 * spans.spans[admission].seconds)
        name = _SPAN_OF_KIND.get(request.kind, "serve.execute")
        misses_before = live.server.plan_cache.stats()["misses"]
        with spans.span(name, number) as serve:
            result = perform(live, 0, request, log)
        if result is None:
            continue
        served.append(result)
        key = (request.sql, live.db.version_token())
        if key in seen:
            continue
        seen.add(key)
        # The layers explain a statement's plan-cache-missing
        # execution: this one, or for a warm-up statement that hit
        # the cache here, the one set-up timed.
        if live.server.plan_cache.stats()["misses"] > misses_before:
            served_seconds = spans.spans[serve].seconds
        else:
            served_seconds = live.first_served[request.sql]
        replays.append(
            _replay(live.db, request, number, served_seconds, spans, probe)
        )
    cache_after = live.server.plan_cache.stats()
    queued_after = live.server.admission.snapshot_outcomes()["queued"]

    def median_ms(name: str) -> float:
        return statistics.median(spans.milliseconds(name))

    def total(counter: str, results_stats: Sequence[Any]) -> int:
        return sum(getattr(stats, counter) for stats in results_stats)

    cold = [replay.stats for replay in replays]
    warm = [result.stats for result in served]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    work_cost = sum(stats.cost() for stats in cold)
    memo_hits = total("cache_hits", warm)
    pruned = total("pruned_bindings", warm)
    metrics.update(
        {
            "sql.parse_ms": median_ms("sql.parse"),
            "analysis.resolve_ms": median_ms("analysis.resolve"),
            "core.optimize_ms": median_ms("core.optimize"),
            **{
                f"core.optimize.{phase}_ms": median_ms(f"core.optimize.{phase}")
                for phase in ("analyze", "apriori", "memprune", "finalize", "verify")
            },
            "core.optimize_share": statistics.median(
                replay.optimize_seconds
                / (replay.optimize_seconds + replay.execute_seconds)
                for replay in replays
            ),
            "core.subsumption.derive_ms.pairs": derive_ms("pairs", 1),
            "core.subsumption.derive_ms.skyband": derive_ms("skyband", 5),
            # A mean: most statements of a mix derive nothing, and the
            # median of mostly-zero is zero whatever simplify costs.
            "logic.qe.simplify_ms": 1000
            * sum(replay.simplify_seconds for replay in replays)
            / len(replays),
            "logic.fme.is_satisfiable_calls": probe.is_satisfiable_calls,
            "logic.fme.implies_calls": probe.implies_calls,
            "engine.plan_ms": median_ms("engine.plan"),
            "engine.execute_ms": median_ms("engine.execute"),
            "engine.rows_scanned": total("rows_scanned", cold),
            "engine.join_pairs": total("join_pairs", cold),
            "engine.index_probes": total("index_probes", cold),
            "engine.aggregation_inputs": total("aggregation_inputs", cold),
            "engine.work_cost": work_cost,
            "engine.ns_per_work_unit": _ratio(
                1e9 * sum(replay.execute_seconds for replay in replays), work_cost
            ),
            # From the served requests, warm caches and all: on
            # repeat_hot the hit ratio is the reason latency is low.
            "core.nljp.inner_evaluations": total("inner_evaluations", warm),
            "core.nljp.pruned_share": _ratio(
                pruned, pruned + memo_hits + total("inner_evaluations", warm)
            ),
            "core.cache.hit_ratio": _ratio(
                memo_hits, memo_hits + total("cache_misses", warm)
            ),
            "core.cache.bytes": max((stats.cache_bytes for stats in warm), default=0),
            "core.cache.evictions": total("cache_evictions", warm),
            "core.apriori.reducers_applied": sum(replay.reducers for replay in replays),
            "serve.plan_cache.hit_ratio": _ratio(hits, hits + misses),
            "serve.plan_cache.invalidations": cache_after["invalidations"]
            - cache_before["invalidations"],
            "serve.plan_cache.flight_waits": cache_after["flight_waits"]
            - cache_before["flight_waits"],
            "serve.admission.admit_us": statistics.median(admit_us),
            "serve.admission.queued": queued_after - queued_before,
            "serve.null_query_ms": null_query_ms(live, 200),
            "obs.trace_overhead_share": trace_overhead_share(live.db, 5),
            # Each replayed statement's parse + optimize + execute over
            # its own first served latency: near 1 when the split
            # explains the latency.
            "bench.layer_coverage": statistics.median(
                replay.layers_seconds / replay.served_seconds for replay in replays
            ),
        }
    )
    breakdown: Dict[str, float] = {}
    if "core.work_ratio_vs_base" in workload.extras:
        breakdown["core.work_ratio_vs_base"] = work_ratio_vs_base(
            live.db, {replay.sql: replay.stats.cost() for replay in replays}
        )
    if "serve.client_scaling" in workload.extras:
        breakdown["serve.client_scaling"] = client_scaling(live, workload, seed, 2.0)
    return {
        "attempted": len(log.samples),
        "failed": sum(not sample.ok for sample in log.samples),
        "errors": log.errors[:10],
        "per_layer": metrics,
        "breakdown": breakdown,
        "result_digest": oracle.digest(result.rows for result in served),
        "spans": spans.to_dicts(),
    }
