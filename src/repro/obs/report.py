"""Fleet-health report over a structured query log.

Aggregates :class:`~repro.obs.querylog.QueryLog` records — from a
live log object or a persisted JSONL file — into the handful of
numbers an operator actually watches: latency percentiles, outcome
and rejection counts, plan-cache hit rate, degradation pressure, NLJP
inner evaluations (and the ones a block kernel made in vain), which
fold each GROUP BY ran (so a silent fall-back off code space shows), and
the estimate→actual health of the optimizer (worst predicates by
q-error).

Usage::

    python -m repro.obs.report server.qlog.jsonl
    python -m repro.obs.report server.qlog.jsonl --top 5 --json
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.querylog import QueryLog, validate_records


def _percentile(values: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def aggregate(records: List[Dict[str, Any]], top: int = 10) -> Dict[str, Any]:
    """Summarize query-log records into one fleet-health document."""
    outcomes: Dict[str, int] = {}
    latencies: List[float] = []
    waits: List[float] = []
    cache_hits = 0
    cache_known = 0
    degradations = 0
    inner_evaluations = 0
    prefetch_discarded = 0
    folds: Dict[str, int] = {}
    worst: Dict[str, Dict[str, Any]] = {}
    for record in records:
        outcome = record.get("outcome") or "unknown"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        latency = record.get("latency_seconds")
        if latency is not None:
            latencies.append(float(latency))
        wait = record.get("admission_wait_seconds")
        if wait is not None:
            waits.append(float(wait))
        hit = record.get("plan_cache_hit")
        if hit is not None:
            cache_known += 1
            if hit:
                cache_hits += 1
        degradations += len(record.get("degradations") or ())
        inner_evaluations += record.get("inner_evaluations") or 0
        prefetch_discarded += record.get("inner_prefetch_discarded") or 0
        for fold in record.get("aggregate_folds") or ():
            folds[fold] = folds.get(fold, 0) + 1
        for entry in record.get("worst_q_errors") or ():
            fingerprint = entry.get("fingerprint") or entry.get("operator") or "?"
            current = worst.get(fingerprint)
            if current is None or entry.get("q_error", 0) > current.get("q_error", 0):
                worst[fingerprint] = dict(entry)
    ranked = sorted(
        worst.values(), key=lambda e: -float(e.get("q_error", 0.0))
    )[:top]
    total = len(records)
    return {
        "queries": total,
        "outcomes": dict(sorted(outcomes.items())),
        "latency_seconds": {
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "p99": _percentile(latencies, 0.99),
            "max": max(latencies) if latencies else None,
        },
        "admission_wait_p95": _percentile(waits, 0.95),
        "plan_cache_hit_rate": (
            round(cache_hits / cache_known, 4) if cache_known else None
        ),
        "degradation_events": degradations,
        "inner": {
            "evaluations": inner_evaluations,
            "prefetch_discarded": prefetch_discarded,
        },
        "aggregate_folds": dict(sorted(folds.items())),
        "worst_predicates": ranked,
    }


def render(summary: Dict[str, Any]) -> str:
    """Human-readable fleet-health text for one aggregate document."""
    lines = [f"query log: {summary['queries']} records"]
    for outcome, count in summary["outcomes"].items():
        lines.append(f"  outcome {outcome}: {count}")
    latency = summary["latency_seconds"]
    if latency["p50"] is not None:
        lines.append(
            "  latency p50/p95/p99: "
            f"{latency['p50'] * 1000:.2f} / {latency['p95'] * 1000:.2f} / "
            f"{latency['p99'] * 1000:.2f} ms"
        )
    if summary["plan_cache_hit_rate"] is not None:
        lines.append(f"  plan-cache hit rate: {summary['plan_cache_hit_rate']:.0%}")
    lines.append(f"  degradation events: {summary['degradation_events']}")
    inner = summary["inner"]
    lines.append(
        f"  inner evaluations: {inner['evaluations']} "
        f"(+{inner['prefetch_discarded']} evaluated ahead and discarded)"
    )
    if summary["aggregate_folds"]:
        lines.append("  aggregate folds:")
        for fold, count in summary["aggregate_folds"].items():
            lines.append(f"    {count:>6}  {fold}")
    if summary["worst_predicates"]:
        lines.append("  worst predicates by q-error:")
        for entry in summary["worst_predicates"]:
            label = entry.get("fingerprint") or entry.get("operator") or "?"
            loops = entry.get("loops") or 1
            lines.append(
                f"    {float(entry.get('q_error', 0.0)):>8.2f}  "
                f"est={entry.get('est')} actual={entry.get('actual')}"
                + (f" loops={loops}" if loops > 1 else "")
                + f"  {label}"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a serving-layer query log (JSONL).",
    )
    parser.add_argument("path", help="query-log JSONL file")
    parser.add_argument(
        "--top", type=int, default=10, help="worst predicates to show"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the aggregate as JSON"
    )
    args = parser.parse_args(argv)

    records = QueryLog.read(args.path)
    problems = validate_records(records)
    if problems:
        for problem in problems:
            print(f"schema problem: {problem}")
        return 1
    summary = aggregate(records, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
