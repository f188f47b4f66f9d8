"""Process-wide metrics registry with Prometheus text export.

Counters, gauges, and histograms with labels, stdlib-only.  The
executor records one sample set per query into the module-level
:data:`REGISTRY` (a handful of dict operations — cheap enough to stay
always-on without disturbing the <1%% ``trace="off"`` overhead
budget): query counts and latency, the deterministic work counters,
NLJP cache hit/prune/miss/eviction totals, governor budget headroom,
degradation events by site, and the cache-bytes high-water mark.  The
optimizer adds ``repro_subsumption_derivations_total{outcome=derived|
reused}``: how often a plan's p⪰ cost a QE/FME derivation and how often
the engine already had the formula.

Export::

    from repro.obs import REGISTRY
    print(REGISTRY.render())            # Prometheus text format

or from the command line (runs a small deterministic workload first so
there is something to scrape)::

    python -m repro.obs.metrics --rows 120 --systems base,all
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram buckets (seconds), tuned for this engine's range.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(
    labelnames: Tuple[str, ...], labels: Mapping[str, Any]
) -> Tuple[str, ...]:
    extra = set(labels) - set(labelnames)
    if extra:
        raise ValueError(f"unknown labels {sorted(extra)}; declared {labelnames}")
    return tuple(str(labels.get(name, "")) for name in labelnames)


def _render_labels(labelnames: Tuple[str, ...], key: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{value}"' for name, value in zip(labelnames, key)
    )
    return "{" + inner + "}"


class Metric:
    """Base: a named family of samples keyed by label values.

    Every mutation and every read of sample state happens under
    ``_lock``.  A metric constructed standalone gets its own lock; one
    obtained from a :class:`MetricsRegistry` shares the registry's
    lock, so ``render()`` of the whole registry is one consistent
    snapshot even while eight sessions are recording into it.
    """

    type_name = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.RLock()

    def render(self) -> List[str]:
        raise NotImplementedError

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.type_name}",
        ]


def _format_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


class Counter(Metric):
    """Monotonically increasing value per label set."""

    type_name = "counter"

    def __init__(self, name, help_text, labelnames) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}  # guarded-by: self._lock

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._values):
                lines.append(
                    f"{self.name}{_render_labels(self.labelnames, key)} "
                    f"{_format_value(self._values[key])}"
                )
        return lines


class Gauge(Metric):
    """Last-written (or high-water) value per label set."""

    type_name = "gauge"

    def __init__(self, name, help_text, labelnames) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}  # guarded-by: self._lock

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def set_max(self, value: float, **labels: Any) -> None:
        """High-water update: keep the maximum ever seen."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            current = self._values.get(key)
            if current is None or value > current:
                self._values[key] = float(value)

    def value(self, **labels: Any) -> Optional[float]:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._values):
                lines.append(
                    f"{self.name}{_render_labels(self.labelnames, key)} "
                    f"{_format_value(self._values[key])}"
                )
        return lines


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    type_name = "histogram"

    def __init__(self, name, help_text, labelnames, buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        self._counts: Dict[Tuple[str, ...], List[int]] = {}  # guarded-by: self._lock
        self._sums: Dict[Tuple[str, ...], float] = {}  # guarded-by: self._lock
        self._totals: Dict[Tuple[str, ...], int] = {}  # guarded-by: self._lock

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * len(self.buckets))
            index = bisect.bisect_left(self.buckets, value)
            if index < len(counts):
                counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._totals[key] = self._totals.get(key, 0) + 1

    def _render_locked(self) -> List[str]:  # requires-lock: self._lock
        lines = self._header()
        for key in sorted(self._totals):
            labels = _render_labels(self.labelnames, key)
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                cumulative += count
                le = _render_labels(
                    self.labelnames + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{le} {cumulative}")
            inf = _render_labels(self.labelnames + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{inf} {self._totals[key]}")
            lines.append(
                f"{self.name}_sum{labels} {_format_value(self._sums[key])}"
            )
            lines.append(f"{self.name}_count{labels} {self._totals[key]}")
        return lines

    def render(self) -> List[str]:
        with self._lock:
            return self._render_locked()


class MetricsRegistry:
    """A named collection of metrics, rendered in registration order.

    Registration, reset, and rendering are serialized on one registry
    lock, and every registered metric shares that lock for its sample
    mutations — so concurrent sessions recording into the process-wide
    :data:`REGISTRY` never lose increments, and a ``render()`` taken
    mid-traffic is a point-in-time snapshot.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}  # guarded-by: self._lock
        self._lock = threading.RLock()

    def _register(self, cls, name, help_text, labelnames, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with a different "
                        f"type or label set"
                    )
                return existing
            metric = cls(name, help_text, labelnames, **kwargs)
            metric._lock = self._lock
            self._metrics[name] = metric
            return metric

    def counter(self, name, help_text="", labelnames=()) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name, help_text="", labelnames=()) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(
        self, name, help_text="", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every metric (tests and fresh CLI runs)."""
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        """Prometheus text exposition format (a consistent snapshot)."""
        with self._lock:
            lines: List[str] = []
            for metric in self._metrics.values():
                lines.extend(metric.render())
            return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry the executor records into.
REGISTRY = MetricsRegistry()

#: ExecutionStats counters mirrored as cumulative metrics.
_STAT_COUNTERS = (
    "rows_scanned",
    "join_pairs",
    "index_probes",
    "rows_output",
    "inner_evaluations",
    "cache_hits",
    "cache_misses",
    "pruned_bindings",
    "prune_checks",
    "cache_evictions",
    "subsumption_merges",
    "rows_skipped",
    "chunks_skipped",
    "fused_compilations",
    "inner_prefetch_discarded",
)


def record_query(
    result: Any,
    config: Any = None,
    governor: Any = None,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Record one executed query's telemetry into the registry.

    Called by ``run_planned`` for every execution.  ``result`` is an
    :class:`repro.engine.executor.Result`; ``governor`` (when the run
    was governed) contributes budget-headroom gauges.
    """
    registry = registry if registry is not None else REGISTRY
    stats = result.stats
    mode = result.execution_mode
    registry.counter(
        "repro_queries_total", "Queries executed", ("mode",)
    ).inc(mode=mode)
    registry.histogram(
        "repro_query_seconds", "Query execution wall clock", ("mode",)
    ).observe(result.elapsed_seconds, mode=mode)
    work = registry.counter(
        "repro_work_total",
        "Cumulative deterministic work counters (ExecutionStats)",
        ("counter", "mode"),
    )
    for name in _STAT_COUNTERS:
        value = getattr(stats, name)
        if value:
            work.inc(value, counter=name, mode=mode)
    registry.counter(
        "repro_work_cost_total",
        "Cumulative machine-independent work cost (stats.cost())",
        ("mode",),
    ).inc(stats.cost(), mode=mode)
    registry.gauge(
        "repro_cache_bytes_high_water",
        "Largest NLJP cache footprint seen for any single query",
    ).set_max(stats.cache_bytes)
    if stats.degradations:
        events = registry.counter(
            "repro_degradation_events_total",
            "Graceful-degradation events by site",
            ("site",),
        )
        for event in stats.degradations:
            site = event.split(":", 1)[0].strip() or "unknown"
            events.inc(site=site)
    if governor is not None:
        headroom = registry.gauge(
            "repro_governor_budget_headroom",
            "Remaining budget fraction after the last governed query",
            ("budget",),
        )
        for budget, fraction in governor.headroom().items():
            headroom.set(fraction, budget=budget)


# ---------------------------------------------------------------------------
# CLI: run a small deterministic workload, print the scrape text
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.metrics",
        description="Run a deterministic workload and print Prometheus metrics.",
    )
    parser.add_argument(
        "--rows", type=int, default=120, help="batting rows (default 120)"
    )
    parser.add_argument(
        "--systems",
        default="base,all",
        help="comma-separated system names (default base,all)",
    )
    parser.add_argument(
        "--queries", default="", help="comma-separated subset of Q1..Q8 (default all)"
    )
    parser.add_argument(
        "--out", default=None, help="also write the scrape text to this path"
    )
    args = parser.parse_args(argv)

    from repro.bench.figures import _batting_db
    from repro.bench.harness import make_systems, run_comparison
    from repro.bench.record import RECORD_SEED
    from repro.workloads import figure1_queries

    # Under ``python -m repro.obs.metrics`` this file runs as
    # ``__main__`` — a *second* module object with its own REGISTRY.
    # The executor records into the canonical one, so render that.
    from repro.obs.metrics import REGISTRY as registry

    queries = {name: q.sql for name, q in figure1_queries().items()}
    if args.queries:
        wanted = [name.strip() for name in args.queries.split(",") if name.strip()]
        unknown = [name for name in wanted if name not in queries]
        if unknown:
            parser.error(f"unknown queries: {unknown}; have {sorted(queries)}")
        queries = {name: queries[name] for name in wanted}
    systems = tuple(
        name.strip() for name in args.systems.split(",") if name.strip()
    )

    db = _batting_db(args.rows, seed=RECORD_SEED)
    run_comparison(db, queries, make_systems(systems))

    text = registry.render()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
