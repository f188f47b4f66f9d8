"""Query observability: tracing, metrics, and cardinality feedback.

Three layers, all zero-overhead when unused:

* :mod:`repro.obs.spans` / :mod:`repro.obs.tracer` — per-operator span
  trees with exact ``ExecutionStats`` attribution, Chrome-trace export
  (``EngineConfig.trace="off"|"counters"|"timing"``);
* :mod:`repro.obs.metrics` — process-wide Prometheus-style registry
  (``python -m repro.obs.metrics``);
* :mod:`repro.obs.feedback` — estimate-vs-actual q-error reporting
  plus the row-counting probes of ``EngineConfig.feedback="observe"``;
* :mod:`repro.obs.querylog` / :mod:`repro.obs.report` — the serving
  layer's structured query log and its fleet-health summarizer
  (``python -m repro.obs.report``).

``python -m repro.obs.check`` is the CI gate tying it together.
"""

# Import order matters: spans is the leaf (engine.stats only); tracer
# builds on spans + engine.operators; metrics and feedback come last.
# querylog is stdlib-only and independent of the rest.
from repro.obs.spans import (
    STAT_FIELDS,
    TRACE_MODES,
    QueryProfile,
    Span,
    merge_chrome_traces,
    snapshot,
)
from repro.obs.tracer import Tracer, child_plans, iter_plan_nodes
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_query,
)
from repro.obs.feedback import CardinalityReport, FeedbackProbes
from repro.obs.querylog import QUERY_LOG_FIELDS, QueryLog, stable_fingerprint

__all__ = [
    "STAT_FIELDS",
    "TRACE_MODES",
    "QueryProfile",
    "Span",
    "merge_chrome_traces",
    "snapshot",
    "Tracer",
    "child_plans",
    "iter_plan_nodes",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_query",
    "CardinalityReport",
    "FeedbackProbes",
    "QUERY_LOG_FIELDS",
    "QueryLog",
    "stable_fingerprint",
]
