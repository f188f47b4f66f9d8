"""Structured, bounded query log for the serving layer.

Every server-side execution (and every server-side failure) appends
one fixed-schema record to a :class:`QueryLog`: what ran (SQL and
plan fingerprints, technique mask, execution mode), how the serving
machinery treated it (admission wait, plan-cache hit, breaker
states, retry outcome), what it cost (latency, rows,
rows scanned, inner evaluations and how many of them a block kernel
made in vain, degradations), which fold each aggregate ran (code space
or a row-path fallback, and why), and how well the optimizer predicted
it (feedback mode, worst per-operator q-errors).

The log is the serving layer's flight recorder: bounded in memory
(a deque), optionally persisted as JSON Lines with periodic
compaction, and consumed by ``python -m repro.obs.report`` for
fleet-health summaries.  The record schema is *golden* — the field
set is fixed by :data:`QUERY_LOG_FIELDS` and checked by
``python -m repro.obs.check`` so downstream dashboards never see a
silently drifting shape.
"""

from __future__ import annotations

import collections
import hashlib
import json
import threading
from typing import Any, Dict, Iterable, List, Optional

#: The golden record schema.  Every record carries exactly these keys
#: (unknown values are ``None``); ``repro.obs.check`` gates on it.
QUERY_LOG_FIELDS = (
    "sequence",            # server-wide monotonic record number
    "session",             # session id, e.g. "session-3"
    "sql_fingerprint",     # stable short hash of the statement text
    "plan_fingerprint",    # stable short hash of the explain tree
    "technique_mask",      # sorted enabled techniques, e.g. ["apriori", ...]
    "execution_mode",      # "row" | "columnar"
    "feedback_mode",       # "off" | "observe"
    "outcome",             # "ok" | "error:<ErrorClass>"
    "plan_cache_hit",      # True when served by a cached plan (its template's too)
    "admission_wait_seconds",
    "latency_seconds",
    "rows",                # result rows (None on error)
    "rows_scanned",        # ExecutionStats.rows_scanned (None on error)
    "inner_evaluations",   # NLJP inner-query evaluations (None on error)
    "inner_prefetch_discarded",  # ... evaluated ahead in vain (block kernel)
    "degradations",        # graceful-degradation event strings
    "breaker_states",      # {technique: "closed"|"open"|"half_open"}
    "worst_q_errors",      # top per-operator mis-estimates of this plan
    "aggregate_folds",     # per HashAggregate, the fold its last execution ran
)

_FIELD_SET = frozenset(QUERY_LOG_FIELDS)


def stable_fingerprint(text: str) -> str:
    """A short, process-independent content hash (hex, 16 chars)."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


class QueryLog:
    """Bounded, thread-safe, fixed-schema log of served queries.

    In memory the log keeps the most recent ``max_entries`` records
    (older ones are evicted FIFO).  With ``path`` set, every record is
    also appended as one JSON line; after ``2 * max_entries`` appended
    lines the file is compacted down to the in-memory tail, so the
    on-disk file is bounded too (at most ``2 * max_entries`` lines).
    """

    def __init__(
        self, max_entries: int = 1024, path: Optional[str] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.path = path
        self._lock = threading.Lock()
        self._records: collections.deque = collections.deque(maxlen=max_entries)  # guarded-by: self._lock
        self._sequence = 0  # guarded-by: self._lock
        self._lines_since_compact = 0  # guarded-by: self._lock
        # Opened once here, before the log is shared, so no blocking
        # open() ever runs under the lock; compaction truncates the
        # same handle in place ("a+" writes always land at end-of-file).
        self._handle = open(path, "a+") if path is not None else None  # guarded-by: self._lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def sequence(self) -> int:
        """Total records ever appended (including evicted ones)."""
        with self._lock:
            return self._sequence

    def append(self, **fields: Any) -> Dict[str, Any]:
        """Append one record; returns the completed record dict.

        Unknown field names raise (schema drift is a bug, not data);
        missing fields are filled with ``None`` so every record has
        exactly the :data:`QUERY_LOG_FIELDS` shape.
        """
        unknown = set(fields) - _FIELD_SET
        if unknown:
            raise ValueError(
                f"unknown query-log fields {sorted(unknown)}; "
                f"schema is {QUERY_LOG_FIELDS}"
            )
        with self._lock:
            self._sequence += 1
            record = {name: fields.get(name) for name in QUERY_LOG_FIELDS}
            record["sequence"] = self._sequence
            self._records.append(record)
            if self._handle is not None:
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
                self._lines_since_compact += 1
                if self._lines_since_compact >= 2 * self.max_entries:
                    self._compact_locked()
            return dict(record)

    def _compact_locked(self) -> None:  # requires-lock: self._lock
        self._handle.flush()
        self._handle.truncate(0)
        for record in self._records:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self._lines_since_compact = len(self._records)

    def compact(self) -> None:
        """Rewrite the JSONL file down to the in-memory tail."""
        with self._lock:
            if self._handle is not None:
                self._compact_locked()

    def close(self) -> None:
        """Close the JSONL handle; further appends stay in memory only."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """The most recent ``n`` records, oldest first."""
        with self._lock:
            records = list(self._records)
        return [dict(record) for record in records[-n:]]

    def to_list(self) -> List[Dict[str, Any]]:
        """All retained records, oldest first (copies)."""
        with self._lock:
            return [dict(record) for record in self._records]

    @staticmethod
    def read(path: str) -> List[Dict[str, Any]]:
        """Parse a JSONL query-log file back into record dicts."""
        records: List[Dict[str, Any]] = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records


def validate_record(record: Dict[str, Any]) -> List[str]:
    """Schema problems of one record ([] when it matches the golden set)."""
    problems = []
    missing = _FIELD_SET - set(record)
    extra = set(record) - _FIELD_SET
    if missing:
        problems.append(f"missing fields {sorted(missing)}")
    if extra:
        problems.append(f"unexpected fields {sorted(extra)}")
    return problems


def validate_records(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Schema problems across many records, labeled by position."""
    problems = []
    for position, record in enumerate(records):
        for problem in validate_record(record):
            problems.append(f"record {position}: {problem}")
    return problems
