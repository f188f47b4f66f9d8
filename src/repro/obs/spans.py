"""Span trees: the data model of the tracing subsystem.

A :class:`Span` is one traced unit of work — a physical operator, an
optimizer phase, an aggregated NLJP cache interaction, or NLJP's inner
kernel — carrying an
activation count, the rows it emitted, wall time (``trace="timing"``
only), and an *inclusive* :class:`~repro.engine.stats.ExecutionStats`
delta measured around its ``next()`` calls.  Spans form a tree
mirroring the physical plan (including materialized CTE sub-plans and
NLJP's Q_B/Q_R pipelines).

The accounting invariant the test suite pins: summing every span's
*exclusive* delta (inclusive minus the children's inclusives)
telescopes exactly to the root span's inclusive delta, which equals
the query-global ``ExecutionStats`` — per-operator attribution never
invents or loses work.

:class:`QueryProfile` bundles the tree with the optimizer/planner
phase spans and exports it as JSON (:meth:`QueryProfile.to_dict`) or
Chrome ``trace_event`` format (:meth:`QueryProfile.to_chrome_trace`)
for flame-graph viewing in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.stats import ExecutionStats

#: Valid settings for ``EngineConfig.trace``.
TRACE_MODES = ("off", "counters", "timing")

#: ExecutionStats counter fields, in declaration order (events excluded).
STAT_FIELDS: Tuple[str, ...] = tuple(
    name
    for name in ExecutionStats.__dataclass_fields__
    if name != "degradations"
)


def snapshot(stats: ExecutionStats) -> Tuple[int, ...]:
    """A cheap immutable snapshot of every counter field."""
    return tuple(getattr(stats, name) for name in STAT_FIELDS)


class Span:
    """One traced unit of work (operator, phase, or cache interaction)."""

    __slots__ = (
        "name",
        "kind",
        "detail",
        "children",
        "count",
        "loops",
        "rows",
        "wall_seconds",
        "first_start",
        "last_end",
        "attrs",
        "_incl",
        "_active",
    )

    def __init__(self, name: str, kind: str = "operator", detail: str = "") -> None:
        self.name = name
        self.kind = kind  # 'operator' | 'phase' | 'cache' | 'kernel'
        self.detail = detail
        self.children: List[Span] = []
        self.count = 0  # next()/interaction activations
        self.loops = 0  # executions of the node (NLJP's Q_R: one per binding)
        self.rows = 0  # rows (or batched rows) this span yielded, over all loops
        self.wall_seconds = 0.0  # inclusive; 0.0 under trace="counters"
        self.first_start: Optional[float] = None  # raw perf_counter stamps
        self.last_end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self._incl = [0] * len(STAT_FIELDS)  # inclusive counter deltas
        self._active = 0  # reentrancy depth guard

    # -- accounting ----------------------------------------------------
    def accumulate(self, before: Sequence[int], after: Sequence[int]) -> None:
        incl = self._incl
        for index, (b, a) in enumerate(zip(before, after)):
            incl[index] += a - b

    def record_time(self, start: float, end: float) -> None:
        """Add one measured activation (raw ``perf_counter`` stamps)."""
        self.wall_seconds += end - start
        if self.first_start is None:
            self.first_start = start
        self.last_end = end

    def inclusive_stats(self) -> Dict[str, int]:
        """Counter delta measured around this span's activations."""
        return dict(zip(STAT_FIELDS, self._incl))

    def exclusive_stats(self) -> Dict[str, int]:
        """Inclusive delta minus the children's inclusive deltas."""
        values = list(self._incl)
        for child in self.children:
            for index, value in enumerate(child._incl):
                values[index] -= value
        return dict(zip(STAT_FIELDS, values))

    def exclusive_seconds(self) -> float:
        return self.wall_seconds - sum(c.wall_seconds for c in self.children)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    # -- export --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        node: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "count": self.count,
            "rows": self.rows,
            "wall_seconds": round(self.wall_seconds, 6),
            "stats": {k: v for k, v in self.exclusive_stats().items() if v},
        }
        if self.loops > 1:
            node["loops"] = self.loops
        if self.detail:
            node["detail"] = self.detail
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, count={self.count}, rows={self.rows}, "
            f"children={len(self.children)})"
        )


class QueryProfile:
    """The trace of one query execution: phase spans + the operator tree."""

    def __init__(
        self,
        label: str = "query",
        mode: str = "timing",
        phases: Optional[List[Span]] = None,
        root: Optional[Span] = None,
    ) -> None:
        self.label = label
        self.mode = mode
        self.phases: List[Span] = list(phases or [])
        self.root = root

    def spans(self) -> Iterator[Span]:
        """Every span: phases first, then the operator tree preorder."""
        for phase in self.phases:
            yield from phase.walk()
        if self.root is not None:
            yield from self.root.walk()

    def total_stats(self) -> Dict[str, int]:
        """Sum of every span's exclusive delta.

        By the telescoping invariant this equals the root span's
        inclusive delta, which equals the query's global
        ``ExecutionStats`` counters — asserted by the trace-parity
        tests on Q1-Q8.
        """
        totals = {name: 0 for name in STAT_FIELDS}
        for span in self.spans():
            for name, value in span.exclusive_stats().items():
                totals[name] += value
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "mode": self.mode,
            "total_stats": {k: v for k, v in self.total_stats().items() if v},
            "phases": [phase.to_dict() for phase in self.phases],
            "root": None if self.root is None else self.root.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def to_chrome_trace(self, pid: int = 1) -> Dict[str, Any]:
        """Chrome ``trace_event`` document (complete "X" events).

        Operator spans use their real first-start/last-end envelope
        (``trace="timing"``); nesting holds because a child's envelope
        is contained in its parent's.  Phase spans are laid out
        sequentially before the operator tree on their own track.
        Under ``trace="counters"`` there are no timestamps, so spans
        are laid out synthetically in preorder (structure over timing).
        """
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": self.label},
            },
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
             "args": {"name": "phases"}},
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": 1,
             "args": {"name": "operators"}},
        ]
        cursor = 0.0  # microseconds
        for phase in self.phases:
            duration = max(phase.wall_seconds * 1e6, 1.0)
            events.append(self._event(phase, ts=cursor, dur=duration, pid=pid, tid=0))
            cursor += duration

        if self.root is not None:
            starts = [
                span.first_start
                for span in self.root.walk()
                if span.first_start is not None
            ]
            if starts:  # timing mode: real envelopes, shifted after phases
                origin = min(starts)
                for span in self.root.walk():
                    if span.first_start is None or span.last_end is None:
                        continue
                    ts = cursor + (span.first_start - origin) * 1e6
                    dur = max((span.last_end - span.first_start) * 1e6, 1.0)
                    events.append(
                        self._event(span, ts=ts, dur=dur, pid=pid, tid=1)
                    )
            else:  # counters mode: synthetic preorder layout
                for index, span in enumerate(self.root.walk()):
                    events.append(
                        self._event(
                            span, ts=cursor + index * 10.0, dur=5.0, pid=pid, tid=1
                        )
                    )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    @staticmethod
    def _event(
        span: Span, ts: float, dur: float, pid: int, tid: int
    ) -> Dict[str, Any]:
        args: Dict[str, Any] = {
            "count": span.count,
            "rows": span.rows,
        }
        if span.loops > 1:
            args["loops"] = span.loops
        args.update({k: v for k, v in span.exclusive_stats().items() if v})
        args.update(span.attrs)
        if span.detail:
            args["detail"] = span.detail
        return {
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": round(ts, 3),
            "dur": round(dur, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        }


def merge_chrome_traces(
    named_profiles: Sequence[Tuple[str, QueryProfile]],
) -> Dict[str, Any]:
    """Merge several profiles into one Chrome trace, one pid each.

    Used by ``python -m repro.bench.record --trace`` and the lint CLI's
    workload runner so a whole benchmark run lands in a single
    flame-graph artifact.
    """
    events: List[Dict[str, Any]] = []
    for pid, (label, profile) in enumerate(named_profiles, start=1):
        trace = profile.to_chrome_trace(pid=pid)
        for event in trace["traceEvents"]:
            if event.get("ph") == "M" and event.get("name") == "process_name":
                event = dict(event, args={"name": label})
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
