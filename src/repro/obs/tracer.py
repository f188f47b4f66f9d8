"""Operator-level tracer: zero overhead when off, exact when on.

The tracer follows the governor's attachment pattern
(:mod:`repro.engine.governor`): ``ExecutionContext.tracer`` is ``None``
under ``EngineConfig.trace="off"`` and every hook is behind a ``None``
check, so the off path executes the byte-for-byte identical code it
ran before this subsystem existed.

When tracing is on, :meth:`Tracer.install` walks the physical plan —
including materialized CTE/derived-table sub-plans and NLJP's Q_B/Q_R
pipelines, which ``children()`` does not expose — builds a mirroring
:class:`~repro.obs.spans.Span` tree, and shadows each node's
``execute``/``execute_batches`` with a measuring wrapper via the
instance ``__dict__`` (the same shadowing trick
``PlannedQuery.explain(analyze=True)`` uses), so internal
``self.child.execute`` calls route through the wrappers too.

Measurement details that keep the accounting exact:

* every ``next()`` on a span's iterator snapshots the *global*
  ``ExecutionStats`` before/after — the diff accumulates into the
  span's inclusive delta, so exclusive = inclusive − Σ children and
  the sum over the whole tree telescopes to the query totals;
* a per-span reentrancy depth guard makes the default
  ``execute_batches`` → ``execute`` fallback (``Limit`` et al.) count
  work and rows exactly once;
* the plan walk dedupes nodes by identity, so a shared CTE
  materialization is wrapped (and charged) once;
* ``trace="counters"`` skips every ``perf_counter`` call — deltas,
  counts and rows without the timing overhead;
* a node executed more than once in one query (NLJP's Q_R: once per
  binding) counts its executions in ``span.loops``, and ``finish``
  stamps rows *per execution* beside that loop count — the quantity the
  planner's estimate predicts;
* NLJP's inner kernel (:mod:`repro.engine.kernel`) runs in place of
  Q_R's operators, so their wrappers never fire: :meth:`Tracer.
  run_kernel` measures each evaluation onto one ``kernel`` child span
  of the NLJP span, and the kernel credits the nodes it stands for
  with their rows through :meth:`Tracer.counter`.

Tracers are one-shot: one ``install``/``finish`` pair per execution.
``finish`` restores the nodes, stamps ``actual_rows`` (feeding
``explain(analyze=True)``, ``PlannedQuery.to_dict()`` q-errors, and
:class:`~repro.obs.feedback.CardinalityReport`), and returns the
:class:`~repro.obs.spans.QueryProfile`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.operators import PhysicalOperator
from repro.engine.stats import ExecutionStats
from repro.obs.spans import TRACE_MODES, QueryProfile, Span, snapshot

_SENTINEL = object()


def child_plans(
    node: PhysicalOperator,
) -> List[Tuple[PhysicalOperator, Optional[str]]]:
    """A node's sub-plans, including ones ``children()`` hides.

    Returns ``(child, edge_label)`` pairs: ``None`` for ordinary
    operator children, ``"materialize"`` for a shared CTE/derived
    cell's plan, and ``"qb_plan"``/``"qr_plan"`` for NLJP's binding
    and inner pipelines.
    """
    found: List[Tuple[PhysicalOperator, Optional[str]]] = [
        (child, None) for child in node.children()
    ]
    cell = getattr(node, "cell", None)
    if cell is not None and isinstance(getattr(cell, "plan", None), PhysicalOperator):
        found.append((cell.plan, "materialize"))
    for attr in ("qb_plan", "qr_plan"):
        sub = getattr(node, attr, None)
        if isinstance(sub, PhysicalOperator):
            found.append((sub, attr))
    return found


def iter_plan_nodes(root: PhysicalOperator) -> Iterator[PhysicalOperator]:
    """Preorder walk over the full plan, deduplicated by identity."""
    seen = set()

    def walk(node: PhysicalOperator) -> Iterator[PhysicalOperator]:
        if id(node) in seen:
            return
        seen.add(id(node))
        yield node
        for child, _ in child_plans(node):
            yield from walk(child)

    yield from walk(root)


class Tracer:
    """Span-tree builder for one traced query execution.

    Tracers are one-shot and *exclusive per plan*: installation
    shadows each node's execute methods via its instance ``__dict__``,
    so two tracers must never be live on the same plan at once.  The
    serving layer honours this by serializing executions of a shared
    cached plan (see ``repro.serve.plan_cache``); ``label`` carries
    the session/statement identity into per-session trace exports.
    """

    def __init__(self, mode: str, label: str = "query") -> None:
        if mode not in TRACE_MODES or mode == "off":
            raise ValueError(
                f"trace mode must be 'counters' or 'timing', got {mode!r}"
            )
        self.mode = mode
        self.timing = mode == "timing"
        self.label = label
        # Tracers own no lock by design: the one-shot / exclusive-per-
        # plan contract above means exactly one thread mutates this
        # state for the tracer's whole life (the plan-cache entry lock
        # is the serializing mechanism in the serving layer).
        self.phases: List[Span] = []  # unguarded: one-shot tracer, single executing thread per plan
        self.root_span: Optional[Span] = None  # unguarded: one-shot tracer, single executing thread per plan
        self._span_of: Dict[int, Span] = {}  # unguarded: one-shot tracer, single executing thread per plan
        # Spans that mirror no plan node, by (owner id, what): NLJP's
        # cache interactions and its inner kernel.
        self._cache_spans: Dict[Tuple[int, str], Span] = {}  # unguarded: one-shot tracer, single executing thread per plan
        self._nodes: List[PhysicalOperator] = []  # unguarded: one-shot tracer, single executing thread per plan

    # -- phases --------------------------------------------------------
    def add_phase(self, name: str, seconds: float, **attrs: Any) -> Span:
        """Record an optimizer/analyzer/planner phase span."""
        span = Span(name, kind="phase")
        span.count = 1
        span.wall_seconds = float(seconds)
        span.attrs.update(attrs)
        self.phases.append(span)
        return span

    # -- plan instrumentation ------------------------------------------
    def install(self, root: PhysicalOperator) -> Span:
        """Wrap every plan node and build the mirroring span tree."""
        if self.root_span is not None:
            raise RuntimeError("tracer already installed; tracers are one-shot")
        self.root_span = self._build(root)
        return self.root_span

    def _build(self, node: PhysicalOperator) -> Span:
        span = Span(
            type(node).__name__, kind="operator", detail=node.describe()[0].strip()
        )
        if node.estimated_rows is not None:
            span.attrs["est_rows"] = round(float(node.estimated_rows), 3)
        if node.estimated_cost is not None:
            span.attrs["est_cost"] = round(float(node.estimated_cost), 3)
        self._span_of[id(node)] = span
        self._wrap(node, span)
        self._nodes.append(node)
        for child, edge in child_plans(node):
            if id(child) in self._span_of:
                continue  # shared node (e.g. CTE cell): charged once
            child_span = self._build(child)
            if edge is not None:
                child_span.attrs["edge"] = edge
            span.children.append(child_span)
        return span

    def _wrap(self, node: PhysicalOperator, span: Span) -> None:
        original_execute = node.execute
        original_batches = node.execute_batches
        original_columnar = node.execute_columnar
        tracer = self

        def traced_execute(ctx, _orig=original_execute, _span=span):
            return tracer._traced_iter(_orig, ctx, _span, batched=False)

        def traced_batches(ctx, _orig=original_batches, _span=span):
            return tracer._traced_iter(_orig, ctx, _span, batched=True)

        def traced_columnar(ctx, _orig=original_columnar, _span=span):
            # ColumnBatch defines __len__, so the batched row count works.
            return tracer._traced_iter(_orig, ctx, _span, batched=True)

        node.__dict__["execute"] = traced_execute
        node.__dict__["execute_batches"] = traced_batches
        node.__dict__["execute_columnar"] = traced_columnar

    def _traced_iter(self, orig, ctx, span: Span, batched: bool):
        stats: ExecutionStats = ctx.stats
        timing = self.timing
        perf = time.perf_counter
        iterator = orig(ctx)
        before: Tuple[int, ...] = ()
        t0 = 0.0
        if span._active == 0:
            span.loops += 1
        while True:
            # Only the outermost activation of this span measures: the
            # default execute_batches path re-enters execute on the
            # same node, and double-counting would break the sum.
            reentrant = span._active > 0
            if not reentrant:
                before = snapshot(stats)
                if timing:
                    t0 = perf()
            span._active += 1
            item: Any = _SENTINEL
            try:
                try:
                    item = next(iterator)
                except StopIteration:
                    item = _SENTINEL
            finally:
                # Runs on StopIteration *and* on typed errors (budget
                # trips, cancellation), so partial work is attributed.
                span._active -= 1
                if not reentrant:
                    span.count += 1
                    span.accumulate(before, snapshot(stats))
                    if timing:
                        span.record_time(t0, perf())
            if item is _SENTINEL:
                return
            if not reentrant:
                span.rows += len(item) if batched else 1
            yield item

    # -- NLJP cache interactions ---------------------------------------
    def record_cache(
        self, node: PhysicalOperator, op: str, hit: bool = False, count: int = 1
    ) -> None:
        """Aggregate ``count`` alike cache interactions (a window of
        pruned bindings is reported at once) under the owning NLJP span.

        Cache spans are pure counts (``attrs["hits"]`` tracks the
        successful subset); their stats deltas are zero, so they never
        disturb the exclusive-sum invariant — the underlying
        ``prune_checks``/``cache_hits`` counters are already charged
        inside the NLJP span itself.
        """
        key = (id(node), op)
        span = self._cache_spans.get(key)
        if span is None:
            owner = self._span_of.get(id(node))
            if owner is None:
                return
            span = Span(f"cache:{op}", kind="cache")
            self._cache_spans[key] = span
            owner.children.append(span)
        span.count += count
        if hit:
            span.attrs["hits"] = span.attrs.get("hits", 0) + count

    # -- NLJP inner kernel ---------------------------------------------
    def _kernel_span(self, node: PhysicalOperator, kernel: Any) -> Span:
        key = (id(node), "kernel")
        span = self._cache_spans.get(key)
        if span is None:
            span = Span(type(kernel).__name__, kind="kernel", detail=kernel.describe())
            self._cache_spans[key] = span
            self._span_of[id(node)].children.append(span)
        return span

    def run_kernel(self, node: PhysicalOperator, kernel: Any, ctx: Any, *args: Any) -> Any:
        """Run one inner-kernel evaluation under the owning NLJP span.

        The kernel stands in for Q_R's operators, so their spans never
        activate; its work (stats delta, wall time, output rows) lands
        on one ``kernel`` child span instead of dissolving into NLJP's
        self time.  The delta is measured inside NLJP's own activation,
        so the exclusive-sum invariant holds unchanged.
        """
        span = self._kernel_span(node, kernel)
        stats = ctx.stats
        before = snapshot(stats)
        t0 = time.perf_counter() if self.timing else 0.0
        try:
            rows = kernel.run(ctx, *args)
            span.rows += len(rows)
            return rows
        finally:
            span.count += 1
            span.loops += 1
            span.accumulate(before, snapshot(stats))
            if self.timing:
                span.record_time(t0, time.perf_counter())

    def run_prefetch(self, node: PhysicalOperator, kernel: Any, ctx: Any, wanted: Any) -> None:
        """A block kernel evaluating ``wanted`` bindings ahead of the
        loop, on the same ``kernel`` span: its wall time (and the fused
        compilations of its first call) -- each binding's rows and work
        come with its own :meth:`run_kernel` -- and how many it took,
        in ``attrs["prefetched"]``."""
        span = self._kernel_span(node, kernel)
        span.attrs["prefetched"] = span.attrs.get("prefetched", 0) + len(wanted)
        before = snapshot(ctx.stats)
        t0 = time.perf_counter() if self.timing else 0.0
        try:
            kernel.prefetch(ctx, wanted)
        finally:
            span.accumulate(before, snapshot(ctx.stats))
            if self.timing:
                span.record_time(t0, time.perf_counter())

    def counter(self, node: PhysicalOperator) -> Optional[Span]:
        """The span counting ``node``'s ``rows`` and ``loops``, if traced.

        For code that stands in for a plan node without calling its
        ``execute`` (the inner kernel): it adds the rows the node would
        have produced and one loop per evaluation, so ``actual_rows``
        is stamped as if the node had run.
        """
        return self._span_of.get(id(node))

    # -- teardown ------------------------------------------------------
    def finish(self) -> QueryProfile:
        """Restore nodes, stamp ``actual_rows``, return the profile.

        Idempotent; always called from the executor's ``finally`` so a
        budget-tripped execution still leaves the plan unwrapped (and
        re-plannable) behind it.
        """
        for node in self._nodes:
            node.__dict__.pop("execute", None)
            node.__dict__.pop("execute_batches", None)
            node.__dict__.pop("execute_columnar", None)
            span = self._span_of[id(node)]
            node.stamp_actual(span.rows, span.loops)
            q_error = node.q_error()
            if q_error is not None:
                span.attrs["q_error"] = round(q_error, 3)
        self._nodes = []
        return QueryProfile(
            label=self.label, mode=self.mode, phases=self.phases, root=self.root_span
        )
