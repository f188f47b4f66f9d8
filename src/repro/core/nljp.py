"""The NLJP physical operator (Section 7): nested loop join with
pruning and memoization.

An NLJP instance is specified by four (generated) queries:

* **Q_B** — the binding query: executes L (driver side, with pushed
  selections/projections) and yields tuples whose 𝕁_L values form the
  *binding*;
* **Q_R(b)** — the inner query: a select-aggregate query over R
  parameterized by a binding, computing every aggregate subexpression
  of Φ and Λ per 𝔾_R group (plus a support count).  The paper ran it
  as a prepared statement per binding; here a Q_R over one scan is
  lowered once per plan to a columnar kernel
  (:mod:`repro.engine.kernel`) that every execution mode calls, a
  join-shaped Q_R to a kernel that a columnar context has compute it
  for the next block of bindings at once, ahead of the loop
  (:class:`_Blocks`), and only what both decline — or any join-shaped
  Q_R outside a columnar context — re-enters the operator tree per
  binding;
* **Q_C(b')** — the pruning query: a lookup over the cache for an
  unpromising entry whose binding subsumes (or is subsumed by) ``b'``
  under the automatically derived predicate — asked per binding, and
  under a columnar context first for a window of upcoming bindings at
  once, to skip the ones it is sure to prune;
* **Q_P** — post-processing: assembles final result tuples, filtering
  by Φ; evaluated incrementally when ``𝔾_L → 𝔸_L`` holds (the
  non-blocking case the paper points out), and by combining algebraic
  partial states per (𝔾_L, 𝔾_R) group otherwise (Appendix C).

The operator plugs into the engine as a
:class:`~repro.engine.operators.PhysicalOperator`, so EXPLAIN output,
stats accounting, and post-steps (ORDER BY/LIMIT) compose normally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import OptimizationError
from repro.sql import ast
from repro.sql.render import render
from repro.engine import operators as ops
from repro.engine.aggregates import is_algebraic
from repro.engine.kernel import BlockDeclined, lower_inner
from repro.engine.layout import ColumnBatch, Layout, numpy_or_none
from repro.engine.planner import PlanEnv, plan_select
from repro.core.cache import CacheEntry, NLJPCache, PayloadRows
from repro.core.iceberg import PartitionView
from repro.core.memo import collect_aggregates
from repro.core.pruning import PruningDecision


#: Sentinel for "no execution has primed the shared cache yet" —
#: distinct from ``()``/``None`` so a first run with empty params still
#: registers as priming.
_NO_PARAMS = object()

#: :meth:`NLJPOperator._skip_ahead`'s shortest and longest stretch of
#: bindings, and the pruned bindings (4-5 microseconds of Python each
#: when walked) that pay for deciding one window (50-60 microseconds of
#: array set-up, then a third of a microsecond a binding).
_MIN_WINDOW = 16
_MAX_WINDOW = 4096
_WINDOW_PAYS = 20

#: :class:`_Blocks`' shortest and longest block of bindings: evaluating
#: a block together costs a few hundred microseconds of array set-up
#: whatever its size, the tree 35-60 a binding.
_MIN_BLOCK = 16
_MAX_BLOCK = 1024


def _ref(attribute: str) -> ast.ColumnRef:
    alias, _, column = attribute.partition(".")
    return ast.ColumnRef(alias, column)


def _flat(attribute: str) -> str:
    return attribute.replace(".", "_")


@dataclass
class AggSlot:
    """One aggregate of Φ/Λ and its inner-query realization.

    ``pieces`` are the SQL aggregate expressions computed by Q_R for
    this slot (two for AVG in partial mode, one otherwise);
    ``from_row`` extracts the slot's state from those piece values;
    ``combine``/``finalize`` implement the algebraic (f^i, f^o) pair.
    In *direct* mode (``𝔾_L → 𝔸_L``) the state is the final value and
    ``combine`` is unused.
    """

    call: ast.FuncCall
    pieces: Tuple[ast.FuncCall, ...]
    from_row: Callable[[Sequence[Any]], Any]
    combine: Callable[[Any, Any], Any]
    finalize: Callable[[Any], Any]


def _direct_slot(call: ast.FuncCall) -> AggSlot:
    return AggSlot(
        call=call,
        pieces=(call,),
        from_row=lambda values: values[0],
        combine=lambda a, b: _unsupported_combine(call),
        finalize=lambda state: state,
    )


def _unsupported_combine(call: ast.FuncCall) -> Any:
    raise OptimizationError(
        f"cannot combine non-algebraic aggregate {call.name} across bindings"
    )


def _algebraic_slot(call: ast.FuncCall) -> AggSlot:
    """Partial-state slot using the (f^i, f^o) decomposition."""
    name = call.name
    if name == "AVG":
        argument = call.args[0]
        pieces = (
            ast.FuncCall("SUM", (argument,)),
            ast.FuncCall("COUNT", (argument,)),
        )
        return AggSlot(
            call=call,
            pieces=pieces,
            from_row=lambda values: (values[0] if values[0] is not None else 0, values[1]),
            combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            finalize=lambda state: state[0] / state[1] if state[1] else None,
        )
    if name in ("COUNT",):
        return AggSlot(
            call=call,
            pieces=(call,),
            from_row=lambda values: values[0],
            combine=lambda a, b: a + b,
            finalize=lambda state: state,
        )
    if name == "SUM":
        return AggSlot(
            call=call,
            pieces=(call,),
            from_row=lambda values: values[0],
            combine=lambda a, b: b if a is None else (a if b is None else a + b),
            finalize=lambda state: state,
        )
    if name == "MIN":
        return AggSlot(
            call=call,
            pieces=(call,),
            from_row=lambda values: values[0],
            combine=lambda a, b: b if a is None else (a if b is None else min(a, b)),
            finalize=lambda state: state,
        )
    if name == "MAX":
        return AggSlot(
            call=call,
            pieces=(call,),
            from_row=lambda values: values[0],
            combine=lambda a, b: b if a is None else (a if b is None else max(a, b)),
            finalize=lambda state: state,
        )
    raise OptimizationError(f"no algebraic decomposition for {name}")


class _Blocks:
    """One execution's schedule for evaluating Q_R ahead of the loop.

    The loop says which bindings come next (:meth:`begin`) and, before
    it looks each one up, where it is (:meth:`ahead`); at a block's
    first binding the block kernel evaluates together those bindings of
    the block the memo does not hold and Q_C does not prune as the
    cache stands.  That is speculation -- an evaluation inside the
    block can insert an unpromising entry that prunes a later binding
    of it -- and sound: pruning is optional
    (Theorem 3) and a prefetched result, a pure function of binding and
    data version, is only ever used for its own binding.  A result
    whose binding is pruned after all is dropped and counted
    (:meth:`pruned`).  A block is twice as long as the one before it
    while the loop pruned nothing, as long while every binding it
    pruned was foreseen (left out of the block), half as long when a
    result was dropped, and below ``_MIN_BLOCK`` the next
    ``_MIN_BLOCK`` bindings are not evaluated ahead at all -- so work
    that pruning would have saved stays a small share of the work
    done, with nothing to tune.
    """

    def __init__(
        self, nljp: "NLJPOperator", ctx: ops.ExecutionContext, cache: NLJPCache
    ) -> None:
        self.nljp = nljp
        self.ctx = ctx
        self.cache = cache
        self.kernel = nljp.inner_kernel
        self.bindings: Sequence[Tuple[Any, ...]] = ()
        self.until = 0
        self.decided = False
        self.width = _MIN_BLOCK // 2
        self.setback = False
        self.pruned_before = ctx.stats.pruned_bindings

    def begin(self, bindings: Sequence[Tuple[Any, ...]], decided: bool = False) -> None:
        """``bindings`` are what the loop looks up next, in order --
        ``decided``: those of a window that Q_C does not prune as the
        cache stands."""
        self.bindings = bindings
        self.until = 0
        self.decided = decided

    def ahead(self, at: int) -> None:
        """The loop is about to look up ``bindings[at]``."""
        if at < self.until or self.kernel is None:
            return
        pruned = self.ctx.stats.pruned_bindings
        if self.setback:
            self.width = max(self.width // 2, _MIN_BLOCK // 2)
        elif pruned == self.pruned_before:
            self.width = min(2 * self.width, _MAX_BLOCK)
        self.setback = False
        self.pruned_before = pruned
        self.until = at + max(self.width, _MIN_BLOCK)
        if self.width < _MIN_BLOCK:
            return
        nljp = self.nljp
        block = self.bindings[at : self.until]
        if nljp.enable_memo and not nljp._cache_disabled:
            # A duplicate finds the first one's entry in the memo.
            wanted = dict.fromkeys(self.cache.missing(block), 1)
        else:
            wanted = Counter(block)
        if nljp.pruning is not None and not nljp._cache_disabled and not self.decided:
            # What Q_C prunes already is not worth evaluating: the walk
            # the loop will make, uncounted (a window has made it).
            wanted = {
                binding: uses
                for binding, uses in wanted.items()
                if nljp._first_pruner(self.cache, binding)[1] is None
            }
        tracer = self.ctx.tracer
        try:
            if tracer is None:
                self.kernel.prefetch(self.ctx, wanted)
            else:
                tracer.run_prefetch(nljp, self.kernel, self.ctx, wanted)
        except BlockDeclined as declined:
            # Data the arrays cannot join exactly: the tree, from here on.
            self.kernel = None
            nljp.inner_ran = f"operators ({declined})"

    def pruned(self, bindings: Sequence[Tuple[Any, ...]]) -> None:
        """The loop pruned ``bindings``: what was evaluated ahead for
        them is dropped."""
        take = self.nljp.inner_kernel.take
        dropped = sum(take(self.ctx, binding, drop=True) is not None for binding in bindings)
        if dropped:
            self.ctx.stats.inner_prefetch_discarded += dropped
            self.setback = True


class NLJPOperator(ops.PhysicalOperator):
    """Nested-Loop Join with Pruning, built from a partition view.

    Parameters
    ----------
    view:
        The Listing 5 view of the query (driver = left side).
    env:
        Planning environment shared with the enclosing statement, so
        CTE materializations are shared between Q_B and Q_R.
    pruning:
        A :class:`PruningDecision`; pruning is active when it is
        applicable and ``enable_pruning``.
    enable_memo / enable_pruning:
        Feature toggles (the paper's Figure 1 enables each in
        isolation).
    cache_index:
        Model the cache's equality index ("CI" in Figure 4).
    cache_max_entries / cache_policy:
        Optional replacement policy (paper future work).
    binding_order:
        Optional ORDER BY items for Q_B (exploration-order control).
    """

    def __init__(
        self,
        view: PartitionView,
        env: PlanEnv,
        pruning: PruningDecision,
        enable_memo: bool = True,
        enable_pruning: bool = True,
        cache_index: bool = True,
        cache_max_entries: Optional[int] = None,
        cache_policy: str = "none",
        binding_order: Tuple[ast.OrderItem, ...] = (),
    ) -> None:
        self.view = view
        self.env = env
        self.pruning = pruning if (enable_pruning and pruning.applicable) else None
        self.enable_memo = enable_memo
        self.cache_index = cache_index
        self.cache_max_entries = cache_max_entries
        self.cache_policy = cache_policy
        self.binding_order = binding_order
        self.cache: Optional[NLJPCache] = None  # unguarded: serialized by the plan-cache entry lock; one execution per operator instance at a time
        # Governor degradation state, reset per execution: once the
        # cache-bytes budget cannot be met even with eviction, memo and
        # pruning lookups are disabled (correct but unassisted join).
        self._cache_evicting = False  # unguarded: serialized by the plan-cache entry lock
        self._cache_disabled = False  # unguarded: serialized by the plan-cache entry lock
        # Cross-execution cache (serving layer): when set, executions
        # reuse this cache instead of building a fresh one, so the
        # second run of a prepared statement gets memo/prune hits from
        # the first.  Sound only while the data is unchanged (the plan
        # cache invalidates on any version change) and the parameter
        # values match (enforced below via _persistent_params).  The
        # NLJPCache itself is internally locked; these references are
        # single-writer because PlanCacheEntry.lock serializes all
        # executions of one cached plan (see serve/server._execute_once).
        self.persistent_cache: Optional[NLJPCache] = None  # unguarded: serialized by the plan-cache entry lock
        self._persistent_params: Any = _NO_PARAMS  # unguarded: serialized by the plan-cache entry lock

        block = view.block
        if block.having is None:
            raise OptimizationError("NLJP requires a HAVING condition")
        if not view.phi_applicable_to(left=False):
            raise OptimizationError("NLJP requires Φ applicable to the inner side")
        if not view.lambda_aggregates_applicable_to(left=False):
            raise OptimizationError(
                "NLJP requires all SELECT aggregates over the inner side"
            )

        self.g_left = tuple(sorted(view.g_left))
        self.g_right = tuple(sorted(view.g_right))
        self.j_left = tuple(sorted(view.j_left))
        self.direct_mode = view.fds(True).is_superkey(
            view.g_left, view.attributes(True)
        )

        calls = collect_aggregates(view)
        if not self.direct_mode:
            bad = [call.name for call in calls if not is_algebraic(call)]
            if bad:
                raise OptimizationError(
                    f"non-algebraic aggregates {bad} need G_L -> A_L"
                )
        self.slots: List[AggSlot] = [
            _direct_slot(call) if self.direct_mode else _algebraic_slot(call)
            for call in calls
        ]

        self._build_binding_query()
        self._build_inner_query()
        self._build_output()
        self._plan_loop()

    # ------------------------------------------------------------------
    # Q_B
    # ------------------------------------------------------------------
    def _build_binding_query(self) -> None:
        view, block = self.view, self.view.block
        needed: List[str] = []
        for attribute in self.g_left + self.j_left:
            if attribute not in needed:
                needed.append(attribute)
        # L attributes referenced by Λ outside aggregates; references to
        # the other side are localized through equated attributes
        # (OptimizationError here rejects the partition).
        self.localized_items = tuple(
            ast.SelectItem(
                item.expr
                if isinstance(item.expr, ast.Star)
                else view.localize(item.expr, left=True),
                item.alias,
            )
            for item in block.items
        )
        for item in self.localized_items:
            if isinstance(item.expr, ast.Star):
                continue
            for attribute in sorted(block.attributes_of(item.expr)):
                alias = attribute.partition(".")[0]
                if alias in view.left_aliases and attribute not in needed:
                    needed.append(attribute)
        self.qb_attributes = tuple(needed)
        self.binding_positions = tuple(
            self.qb_attributes.index(attribute) for attribute in self.j_left
        )
        items = tuple(
            ast.SelectItem(_ref(attribute), alias=_flat(attribute))
            for attribute in self.qb_attributes
        )
        from_items = tuple(
            ast.NamedTable(
                name=(
                    block.relation(alias).table_name
                    or block.relation(alias).cte_name
                ),
                alias=alias,
            )
            for alias in sorted(view.left_aliases)
        )
        self.qb_select = ast.Select(
            items=items,
            from_items=from_items,
            where=ast.conjoin(view.left_internal),
            order_by=self.binding_order,
        )
        self.qb_plan, _ = plan_select(self.qb_select, self.env)
        # Re-expose Q_B outputs under their original alias.column names.
        self.qb_layout = Layout(
            [tuple(attribute.split(".", 1)) for attribute in self.qb_attributes]
        )

    # ------------------------------------------------------------------
    # Q_R(b)
    # ------------------------------------------------------------------
    def _build_inner_query(self) -> None:
        view, block = self.view, self.view.block
        self.param_names = tuple(
            f"b_{_flat(attribute)}" for attribute in self.j_left
        )
        param_of = dict(zip(self.j_left, self.param_names))

        def parameterize(expr: ast.Expr) -> ast.Expr:
            def visit(node):
                if isinstance(node, ast.ColumnRef) and node.table in view.left_aliases:
                    return ast.Parameter(param_of[f"{node.table}.{node.column}"])
                return node

            return ast.transform(expr, visit)

        theta_parameterized = tuple(parameterize(c) for c in view.theta)

        items: List[ast.SelectItem] = [
            ast.SelectItem(_ref(attribute), alias=f"_grp{i}")
            for i, attribute in enumerate(self.g_right)
        ]
        self.slot_piece_positions: List[Tuple[int, ...]] = []
        position = len(self.g_right)
        for slot in self.slots:
            positions = []
            for piece in slot.pieces:
                items.append(ast.SelectItem(piece, alias=f"_p{position}"))
                positions.append(position)
                position += 1
            self.slot_piece_positions.append(tuple(positions))
        self.support_position = position
        items.append(
            ast.SelectItem(ast.FuncCall("COUNT", (ast.Star(),)), alias="_support")
        )

        from_items = tuple(
            ast.NamedTable(
                name=(
                    block.relation(alias).table_name
                    or block.relation(alias).cte_name
                ),
                alias=alias,
            )
            for alias in sorted(view.right_aliases)
        )
        self.qr_select = ast.Select(
            items=tuple(items),
            from_items=from_items,
            where=ast.conjoin(tuple(view.right_internal) + theta_parameterized),
            group_by=tuple(_ref(a) for a in self.g_right),
        )
        self.qr_plan, _ = plan_select(self.qr_select, self.env)
        # A scan-shaped Q_R is lowered once to a columnar kernel that
        # every execution mode calls in place of the tree, a join-shaped
        # one to a kernel a columnar context runs a block of bindings
        # ahead of the loop; the reason says why a Q_R kept the
        # operators (EXPLAIN shows which).
        self.inner_kernel, self.inner_reason = lower_inner(
            self.qr_plan, self.param_names
        )
        self.inner_ran: Optional[str] = None  # unguarded: serialized by the plan-cache entry lock

    # ------------------------------------------------------------------
    # Q_P / output
    # ------------------------------------------------------------------
    def _build_output(self) -> None:
        view, block = self.view, self.view.block
        grp_slots = [tuple(attribute.split(".", 1)) for attribute in self.g_right]
        agg_slots = [(None, f"_agg{i}") for i in range(len(self.slots))]
        self.combined_layout = Layout(
            list(self.qb_layout.slots) + grp_slots + agg_slots
        )

        calls = [slot.call for slot in self.slots]
        replacements = {
            call: ast.ColumnRef(None, f"_agg{i}") for i, call in enumerate(calls)
        }

        def rewrite(expr: ast.Expr) -> ast.Expr:
            def visit(node):
                if isinstance(node, ast.FuncCall) and node.is_aggregate:
                    replaced = replacements.get(node)
                    if replaced is None:
                        raise OptimizationError(
                            f"aggregate {render(node)} not covered by NLJP slots"
                        )
                    return replaced
                return node

            return ast.transform(expr, visit)

        combined_compiler = self.env.compiler(self.combined_layout)
        payload_layout = Layout(grp_slots + agg_slots)
        payload_compiler = self.env.compiler(payload_layout)
        assert block.having is not None
        self.phi_fn = payload_compiler.compile(rewrite(block.having))

        # How to treat a binding whose joining set is *empty*.  Such a
        # binding produces no LR-group, so the flag only matters for
        # pruning: under a monotone Φ a subsumed binding joins a subset
        # of ∅ (i.e. nothing) and pruning it is always safe; under an
        # anti-monotone Φ the empty set says nothing about supersets
        # (e.g. COUNT(*) <= k and SUM(A) <= c both hold "in the limit"
        # on ∅), so the binding must never seed pruning.
        from repro.core.monotonicity import Monotonicity

        self._empty_is_unpromising = (
            view.block.phi_monotonicity() is Monotonicity.MONOTONE
        )

        self.output_fns = []
        output_names = []
        for index, item in enumerate(self.localized_items):
            if isinstance(item.expr, ast.Star):
                raise OptimizationError("SELECT * is not supported with NLJP")
            self.output_fns.append(combined_compiler.compile(rewrite(item.expr)))
            if item.alias:
                output_names.append(item.alias.lower())
            elif isinstance(item.expr, ast.ColumnRef):
                output_names.append(item.expr.column.lower())
            elif isinstance(item.expr, ast.FuncCall):
                output_names.append(item.expr.name.lower())
            else:
                output_names.append(f"col{index}")
        self.output_names = tuple(output_names)
        self.layout = Layout([(None, name) for name in self.output_names])

        # Positions of G_L attributes in Q_B output (general-mode keys).
        self.g_left_positions = tuple(
            self.qb_attributes.index(attribute) for attribute in self.g_left
        )

    def _plan_loop(self) -> None:
        """Can Q_C be decided a window of bindings at a time?

        ``_prune_test`` is ``should_prune`` over arrays with the
        positions it compares; ``_loop_reason`` says why there is none.
        What a Q_B batch turns out to hold can still decline it:
        ``loop_ran`` is what the last execution did.
        """
        self._prune_test = None
        self.loop_ran: Optional[str] = None  # unguarded: serialized by the plan-cache entry lock
        if self.pruning is None or self.pruning.predicate is None:
            self._loop_reason = "no Q_C"
        elif numpy_or_none() is None:
            self._loop_reason = "NumPy unavailable"
        elif self.cache_index and self.pruning.predicate.equality_attributes():
            self._loop_reason = "equality buckets"
        else:
            self._prune_test = self.pruning.array_test()
            self._loop_reason = (
                "p⪰ has atoms other than a ⋈ b" if self._prune_test is None else None
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _new_cache(self) -> NLJPCache:
        equality_positions = ()
        order_position = None
        self._order_bound = None  # (position, is_low_bound, strict)
        if self.pruning is not None and self.pruning.predicate is not None:
            predicate = self.pruning.predicate
            equality_positions = predicate.equality_attributes()
            ordered = predicate.ordered_attribute() if self.cache_index else None
            if ordered is not None and not equality_positions:
                position, op = ordered
                # The predicate requires w[position] OP v[position].  In
                # should_prune, (w, v) are instantiated per direction:
                from repro.core.pruning import PruneDirection

                if self.pruning.direction is PruneDirection.NEW_SUBSUMES_CACHED:
                    # w = new, v = cached: cached must satisfy
                    # new OP cached -> a bound on the cached value.
                    if op in ("<", "<="):
                        self._order_bound = (position, True, op == "<")
                    else:
                        self._order_bound = (position, False, op == ">")
                else:
                    # w = cached, v = new: cached OP new.
                    if op in ("<", "<="):
                        self._order_bound = (position, False, op == "<")
                    else:
                        self._order_bound = (position, True, op == ">")
                order_position = position
        return NLJPCache(
            equality_positions=equality_positions,
            use_index=self.cache_index,
            max_entries=self.cache_max_entries,
            policy=self.cache_policy,
            order_position=order_position,
        )

    def _run_inner(self, ctx: ops.ExecutionContext, binding) -> PayloadRows:
        ctx.stats.inner_evaluations += 1
        governor = ctx.governor
        if governor is not None:
            governor.check("inner-eval")
        params = ctx.params
        names = self.param_names
        # Only the binding's names are set and taken back; a statement
        # parameter one of them hides (none, outside tests) comes back.
        hidden = {n: params[n] for n in names if n in params} if params else None
        params.update(zip(names, binding))
        kernel = self.inner_kernel
        try:
            # A block kernel runs a binding it has evaluated ahead of
            # the loop; one it has not (or any, outside a columnar
            # context) is the tree's.
            args = ()
            if kernel is not None and kernel.blockwise:
                ahead = kernel.take(ctx, binding) if ctx.columnar else None
                if ahead is None:
                    kernel = None
                else:
                    args = (ahead,)
            if kernel is None:
                raw_rows = ops.materialize(self.qr_plan, ctx, columnar=False)
            elif ctx.tracer is None:
                raw_rows = kernel.run(ctx, *args)
            else:
                raw_rows = ctx.tracer.run_kernel(self, kernel, ctx, *args)
        finally:
            for name in names:
                del params[name]
            if hidden:
                params.update(hidden)
        n_grp = len(self.g_right)
        payload: List[Tuple[Tuple[Any, ...], Tuple[Any, ...]]] = []
        for row in raw_rows:
            if not row[self.support_position]:
                continue  # no joining R-tuples: not a group
            states = tuple(
                slot.from_row([row[p] for p in positions])
                for slot, positions in zip(self.slots, self.slot_piece_positions)
            )
            payload.append((tuple(row[:n_grp]), states))
        return tuple(payload)

    def _finalized(self, group: Tuple[Any, ...], states: Tuple[Any, ...]):
        return group + tuple(
            slot.finalize(state) for slot, state in zip(self.slots, states)
        )

    def _is_unpromising(self, payload: PayloadRows, params: Dict[str, Any]) -> bool:
        """Definition 5: Φ fails for every G_R-partition of R⋉w.

        The empty-payload case is settled by Φ's monotonicity (see
        ``_empty_is_unpromising``): a monotone Φ lets a binding that
        joins nothing prune everything it subsumes (they join nothing
        either), while an anti-monotone Φ on the empty set gives no
        leverage over supersets, so the binding must not seed pruning.
        """
        if not payload:
            return self._empty_is_unpromising
        for group, states in payload:
            if self.phi_fn(self._finalized(group, states), params) is True:
                return False
        return True

    def enable_shared_cache(self) -> NLJPCache:
        """Pin a cache that survives executions (serving-layer mode).

        Subsequent :meth:`execute` calls reuse this cache, so the
        second execution of a prepared statement gets memo hits and
        prune seeds from the first — cross-*query* caching in the
        spirit of Kalinsky et al.'s cache-across-bindings.  The cached
        payloads depend on the inner data and the parameter values, so
        :meth:`execute` clears the cache whenever the parameter set
        differs from the one that primed it; data changes are handled
        one level up by the plan cache's version-token invalidation
        (the whole plan, pinned cache included, is dropped).
        """
        if self.persistent_cache is None:
            self.persistent_cache = self._new_cache()
            self._persistent_params = _NO_PARAMS
        return self.persistent_cache

    def execute(self, ctx: ops.ExecutionContext) -> Iterator[Tuple[Any, ...]]:
        self.env.ctx_holder.setdefault("ctx", ctx)
        cache = self.persistent_cache
        if cache is None:
            cache = self._new_cache()
        else:
            params_key = tuple(sorted(ctx.params.items())) if ctx.params else ()
            if self._persistent_params is _NO_PARAMS:
                self._persistent_params = params_key
            elif params_key != self._persistent_params:
                cache.clear()
                self._persistent_params = params_key
        self.cache = cache
        self._cache_evicting = False
        self._cache_disabled = False
        stats = ctx.stats
        # Counter baselines: a shared cache accumulates across
        # executions, but each execution's stats must charge only its
        # own lookups/hits/evictions (footprint counters stay totals —
        # they describe the cache, not the work).  Baselines and final
        # readings are locked snapshots: reading the three counters
        # individually could interleave with a concurrent execution of
        # another session sharing this pinned cache.
        base_lookups, base_hits, base_evictions = cache.counters()

        if self.direct_mode:
            yield from self._execute_direct(ctx, cache)
        else:
            yield from self._execute_combining(ctx, cache)

        end_lookups, end_hits, end_evictions = cache.counters()
        stats.cache_rows += cache.rows
        stats.cache_bytes += cache.estimated_bytes()
        stats.cache_hits += end_hits - base_hits
        stats.cache_misses += (end_lookups - base_lookups) - (
            end_hits - base_hits
        )
        stats.cache_evictions += end_evictions - base_evictions

    def _lookup_or_compute(self, ctx: ops.ExecutionContext, cache: NLJPCache, binding):
        """The per-binding core of Listing 6 / Section 7's pseudocode.

        Returns the cache entry, or None when the binding was pruned.
        When the governor has disabled the cache under memory pressure
        (``_cache_disabled``), every lookup/insert is skipped and the
        binding is evaluated directly — correct, just unassisted.
        """
        use_cache = not self._cache_disabled
        tracer = ctx.tracer
        entry = cache.get(binding) if (self.enable_memo and use_cache) else None
        if tracer is not None and self.enable_memo and use_cache:
            tracer.record_cache(self, "memo_get", hit=entry is not None)
        if entry is not None:
            return entry
        if self.pruning is not None and use_cache:
            checks, hit = self._first_pruner(cache, binding)
            ctx.stats.prune_checks += checks
            pruned = hit is not None
            if tracer is not None:
                tracer.record_cache(self, "prune_scan", hit=pruned)
            if pruned:
                ctx.stats.pruned_bindings += 1
                return None
        payload = self._run_inner(ctx, binding)
        unpromising = self._is_unpromising(payload, ctx.params)
        if use_cache and (
            self.enable_memo or (self.pruning is not None and unpromising)
        ):
            governor = ctx.governor
            if governor is not None:
                governor.check("cache-insert")
            entry = cache.put(binding, payload, unpromising)
            if tracer is not None:
                tracer.record_cache(self, "put")
            if governor is not None:
                self._enforce_cache_budget(governor, cache, entry)
            return entry
        return CacheEntry(binding=binding, payload=payload, unpromising=unpromising)

    def _first_pruner(self, cache: NLJPCache, binding):
        """Q_C for ``binding`` against the cache as it stands: ``(checks,
        hit)``, nothing counted."""
        low = high = None
        low_strict = high_strict = False
        if self._order_bound is not None:
            position, is_low, strict = self._order_bound
            value = binding[position]
            if is_low:
                low, low_strict = value, strict
            else:
                high, high_strict = value, strict
        return cache.first_pruner(
            binding, self.pruning.should_prune, low=low, high=high,
            low_strict=low_strict, high_strict=high_strict,
        )

    def _enforce_cache_budget(self, governor, cache: NLJPCache, entry) -> None:
        """Apply the ``max_cache_bytes`` ceiling after an insertion.

        ``degradation="fail"`` aborts with a typed error.  Under
        ``"fallback"`` the cache first evicts by its policy (never the
        just-inserted entry), and if the ceiling still cannot be met
        memo/pruning lookups are disabled for the rest of the execution
        — the join stays correct, it just loses its assist.  Both steps
        land in ``stats.degradations``.
        """
        footprint = cache.estimated_bytes()
        if not governor.cache_over_budget(footprint):
            return
        if governor.degradation != "fallback":
            raise governor.cache_budget_exceeded(footprint)
        if not self._cache_evicting:
            self._cache_evicting = True
            governor.degrade(
                "nljp-cache",
                f"max_cache_bytes={governor.max_cache_bytes} exceeded "
                f"({footprint} bytes); evicting under pressure",
            )
        cache.evict_until(governor.max_cache_bytes, keep=entry)
        if governor.cache_over_budget(cache.estimated_bytes()):
            self._cache_disabled = True
            cache.clear()
            governor.degrade(
                "nljp-cache",
                "eviction cannot satisfy max_cache_bytes; "
                "memo/pruning lookups disabled",
            )

    def _joined(
        self, ctx: ops.ExecutionContext, cache: NLJPCache
    ) -> Iterator[Tuple[Tuple[Any, ...], CacheEntry]]:
        """Q_B's rows in order, each with its binding's entry; pruned
        bindings are left out.

        Every binding that is evaluated, looked up or inserted goes
        through :meth:`_lookup_or_compute`, one at a time in Q_B's
        order: a binding can be pruned by any earlier one.  Under a
        columnar context :meth:`_skip_ahead` first drops, a window at a
        time, the bindings Q_C is already sure to prune.
        """
        governor = ctx.governor
        positions = self.binding_positions
        kernel = self.inner_kernel
        blocks = None
        if kernel is not None and kernel.blockwise:
            if ctx.columnar:
                blocks = _Blocks(self, ctx, cache)
                self.inner_ran = f"block kernel ({kernel.describe()})"
            else:
                self.inner_ran = "operators (row/batch mode)"

        def per_binding(rows):
            for qb_row in rows:
                if governor is not None:
                    governor.check()
                binding = tuple(qb_row[p] for p in positions)
                entry = self._lookup_or_compute(ctx, cache, binding)
                if entry is not None:
                    yield qb_row, entry

        def per_binding_ahead(rows):
            """:func:`per_binding` over a list, so that ``blocks`` can
            evaluate Q_R for the bindings about to be looked up."""
            bindings = [tuple(qb_row[p] for p in positions) for qb_row in rows]
            blocks.begin(bindings)
            for at, qb_row in enumerate(rows):
                if governor is not None:
                    governor.check()
                blocks.ahead(at)
                entry = self._lookup_or_compute(ctx, cache, bindings[at])
                if entry is not None:
                    yield qb_row, entry
                else:
                    blocks.pruned(bindings[at : at + 1])

        if blocks is not None:
            per_binding = per_binding_ahead

        reason = self._loop_reason or (None if ctx.columnar else "row/batch mode")
        if reason is None:
            return chain.from_iterable(
                self._skip_ahead(ctx, cache, batch, per_binding, blocks)
                for batch in self.qb_plan.execute_columnar(ctx)
            )
        self.loop_ran = f"per binding ({reason})"
        if blocks is None:
            return per_binding(ops.execute_rows(self.qb_plan, ctx))
        return chain.from_iterable(
            per_binding(rows)
            for batch in self.qb_plan.execute_columnar(ctx)
            for rows in ops.batch_row_lists(batch, ctx.batch_size)
        )

    def _window_columns(self, batch: ColumnBatch):
        """The binding columns as arrays Q_C can be decided on exactly
        (see :meth:`SubsumptionPredicate.array_test`), or why not."""
        if batch.length <= _MIN_WINDOW + _WINDOW_PAYS:
            return "too few bindings for a window to pay"
        np = numpy_or_none()
        arrays = []
        for position in self.binding_positions:
            column = batch.column(position).materialize()
            if column.kind not in ("i8", "f8"):
                return "text attribute" if column.kind == "dict" else f"{column.kind} attribute"
            if column.validity is not None and not column.validity.all():
                return "NULLs in Q_B"
            arrays.append(column.data)
        if any(arrays[a].dtype != arrays[b].dtype for a, b in self._prune_test[1]):
            return "integer beside float"
        if self._order_bound is not None:
            keys = arrays[self._order_bound[0]]
            if keys.dtype.kind == "f" and np.isnan(keys).any():
                return "NaN at the order index"
        return arrays

    def _skip_ahead(
        self, ctx, cache: NLJPCache, batch: ColumnBatch, per_binding, blocks=None
    ):
        """One Q_B batch: decide Q_C for a window of upcoming bindings
        against the cache as it stands, charge the pruned ones what the
        walk would have charged them, and run the others one by one
        (``per_binding``; of a batch arrays cannot decide, all).

        A binding is skipped only on a decision nothing before it in
        Q_B's order can change: it is not in the memo (entries are only
        added for bindings that are *not* pruned, and a duplicate gets
        the same decision), and the candidates its walk meets are the
        cache's as long as :meth:`NLJPCache.version` stands — an
        unpromising insertion, an eviction or a ``clear()`` voids the
        rest of the window.

        Deciding a window costs as much as walking a dozen bindings one
        by one, so the next stretch of Q_B is a window, twice as long,
        only when the last stretch had enough pruned bindings for one
        that long to pay; otherwise it is walked per binding, for twice
        as long each time (an empty cache decides nothing).
        """
        columns = self._window_columns(batch)
        if isinstance(columns, str):
            self.loop_ran = f"per binding ({columns})"
            for rows in ops.batch_row_lists(batch, ctx.batch_size):
                yield from per_binding(rows)
            return
        kinds = ",".join(array.dtype.str[1:] for array in columns)
        indexed = (
            "all unpromising entries"
            if self._order_bound is None
            else f"order index on {self.j_left[self._order_bound[0]]}"
        )
        self.loop_ran = f"windowed ({kinds}; {indexed})"
        np = numpy_or_none()
        test = self._prune_test[0]
        governor = ctx.governor
        stats = ctx.stats
        at = done = skipped = 0
        walk = _MIN_WINDOW
        while at < batch.length:
            # The last stretch had ``skipped`` of ``done`` bindings
            # pruned: is a window twice as long worth deciding?
            width = min(2 * done, batch.length - at, _MAX_WINDOW)
            pruned_before = stats.pruned_bindings
            decided = None
            if width and skipped * width >= _WINDOW_PAYS * done and not self._cache_disabled:
                stop = at + width
                window = [array[at:stop] for array in columns]
                bindings = list(zip(*(array.tolist() for array in window)))
                if governor is not None:
                    governor.check()
                decided = cache.prunable(
                    bindings, window, self.enable_memo, test, self._order_bound
                )
            if decided is None:
                stop = min(batch.length, at + walk)
                yield from per_binding(batch.slice(at, stop).to_rows())
                done, walk = stop - at, min(2 * walk, _MAX_WINDOW)
            else:
                version, pruned, checks = decided
                kept = np.flatnonzero(~pruned)
                charged = [0, *np.cumsum(np.where(pruned, checks, 0)).tolist()]
                rows = batch.slice(at, stop).take(kept).to_rows()
                done, walk = 0, _MIN_WINDOW
                kept = kept.tolist()
                if blocks is not None:
                    blocks.begin([bindings[k] for k in kept], decided=True)
                # The closing (width, None) charges the last pruned run.
                for nth, (k, qb_row) in enumerate(zip([*kept, width], [*rows, None])):
                    if k > done:
                        self._charge_pruned(ctx, cache, k - done, charged[k] - charged[done])
                        if blocks is not None:
                            blocks.pruned(bindings[done:k])
                    if qb_row is None:
                        done = k
                        break
                    done = k + 1
                    if governor is not None:
                        governor.check()
                    if blocks is not None:
                        blocks.ahead(nth)
                    evaluations = stats.inner_evaluations
                    entry = self._lookup_or_compute(ctx, cache, bindings[k])
                    if entry is not None:
                        yield qb_row, entry
                    elif blocks is not None:
                        blocks.pruned((bindings[k],))
                    # Only an evaluation inserts, evicts or clears.
                    if stats.inner_evaluations != evaluations and cache.version() != version:
                        break
            at += done
            skipped = stats.pruned_bindings - pruned_before

    def _charge_pruned(self, ctx, cache: NLJPCache, count: int, checks: int) -> None:
        """What :meth:`_lookup_or_compute` charges ``count`` bindings
        that miss the memo and are pruned after ``checks`` tests."""
        ctx.stats.prune_checks += checks
        ctx.stats.pruned_bindings += count
        tracer = ctx.tracer
        if self.enable_memo:
            cache.missed(count)
            if tracer is not None:
                tracer.record_cache(self, "memo_get", count=count)
        if tracer is not None:
            tracer.record_cache(self, "prune_scan", hit=True, count=count)

    def _execute_direct(
        self, ctx: ops.ExecutionContext, cache: NLJPCache
    ) -> Iterator[Tuple[Any, ...]]:
        """𝔾_L → 𝔸_L: each binding's groups are complete; stream output."""
        params = ctx.params
        for qb_row, entry in self._joined(ctx, cache):
            if entry.unpromising:
                continue
            for group, states in entry.payload:
                finalized = self._finalized(group, states)
                if self.phi_fn(finalized, params) is not True:
                    continue
                combined = tuple(qb_row) + finalized
                yield tuple(fn(combined, params) for fn in self.output_fns)

    def _execute_combining(
        self, ctx: ops.ExecutionContext, cache: NLJPCache
    ) -> Iterator[Tuple[Any, ...]]:
        """General case: combine algebraic partials per (𝔾_L, 𝔾_R) group."""
        params = ctx.params
        groups: Dict[Tuple, List[Any]] = {}
        representative: Dict[Tuple, Tuple[Any, ...]] = {}
        for qb_row, entry in self._joined(ctx, cache):
            left_key = tuple(qb_row[p] for p in self.g_left_positions)
            for group, states in entry.payload:
                key = (left_key, group)
                existing = groups.get(key)
                if existing is None:
                    groups[key] = list(states)
                    representative[key] = tuple(qb_row)
                else:
                    ctx.stats.subsumption_merges += 1
                    groups[key] = [
                        slot.combine(a, b)
                        for slot, a, b in zip(self.slots, existing, states)
                    ]
        for key, states in groups.items():
            left_key, group = key
            finalized = self._finalized(group, tuple(states))
            if self.phi_fn(finalized, params) is not True:
                continue
            combined = representative[key] + finalized
            yield tuple(fn(combined, params) for fn in self.output_fns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> List[str]:
        features = []
        if self.pruning is not None:
            features.append("pruning")
        if self.enable_memo:
            features.append("memo")
        lines = [
            f"NLJP [{'+'.join(features) or 'plain'}] "
            f"mode={'direct' if self.direct_mode else 'combining'}"
        ]
        lines += ["  Q_B: " + render(self.qb_select)]
        lines += ["  Q_R: " + render(self.qr_select)]
        lines += ["  inner: " + self.inner_description()]
        lines += ["  loop: " + self.loop_description()]
        if self.pruning is not None and self.pruning.predicate is not None:
            lines += ["  Q_C: " + render(self.pruning_query_sql())]
        return lines

    def to_dict(self) -> Dict[str, object]:
        node = super().to_dict()
        node["features"] = {
            "pruning": self.pruning is not None,
            "memo": self.enable_memo,
            "mode": "direct" if self.direct_mode else "combining",
        }
        node["qb_plan"] = self.qb_plan.to_dict()
        node["qr_plan"] = self.qr_plan.to_dict()
        node["inner"] = self.inner_description()
        node["loop"] = self.loop_description()
        if self.pruning is not None and self.pruning.predicate is not None:
            node["pruning_predicate"] = render(self.pruning_query_sql())
        return node

    def inner_description(self) -> str:
        """Which evaluator runs Q_R, and for the operators, why."""
        kernel = self.inner_kernel
        if kernel is None:
            return f"operators ({self.inner_reason})"
        if not kernel.blockwise:
            return f"kernel ({kernel.describe()})"
        # What the last execution did; before one, what the plan allows.
        return self.inner_ran or f"block kernel ({kernel.describe()})"

    def loop_description(self) -> str:
        """How the bindings are gone through: what the last execution
        did, or before one, what the plan allows."""
        if self.loop_ran is not None:
            return self.loop_ran
        if self._loop_reason is not None:
            return f"per binding ({self._loop_reason})"
        return "windowed (under a columnar context)"

    def pruning_query_sql(self) -> ast.Expr:
        """The Q_C predicate as SQL (over cache columns + parameters)."""
        assert self.pruning is not None and self.pruning.predicate is not None
        predicate = self.pruning.predicate
        from repro.core.pruning import PruneDirection

        if self.pruning.direction is PruneDirection.NEW_SUBSUMED_BY_CACHED:
            # cached ⪰ new: w = cached columns, w' = parameters.
            return predicate.to_sql(
                new_binding=lambda i: ast.ColumnRef(
                    "c", _flat(predicate.attributes[i])
                ),
                cached_binding=lambda i: ast.Parameter(
                    f"b_{_flat(predicate.attributes[i])}"
                ),
            )
        return predicate.to_sql(
            new_binding=lambda i: ast.Parameter(
                f"b_{_flat(predicate.attributes[i])}"
            ),
            cached_binding=lambda i: ast.ColumnRef(
                "c", _flat(predicate.attributes[i])
            ),
        )

    def sql_listing(self) -> Dict[str, str]:
        """Generated query texts, in the spirit of Listings 7 and 10."""
        listing = {
            "Q_B": render(self.qb_select),
            "Q_R": render(self.qr_select),
            "Q_P": (
                "incremental Φ-filter over concatenated tuples"
                if self.direct_mode
                else "combine algebraic partials per (G_L, G_R), then Φ-filter"
            ),
        }
        if self.pruning is not None and self.pruning.predicate is not None:
            listing["Q_C"] = (
                "SELECT 1 FROM cache c WHERE c.unpromising AND "
                + render(self.pruning_query_sql())
            )
        return listing
