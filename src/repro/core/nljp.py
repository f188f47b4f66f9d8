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
  lowered once per plan, where NumPy imports, to a columnar kernel
  (:mod:`repro.engine.kernel`), a join-shaped Q_R to a kernel that
  computes it for the next block of bindings at once, ahead of the
  loop (:class:`_Blocks`), and only what both decline — or any Q_R on
  an install without NumPy — re-enters the operator tree, row at a
  time, per binding;
* **Q_C(b')** — the pruning query: a lookup over the cache for an
  unpromising entry whose binding subsumes (or is subsumed by) ``b'``
  under the automatically derived predicate — asked per binding, and
  where NumPy imports first for a window of upcoming bindings at once,
  to skip the ones it is sure to prune;
* **Q_P** — post-processing: assembles final result tuples, filtering
  by Φ; evaluated incrementally when ``𝔾_L → 𝔸_L`` holds (the
  non-blocking case the paper points out), and by combining algebraic
  partial states per (𝔾_L, 𝔾_R) group otherwise (Appendix C).

The operator plugs into the engine as a
:class:`~repro.engine.operators.PhysicalOperator`, so EXPLAIN output,
stats accounting, and post-steps (ORDER BY/LIMIT) compose normally.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, OptimizationError
from repro.sql import ast
from repro.sql.render import render
from repro.engine import operators as ops
from repro.engine.aggregates import is_algebraic
from repro.engine.kernel import BlockDeclined, lower_block, lower_inner
from repro.engine.layout import ColumnBatch, Layout, numpy_or_none
from repro.engine.planner import PlanEnv, plan_select
from repro.storage.table import Table
from repro.storage.types import SqlType
from repro.core.cache import CacheEntry, PayloadRows, PayloadStore, PruneView, fresh_memo
from repro.core.iceberg import PartitionView
from repro.core.memo import collect_aggregates
from repro.core.pruning import PruningDecision


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

#: The prune views one plan keeps over a shared store, one per set of
#: Φ's parameter values.  Two: Q4 and Q5 share a template and alternate
#: on one plan, so with one view every other request re-decided the
#: whole store.  With eight, a served pairs sweep reuses a view older
#: than the last one on about 15% of its executions and saves no
#: measurable time (a view catches up on the entries added since it
#: last ran anyway); the other workloads never reuse an older view.
#: And a view that is not the store's current one keeps the entries
#: the store drops until it runs again.
_MAX_VIEWS = 2


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
    In *direct* mode (``𝔾_L → 𝔸_L``) the state is the final value;
    ``combine`` merges two for COUNT, SUM, MIN and MAX only.
    """

    call: ast.FuncCall
    pieces: Tuple[ast.FuncCall, ...]
    from_row: Callable[[Sequence[Any]], Any]
    combine: Callable[[Any, Any], Any]
    finalize: Callable[[Any], Any]


def _direct_slot(call: ast.FuncCall) -> AggSlot:
    """Final-value slot: its state is the aggregate's value, which
    merges with another's (an append caught up, see
    :meth:`NLJPOperator.catch_up`) for COUNT, SUM, MIN and MAX."""
    if is_algebraic(call) and call.name != "AVG":
        return _algebraic_slot(call)
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

    def __init__(self, nljp: "NLJPOperator", ctx: ops.ExecutionContext) -> None:
        self.nljp = nljp
        self.ctx = ctx
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
            held = nljp.store.held(block)
            wanted = dict.fromkeys([b for b, h in zip(block, held) if not h], 1)
        else:
            wanted = Counter(block)
        if nljp.pruning is not None and not nljp._cache_disabled and not self.decided:
            # What Q_C prunes already is not worth evaluating: the walk
            # the loop will make, uncounted (a window has made it).
            wanted = {
                binding: uses
                for binding, uses in wanted.items()
                if nljp._first_pruner(binding)[1] is None
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
        # The payload store and prune view the current execution runs
        # against; a library execution's stay after it, a shared store
        # is let go (release_memo).
        self.store: Optional[PayloadStore] = None  # unguarded: serialized by the plan-cache entry lock; one execution per operator instance at a time
        self.prune_view: Optional[PruneView] = None  # unguarded: serialized by the plan-cache entry lock
        # Governor degradation state, reset per execution: once the
        # cache-bytes budget cannot be met even with eviction, memo and
        # pruning lookups are disabled (correct but unassisted join).
        self._cache_evicting = False  # unguarded: serialized by the plan-cache entry lock
        self._cache_disabled = False  # unguarded: serialized by the plan-cache entry lock
        # The payload store the next execution reads and fills: the
        # serving layer's memo slot for what this Q_R computes, set
        # under the plan-cache entry lock and the slot's lock (see
        # repro.serve.plan_cache.MemoStore); ``None``, a fresh store
        # and view per execution.  Over a shared store the plan keeps
        # its view from one execution to the next.
        self.memo_store: Optional[PayloadStore] = None  # unguarded: serialized by the plan-cache entry lock
        # Over a shared store, the plan's views by Φ's parameter values,
        # the most recently used last: a plan serving a threshold sweep
        # keeps the decisions of the last few thresholds it ran.
        self._views: "OrderedDict[Tuple[Any, ...], PruneView]" = OrderedDict()  # unguarded: serialized by the plan-cache entry lock
        # What the shared store held when the last execution started:
        # its entry count and its last catch-up (see describe()).
        self._memo_seen: Optional[Tuple[int, Optional[str]]] = None  # unguarded: serialized by the plan-cache entry lock
        # The base tables the payloads read and, per table, why an
        # append to it cannot be folded into them ("" when it can);
        # set by memo_meaning, ``None`` for a plan that shares no store.
        self._watched: Optional[Tuple[str, ...]] = None  # unguarded: serialized by the plan-cache entry lock
        self._unfoldable: Dict[str, str] = {}  # unguarded: serialized by the plan-cache entry lock

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
        self._plan_view()
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
        # A scan-shaped Q_R is lowered once to a columnar kernel called
        # in place of the tree, a join-shaped one to a kernel run a
        # block of bindings ahead of the loop; the reason says why a
        # Q_R kept the operators (EXPLAIN shows which).
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
        # The statement parameters Φ reads: a view's decisions hold for
        # one set of their values.
        self.phi_params = ast.parameter_names(block.having)

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
    def _plan_view(self) -> None:
        """The prune view's layout: equality buckets on the attributes
        p⪰ equates, else an order index on the one it orders, and the
        bound a binding's value at that index sets
        (``_order_bound`` = ``(position, is_low_bound, strict)``)."""
        equality_positions = ()
        order_position = None
        self._order_bound = None
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
        self._view_layout = (equality_positions, self.cache_index, order_position)

    def new_store(self) -> PayloadStore:
        """An empty payload store under this plan's replacement policy."""
        return PayloadStore(
            max_entries=self.cache_max_entries, policy=self.cache_policy
        )

    def _open_memo(self, ctx: ops.ExecutionContext) -> None:
        """Set the store and view this execution runs against: a fresh
        pair, or :attr:`memo_store` -- caught up with the data
        (:meth:`catch_up`) -- through the plan's kept view, which
        decides the entries it has not seen with Φ under the
        execution's parameters."""
        store = self.memo_store
        equality_positions, use_index, order_position = self._view_layout
        if store is None:
            self.store, self.prune_view = fresh_memo(
                equality_positions,
                use_index,
                self.cache_max_entries,
                self.cache_policy,
                order_position,
            )
            return
        params = ctx.params
        phi_key = tuple(params.get(name) for name in self.phi_params)
        view = self._views.pop(phi_key, None)
        if view is None:
            view = PruneView(equality_positions, use_index, order_position)
        self._views[phi_key] = self.prune_view = view
        if len(self._views) > _MAX_VIEWS:
            self._views.popitem(last=False)
        if self._watched is not None:
            self.catch_up(ctx, store)
        self._memo_seen = store.attach(
            view, lambda payload: self._is_unpromising(payload, params), phi_key
        )
        self.store = store

    def release_memo(self) -> None:
        """Let go of the shared store the last execution ran against;
        the plan's view keeps its decisions and holds the store only
        weakly.  A store whose data moved while the execution ran may
        hold payloads of either version: it is cleared."""
        store = self.store
        if store is not None and self.memo_store is store and self._watched is not None:
            now = self._watermark()
            if store.watermark() != now:
                store.catch_up(now, note="written to during an execution")
        self.memo_store = self.store = None

    def memo_meaning(self, ctes: Sequence[ast.CommonTableExpr]) -> Tuple[Any, Tuple[str, ...]]:
        """What a payload of this plan means, and the statement
        parameters whose values it also depends on.

        The meaning is Q_R as rendered, the rendered body of every CTE
        it reads (directly, through another CTE or in a subquery), and
        the cache settings; ``ctes`` are the statement's, as rewritten.
        Two plans with one meaning, run with the same values of those
        parameters over the same data, store the same payload for a
        binding: the serving layer keys a shared store on it.  The
        walk also notes the base tables the payloads read, which a
        shared store is kept exact on (:meth:`catch_up`).
        """
        bodies = {cte.name.lower(): cte.query for cte in ctes}
        read: List[Any] = [self.qr_select]
        texts = [render(self.qr_select)]
        parameters = set()
        seen = set()
        tables: Counter = Counter()
        through_cte = set()
        while read:
            body = read.pop()
            for node in ast.walk(body):
                if isinstance(node, ast.Parameter):
                    parameters.add(node.name)
                elif isinstance(node, ast.NamedTable):
                    name = node.name.lower()
                    if name in bodies:
                        if name not in seen:
                            seen.add(name)
                            read.append(bodies[name])
                            texts.append(f"{name} AS ({render(bodies[name])})")
                    elif body is self.qr_select:
                        tables[name] += 1
                    else:
                        through_cte.add(name)
        self._watch(tables, through_cte)
        meaning = (
            tuple(texts),
            self.cache_index,
            self.cache_policy,
            self.cache_max_entries,
        )
        return meaning, tuple(sorted(parameters - set(self.param_names)))

    def _watch(self, tables: Counter, through_cte: set) -> None:
        """Note the tables the payloads read (``tables``: how often Q_R
        names each, ``through_cte``: read by a CTE body it reads) and
        why an append to each cannot be folded into them."""
        reason = ""
        if self.g_right:
            # A fresh evaluation's group order is its access path's.
            reason = "Q_R has 𝔾_R groups"
        for slot in self.slots:
            reason = reason or self._unmergeable(slot.call)
        top = Counter(
            item.name.lower()
            for item in self.qr_select.from_items
            if isinstance(item, ast.NamedTable)
        )
        unfoldable = {}
        for name in sorted(set(tables) | through_cte):
            if name in through_cte:
                unfoldable[name] = f"Q_R reads {name} through a CTE"
            elif tables[name] != 1 or top[name] != 1:
                unfoldable[name] = f"Q_R reads {name} other than once in its FROM"
            else:
                unfoldable[name] = reason
        self._unfoldable = unfoldable
        self._watched = tuple(unfoldable)

    def _unmergeable(self, call: ast.FuncCall) -> str:
        """Why two states of ``call`` over disjoint rows may not merge
        into its state over their union exactly ("" when they do)."""
        if not is_algebraic(call) or (self.direct_mode and call.name == "AVG"):
            return f"{render(call)} does not merge"
        if call.name == "COUNT":
            return ""
        argument = call.args[0]
        column_type = None
        if isinstance(argument, ast.ColumnRef) and argument.table in self.view.right_aliases:
            table = self.view.block.relation(argument.table).table_name
            if table is not None and self.env.db.has_table(table):
                schema = self.env.db.table(table).schema
                column_type = schema.column(argument.column).type
        if call.name in ("SUM", "AVG"):
            exact = column_type is SqlType.INTEGER
        else:
            exact = column_type is not None and column_type is not SqlType.FLOAT
        return "" if exact else f"{render(call)} does not merge exactly"

    def _watermark(self) -> Tuple[Tuple[Any, int, int], ...]:
        """``(table, data_version, row count)`` of every watched table
        as it stands; a dropped table reads ``(None, -1, -1)``."""
        db = self.env.db
        marks = []
        for name in self._watched:
            try:
                table = db.table(name)
            except CatalogError:
                marks.append((None, -1, -1))
            else:
                marks.append((table, table.data_version, len(table)))
        return tuple(marks)

    def catch_up(self, ctx: ops.ExecutionContext, store: PayloadStore) -> None:
        """Make the shared ``store`` exact on the data as it stands.

        The store's watermark says which version of each table its
        payloads were computed on.  When one table has changed since,
        by appends only (its data version rose by exactly its row-count
        growth, so a truncate never qualifies), every aggregate merges
        exactly and Q_R names it once, Q_R over the appended rows alone
        -- planned over them as a table of its own, evaluated for every
        binding the store holds as one block -- is merged into each
        payload (Appendix C's f^i states).  Any other change clears the
        store.  Either way all entries move together: a failure part
        way clears the store before it is raised.
        """
        now = self._watermark()
        then = store.watermark()
        if then == now:
            return
        if then is None:
            store.catch_up(now)
            return
        changed = [
            (name, old, new)
            for name, old, new in zip(self._watched, then, now)
            if old != new
        ]
        if len(changed) != 1 or len(then) != len(now):
            store.catch_up(now, note=f"{len(changed)} tables changed")
            return
        name, (table, old_version, old_rows), (live, version, rows) = changed[0]
        if live is not table:
            reason = f"{name} was replaced"
        elif rows <= old_rows or version - old_version != rows - old_rows:
            reason = f"{name} changed by more than appends"
        else:
            reason = self._unfoldable[name] or None
        if reason is not None:
            store.catch_up(now, note=reason)
            return
        appended = live.rows[old_rows:rows]
        if len(appended) != rows - old_rows:
            store.catch_up(now, note=f"{name} changed while being read")
            return
        entries = store.entries()
        try:
            if ctx.governor is not None:
                ctx.governor.check("inner-eval")
            kernel = self._delta_kernel(live, appended)
            evaluated = kernel.run_block(ctx, [entry.binding for entry in entries])
        except BlockDeclined as declined:
            store.catch_up(now, note=str(declined))
            return
        except BaseException as error:
            store.catch_up(now, note=f"{type(error).__name__} while catching up")
            raise
        # A binding no appended row joins keeps its payload.
        patched = [(entry, entry.payload) for entry in entries]
        for number, raw_rows in evaluated.items():
            entry = entries[number]
            patched[number] = (entry, self._merged(entry.payload, self._payload(raw_rows)))
        store.catch_up(
            now, patched,
            f"{len(evaluated)} patched from {len(appended)} appended rows of {name}",
        )

    def _delta_kernel(self, live: Table, appended) -> Any:
        """Q_R with ``live`` replaced by a table holding only its
        ``appended`` rows (no index: one scan carries the whole WHERE
        clause), as a block kernel."""
        delta = Table(live.name, live.schema)
        delta.insert_many(appended)
        plan, _ = plan_select(
            self.qr_select, PlanEnv(self.env.db.with_table(delta), self.env.config)
        )
        return lower_block(plan, self.param_names)

    def _merged(self, payload: PayloadRows, added: PayloadRows) -> PayloadRows:
        """``payload`` with the states of ``added`` (the same binding
        over other rows) merged in, group by group."""
        if not added:
            return payload
        groups = dict(payload)
        for group, states in added:
            have = groups.get(group)
            groups[group] = states if have is None else tuple(
                slot.combine(a, b) for slot, a, b in zip(self.slots, have, states)
            )
        return tuple(groups.items())

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
            # the loop; one it has not is the tree's.
            args = ()
            if kernel is not None and kernel.blockwise:
                ahead = kernel.take(ctx, binding)
                if ahead is None:
                    kernel = None
                else:
                    args = (ahead,)
            if kernel is None:
                # The reference tree, row at a time on either path: for
                # a plan run per binding over a handful of rows, column
                # batches would cost more than they save.
                raw_rows = list(self.qr_plan.execute(ctx))
            elif ctx.tracer is None:
                raw_rows = kernel.run(ctx, *args)
            else:
                raw_rows = ctx.tracer.run_kernel(self, kernel, ctx, *args)
        finally:
            for name in names:
                del params[name]
            if hidden:
                params.update(hidden)
        return self._payload(raw_rows)

    def _payload(self, raw_rows) -> PayloadRows:
        """Q_R's rows as a payload: one (group, states) per 𝔾_R group
        that some R-tuple joins."""
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

    def execute(self, ctx: ops.ExecutionContext) -> Iterator[Tuple[Any, ...]]:
        self.env.ctx_holder.setdefault("ctx", ctx)
        self._open_memo(ctx)
        store = self.store
        self._cache_evicting = False
        self._cache_disabled = False
        stats = ctx.stats
        # Counter baselines: a shared store accumulates across
        # executions, but each execution's stats must charge only its
        # own lookups/hits/evictions (footprint counters stay totals —
        # they describe the cache, not the work).  Baselines and final
        # readings are locked snapshots, like every read of the store.
        base_lookups, base_hits, base_evictions = store.counters()

        if self.direct_mode:
            yield from self._execute_direct(ctx)
        else:
            yield from self._execute_combining(ctx)

        end_lookups, end_hits, end_evictions = store.counters()
        stats.cache_rows += store.rows
        stats.cache_bytes += store.estimated_bytes()
        stats.cache_hits += end_hits - base_hits
        stats.cache_misses += (end_lookups - base_lookups) - (
            end_hits - base_hits
        )
        stats.cache_evictions += end_evictions - base_evictions

    def _lookup_or_compute(self, ctx: ops.ExecutionContext, binding):
        """The per-binding core of Listing 6 / Section 7's pseudocode.

        Returns the cache entry, or None when the binding was pruned.
        When the governor has disabled the cache under memory pressure
        (``_cache_disabled``), every lookup/insert is skipped and the
        binding is evaluated directly — correct, just unassisted.
        """
        use_cache = not self._cache_disabled
        tracer = ctx.tracer
        entry = self.store.get(binding) if (self.enable_memo and use_cache) else None
        if tracer is not None and self.enable_memo and use_cache:
            tracer.record_cache(self, "memo_get", hit=entry is not None)
        if entry is not None:
            return entry
        if self.pruning is not None and use_cache:
            checks, hit = self._first_pruner(binding)
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
            entry = self.store.put(binding, payload)
            self.prune_view.add(entry, unpromising)
            if tracer is not None:
                tracer.record_cache(self, "put")
            if governor is not None:
                self._enforce_cache_budget(governor, entry)
            return entry
        return CacheEntry(binding=binding, payload=payload)

    def _first_pruner(self, binding):
        """Q_C for ``binding`` against the view as it stands: ``(checks,
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
        return self.prune_view.first_pruner(
            binding, self.pruning.should_prune, low=low, high=high,
            low_strict=low_strict, high_strict=high_strict,
        )

    def _enforce_cache_budget(self, governor, entry) -> None:
        """Apply the ``max_cache_bytes`` ceiling after an insertion.

        ``degradation="fail"`` aborts with a typed error.  Under
        ``"fallback"`` the cache first evicts by its policy (never the
        just-inserted entry), and if the ceiling still cannot be met
        memo/pruning lookups are disabled for the rest of the execution
        — the join stays correct, it just loses its assist.  Both steps
        land in ``stats.degradations``.
        """
        store = self.store
        footprint = store.estimated_bytes()
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
        store.evict_until(governor.max_cache_bytes, keep=entry)
        if governor.cache_over_budget(store.estimated_bytes()):
            self._cache_disabled = True
            store.clear()
            governor.degrade(
                "nljp-cache",
                "eviction cannot satisfy max_cache_bytes; "
                "memo/pruning lookups disabled",
            )

    def _joined(
        self, ctx: ops.ExecutionContext
    ) -> Iterator[Tuple[Tuple[Any, ...], CacheEntry]]:
        """Q_B's rows in order, each with its binding's entry; pruned
        bindings are left out.

        Every binding that is evaluated, looked up or inserted goes
        through :meth:`_lookup_or_compute`, one at a time in Q_B's
        order: a binding can be pruned by any earlier one.  Where NumPy
        imports, :meth:`_skip_ahead` first drops, a window at a time,
        the bindings Q_C is already sure to prune.
        """
        governor = ctx.governor
        positions = self.binding_positions
        kernel = self.inner_kernel
        blocks = None
        if kernel is not None and kernel.blockwise:
            blocks = _Blocks(self, ctx)
            self.inner_ran = f"block kernel ({kernel.describe()})"

        def per_binding(rows):
            for qb_row in rows:
                if governor is not None:
                    governor.check()
                binding = tuple(qb_row[p] for p in positions)
                entry = self._lookup_or_compute(ctx, binding)
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
                entry = self._lookup_or_compute(ctx, bindings[at])
                if entry is not None:
                    yield qb_row, entry
                else:
                    blocks.pruned(bindings[at : at + 1])

        if blocks is not None:
            per_binding = per_binding_ahead

        if self._loop_reason is None:
            return chain.from_iterable(
                self._skip_ahead(ctx, batch, per_binding, blocks)
                for batch in self.qb_plan.execute_columnar(ctx)
            )
        self.loop_ran = f"per binding ({self._loop_reason})"
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
        self, ctx, batch: ColumnBatch, per_binding, blocks=None
    ):
        """One Q_B batch: decide Q_C for a window of upcoming bindings
        against the cache as it stands, charge the pruned ones what the
        walk would have charged them, and run the others one by one
        (``per_binding``; of a batch arrays cannot decide, all).

        A binding is skipped only on a decision nothing before it in
        Q_B's order can change: it is not in the memo (entries are only
        added for bindings that are *not* pruned, and a duplicate gets
        the same decision), and the candidates its walk meets are the
        view's as long as :meth:`PruneView.version` stands — an
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
        view = self.prune_view
        memo = self.store if self.enable_memo else None
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
                decided = view.prunable(bindings, window, test, self._order_bound, memo)
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
                        self._charge_pruned(ctx, k - done, charged[k] - charged[done])
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
                    entry = self._lookup_or_compute(ctx, bindings[k])
                    if entry is not None:
                        yield qb_row, entry
                    elif blocks is not None:
                        blocks.pruned((bindings[k],))
                    # Only an evaluation inserts, evicts or clears.
                    if stats.inner_evaluations != evaluations and view.version() != version:
                        break
            at += done
            skipped = stats.pruned_bindings - pruned_before

    def _charge_pruned(self, ctx, count: int, checks: int) -> None:
        """What :meth:`_lookup_or_compute` charges ``count`` bindings
        that miss the memo and are pruned after ``checks`` tests."""
        ctx.stats.prune_checks += checks
        ctx.stats.pruned_bindings += count
        tracer = ctx.tracer
        if self.enable_memo:
            self.store.missed(count)
            if tracer is not None:
                tracer.record_cache(self, "memo_get", count=count)
        if tracer is not None:
            tracer.record_cache(self, "prune_scan", hit=True, count=count)

    def _execute_direct(self, ctx: ops.ExecutionContext) -> Iterator[Tuple[Any, ...]]:
        """𝔾_L → 𝔸_L: each binding's groups are complete; stream output."""
        params = ctx.params
        unpromising = self.prune_view.holds
        for qb_row, entry in self._joined(ctx):
            if unpromising(entry):
                continue
            for group, states in entry.payload:
                finalized = self._finalized(group, states)
                if self.phi_fn(finalized, params) is not True:
                    continue
                combined = tuple(qb_row) + finalized
                yield tuple(fn(combined, params) for fn in self.output_fns)

    def _execute_combining(self, ctx: ops.ExecutionContext) -> Iterator[Tuple[Any, ...]]:
        """General case: combine algebraic partials per (𝔾_L, 𝔾_R) group."""
        params = ctx.params
        groups: Dict[Tuple, List[Any]] = {}
        representative: Dict[Tuple, Tuple[Any, ...]] = {}
        for qb_row, entry in self._joined(ctx):
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
        if self._memo_seen is not None:
            held, caught_up = self._memo_seen
            last = "" if caught_up is None else f"; {caught_up}"
            lines += [
                f"  memo: shared ({held} payload entries when the last "
                f"execution started{last})"
            ]
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
