"""Memoization applicability (Section 6, Appendix C).

NLJP memoization caches inner-query results keyed by the driver's join
attribute values.  It applies when:

* Φ is applicable to R,
* every aggregate in Λ takes only R attributes (or ``*``), and
* every aggregate in Φ and Λ is *algebraic* — unless ``𝔾_L → 𝔸_L``,
  in which case each LR-group comes from a single cached payload and no
  partial-state combining is needed.

Section 6 states the conditions with ``𝔾_R = ∅``; Appendix C relaxes
this by keying the cache on ``𝕁_L ∪ 𝔾_R``, which is what our payload
layout implements (one payload row per 𝔾_R group).  The check also
reports memoization as *non-beneficial* when ``𝕁_L → 𝔸_L`` (all
bindings distinct — every lookup would miss), mirroring the paper's
cost heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sql import ast
from repro.engine.aggregates import is_algebraic
from repro.core.iceberg import PartitionView


@dataclass
class MemoizationDecision:
    applicable: bool
    beneficial: bool
    reason: str

    def __bool__(self) -> bool:
        return self.applicable and self.beneficial


def collect_aggregates(view: PartitionView) -> List[ast.FuncCall]:
    """Deduplicated aggregate calls across Φ and Λ."""
    block = view.block
    calls: List[ast.FuncCall] = []
    sources = [item.expr for item in block.items]
    if block.having is not None:
        sources.append(block.having)
    for source in sources:
        if isinstance(source, ast.Star):
            continue
        for call in ast.aggregate_calls(source):
            if call not in calls:
                calls.append(call)
    return calls


def check_memoization(
    view: PartitionView, outer_left: bool = True, cross_query: bool = False
) -> MemoizationDecision:
    """Section 6 conditions for memoizing the inner side of ``view``.

    ``cross_query=True`` evaluates benefit for a memo that *survives*
    one execution (the serving layer's memo slots): the "every binding
    distinct, the cache would never hit" demotion is skipped, because
    repeats arrive from later executions — of the same statement, or
    of any statement whose Q_R means the same, a threshold sweep —
    rather than from within one.  Safety conditions are unchanged.
    A payload depends only on Q_R, the CTEs it reads, the values of
    the parameters those read, and the data, so that is what a slot is
    keyed on (:class:`repro.serve.plan_cache.MemoStore`).  The store
    keeps itself exact on the tables those read: rows appended to the
    one table Q_R reads are folded into every payload when every state
    merges exactly, any other write empties it
    (:meth:`repro.core.nljp.NLJPOperator.catch_up`).  Which payloads
    are unpromising depends on Φ, so each plan decides
    that itself (:class:`repro.core.cache.PruneView`), and a parameter
    only Φ or Q_B reads never empties the memo.
    """
    block = view.block
    if block.having is None:
        return MemoizationDecision(False, False, "no HAVING condition")
    if not view.phi_applicable_to(not outer_left):
        return MemoizationDecision(
            False, False, "HAVING is not applicable to the inner relation"
        )
    if not view.lambda_aggregates_applicable_to(not outer_left):
        return MemoizationDecision(
            False,
            False,
            "SELECT aggregates reference attributes outside the inner relation",
        )

    fds_outer = view.fds(outer_left)
    outer_attributes = view.attributes(outer_left)
    g_outer = view.g_left if outer_left else view.g_right
    superkey = fds_outer.is_superkey(g_outer, outer_attributes)
    if not superkey:
        bad = [
            call.name
            for call in collect_aggregates(view)
            if not is_algebraic(call)
        ]
        if bad:
            return MemoizationDecision(
                False,
                False,
                "without G_L → A_L all aggregates must be algebraic; "
                f"non-algebraic: {bad}",
            )

    j_outer = view.j_left if outer_left else view.j_right
    if fds_outer.determines(j_outer, outer_attributes):
        if cross_query:
            return MemoizationDecision(
                True,
                True,
                "J_L → A_L (distinct bindings) but the cache is shared "
                "across executions: repeats arrive from later runs of "
                "the same prepared statement",
            )
        return MemoizationDecision(
            True,
            False,
            "safe but not beneficial: J_L → A_L means every binding is "
            "distinct, so the cache would never hit",
        )
    return MemoizationDecision(True, True, "memoization conditions hold")
