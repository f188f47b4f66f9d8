"""Plan verification: conjunct accounting, schema chaining, soundness.

The verifier walks a :class:`~repro.engine.planner.PlannedQuery` and
proves three families of obligations:

1. **Conjunct accounting** — every logical conjunct of every query
   block (recorded by the planner on the block root as
   ``block_conjuncts``) is enforced by *exactly one* operator.  An
   operator enforces a conjunct either through a compiled filter
   (recovered from the closure's ``_expr`` tag on its ``predicate`` /
   ``residual`` / ``inner_filter`` slot) or through its access method
   (index probe keys, range bounds, hash keys — recorded by the
   planner as the ``enforced`` annotation).  A conjunct enforced by no
   operator is a dropped predicate — the class of bug PR 3 fixed — and
   a conjunct enforced twice is redundant work that masks planner
   confusion; both are hard errors under ``analyze="strict"``.

2. **Schema chaining** — each operator's output layout is consistent
   with its inputs (joins concatenate, filters pass through, projects
   and aggregates match their expression lists).

3. **NLJP subsumption soundness** — the FM-derived pruning predicate
   p⪰ satisfies its contract ``p⪰(w, w') ⇒ ∀r: Θ(w', r) ⇒ Θ(w, r)``
   via randomized counterexample search against the original join
   condition Θ (Section 5.2 / Appendix B).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.subsumption import (
    SubsumptionPredicate,
    derive_subsumption,
    subsumption_problem,
)
from repro.engine import operators as ops
from repro.errors import PlanVerificationError
from repro.logic import formula as fm
from repro.sql import ast
from repro.sql.render import render

#: Compiled-closure slots whose ``_expr`` tag names enforced conjuncts.
#: (Key/bound slots like ``probe_key``/``low``/``high`` compute values,
#: not predicates, so they are deliberately absent.)
_PREDICATE_SLOTS = ("predicate", "residual", "inner_filter")


# ---------------------------------------------------------------------------
# Plan walks
# ---------------------------------------------------------------------------


def iter_plan_operators(root: ops.PhysicalOperator) -> Iterator[ops.PhysicalOperator]:
    """Every operator reachable from ``root``.

    Crosses into materialized-cell sub-plans (CTEs/derived tables,
    deduplicated by cell identity) and NLJP binding/inner sub-plans.
    """
    seen_cells = set()
    stack = [root]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(op.children())
        cell = getattr(op, "cell", None)
        plan = getattr(cell, "plan", None)
        if plan is not None and id(cell) not in seen_cells:
            seen_cells.add(id(cell))
            stack.append(plan)
        for attribute in ("qb_plan", "qr_plan"):
            sub = getattr(op, attribute, None)
            if isinstance(sub, ops.PhysicalOperator):
                stack.append(sub)


def _block_operators(
    block_root: ops.PhysicalOperator,
) -> List[ops.PhysicalOperator]:
    """Operators belonging to one query block.

    ``children()`` never crosses a materialization boundary (cells and
    NLJP sub-plans are not child operators), so a plain walk stays in
    the block.
    """
    found: List[ops.PhysicalOperator] = []
    stack = [block_root]
    while stack:
        op = stack.pop()
        found.append(op)
        stack.extend(op.children())
    return found


def _enforced_keys(op: ops.PhysicalOperator) -> List[str]:
    """Render-keys of every conjunct this operator enforces."""
    exprs: List[ast.Expr] = list(getattr(op, "enforced", ()) or ())
    for slot in _PREDICATE_SLOTS:
        fn = getattr(op, slot, None)
        expr = getattr(fn, "_expr", None) if fn is not None else None
        if expr is not None:
            exprs.extend(ast.conjuncts(expr))
    return [render(expr) for expr in exprs]


# ---------------------------------------------------------------------------
# Obligations
# ---------------------------------------------------------------------------


def _check_block(block_root: ops.PhysicalOperator) -> List[str]:
    """Conjunct accounting for one plan_select block."""
    violations: List[str] = []
    required: Dict[str, ast.Expr] = {}
    for conjunct in getattr(block_root, "block_conjuncts", ()):
        required.setdefault(render(conjunct), conjunct)
    block_ops = _block_operators(block_root)
    if required:
        counts = {key: 0 for key in required}
        for op in block_ops:
            for key in set(_enforced_keys(op)):
                if key in counts:
                    counts[key] += 1
        for key, count in counts.items():
            if count == 0:
                violations.append(
                    f"conjunct {key} is enforced by no operator "
                    "(dropped predicate)"
                )
            elif count > 1:
                violations.append(
                    f"conjunct {key} is enforced by {count} operators"
                )
    having = getattr(block_root, "block_having", None)
    if having is not None:
        enforcers = sum(
            1 for op in block_ops if getattr(op, "enforces_having", False)
        )
        if enforcers != 1:
            violations.append(
                f"HAVING {render(having)} is enforced by {enforcers} "
                "operators (expected exactly 1)"
            )
    return violations


def _slots(op: ops.PhysicalOperator) -> Tuple[Tuple[Optional[str], str], ...]:
    return tuple(op.layout.slots)


def _table_slots(op: Any) -> Tuple[Tuple[Optional[str], str], ...]:
    return tuple((op.alias, name) for name in op.table.schema.column_names)


def _check_schema(op: ops.PhysicalOperator) -> List[str]:
    """Layout-chaining invariants for one operator."""
    name = type(op).__name__
    slots = _slots(op)
    if isinstance(op, (ops.Filter, ops.Distinct, ops.Sort, ops.Limit, ops.CountOutput)):
        child = op.children()[0]
        if _slots(child) != slots:
            return [f"{name} output layout differs from its input layout"]
        return []
    if isinstance(op, (ops.NestedLoopJoin, ops.HashJoin)):
        if _slots(op.outer) + _slots(op.inner) != slots:
            return [f"{name} layout is not outer ++ inner"]
        return []
    if isinstance(op, (ops.IndexNestedLoopJoin, ops.SortedIndexRangeJoin)):
        if _slots(op.outer) + _table_slots(op) != slots:
            return [f"{name} layout is not outer ++ {op.table.name} columns"]
        return []
    if isinstance(op, (ops.TableScan, ops.IndexPointScan, ops.IndexRangeScan)):
        if _table_slots(op) != slots:
            return [f"{name} layout does not match {op.table.name}'s schema"]
        return []
    if isinstance(op, ops.Project):
        if len(op.output_fns) != len(slots):
            return [
                f"Project computes {len(op.output_fns)} expressions but "
                f"its layout has {len(slots)} columns"
            ]
        return []
    if isinstance(op, ops.HashAggregate):
        expected = len(op.key_fns) + len(op.aggregate_specs)
        if expected != len(slots):
            return [
                f"HashAggregate produces {expected} columns but its "
                f"layout has {len(slots)}"
            ]
        return []
    cell = getattr(op, "cell", None)
    plan = getattr(cell, "plan", None)
    if plan is not None and len(plan.layout.slots) != len(slots):
        return [
            f"{name} exposes {len(slots)} columns but its materialized "
            f"sub-plan produces {len(plan.layout.slots)}"
        ]
    return []


def _check_nljp(op: Any, trials: int, seed: int) -> List[str]:
    """NLJP-specific obligations: width chaining + pruning soundness."""
    violations: List[str] = []
    output_fns = getattr(op, "output_fns", None)
    if output_fns is not None and len(output_fns) != len(op.layout.slots):
        violations.append(
            f"NLJP computes {len(output_fns)} outputs but its layout "
            f"has {len(op.layout.slots)} columns"
        )
    pruning = getattr(op, "pruning", None)
    predicate = getattr(pruning, "predicate", None)
    if predicate is not None:
        view = op.view
        counterexample = check_subsumption_soundness(
            list(view.theta),
            sorted(view.j_left),
            sorted(view.j_right),
            predicate=predicate,
            trials=trials,
            seed=seed,
        )
        if counterexample is not None:
            violations.append(
                "NLJP subsumption predicate is unsound: "
                f"counterexample {counterexample}"
            )
    return violations


# ---------------------------------------------------------------------------
# Randomized subsumption soundness (Section 5.2 / Appendix B)
# ---------------------------------------------------------------------------


def check_subsumption_soundness(
    theta: Sequence[ast.Expr],
    j_left: Sequence[str],
    j_right: Sequence[str],
    predicate: Optional[SubsumptionPredicate] = None,
    trials: int = 1000,
    seed: int = 2017,
) -> Optional[Dict[str, Any]]:
    """Randomized counterexample search for p⪰'s contract.

    Samples bindings ``w`` (new), ``w'`` (cached) over the J_L
    attributes and an R-tuple ``r`` over the J_R attributes; a
    counterexample is a triple with ``p⪰(w, w')`` and ``Θ(w', r)`` but
    not ``Θ(w, r)`` — i.e. the cached binding joins ``r`` while the
    allegedly-subsuming new binding does not.  Returns ``None`` when
    every seeded trial passes, else a dict describing the triple.

    Variables come from :func:`subsumption_problem`, as they do for
    :func:`derive_subsumption`, so the predicate under test can be
    either freshly derived or the one the optimizer actually installed.
    """
    if predicate is None:
        predicate = derive_subsumption(theta, j_left, j_right)
    attributes, (theta_cached, theta_new, universal) = subsumption_problem(
        theta, j_left, j_right
    )

    rng = random.Random(seed)

    def draw() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2)))

    for trial in range(trials):
        w_prime = [draw() for _ in attributes]
        # Bias toward shared coordinates: equality constraints in Θ
        # would otherwise almost never fire on independent draws.
        w = [
            w_prime[i] if rng.random() < 0.5 else draw()
            for i in range(len(attributes))
        ]
        assignment_r = {variable: draw() for variable in universal}
        if not predicate.holds(w, w_prime):
            continue
        cached_assignment = dict(assignment_r)
        for i, value in enumerate(w_prime):
            cached_assignment[f"v{i}"] = value
        if not fm.evaluate(theta_cached, cached_assignment):
            continue
        new_assignment = dict(assignment_r)
        for i, value in enumerate(w):
            new_assignment[f"w{i}"] = value
        if not fm.evaluate(theta_new, new_assignment):
            return {
                "trial": trial,
                "attributes": attributes,
                "w": [str(value) for value in w],
                "w_prime": [str(value) for value in w_prime],
                "r": {k: str(v) for k, v in assignment_r.items()},
            }
    return None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def verify_planned(
    planned: Any, trials: int = 64, seed: int = 2017
) -> List[str]:
    """All verification violations for a planned query (empty = sound).

    ``planned`` is a :class:`~repro.engine.planner.PlannedQuery`
    (accessed structurally to avoid an import cycle with the planner).
    """
    violations: List[str] = []
    for op in iter_plan_operators(planned.root):
        violations.extend(_check_schema(op))
        if hasattr(op, "block_conjuncts") or hasattr(op, "block_having"):
            violations.extend(_check_block(op))
        if hasattr(op, "qb_plan") and hasattr(op, "view"):
            violations.extend(_check_nljp(op, trials=trials, seed=seed))
    return violations


def verify_or_raise(planned: Any, trials: int = 64, seed: int = 2017) -> None:
    """Raise :class:`PlanVerificationError` if the plan fails any check."""
    violations = verify_planned(planned, trials=trials, seed=seed)
    if violations:
        raise PlanVerificationError(
            "plan verification failed: " + "; ".join(violations),
            violations=violations,
        )
