"""Fourier-Motzkin elimination over conjunctions of linear constraints.

This is the EE step of the paper's Section 5.2 procedure: given a
conjunction of linear constraints and a variable ``x``, produce an
equivalent (over the reals) conjunction not mentioning ``x``.

The three cases from the paper:

(i)   ``x`` appears in an equality — solve and substitute;
(ii)  ``x`` has lower bounds ``l_i`` and upper bounds ``u_j`` — replace
      with all cross constraints ``l_i (<|<=) u_j`` (strict if either
      side is strict);
(iii) ``x`` is bounded on at most one side — drop all its constraints.

``is_satisfiable`` eliminates every variable and checks the resulting
constant constraints; over ℚ/ℝ, FME is a decision procedure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import QuantifierEliminationError
from repro.logic.formula import Constraint, Or
from repro.logic.terms import LinearTerm

Conjunction = List[Constraint]


def eliminate_variable(constraints: Sequence[Constraint], variable: str) -> Optional[Conjunction]:
    """Eliminate ``variable`` from a conjunction.

    Returns the reduced conjunction, or ``None`` if the conjunction is
    detected to be unsatisfiable along the way (a constant constraint
    evaluating to false).
    """
    mentioning = [c for c in constraints if variable in c.term.coefficients]
    rest = [c for c in constraints if variable not in c.term.coefficients]

    # Case (i): equality — solve for the variable and substitute.
    for constraint in mentioning:
        if constraint.op == "=":
            coefficient = constraint.term.coefficient(variable)
            # term = coeff*x + rest_term = 0  =>  x = -rest_term/coeff
            solution = constraint.term.drop(variable).scale(
                Fraction(-1) / coefficient
            )
            reduced: Conjunction = list(rest)
            for other in mentioning:
                if other is constraint:
                    continue
                substituted = Constraint(
                    other.term.substitute(variable, solution), other.op
                )
                reduced.append(substituted)
            return _fold_constants(reduced)

    # Cases (ii)/(iii): collect lower/upper bounds.
    # A constraint c*x + t OP 0 with c > 0 gives x OP -t/c (upper bound);
    # with c < 0 it gives x inverse-OP -t/c (lower bound).
    lower: List[Tuple[LinearTerm, bool]] = []  # (bound, strict)
    upper: List[Tuple[LinearTerm, bool]] = []
    for constraint in mentioning:
        coefficient = constraint.term.coefficient(variable)
        bound = constraint.term.drop(variable).scale(Fraction(-1) / coefficient)
        strict = constraint.op == "<"
        if coefficient > 0:
            upper.append((bound, strict))
        else:
            lower.append((bound, strict))

    reduced = list(rest)
    if lower and upper:
        for low_bound, low_strict in lower:
            for high_bound, high_strict in upper:
                op = "<" if (low_strict or high_strict) else "<="
                reduced.append(Constraint(low_bound - high_bound, op))
    # If bounded on one side only (case iii), the bounds are droppable.
    return _fold_constants(reduced)


def _fold_constants(constraints: Iterable[Constraint]) -> Optional[Conjunction]:
    """Drop trivially-true constraints; None if any is trivially false."""
    result: Conjunction = []
    seen = set()
    for constraint in constraints:
        truth = constraint.truth()
        if truth is False:
            return None
        if truth is True:
            continue
        if constraint not in seen:
            seen.add(constraint)
            result.append(constraint)
    return result


def eliminate_all(
    constraints: Sequence[Constraint], variables: Iterable[str]
) -> Optional[Conjunction]:
    """Eliminate every variable in ``variables`` (any order is valid)."""
    current: Optional[Conjunction] = _fold_constants(constraints)
    for variable in variables:
        if current is None:
            return None
        current = eliminate_variable(current, variable)
    return current


def is_satisfiable(constraints: Sequence[Constraint]) -> bool:
    """Decide satisfiability over the reals by full elimination."""
    current = _fold_constants(constraints)
    if current is None:
        return False
    while current:
        remaining_variables = set()
        for constraint in current:
            remaining_variables |= constraint.term.variables()
        if not remaining_variables:
            break
        variable = min(remaining_variables)
        current = eliminate_variable(current, variable)
        if current is None:
            return False
    return True


def implies(premise: Sequence[Constraint], conclusion: Constraint) -> bool:
    """Does the conjunction ``premise`` entail ``conclusion`` (over ℝ)?

    Checked as unsatisfiability of ``premise ∧ ¬conclusion``; the
    negation of an atom may be a disjunction (for equalities), in which
    case both branches must be unsatisfiable.
    """
    negated = conclusion.negate()
    if isinstance(negated, Constraint):
        branches = [negated]
    elif isinstance(negated, Or):
        branches = list(negated.children)  # type: ignore[arg-type]
    else:  # pragma: no cover - negate() of an atom is atom or Or
        raise QuantifierEliminationError(f"unexpected negation {negated!r}")
    return all(
        not is_satisfiable(list(premise) + [branch]) for branch in branches
    )


def remove_redundant(constraints: Sequence[Constraint]) -> Conjunction:
    """Remove constraints implied by the rest of the conjunction.

    One pass: after dropping the constraint at ``index`` the scan goes
    on from the same position.  The constraints before it were each
    found *not* implied by a larger set of premises, and entailment
    from fewer premises cannot newly succeed, so checking them again
    could only repeat the failures.
    """
    kept = list(constraints)
    index = 0
    while index < len(kept):
        others = kept[:index] + kept[index + 1 :]
        if implies(others, kept[index]):
            kept = others
        else:
            index += 1
    return kept
