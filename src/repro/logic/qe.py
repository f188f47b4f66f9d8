"""Quantifier elimination via the paper's UE/DE/EE procedure.

Section 5.2 derives the subsumption predicate ``p⪰(w, w')`` from the
join condition Θ as::

    p⪰ ≡ ∀ w_r : Θ(w', w_r) ⇒ Θ(w, w_r)

and eliminates the universally quantified ``w_r`` variables with three
steps: **UE** (``∀x θ`` → ``¬∃x ¬θ``), **DE** (distribute ∃ over ∨),
and **EE** (Fourier-Motzkin on a conjunction).  This module implements
exactly that pipeline over :mod:`repro.logic.formula` formulas, plus a
semantic simplifier used to keep derived predicates small.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.logic import fme
from repro.logic.formula import (
    FALSE,
    TRUE,
    Constraint,
    Formula,
    conj,
    disj,
    distinct_conjunctions,
    negate,
    to_dnf,
    to_nnf,
)


def eliminate_exists(formula: Formula, variables: Iterable[str]) -> Formula:
    """Compute a quantifier-free equivalent of ``∃ variables . formula``.

    DE: the formula is put in DNF so each disjunct is a conjunction;
    EE: FME eliminates the variables from each disjunct independently.
    """
    variables = set(variables)
    if not variables:
        return to_nnf(formula)
    disjuncts: List[List[Constraint]] = []
    for conjunction in to_dnf(formula):
        present = set()
        for constraint in conjunction:
            present |= constraint.term.variables()
        reduced = fme.eliminate_all(conjunction, sorted(present & variables))
        if reduced is None:
            continue  # this disjunct is unsatisfiable
        disjuncts.append(reduced)
    # Distinct disjuncts often reduce to the same conjunction once the
    # quantified variables are gone.
    return disj(conj(reduced) for reduced in distinct_conjunctions(disjuncts))


def eliminate_forall(formula: Formula, variables: Iterable[str]) -> Formula:
    """Compute a quantifier-free equivalent of ``∀ variables . formula``.

    UE: ``∀x θ ≡ ¬∃x ¬θ``; the inner existential is eliminated and the
    outer negation pushed back to the atoms.
    """
    inner = eliminate_exists(negate(to_nnf(formula)), variables)
    return to_nnf(negate(inner))


def forall_implies(
    premise: Formula, conclusion: Formula, variables: Iterable[str]
) -> Formula:
    """Quantifier-free form of ``∀ variables : premise ⇒ conclusion``.

    This is the exact shape of the paper's subsumption derivation with
    ``premise = Θ(w', w_r)`` and ``conclusion = Θ(w, w_r)``.
    """
    implication = disj((negate(to_nnf(premise)), to_nnf(conclusion)))
    return eliminate_forall(implication, variables)


def simplify(formula: Formula) -> Formula:
    """Semantic simplification via DNF minimization.

    * drops unsatisfiable disjuncts,
    * removes redundant constraints within each disjunct (entailment
      checked by FME),
    * drops disjuncts entailed by another disjunct,
    * recognizes TRUE/FALSE.

    The result is logically equivalent over ℝ.  Worst-case exponential
    like any DNF procedure, but the formulas arising from join
    conditions are small (the paper makes the same observation about
    FME practicality).
    """
    dnf = to_dnf(formula)
    cleaned: List[List[Constraint]] = []
    for conjunction in dnf:
        if not fme.is_satisfiable(conjunction):
            continue
        reduced = fme.remove_redundant(_merge_equalities(conjunction))
        if not reduced:
            return TRUE
        cleaned.append(reduced)
    if not cleaned:
        return FALSE
    if len(cleaned) > 1:
        # Tautology check: the disjunction is TRUE iff its complement is
        # unsatisfiable (e.g. ``x <= y ∨ y < x``).  The complement's DNF
        # has ~∏|D_i| conjunctions, so only attempt it when that stays
        # small; skipping the check is safe (the result is merely less
        # simplified).
        complement_size = 1
        for conjunction in cleaned:
            complement_size *= max(1, len(conjunction))
            if complement_size > 256:
                break
        if complement_size <= 256:
            complement = to_dnf(negate(disj(conj(c) for c in cleaned)))
            if all(
                not fme.is_satisfiable(conjunction) for conjunction in complement
            ):
                return TRUE

    # Drop disjuncts entailed by another disjunct: D entails E when
    # every constraint of E is implied by D.
    def entails(stronger: List[Constraint], weaker: List[Constraint]) -> bool:
        return all(fme.implies(stronger, constraint) for constraint in weaker)

    kept: List[List[Constraint]] = []
    for candidate in cleaned:
        if any(entails(candidate, other) for other in kept):
            continue  # absorbed by an already-kept (weaker or equal) disjunct
        kept = [other for other in kept if not entails(other, candidate)]
        kept.append(candidate)
    return disj(conj(c) for c in kept)


def _merge_equalities(conjunction: List[Constraint]) -> List[Constraint]:
    """Fold complementary pairs ``t<=0 ∧ -t<=0`` into ``t=0``.

    Quantifier elimination splits equalities into inequality pairs (the
    negation of a strict atom is non-strict); merging them back keeps
    derived predicates readable and lets equality atoms be evaluated
    over non-numeric (e.g. text) join attributes.
    """
    result: List[Constraint] = []
    consumed = [False] * len(conjunction)
    for i, constraint in enumerate(conjunction):
        if consumed[i]:
            continue
        if constraint.op == "<=":
            negated_term = constraint.term.scale(-1)
            for j in range(i + 1, len(conjunction)):
                other = conjunction[j]
                if not consumed[j] and other.op == "<=" and other.term == negated_term:
                    consumed[i] = consumed[j] = True
                    # Canonical orientation: smallest variable positive.
                    term = constraint.term
                    if term.coefficients:
                        first = sorted(term.coefficients)[0]
                        if term.coefficients[first] < 0:
                            term = negated_term
                    result.append(Constraint(term, "="))
                    break
        if not consumed[i]:
            result.append(constraint)
    return result


def equivalent(a: Formula, b: Formula, variables: Iterable[str] | None = None) -> bool:
    """Decide logical equivalence over ℝ (via two entailment checks)."""
    return entails_formula(a, b) and entails_formula(b, a)


def entails_formula(a: Formula, b: Formula) -> bool:
    """Decide ``a ⇒ b`` over ℝ: every DNF disjunct of a entails b.

    ``a ∧ ¬b`` must be unsatisfiable; expanded through DNF so each
    piece is a conjunction suitable for FME.
    """
    counterexample = conj((to_nnf(a), negate(to_nnf(b))))
    for conjunction in to_dnf(counterexample):
        if fme.is_satisfiable(conjunction):
            return False
    return True
