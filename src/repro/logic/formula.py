"""Quantifier-free formulas over linear constraints.

The representation is deliberately small: atomic constraints of the
form ``term OP 0`` (``OP`` in ``< <= =``), boolean constants, and
And/Or/Not combinations, plus helpers for negation-normal form and
disjunctive normal form.  Quantifiers never appear explicitly — the QE
procedure (:mod:`repro.logic.qe`) manipulates variable sets directly,
mirroring how the paper applies the UE/DE/EE steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Mapping, Tuple, Union

from repro.errors import QuantifierEliminationError
from repro.logic.terms import LinearTerm, Number

#: Comparison operators of atomic constraints, all normalized to "term OP 0".
OPS = ("<", "<=", "=")


@dataclass(frozen=True)
class Constraint:
    """An atomic linear constraint ``term op 0``."""

    term: LinearTerm
    op: str  # '<', '<=', or '='

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise QuantifierEliminationError(f"bad constraint operator {self.op!r}")

    def negate(self) -> "Formula":
        """¬(t<0) = -t<=0; ¬(t<=0) = -t<0; ¬(t=0) = t<0 ∨ -t<0."""
        if self.op == "<":
            return Constraint(self.term.scale(-1), "<=")
        if self.op == "<=":
            return Constraint(self.term.scale(-1), "<")
        return Or(
            (
                Constraint(self.term, "<"),
                Constraint(self.term.scale(-1), "<"),
            )
        )

    def variables(self) -> FrozenSet[str]:
        return self.term.variables()

    def truth(self) -> Union[bool, None]:
        """Constant truth value, or None if the constraint has variables."""
        if not self.term.is_constant:
            return None
        value = self.term.constant
        if self.op == "<":
            return value < 0
        if self.op == "<=":
            return value <= 0
        return value == 0

    def evaluate(self, assignment: Mapping[str, Number]) -> bool:
        value = self.term.evaluate(assignment)
        if self.op == "<":
            return value < 0
        if self.op == "<=":
            return value <= 0
        return value == 0

    def __repr__(self) -> str:
        return f"({self.term!r} {self.op} 0)"


@dataclass(frozen=True)
class BoolConst:
    value: bool

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class And:
    children: Tuple["Formula", ...]

    def variables(self) -> FrozenSet[str]:
        return frozenset().union(*(c.variables() for c in self.children)) if self.children else frozenset()

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(map(repr, self.children)) + ")"


@dataclass(frozen=True)
class Or:
    children: Tuple["Formula", ...]

    def variables(self) -> FrozenSet[str]:
        return frozenset().union(*(c.variables() for c in self.children)) if self.children else frozenset()

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(map(repr, self.children)) + ")"


@dataclass(frozen=True)
class Not:
    child: "Formula"

    def variables(self) -> FrozenSet[str]:
        return self.child.variables()

    def __repr__(self) -> str:
        return f"¬{self.child!r}"


Formula = Union[Constraint, BoolConst, And, Or, Not]


def conj(children: Iterable[Formula]) -> Formula:
    """Flattening conjunction constructor with constant folding."""
    flat: List[Formula] = []
    for child in children:
        if isinstance(child, BoolConst):
            if not child.value:
                return FALSE
            continue
        if isinstance(child, And):
            flat.extend(child.children)
        else:
            flat.append(child)
    deduped = tuple(dict.fromkeys(flat))
    if not deduped:
        return TRUE
    if len(deduped) == 1:
        return deduped[0]
    return And(deduped)


def disj(children: Iterable[Formula]) -> Formula:
    """Flattening disjunction constructor with constant folding."""
    flat: List[Formula] = []
    for child in children:
        if isinstance(child, BoolConst):
            if child.value:
                return TRUE
            continue
        if isinstance(child, Or):
            flat.extend(child.children)
        else:
            flat.append(child)
    deduped = tuple(dict.fromkeys(flat))
    if not deduped:
        return FALSE
    if len(deduped) == 1:
        return deduped[0]
    return Or(deduped)


def negate(formula: Formula) -> Formula:
    """Negation pushed to atoms (negation-normal form on the fly)."""
    if isinstance(formula, BoolConst):
        return BoolConst(not formula.value)
    if isinstance(formula, Constraint):
        return formula.negate()
    if isinstance(formula, Not):
        return formula.child
    if isinstance(formula, And):
        return disj(negate(child) for child in formula.children)
    if isinstance(formula, Or):
        return conj(negate(child) for child in formula.children)
    raise QuantifierEliminationError(f"cannot negate {formula!r}")


def to_nnf(formula: Formula) -> Formula:
    """Negation-normal form: Not nodes eliminated."""
    if isinstance(formula, Not):
        return negate(to_nnf(formula.child))
    if isinstance(formula, And):
        return conj(to_nnf(child) for child in formula.children)
    if isinstance(formula, Or):
        return disj(to_nnf(child) for child in formula.children)
    return formula


def distinct_conjunctions(
    conjunctions: Iterable[List[Constraint]],
) -> List[List[Constraint]]:
    """The first occurrence of each conjunction, compared as a set of atoms."""
    seen = set()
    distinct: List[List[Constraint]] = []
    for conjunction in conjunctions:
        key = frozenset(conjunction)
        if key not in seen:
            seen.add(key)
            distinct.append(conjunction)
    return distinct


def to_dnf(formula: Formula) -> List[List[Constraint]]:
    """Disjunctive normal form as a list of constraint conjunctions.

    An empty list means FALSE; a list containing an empty conjunction
    means TRUE.  Input is converted to NNF first.  This realizes the
    paper's DE step (disjunction elimination): each disjunct is later
    processed by FME independently.

    Every And-product step keeps each atom once per conjunction and
    each conjunction once per product.  Negating the k-way strict
    disjunction of a dominance condition yields k factors that mostly
    repeat one another's atoms, so the plain product of the pairs
    condition has 625 disjuncts of which 16 are distinct — and every
    one of them is a Fourier-Motzkin problem downstream.
    """
    formula = to_nnf(formula)

    def recurse(node: Formula) -> List[List[Constraint]]:
        if isinstance(node, BoolConst):
            return [[]] if node.value else []
        if isinstance(node, Constraint):
            truth = node.truth()
            if truth is True:
                return [[]]
            if truth is False:
                return []
            return [[node]]
        if isinstance(node, Or):
            result: List[List[Constraint]] = []
            for child in node.children:
                result.extend(recurse(child))
            return result
        if isinstance(node, And):
            product: List[List[Constraint]] = [[]]
            for child in node.children:
                child_dnf = recurse(child)
                if not child_dnf:
                    return []
                product = distinct_conjunctions(
                    list(dict.fromkeys(existing + extra))
                    for existing in product
                    for extra in child_dnf
                )
            return product
        raise QuantifierEliminationError(f"unexpected node in NNF: {node!r}")

    return recurse(formula)


def evaluate(formula: Formula, assignment: Mapping[str, Number]) -> bool:
    """Evaluate a formula under a full variable assignment."""
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, Constraint):
        return formula.evaluate(assignment)
    if isinstance(formula, Not):
        return not evaluate(formula.child, assignment)
    if isinstance(formula, And):
        return all(evaluate(child, assignment) for child in formula.children)
    if isinstance(formula, Or):
        return any(evaluate(child, assignment) for child in formula.children)
    raise QuantifierEliminationError(f"cannot evaluate {formula!r}")


# -- comparison constructors -------------------------------------------------


def lt(left: LinearTerm, right: LinearTerm) -> Constraint:
    return Constraint(left - right, "<")


def le(left: LinearTerm, right: LinearTerm) -> Constraint:
    return Constraint(left - right, "<=")


def gt(left: LinearTerm, right: LinearTerm) -> Constraint:
    return lt(right, left)


def ge(left: LinearTerm, right: LinearTerm) -> Constraint:
    return le(right, left)


def eq(left: LinearTerm, right: LinearTerm) -> Constraint:
    return Constraint(left - right, "=")


def ne(left: LinearTerm, right: LinearTerm) -> Formula:
    return Or((lt(left, right), lt(right, left)))
