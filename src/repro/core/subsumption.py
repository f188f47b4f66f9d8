"""Automatic subsumption-test generation (Section 5.2, Appendix B).

Given the join condition Θ of a partition view, derive the
instance-oblivious predicate::

    p⪰(w, w')  ⇔  ∀ w_r : Θ(w', w_r) ⇒ Θ(w, w_r)

i.e. "every R-tuple joining the cached binding w' also joins the new
binding w" — so if w' was unpromising under an anti-monotone Φ, w is
too (and symmetrically with ⪯ for monotone Φ; callers simply swap the
arguments).

The derivation is the paper's UE/DE/EE pipeline over linear
constraints (:mod:`repro.logic.qe`).  The result is packaged as a
:class:`SubsumptionPredicate` with three faces:

* ``holds(w, w_prime)`` — a Python evaluator used by the NLJP cache,
* ``to_sql(...)`` — an AST predicate for the generated pruning query
  Q_C (Listings 7 and 10),
* ``equality_attributes`` — the J_L attributes that p⪰ constrains by
  equality, which the cache can hash-index (the "CI" index of Fig. 4).

Text-valued join attributes are supported as long as Θ uses them only
in equalities: FME treats them as opaque reals, equality substitution
is domain-agnostic, and the evaluator compares their values directly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import QuantifierEliminationError
from repro.sql import ast
from repro.logic import formula as fm
from repro.logic.qe import forall_implies, simplify
from repro.logic.terms import LinearTerm


# ---------------------------------------------------------------------------
# AST expression -> Formula translation
# ---------------------------------------------------------------------------

_COMPARISON_BUILDERS = {
    "<": fm.lt,
    "<=": fm.le,
    ">": fm.gt,
    ">=": fm.ge,
    "=": fm.eq,
}


def expr_to_formula(
    expr: ast.Expr, variable_of: Mapping[str, str]
) -> fm.Formula:
    """Translate a boolean join-condition expression to a formula.

    ``variable_of`` maps qualified attribute names (``alias.column``)
    to logic variable names.  Raises
    :class:`~repro.errors.QuantifierEliminationError` on constructs
    outside the linear fragment.
    """
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "AND":
            return fm.conj(
                (
                    expr_to_formula(expr.left, variable_of),
                    expr_to_formula(expr.right, variable_of),
                )
            )
        if expr.op == "OR":
            return fm.disj(
                (
                    expr_to_formula(expr.left, variable_of),
                    expr_to_formula(expr.right, variable_of),
                )
            )
        if expr.op in _COMPARISON_BUILDERS:
            left = _expr_to_term(expr.left, variable_of)
            right = _expr_to_term(expr.right, variable_of)
            return _COMPARISON_BUILDERS[expr.op](left, right)
        if expr.op == "<>":
            left = _expr_to_term(expr.left, variable_of)
            right = _expr_to_term(expr.right, variable_of)
            return fm.ne(left, right)
        raise QuantifierEliminationError(
            f"operator {expr.op!r} is outside the linear fragment"
        )
    if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        return fm.negate(expr_to_formula(expr.operand, variable_of))
    if isinstance(expr, ast.Between):
        inner = fm.conj(
            (
                fm.ge(
                    _expr_to_term(expr.needle, variable_of),
                    _expr_to_term(expr.low, variable_of),
                ),
                fm.le(
                    _expr_to_term(expr.needle, variable_of),
                    _expr_to_term(expr.high, variable_of),
                ),
            )
        )
        return fm.negate(inner) if expr.negated else inner
    if isinstance(expr, ast.Literal) and isinstance(expr.value, bool):
        return fm.TRUE if expr.value else fm.FALSE
    raise QuantifierEliminationError(
        f"cannot translate {type(expr).__name__} to a linear formula"
    )


def _expr_to_term(expr: ast.Expr, variable_of: Mapping[str, str]) -> LinearTerm:
    if isinstance(expr, ast.ColumnRef):
        qualified = f"{expr.table}.{expr.column}" if expr.table else expr.column
        variable = variable_of.get(qualified)
        if variable is None:
            raise QuantifierEliminationError(
                f"attribute {qualified!r} has no variable mapping"
            )
        return LinearTerm.variable(variable)
    if isinstance(expr, ast.Literal):
        if isinstance(expr.value, bool) or not isinstance(expr.value, (int, float)):
            raise QuantifierEliminationError(
                f"literal {expr.value!r} is not numeric"
            )
        return LinearTerm.const(expr.value)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return _expr_to_term(expr.operand, variable_of).scale(-1)
    if isinstance(expr, ast.BinaryOp):
        left = _expr_to_term(expr.left, variable_of)
        right = _expr_to_term(expr.right, variable_of)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left.multiply(right)
        if expr.op == "/":
            return left.divide(right)
    raise QuantifierEliminationError(
        f"cannot translate {type(expr).__name__} to a linear term"
    )


# ---------------------------------------------------------------------------
# The derived predicate
# ---------------------------------------------------------------------------


@dataclass
class SubsumptionPredicate:
    """The derived instance-oblivious p⪰ over binding attributes.

    Variables ``w{i}`` stand for the new binding's i-th join attribute
    and ``v{i}`` for the cached binding's.
    """

    formula: fm.Formula
    attributes: Tuple[str, ...]  # qualified J_L attributes, fixed order

    def __post_init__(self) -> None:
        self._evaluator = _compile_fast(self.formula)

    # -- evaluation -----------------------------------------------------
    def holds(self, w: Sequence[Any], w_prime: Sequence[Any]) -> bool:
        """Does ``w ⪰ w_prime`` (w joins a superset of R-tuples)?

        This runs once per (new binding, cached candidate) pair inside
        NLJP's pruning loop, so it is compiled to a positional closure
        rather than interpreted over the formula tree.
        """
        return self._evaluator(w, w_prime)

    def array_test(self) -> Optional[Tuple["ArrayEvaluator", Tuple[Tuple[int, int], ...]]]:
        """``holds`` over column arrays: ``test(w, v)`` takes one array
        per attribute on each side (any broadcastable shapes) and
        returns the boolean array of ``holds`` on every pair.

        Comes with the attribute positions each atom compares: the
        array comparison is Python's only when an atom's operands share
        one dtype, ``int64`` or ``float64``, and hold no NULL.  ``None``
        when the formula is not an and/or of ``a ⋈ b`` atoms over two
        variables (scaled or many-variable atoms keep :meth:`holds`'
        exact rational arithmetic).
        """
        pairs: List[Tuple[int, int]] = []
        test = _compile_arrays(self.formula, pairs)
        return None if test is None else (test, tuple(pairs))

    # -- introspection ------------------------------------------------
    @property
    def is_trivially_false(self) -> bool:
        return isinstance(self.formula, fm.BoolConst) and not self.formula.value

    def equality_attributes(self) -> Tuple[int, ...]:
        """Positions i where p⪰ requires ``w_i = v_i`` in every disjunct.

        These attributes can key a hash index on the cache: only
        entries sharing them can subsume a binding (Figure 4's CI).
        """
        disjuncts = (
            self.formula.children
            if isinstance(self.formula, fm.Or)
            else (self.formula,)
        )
        common: Optional[set] = None
        for disjunct in disjuncts:
            atoms = (
                disjunct.children
                if isinstance(disjunct, fm.And)
                else (disjunct,)
            )
            positions = set()
            for atom in atoms:
                if isinstance(atom, fm.Constraint) and atom.op == "=":
                    position = _matched_pair(atom.term)
                    if position is not None:
                        positions.add(position)
            common = positions if common is None else (common & positions)
        return tuple(sorted(common or ()))

    def ordered_attribute(self) -> Optional[Tuple[int, str]]:
        """A position i with ``w_i OP v_i`` required by the predicate.

        Returns ``(i, op)`` with op in ``< <= > >=`` such that every
        satisfying (w, w') pair obeys ``w_i op w'_i``.  The NLJP cache
        uses this to keep unpromising entries sorted on attribute i and
        scan only the qualifying range — the role of the paper's cache
        index ("CI" in Figure 4) for inequality-only predicates.
        Only derived from a top-level conjunction (None for
        disjunctive predicates).
        """
        if isinstance(self.formula, fm.Or):
            return None
        atoms = (
            self.formula.children
            if isinstance(self.formula, fm.And)
            else (self.formula,)
        )
        for atom in atoms:
            if not isinstance(atom, fm.Constraint) or atom.op == "=":
                continue
            position = _matched_pair(atom.term)
            if position is None:
                continue
            w_coefficient = atom.term.coefficients[f"w{position}"]
            # term OP 0 with term = w_coeff*w + v_coeff*v, v_coeff = -w_coeff.
            if w_coefficient > 0:
                op = atom.op  # w - v < / <= 0  ->  w < / <= v
            else:
                op = {"<": ">", "<=": ">="}[atom.op]
            return (position, op)
        return None

    # -- SQL rendering ---------------------------------------------------
    def to_sql(
        self,
        new_binding: Callable[[int], ast.Expr],
        cached_binding: Callable[[int], ast.Expr],
    ) -> ast.Expr:
        """Render p⪰ as a SQL predicate.

        ``new_binding(i)`` / ``cached_binding(i)`` produce the SQL
        expressions standing for ``w_i`` / ``v_i`` — e.g. parameters
        ``:b_x`` and cache columns ``x`` for the generated Q_C.
        """
        return _formula_to_sql(self.formula, new_binding, cached_binding)

    def __repr__(self) -> str:
        return f"SubsumptionPredicate({self.formula!r} over {self.attributes})"


def _matched_pair(term: LinearTerm) -> Optional[int]:
    """If ``term = w_i - v_i`` (or negated) for some i, return i."""
    names = _difference(term)
    if names is not None and {names[0][0], names[1][0]} == {"w", "v"}:
        if names[0][1:] == names[1][1:]:
            return int(names[0][1:])
    return None


PairEvaluator = Callable[[Sequence[Any], Sequence[Any]], bool]


def _variable_accessor(name: str) -> Callable[[Sequence[Any], Sequence[Any]], Any]:
    index = int(name[1:])
    if name.startswith("w"):
        return lambda w, v: w[index]
    return lambda w, v: v[index]


def _compile_fast(formula: fm.Formula) -> PairEvaluator:
    """Compile a formula into a positional closure ``fn(w, v) -> bool``.

    Two-variable ``a - b OP 0`` atoms compile to a direct comparison
    (which also handles text equality); other atoms fall back to exact
    rational arithmetic.  NULL operands make any atom false, matching
    SQL comparison semantics.
    """
    if isinstance(formula, fm.BoolConst):
        value = formula.value
        return lambda w, v: value
    if isinstance(formula, fm.Not):
        child = _compile_fast(formula.child)
        return lambda w, v: not child(w, v)
    if isinstance(formula, fm.And):
        children = [_compile_fast(c) for c in formula.children]
        return lambda w, v: all(child(w, v) for child in children)
    if isinstance(formula, fm.Or):
        children = [_compile_fast(c) for c in formula.children]
        return lambda w, v: any(child(w, v) for child in children)
    if isinstance(formula, fm.Constraint):
        return _compile_constraint_fast(formula)
    raise QuantifierEliminationError(f"cannot compile {formula!r}")


_FAST_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
}


def _difference(term: LinearTerm) -> Optional[Tuple[str, str]]:
    """``(a, b)`` when ``term`` is ``a - b`` for two variables."""
    if term.constant == 0 and len(term.coefficients) == 2:
        (name_a, coefficient_a), (name_b, coefficient_b) = sorted(
            term.coefficients.items()
        )
        if coefficient_a == 1 and coefficient_b == -1:
            return name_a, name_b
        if coefficient_a == -1 and coefficient_b == 1:
            return name_b, name_a
    return None


def _compile_constraint_fast(constraint: fm.Constraint) -> PairEvaluator:
    term = constraint.term
    compare = _FAST_COMPARATORS[constraint.op]
    # Fast path: a - b OP 0 -> a OP b (also valid for text equality).
    names = _difference(term)
    if names is not None:
        get_a, get_b = map(_variable_accessor, names)
        return lambda w, v: (
            (a := get_a(w, v)) is not None
            and (b := get_b(w, v)) is not None
            and compare(a, b)
        )
    # Single variable: c*x + k OP 0.
    if len(term.coefficients) == 1:
        ((name, coefficient),) = term.coefficients.items()
        get = _variable_accessor(name)
        constant = term.constant
        return lambda w, v: (
            (value := get(w, v)) is not None
            and not isinstance(value, str)
            and compare(coefficient * value + constant, 0)
        )
    # General linear combination (exact rational arithmetic).
    accessors = [
        (_variable_accessor(name), coefficient)
        for name, coefficient in sorted(term.coefficients.items())
    ]
    constant = term.constant

    def general(w: Sequence[Any], v: Sequence[Any]) -> bool:
        total = constant
        for get, coefficient in accessors:
            value = get(w, v)
            if value is None or isinstance(value, str):
                return False
            total += coefficient * value
        return compare(total, 0)

    return general


ArrayEvaluator = Callable[[Sequence[Any], Sequence[Any]], Any]


def _compile_arrays(
    formula: fm.Formula, pairs: List[Tuple[int, int]]
) -> Optional[ArrayEvaluator]:
    """:func:`_compile_fast` for arrays; appends each atom's positions."""
    if isinstance(formula, fm.BoolConst):
        value = formula.value
        return lambda w, v: value
    if isinstance(formula, (fm.And, fm.Or)):
        children = [_compile_arrays(child, pairs) for child in formula.children]
        if None in children:
            return None
        fold = operator.and_ if isinstance(formula, fm.And) else operator.or_
        return lambda w, v: reduce(fold, [child(w, v) for child in children])
    names = (
        _difference(formula.term) if isinstance(formula, fm.Constraint) else None
    )
    if names is None:
        return None
    pairs.append((int(names[0][1:]), int(names[1][1:])))
    compare = _FAST_COMPARATORS[formula.op]
    get_a, get_b = map(_variable_accessor, names)
    return lambda w, v: compare(get_a(w, v), get_b(w, v))


def _formula_to_sql(
    node: fm.Formula,
    new_binding: Callable[[int], ast.Expr],
    cached_binding: Callable[[int], ast.Expr],
) -> ast.Expr:
    if isinstance(node, fm.BoolConst):
        return ast.Literal(node.value)
    if isinstance(node, fm.Constraint):
        return _constraint_to_sql(node, new_binding, cached_binding)
    if isinstance(node, fm.And):
        result = _formula_to_sql(node.children[0], new_binding, cached_binding)
        for child in node.children[1:]:
            result = ast.BinaryOp(
                "AND", result, _formula_to_sql(child, new_binding, cached_binding)
            )
        return result
    if isinstance(node, fm.Or):
        result = _formula_to_sql(node.children[0], new_binding, cached_binding)
        for child in node.children[1:]:
            result = ast.BinaryOp(
                "OR", result, _formula_to_sql(child, new_binding, cached_binding)
            )
        return result
    if isinstance(node, fm.Not):
        return ast.UnaryOp(
            "NOT", _formula_to_sql(node.child, new_binding, cached_binding)
        )
    raise QuantifierEliminationError(f"cannot render {node!r}")


def _variable_to_sql(
    name: str,
    new_binding: Callable[[int], ast.Expr],
    cached_binding: Callable[[int], ast.Expr],
) -> ast.Expr:
    index = int(name[1:])
    return new_binding(index) if name.startswith("w") else cached_binding(index)


def _fraction_literal(value: Fraction) -> ast.Expr:
    if value.denominator == 1:
        return ast.Literal(int(value))
    return ast.Literal(float(value))


def _constraint_to_sql(
    constraint: fm.Constraint,
    new_binding: Callable[[int], ast.Expr],
    cached_binding: Callable[[int], ast.Expr],
) -> ast.Expr:
    term = constraint.term
    # Special-case the common two-variable shape a - b OP 0 -> a OP b.
    names = _difference(term)
    if names is not None:
        left, right = (
            _variable_to_sql(name, new_binding, cached_binding) for name in names
        )
        return ast.BinaryOp(constraint.op, left, right)
    # Single variable: c*x + k OP 0 -> x OP' -k/c.
    if len(term.coefficients) == 1:
        ((name, coefficient),) = term.coefficients.items()
        bound = -term.constant / coefficient
        variable = _variable_to_sql(name, new_binding, cached_binding)
        op = constraint.op
        if coefficient < 0 and op in ("<", "<="):
            op = {"<": ">", "<=": ">="}[op]
        return ast.BinaryOp(op, variable, _fraction_literal(bound))
    # General linear combination.
    expression: Optional[ast.Expr] = None
    for name, coefficient in sorted(term.coefficients.items()):
        variable = _variable_to_sql(name, new_binding, cached_binding)
        piece: ast.Expr = (
            variable
            if coefficient == 1
            else ast.BinaryOp("*", _fraction_literal(coefficient), variable)
        )
        expression = piece if expression is None else ast.BinaryOp("+", expression, piece)
    assert expression is not None
    if term.constant != 0:
        expression = ast.BinaryOp("+", expression, _fraction_literal(term.constant))
    return ast.BinaryOp(constraint.op, expression, ast.Literal(0))


# ---------------------------------------------------------------------------
# Derivation entry point
# ---------------------------------------------------------------------------


#: A join condition in canonical form: Θ over the cached binding
#: (``v{i}``), Θ over the new binding (``w{i}``) and the universally
#: quantified inner-side variables (``r{i}``).  Aliases and attribute
#: names are gone, so two statements with the same condition shape give
#: equal (and hashable) problems whatever they call their columns.
SubsumptionProblem = Tuple[fm.Formula, fm.Formula, Tuple[str, ...]]


def subsumption_problem(
    theta: Sequence[ast.Expr],
    j_left: Sequence[str],
    j_right: Sequence[str],
) -> Tuple[Tuple[str, ...], SubsumptionProblem]:
    """The J_L attribute order and the canonical problem for Θ.

    Raises :class:`~repro.errors.QuantifierEliminationError` when Θ is
    outside the linear fragment.
    """
    attributes = tuple(dict.fromkeys(j_left))  # preserve caller order
    right_attributes = tuple(dict.fromkeys(j_right))

    new_vars = {attribute: f"w{i}" for i, attribute in enumerate(attributes)}
    cached_vars = {attribute: f"v{i}" for i, attribute in enumerate(attributes)}
    universal = {
        attribute: f"r{i}" for i, attribute in enumerate(right_attributes)
    }

    condition = ast.conjoin(tuple(theta))
    if condition is None:
        raise QuantifierEliminationError("empty join condition")
    theta_new = expr_to_formula(condition, {**new_vars, **universal})
    theta_cached = expr_to_formula(condition, {**cached_vars, **universal})
    return attributes, (theta_cached, theta_new, tuple(universal.values()))


def solve_subsumption(problem: SubsumptionProblem) -> fm.Formula:
    """UE/DE/EE on ``∀ r : Θ(v, r) ⇒ Θ(w, r)``, then simplification."""
    theta_cached, theta_new, universal = problem
    derived = forall_implies(
        premise=theta_cached, conclusion=theta_new, variables=universal
    )
    return simplify(derived)


def derive_subsumption(
    theta: Sequence[ast.Expr],
    j_left: Sequence[str],
    j_right: Sequence[str],
) -> SubsumptionPredicate:
    """Derive p⪰ for a join condition.

    ``theta`` is the list of (qualified) join conjuncts; ``j_left`` and
    ``j_right`` are the qualified join attributes of the outer and
    inner sides.  Raises
    :class:`~repro.errors.QuantifierEliminationError` when Θ is outside
    the supported fragment — callers treat that as "pruning not
    applicable", never as a hard failure.

    A pure function: nothing is remembered between calls.  The
    optimizer keeps derived formulas per engine (see
    ``SmartIcebergOptimizer._derive_subsumption``).
    """
    attributes, problem = subsumption_problem(theta, j_left, j_right)
    return SubsumptionPredicate(
        formula=solve_subsumption(problem), attributes=attributes
    )
