"""Tests for the formula algebra: NNF, DNF, evaluation."""

import pytest
from hypothesis import given, strategies as st

from repro.logic import formula as fm
from repro.logic.terms import LinearTerm

x = LinearTerm.variable("x")
y = LinearTerm.variable("y")


class TestConstraints:
    def test_negate_strict(self):
        atom = fm.lt(x, y)  # x < y
        negated = atom.negate()  # y <= x
        assert isinstance(negated, fm.Constraint) and negated.op == "<="

    def test_negate_nonstrict(self):
        negated = fm.le(x, y).negate()
        assert negated.op == "<"

    def test_negate_equality_is_disjunction(self):
        negated = fm.eq(x, y).negate()
        assert isinstance(negated, fm.Or) and len(negated.children) == 2

    def test_constant_truth(self):
        assert fm.lt(LinearTerm.const(1), LinearTerm.const(2)).truth() is True
        assert fm.lt(LinearTerm.const(2), LinearTerm.const(1)).truth() is False
        assert fm.lt(x, y).truth() is None

    def test_bad_operator_rejected(self):
        from repro.errors import QuantifierEliminationError

        with pytest.raises(QuantifierEliminationError):
            fm.Constraint(x, ">")


class TestConstructors:
    def test_conj_flattens(self):
        inner = fm.conj((fm.lt(x, y), fm.lt(y, x)))
        outer = fm.conj((inner, fm.le(x, y)))
        assert isinstance(outer, fm.And) and len(outer.children) == 3

    def test_conj_false_short_circuit(self):
        assert fm.conj((fm.lt(x, y), fm.FALSE)) == fm.FALSE

    def test_conj_drops_true(self):
        assert fm.conj((fm.TRUE, fm.lt(x, y))) == fm.lt(x, y)

    def test_conj_empty_is_true(self):
        assert fm.conj(()) == fm.TRUE

    def test_conj_dedups(self):
        assert fm.conj((fm.lt(x, y), fm.lt(x, y))) == fm.lt(x, y)

    def test_disj_true_short_circuit(self):
        assert fm.disj((fm.TRUE, fm.lt(x, y))) == fm.TRUE

    def test_disj_empty_is_false(self):
        assert fm.disj(()) == fm.FALSE


class TestNNF:
    def test_double_negation(self):
        inner = fm.lt(x, y)
        assert fm.to_nnf(fm.Not(fm.Not(inner))) == inner

    def test_de_morgan_and(self):
        negated = fm.negate(fm.conj((fm.lt(x, y), fm.le(y, x))))
        assert isinstance(negated, fm.Or)

    def test_de_morgan_or(self):
        negated = fm.negate(fm.disj((fm.lt(x, y), fm.le(y, x))))
        assert isinstance(negated, fm.And)


class TestDNF:
    def test_atom(self):
        assert fm.to_dnf(fm.lt(x, y)) == [[fm.lt(x, y)]]

    def test_distribution(self):
        # (a OR b) AND c -> [a, c], [b, c]
        a, b, c = fm.lt(x, y), fm.lt(y, x), fm.le(x, y)
        dnf = fm.to_dnf(fm.conj((fm.disj((a, b)), c)))
        assert len(dnf) == 2
        assert all(c in conj for conj in dnf)

    def test_true_false(self):
        assert fm.to_dnf(fm.TRUE) == [[]]
        assert fm.to_dnf(fm.FALSE) == []

    def test_constant_atoms_folded(self):
        true_atom = fm.lt(LinearTerm.const(0), LinearTerm.const(1))
        assert fm.to_dnf(true_atom) == [[]]


    def test_product_keeps_each_atom_and_each_conjunction_once(self):
        # (a OR b) AND (a OR b) AND (b OR a): 8 products, 3 distinct
        # atom sets — and no atom twice inside a conjunction.
        a, b = fm.lt(x, y), fm.lt(y, x)
        factor = fm.Or((a, b))
        dnf = fm.to_dnf(fm.And((factor, factor, fm.Or((b, a)))))
        assert dnf == [[a, b], [a], [b]]

    def test_distinct_conjunctions_ignores_atom_order(self):
        a, b = fm.lt(x, y), fm.le(x, y)
        assert fm.distinct_conjunctions([[a, b], [b, a], [a], [a, b]]) == [
            [a, b],
            [a],
        ]


values = st.integers(min_value=-5, max_value=5)


@given(values, values)
def test_evaluate_matches_python(a, b):
    assignment = {"x": a, "y": b}
    assert fm.evaluate(fm.lt(x, y), assignment) == (a < b)
    assert fm.evaluate(fm.le(x, y), assignment) == (a <= b)
    assert fm.evaluate(fm.eq(x, y), assignment) == (a == b)
    assert fm.evaluate(fm.ne(x, y), assignment) == (a != b)
    assert fm.evaluate(fm.gt(x, y), assignment) == (a > b)
    assert fm.evaluate(fm.ge(x, y), assignment) == (a >= b)


@given(values, values)
def test_nnf_preserves_semantics(a, b):
    assignment = {"x": a, "y": b}
    original = fm.Not(
        fm.conj((fm.lt(x, y), fm.disj((fm.eq(x, y), fm.le(y, x)))))
    )
    assert fm.evaluate(original, assignment) == fm.evaluate(
        fm.to_nnf(original), assignment
    )


@given(values, values)
def test_dnf_preserves_semantics(a, b):
    assignment = {"x": a, "y": b}
    original = fm.conj(
        (fm.disj((fm.lt(x, y), fm.eq(x, y))), fm.Not(fm.lt(y, x)))
    )
    dnf = fm.to_dnf(original)
    dnf_value = any(
        all(atom.evaluate(assignment) for atom in conj) for conj in dnf
    )
    assert fm.evaluate(original, assignment) == dnf_value
