"""Tests for linear terms."""

from fractions import Fraction

import pytest

from repro.errors import QuantifierEliminationError
from repro.logic.terms import LinearTerm


x = LinearTerm.variable("x")
y = LinearTerm.variable("y")


class TestAlgebra:
    def test_add(self):
        term = x + y + LinearTerm.const(3)
        assert term.coefficient("x") == 1
        assert term.coefficient("y") == 1
        assert term.constant == 3

    def test_sub_cancels(self):
        term = (x + y) - x
        assert term == y
        assert "x" not in term.coefficients

    def test_scale(self):
        term = (x + LinearTerm.const(2)).scale(3)
        assert term.coefficient("x") == 3
        assert term.constant == 6

    def test_zero_coefficients_dropped(self):
        term = LinearTerm({"x": 0, "y": 2})
        assert term.variables() == frozenset({"y"})

    def test_multiply_by_constant(self):
        assert x.multiply(LinearTerm.const(4)) == x.scale(4)
        assert LinearTerm.const(4).multiply(x) == x.scale(4)

    def test_multiply_variables_rejected(self):
        with pytest.raises(QuantifierEliminationError):
            x.multiply(y)

    def test_divide_by_constant(self):
        assert x.divide(LinearTerm.const(2)) == x.scale(Fraction(1, 2))

    def test_divide_by_variable_rejected(self):
        with pytest.raises(QuantifierEliminationError):
            x.divide(y)

    def test_divide_by_zero_rejected(self):
        with pytest.raises(QuantifierEliminationError):
            x.divide(LinearTerm.const(0))

    def test_exact_fractions(self):
        term = x.scale(Fraction(1, 3)).scale(3)
        assert term == x


class TestManipulation:
    def test_drop(self):
        term = x + y
        assert term.drop("x") == y

    def test_substitute(self):
        # x + 2y with x := y + 1  ->  3y + 1
        term = x + y.scale(2)
        result = term.substitute("x", y + LinearTerm.const(1))
        assert result.coefficient("y") == 3
        assert result.constant == 1

    def test_substitute_absent_variable(self):
        assert y.substitute("x", LinearTerm.const(5)) == y

    def test_evaluate(self):
        term = x.scale(2) + y.scale(-1) + LinearTerm.const(1)
        assert term.evaluate({"x": 3, "y": 4}) == 3

    def test_is_constant(self):
        assert LinearTerm.const(5).is_constant
        assert not x.is_constant


class TestIdentity:
    def test_equality_ignores_representation(self):
        assert x + y == y + x

    def test_identity_key_is_built_once(self):
        term = LinearTerm({"y": 2, "x": 1, "z": 0}, 3)
        assert term.canonical() is term.canonical()
        assert term.canonical() == ((("x", 1), ("y", 2)), 3)
        assert hash(term) == hash(LinearTerm({"x": 1, "y": 2}, 3))

    def test_hashable(self):
        assert len({x + y, y + x}) == 1

    def test_repr_readable(self):
        text = repr(x - y + LinearTerm.const(2))
        assert "x" in text and "y" in text

    def test_float_coefficients_become_exact(self):
        term = LinearTerm({"x": 0.5})
        assert term.coefficient("x") == Fraction(1, 2)

    def test_non_numeric_rejected(self):
        with pytest.raises(QuantifierEliminationError):
            LinearTerm({"x": "bad"})  # type: ignore[dict-item]
