"""Tests for Fourier-Motzkin elimination."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.logic import fme
from repro.logic.formula import ge, gt, le, lt, eq
from repro.logic.terms import LinearTerm

x = LinearTerm.variable("x")
y = LinearTerm.variable("y")
z = LinearTerm.variable("z")
c = LinearTerm.const


class TestEliminateVariable:
    def test_paper_example(self):
        """Eq. (1): x >= y+500, x+10 <= z, x <= 5y+100."""
        constraints = [
            ge(x, y + c(500)),
            le(x + c(10), z),
            le(x, y.scale(5) + c(100)),
        ]
        reduced = fme.eliminate_variable(constraints, "x")
        assert reduced is not None
        # Expected: y+500 <= z-10 and y+500 <= 5y+100.
        assert le(y + c(500), z - c(10)) in reduced
        assert le(y + c(500), y.scale(5) + c(100)) in reduced

    def test_bounds_only_one_side_dropped(self):
        reduced = fme.eliminate_variable([ge(x, y)], "x")
        assert reduced == []

    def test_strictness_propagates(self):
        # y < x and x <= z  =>  y < z.
        reduced = fme.eliminate_variable([lt(y, x), le(x, z)], "x")
        assert reduced == [lt(y, z)]

    def test_equality_substitution(self):
        # x = y + 1 and x < z  =>  y + 1 < z.
        reduced = fme.eliminate_variable([eq(x, y + c(1)), lt(x, z)], "x")
        assert reduced == [lt(y + c(1), z)]

    def test_detects_contradiction(self):
        # x < y and y < x  =>  y < y: unsat.
        reduced = fme.eliminate_variable([lt(x, y), lt(y, x)], "x")
        assert reduced is None

    def test_untouched_constraints_kept(self):
        reduced = fme.eliminate_variable([lt(y, z), lt(x, y), lt(y, x)], "x")
        assert reduced is None or lt(y, z) in reduced


class TestSatisfiability:
    def test_simple_sat(self):
        assert fme.is_satisfiable([lt(x, y), lt(y, z)])

    def test_simple_unsat(self):
        assert not fme.is_satisfiable([lt(x, y), lt(y, x)])

    def test_cycle_unsat(self):
        assert not fme.is_satisfiable([lt(x, y), lt(y, z), lt(z, x)])

    def test_nonstrict_cycle_sat(self):
        assert fme.is_satisfiable([le(x, y), le(y, z), le(z, x)])

    def test_strict_vs_equal(self):
        assert not fme.is_satisfiable([eq(x, y), lt(x, y)])

    def test_constant_contradiction(self):
        assert not fme.is_satisfiable([lt(c(1), c(0))])

    def test_empty_is_sat(self):
        assert fme.is_satisfiable([])

    def test_bounded_interval(self):
        assert fme.is_satisfiable([ge(x, c(0)), le(x, c(10)), gt(x, c(9))])
        assert not fme.is_satisfiable([ge(x, c(0)), le(x, c(10)), gt(x, c(10))])


class TestImplies:
    def test_transitivity(self):
        assert fme.implies([lt(x, y), lt(y, z)], lt(x, z))

    def test_no_implication(self):
        assert not fme.implies([lt(x, y)], lt(y, x))

    def test_weakening(self):
        assert fme.implies([lt(x, y)], le(x, y))
        assert not fme.implies([le(x, y)], lt(x, y))

    def test_equality_conclusion(self):
        assert fme.implies([le(x, y), le(y, x)], eq(x, y))

    def test_scaled_conclusion(self):
        # x <= y implies 2x <= 2y.
        assert fme.implies([le(x, y)], le(x.scale(2), y.scale(2)))


class TestRemoveRedundant:
    def test_removes_implied(self):
        kept = fme.remove_redundant([lt(x, y), lt(y, z), lt(x, z)])
        assert lt(x, z) not in kept
        assert len(kept) == 2

    def test_keeps_independent(self):
        constraints = [lt(x, y), lt(z, x)]
        assert sorted(map(repr, fme.remove_redundant(constraints))) == sorted(
            map(repr, constraints)
        )

    def test_removes_weaker_duplicate(self):
        kept = fme.remove_redundant([lt(x, y), le(x, y)])
        assert kept == [lt(x, y)]


def remove_redundant_restarting(constraints):
    """The restart-from-zero scan ``remove_redundant`` used to be."""
    kept = list(constraints)
    changed = True
    while changed:
        changed = False
        for index, constraint in enumerate(kept):
            others = kept[:index] + kept[index + 1 :]
            if fme.implies(others, constraint):
                kept = others
                changed = True
                break
    return kept


@st.composite
def random_conjunction(draw):
    """A random small conjunction over x, y, z with integer bounds."""
    variables = [x, y, z]
    n = draw(st.integers(min_value=1, max_value=4))
    constraints = []
    for _ in range(n):
        left = draw(st.sampled_from(variables))
        right = draw(st.sampled_from(variables + [c(draw(st.integers(-3, 3)))]))
        op = draw(st.sampled_from([lt, le]))
        constraints.append(op(left, right))
    return constraints


@given(random_conjunction())
@settings(max_examples=150, deadline=None)
def test_elimination_preserves_satisfiability_witnesses(constraints):
    """Property: any witness of the original satisfies the projection.

    (FME soundness direction, checked on random rational samples.)
    """
    reduced = fme.eliminate_variable(constraints, "x")
    rng = random.Random(0)
    for _ in range(30):
        assignment = {
            v: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            for v in ("x", "y", "z")
        }
        if all(constraint.evaluate(assignment) for constraint in constraints):
            assert reduced is not None
            assert all(constraint.evaluate(assignment) for constraint in reduced)


@given(random_conjunction())
@settings(max_examples=100, deadline=None)
def test_unsat_never_has_witness(constraints):
    """Property: if FME says unsat, no random sample satisfies it."""
    if fme.is_satisfiable(constraints):
        return
    rng = random.Random(1)
    for _ in range(50):
        assignment = {
            v: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            for v in ("x", "y", "z")
        }
        assert not all(constraint.evaluate(assignment) for constraint in constraints)


@given(random_conjunction(), random_conjunction())
@settings(max_examples=150, deadline=None)
def test_single_pass_removal_equals_the_restarting_scan(first, second):
    """Dropping a premise cannot make an earlier constraint implied, so
    continuing at the same index keeps exactly what restarting kept."""
    constraints = first + second
    assert fme.remove_redundant(constraints) == remove_redundant_restarting(
        constraints
    )


def test_single_pass_removal_makes_no_repeat_checks(monkeypatch):
    calls = []
    implies = fme.implies
    monkeypatch.setattr(
        fme, "implies", lambda p, c: calls.append(c) or implies(p, c)
    )
    constraints = [lt(x, y), lt(y, z), lt(x, z), le(x, z), le(x, y)]
    assert fme.remove_redundant(constraints) == [lt(x, y), lt(y, z)]
    assert calls == constraints  # one entailment check per constraint
