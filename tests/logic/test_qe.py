"""Tests for quantifier elimination (the paper's UE/DE/EE procedure)."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.logic import formula as fm
from repro.logic.qe import (
    eliminate_exists,
    eliminate_forall,
    entails_formula,
    equivalent,
    forall_implies,
    simplify,
)
from repro.logic.terms import LinearTerm

x = LinearTerm.variable("x")
y = LinearTerm.variable("y")
xp = LinearTerm.variable("xp")
yp = LinearTerm.variable("yp")
xr = LinearTerm.variable("xr")
yr = LinearTerm.variable("yr")
c = LinearTerm.const


class TestEliminateExists:
    def test_simple_projection(self):
        # exists xr: x < xr and xr < y  <=>  x < y.
        result = eliminate_exists(fm.conj((fm.lt(x, xr), fm.lt(xr, y))), ["xr"])
        assert equivalent(result, fm.lt(x, y))

    def test_unbounded_variable_vanishes(self):
        # exists xr: x < xr  <=>  TRUE.
        result = eliminate_exists(fm.lt(x, xr), ["xr"])
        assert equivalent(result, fm.TRUE)

    def test_disjunction_distributes(self):
        # exists xr: (x < xr < y) or (y < xr < x)  <=>  x<y or y<x.
        branch1 = fm.conj((fm.lt(x, xr), fm.lt(xr, y)))
        branch2 = fm.conj((fm.lt(y, xr), fm.lt(xr, x)))
        result = eliminate_exists(fm.disj((branch1, branch2)), ["xr"])
        assert equivalent(result, fm.ne(x, y))

    def test_no_variables_is_nnf_passthrough(self):
        original = fm.Not(fm.lt(x, y))
        assert eliminate_exists(original, []) == fm.to_nnf(original)

    def test_unsat_branch_dropped(self):
        contradiction = fm.conj((fm.lt(xr, x), fm.lt(x, xr)))
        assert eliminate_exists(contradiction, ["xr"]) == fm.FALSE


class TestEliminateForall:
    def test_forall_unbounded_false(self):
        # forall xr: x < xr is false (xr can be tiny).
        assert equivalent(eliminate_forall(fm.lt(x, xr), ["xr"]), fm.FALSE)

    def test_forall_tautology(self):
        # forall xr: xr <= xr.
        assert equivalent(eliminate_forall(fm.le(xr, xr), ["xr"]), fm.TRUE)


class TestExample11:
    """Section 5.2's worked derivation: simplified skyband condition."""

    def test_derivation(self):
        theta_new = fm.conj((fm.lt(x, xr), fm.lt(y, yr)))
        theta_cached = fm.conj((fm.lt(xp, xr), fm.lt(yp, yr)))
        derived = simplify(
            forall_implies(theta_cached, theta_new, ["xr", "yr"])
        )
        expected = fm.conj((fm.le(x, xp), fm.le(y, yp)))
        assert equivalent(derived, expected)


class TestAppendixB:
    """The full strict-dominance derivation of Appendix B."""

    def test_derivation(self):
        def theta(a, b):
            return fm.conj(
                (
                    fm.le(a, xr),
                    fm.le(b, yr),
                    fm.disj((fm.lt(a, xr), fm.lt(b, yr))),
                )
            )

        derived = simplify(
            forall_implies(theta(xp, yp), theta(x, y), ["xr", "yr"])
        )
        expected = fm.conj((fm.le(x, xp), fm.le(y, yp)))
        assert equivalent(derived, expected)


class TestDominanceDuplicates:
    """Where the duplicates come from: the k-way strict disjunction.

    ¬Θ(w, r) of a k-attribute dominance condition is "some r_i < w_i,
    or all r_i <= w_i"; conjoined with Θ(v, r) and negated again after
    elimination, every factor repeats the others' atoms, so the plain
    And-product of the four-attribute pairs condition has 625
    conjunctions of which 16 differ.
    """

    @staticmethod
    def derived(k):
        def theta(prefix):
            pairs = [
                (LinearTerm.variable(f"{prefix}{i}"), LinearTerm.variable(f"r{i}"))
                for i in range(k)
            ]
            return fm.conj(
                [fm.le(a, r) for a, r in pairs]
                + [fm.disj(fm.lt(a, r) for a, r in pairs)]
            )

        return forall_implies(theta("v"), theta("w"), [f"r{i}" for i in range(k)])

    def test_simplify_sees_each_problem_once(self):
        for k, plain_product in ((2, 9), (3, 64), (4, 625)):
            dnf = fm.to_dnf(self.derived(k))
            assert len(dnf) == len({frozenset(c) for c in dnf}) == 2**k
            assert len(dnf) < plain_product

    def test_result_is_componentwise_order(self):
        w = [LinearTerm.variable(f"w{i}") for i in range(4)]
        v = [LinearTerm.variable(f"v{i}") for i in range(4)]
        expected = fm.conj(fm.le(a, b) for a, b in zip(w, v))
        assert simplify(self.derived(4)) == expected


class TestSimplify:
    def test_removes_redundant_constraint(self):
        original = fm.conj((fm.lt(x, y), fm.le(x, y)))
        assert simplify(original) == fm.lt(x, y)

    def test_detects_false(self):
        original = fm.conj((fm.lt(x, y), fm.lt(y, x)))
        assert simplify(original) == fm.FALSE

    def test_detects_true(self):
        assert simplify(fm.disj((fm.le(x, y), fm.lt(y, x)))) == fm.TRUE

    def test_absorbs_stronger_disjunct(self):
        stronger = fm.conj((fm.lt(x, y), fm.lt(x, c(0))))
        weaker = fm.lt(x, y)
        assert simplify(fm.disj((stronger, weaker))) == weaker

    def test_merges_equality_pairs(self):
        original = fm.conj((fm.le(x, y), fm.le(y, x)))
        result = simplify(original)
        assert isinstance(result, fm.Constraint) and result.op == "="


class TestEntailment:
    def test_entails(self):
        assert entails_formula(fm.lt(x, y), fm.le(x, y))
        assert not entails_formula(fm.le(x, y), fm.lt(x, y))

    def test_equivalent_symmetric(self):
        a = fm.conj((fm.le(x, y), fm.le(y, x)))
        b = fm.eq(x, y)
        assert equivalent(a, b)
        assert equivalent(b, a)


@st.composite
def small_formula(draw):
    """Random formulas over (x, y) and universal (xr)."""
    variables = [x, y, xr]
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        left = draw(st.sampled_from(variables))
        right = draw(
            st.sampled_from(variables + [c(draw(st.integers(-2, 2)))])
        )
        op = draw(st.sampled_from([fm.lt, fm.le, fm.eq]))
        atoms.append(op(left, right))
    if draw(st.booleans()) and len(atoms) > 1:
        return fm.disj((atoms[0], fm.conj(atoms[1:])))
    return fm.conj(atoms)


@given(small_formula())
@settings(max_examples=60, deadline=None)
def test_exists_elimination_semantics(formula):
    """Property: QE result agrees with a sampled existential check.

    For each sample of the free variables, `exists xr: formula` is
    approximated by trying many xr values; the eliminated formula must
    be true whenever a witness was found, and (over the sampled grid)
    false when no witness exists among a dense rational sample.
    """
    eliminated = eliminate_exists(formula, ["xr"])
    rng = random.Random(7)
    witnesses = [Fraction(n, 2) for n in range(-12, 13)]
    for _ in range(15):
        assignment = {
            "x": Fraction(rng.randint(-4, 4)),
            "y": Fraction(rng.randint(-4, 4)),
        }
        found = any(
            fm.evaluate(formula, {**assignment, "xr": w}) for w in witnesses
        )
        eliminated_value = fm.evaluate(eliminated, assignment)
        if found:
            assert eliminated_value, (
                f"witness exists but eliminated formula is false: "
                f"{formula} -> {eliminated} at {assignment}"
            )
