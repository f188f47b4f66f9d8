"""Tests for automatic subsumption-test generation (Section 5.2, App B)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuantifierEliminationError
from repro.sql import ast, render
from repro.sql.parser import parse_expression
from repro.core.subsumption import derive_subsumption, expr_to_formula
from repro.logic import formula as fm


def conjuncts(*sql: str):
    return [parse_expression(s) for s in sql]


class TestExample10And11:
    """The k-skyband derivations, simplified and full forms."""

    def test_simplified_condition(self):
        predicate = derive_subsumption(
            conjuncts("L.x < R.x", "L.y < R.y"),
            ["l.x", "l.y"],
            ["r.x", "r.y"],
        )
        # p((x,y),(x',y')) == x <= x' AND y <= y'.
        assert predicate.holds((1, 1), (2, 2))
        assert predicate.holds((2, 2), (2, 2))
        assert not predicate.holds((3, 1), (2, 2))
        assert not predicate.holds((1, 3), (2, 2))

    def test_full_strict_dominance_condition(self):
        """Appendix B: the longer derivation reaches the same p."""
        predicate = derive_subsumption(
            conjuncts(
                "L.x <= R.x", "L.y <= R.y", "L.x < R.x OR L.y < R.y"
            ),
            ["l.x", "l.y"],
            ["r.x", "r.y"],
        )
        simplified = derive_subsumption(
            conjuncts("L.x < R.x", "L.y < R.y"),
            ["l.x", "l.y"],
            ["r.x", "r.y"],
        )
        rng = random.Random(3)
        for _ in range(200):
            w = (rng.randint(0, 5), rng.randint(0, 5))
            w_prime = (rng.randint(0, 5), rng.randint(0, 5))
            assert predicate.holds(w, w_prime) == simplified.holds(w, w_prime)


class TestSemanticCorrectness:
    """Property: derived p⪰(w, w') implies R⋉w ⊇ R⋉w' on random data."""

    CASES = [
        (
            conjuncts("L.x <= R.x", "L.y <= R.y", "L.x < R.x OR L.y < R.y"),
            ["l.x", "l.y"],
            ["r.x", "r.y"],
            2,
        ),
        (
            conjuncts("L.x < R.x", "L.y < R.y"),
            ["l.x", "l.y"],
            ["r.x", "r.y"],
            2,
        ),
        (
            conjuncts("L.a = R.a", "L.v < R.v"),
            ["l.a", "l.v"],
            ["r.a", "r.v"],
            2,
        ),
        (
            conjuncts("L.x + L.y <= R.x", "L.y >= R.y"),
            ["l.x", "l.y"],
            ["r.x", "r.y"],
            2,
        ),
    ]

    @pytest.mark.parametrize("theta,j_left,j_right,width", CASES)
    def test_soundness_on_samples(self, theta, j_left, j_right, width):
        predicate = derive_subsumption(theta, j_left, j_right)
        rng = random.Random(11)
        r_tuples = [
            tuple(rng.randint(0, 4) for _ in range(width)) for _ in range(40)
        ]

        def joins(w, r):
            assignment = {}
            for name, value in zip(j_left, w):
                assignment[name] = value
            for name, value in zip(j_right, r):
                assignment[name] = value
            formula = expr_to_formula(
                ast.conjoin(tuple(theta)),
                {name: name for name in list(j_left) + list(j_right)},
            )
            return fm.evaluate(formula, assignment)

        for _ in range(120):
            w = tuple(rng.randint(0, 4) for _ in range(width))
            w_prime = tuple(rng.randint(0, 4) for _ in range(width))
            if predicate.holds(w, w_prime):
                joins_w = {r for r in r_tuples if joins(w, r)}
                joins_w_prime = {r for r in r_tuples if joins(w_prime, r)}
                assert joins_w >= joins_w_prime, (w, w_prime)

    def test_equality_only_text_attributes(self):
        predicate = derive_subsumption(
            conjuncts("L.cat = R.cat", "L.v <= R.v"),
            ["l.cat", "l.v"],
            ["r.cat", "r.v"],
        )
        assert predicate.holds(("a", 1), ("a", 2))
        assert not predicate.holds(("a", 1), ("b", 2))
        assert not predicate.holds(("a", 3), ("a", 2))


class TestListing10Complex:
    THETA = conjuncts(
        "s1.category = t1.category",
        "t1.attr = s1.attr",
        "t2.attr = s2.attr",
        "t1.val > s1.val",
        "t2.val > s2.val",
    )
    J_LEFT = ["s1.category", "s1.attr", "s2.attr", "s1.val", "s2.val"]
    J_RIGHT = ["t1.category", "t1.attr", "t2.attr", "t1.val", "t2.val"]

    def test_equality_attributes_detected(self):
        predicate = derive_subsumption(self.THETA, self.J_LEFT, self.J_RIGHT)
        equal_positions = predicate.equality_attributes()
        names = {predicate.attributes[i] for i in equal_positions}
        assert names == {"s1.category", "s1.attr", "s2.attr"}

    def test_direction_matches_listing_10(self):
        """Q_C of Listing 10: same category/attrs, cached vals <= new."""
        predicate = derive_subsumption(self.THETA, self.J_LEFT, self.J_RIGHT)
        assert predicate.holds(("c", "a", "b", 1.0, 1.0), ("c", "a", "b", 5.0, 5.0))
        assert not predicate.holds(
            ("c", "a", "b", 5.0, 5.0), ("c", "a", "b", 1.0, 1.0)
        )

    def test_sql_rendering_uses_bindings(self):
        predicate = derive_subsumption(self.THETA, self.J_LEFT, self.J_RIGHT)
        sql = predicate.to_sql(
            lambda i: ast.Parameter(f"b{i}"),
            lambda i: ast.ColumnRef("c", predicate.attributes[i].replace(".", "_")),
        )
        text = render(sql)
        assert ":b" in text and "c.s1_val" in text


class TestOrderedAttribute:
    def test_skyband_has_ordered_attribute(self):
        predicate = derive_subsumption(
            conjuncts("L.x <= R.x", "L.y <= R.y"),
            ["l.x", "l.y"],
            ["r.x", "r.y"],
        )
        ordered = predicate.ordered_attribute()
        assert ordered is not None
        _, op = ordered
        assert op in ("<", "<=")

    def test_pure_equality_has_no_ordered_attribute(self):
        predicate = derive_subsumption(
            conjuncts("L.a = R.a"), ["l.a"], ["r.a"]
        )
        assert predicate.ordered_attribute() is None


class TestUnsupportedConditions:
    def test_nonlinear_raises(self):
        with pytest.raises(QuantifierEliminationError):
            derive_subsumption(
                conjuncts("L.x * L.y < R.x"), ["l.x", "l.y"], ["r.x"]
            )

    def test_unknown_function_raises(self):
        with pytest.raises(QuantifierEliminationError):
            derive_subsumption(
                conjuncts("ABS(L.x) < R.x"), ["l.x"], ["r.x"]
            )

    def test_empty_theta_raises(self):
        with pytest.raises(QuantifierEliminationError):
            derive_subsumption([], ["l.x"], ["r.x"])

    def test_division_by_constant_ok(self):
        predicate = derive_subsumption(
            conjuncts("L.x / 2 <= R.x"), ["l.x"], ["r.x"]
        )
        assert predicate.holds((2,), (4,))

    def test_in_subquery_raises(self):
        with pytest.raises(QuantifierEliminationError):
            derive_subsumption(
                conjuncts("L.x IN (SELECT y FROM t)"), ["l.x"], ["r.x"]
            )


class TestReflexivityProperty:
    @given(st.lists(st.integers(0, 9), min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_reflexive(self, values):
        """w always subsumes itself (R⋉w ⊇ R⋉w)."""
        predicate = derive_subsumption(
            conjuncts("L.x <= R.x", "L.y <= R.y"),
            ["l.x", "l.y"],
            ["r.x", "r.y"],
        )
        w = tuple(values)
        assert predicate.holds(w, w)


class TestDerivationCost:
    """Counts, not timings: how many FME problems one derivation poses."""

    PAIRS = ("hits1", "hruns1", "hits2", "hruns2")

    def derive_pairs(self):
        return derive_subsumption(
            conjuncts(
                *(f"R.{a} >= L.{a}" for a in self.PAIRS),
                " OR ".join(f"R.{a} > L.{a}" for a in self.PAIRS),
            ),
            [f"l.{a}" for a in self.PAIRS],
            [f"r.{a}" for a in self.PAIRS],
        )

    def test_pairs_derivation_stays_within_its_call_budget(self, monkeypatch):
        """10 406 ``implies`` / 11 031 ``is_satisfiable`` before the DNF
        product de-duplicated its conjunctions; 240 / 256 after."""
        from repro.logic import fme

        calls = {"implies": 0, "is_satisfiable": 0}
        implies, is_satisfiable = fme.implies, fme.is_satisfiable

        def counted_implies(premise, conclusion):
            calls["implies"] += 1
            return implies(premise, conclusion)

        def counted_is_satisfiable(constraints):
            calls["is_satisfiable"] += 1
            return is_satisfiable(constraints)

        # The same three module attributes ``bench/layers.LogicProbe``
        # swaps: they must be looked up at call time, or its counters
        # read zero.
        monkeypatch.setattr(fme, "implies", counted_implies)
        monkeypatch.setattr(fme, "is_satisfiable", counted_is_satisfiable)
        predicate = self.derive_pairs()
        assert predicate.holds((1, 1, 1, 1), (1, 2, 1, 2))
        assert not predicate.holds((1, 3, 1, 1), (1, 2, 1, 2))
        assert 0 < calls["implies"] <= 400
        assert 0 < calls["is_satisfiable"] <= 400

    def test_simplify_is_resolved_through_the_module(self, monkeypatch):
        import repro.core.subsumption as subsumption

        seen = []
        simplify = subsumption.simplify
        monkeypatch.setattr(
            subsumption, "simplify", lambda f: seen.append(f) or simplify(f)
        )
        self.derive_pairs()
        assert len(seen) == 1
