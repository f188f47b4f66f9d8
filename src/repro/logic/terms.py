"""Linear terms over named variables with exact rational coefficients.

A :class:`LinearTerm` represents ``c0 + c1*x1 + ... + cn*xn``.  All
arithmetic is exact (``fractions.Fraction``), so Fourier-Motzkin
elimination never suffers floating-point drift.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from repro.errors import QuantifierEliminationError

Number = Union[int, float, Fraction]


def _fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    raise QuantifierEliminationError(f"non-numeric coefficient {value!r}")


class LinearTerm:
    """An immutable linear combination of variables plus a constant."""

    __slots__ = ("coefficients", "constant", "_key", "_hash")

    def __init__(
        self,
        coefficients: Mapping[str, Number] | None = None,
        constant: Number = 0,
    ) -> None:
        cleaned: Dict[str, Fraction] = {}
        for variable, coefficient in (coefficients or {}).items():
            value = _fraction(coefficient)
            if value != 0:
                cleaned[variable] = value
        self.coefficients: Dict[str, Fraction] = cleaned
        self.constant: Fraction = _fraction(constant)
        # Identity key, built once: terms are compared and hashed far
        # more often than they are made (every de-duplication in the
        # DNF and FME loops goes through ``==``/``hash``).  The hash
        # is kept on first use — ``Fraction.__hash__`` is a modular
        # inverse, not a field read.
        self._key = (tuple(sorted(cleaned.items())), self.constant)
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def variable(cls, name: str) -> "LinearTerm":
        return cls({name: 1})

    @classmethod
    def const(cls, value: Number) -> "LinearTerm":
        return cls({}, value)

    # -- algebra ----------------------------------------------------
    def __add__(self, other: "LinearTerm") -> "LinearTerm":
        coefficients = dict(self.coefficients)
        for variable, coefficient in other.coefficients.items():
            coefficients[variable] = coefficients.get(variable, Fraction(0)) + coefficient
        return LinearTerm(coefficients, self.constant + other.constant)

    def __sub__(self, other: "LinearTerm") -> "LinearTerm":
        return self + other.scale(-1)

    def scale(self, factor: Number) -> "LinearTerm":
        factor = _fraction(factor)
        return LinearTerm(
            {v: c * factor for v, c in self.coefficients.items()},
            self.constant * factor,
        )

    def multiply(self, other: "LinearTerm") -> "LinearTerm":
        """Multiplication, defined only when one side is constant."""
        if not other.coefficients:
            return self.scale(other.constant)
        if not self.coefficients:
            return other.scale(self.constant)
        raise QuantifierEliminationError(
            "non-linear product of variables is outside the FME fragment"
        )

    def divide(self, other: "LinearTerm") -> "LinearTerm":
        if other.coefficients:
            raise QuantifierEliminationError(
                "division by a variable is outside the FME fragment"
            )
        if other.constant == 0:
            raise QuantifierEliminationError("division by zero in constraint")
        return self.scale(Fraction(1) / other.constant)

    # -- inspection ---------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.coefficients

    def variables(self) -> frozenset:
        return frozenset(self.coefficients)

    def coefficient(self, variable: str) -> Fraction:
        return self.coefficients.get(variable, Fraction(0))

    def drop(self, variable: str) -> "LinearTerm":
        """The term with ``variable``'s contribution removed."""
        coefficients = {
            v: c for v, c in self.coefficients.items() if v != variable
        }
        return LinearTerm(coefficients, self.constant)

    def substitute(self, variable: str, replacement: "LinearTerm") -> "LinearTerm":
        """Replace ``variable`` by ``replacement``."""
        coefficient = self.coefficient(variable)
        if coefficient == 0:
            return self
        return self.drop(variable) + replacement.scale(coefficient)

    def evaluate(self, assignment: Mapping[str, Number]) -> Fraction:
        total = self.constant
        for variable, coefficient in self.coefficients.items():
            total += coefficient * _fraction(assignment[variable])
        return total

    # -- identity ---------------------------------------------------
    def canonical(self) -> Tuple[Tuple[Tuple[str, Fraction], ...], Fraction]:
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearTerm):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._key)
        return value

    def __repr__(self) -> str:
        parts = []
        for variable, coefficient in sorted(self.coefficients.items()):
            if coefficient == 1:
                parts.append(f"+{variable}")
            elif coefficient == -1:
                parts.append(f"-{variable}")
            else:
                parts.append(f"{'+' if coefficient > 0 else ''}{coefficient}*{variable}")
        if self.constant != 0 or not parts:
            parts.append(f"{'+' if self.constant > 0 else ''}{self.constant}")
        text = " ".join(parts)
        return text[1:] if text.startswith("+") else text
