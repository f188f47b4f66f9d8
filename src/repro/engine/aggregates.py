"""Aggregate accumulators and the algebraic (f^i, f^o) decomposition.

Besides the plain accumulators the executor uses for GROUP BY, this
module implements the *algebraic aggregate* notion from Gray et al.
(the paper's [10]) that Section 6 / Appendix C rely on: an aggregate
``f`` is algebraic when there are bounded-size partial states such that
``f(S) = f_outer({f_inner(S_i)})`` for any partition ``{S_i}`` of
``S``.  NLJP memoization caches the *partial* states keyed by binding
and combines them when an LR-group spans multiple bindings.

SQL NULL rules: all aggregates ignore NULL inputs except COUNT(*);
SUM/MIN/MAX/AVG over an empty (or all-NULL) input yield NULL, COUNT
yields 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import PlanningError
from repro.sql import ast
from repro.engine.expressions import Compiled


class Accumulator:
    """Streaming accumulator interface for one aggregate over one group."""

    # Empty slots here keep subclasses' ``__slots__`` effective: a
    # slotted subclass of an unslotted base still grows a ``__dict__``.
    __slots__ = ()

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _CountStar(Accumulator):
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> int:
        return self.count


class _Count(Accumulator):
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> int:
        return self.count


class _CountDistinct(Accumulator):
    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: set = set()

    def add(self, value: Any) -> None:
        if value is not None:
            self.values.add(value)

    def result(self) -> int:
        return len(self.values)


class _Sum(Accumulator):
    __slots__ = ("total", "seen")

    def __init__(self) -> None:
        self.total: Any = 0
        self.seen = False

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.seen = True

    def result(self) -> Any:
        return self.total if self.seen else None


class _SumDistinct(Accumulator):
    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: set = set()

    def add(self, value: Any) -> None:
        if value is not None:
            self.values.add(value)

    def result(self) -> Any:
        return sum(self.values) if self.values else None


class _Avg(Accumulator):
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total: Any = 0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.count += 1

    def result(self) -> Any:
        return self.total / self.count if self.count else None


class _AvgDistinct(Accumulator):
    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: set = set()

    def add(self, value: Any) -> None:
        if value is not None:
            self.values.add(value)

    def result(self) -> Any:
        return sum(self.values) / len(self.values) if self.values else None


class _Min(Accumulator):
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self.value is None or value < self.value):
            self.value = value

    def result(self) -> Any:
        return self.value


class _Max(Accumulator):
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self.value is None or value > self.value):
            self.value = value

    def result(self) -> Any:
        return self.value


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate slot of a grouping operator.

    ``argument`` is the compiled input expression (``None`` for
    COUNT(*)); ``factory`` builds a fresh accumulator per group.
    """

    call: ast.FuncCall
    argument: Optional[Compiled]
    factory: Callable[[], Accumulator]

    def new(self) -> Accumulator:
        return self.factory()


def make_spec(call: ast.FuncCall, argument: Optional[Compiled]) -> AggregateSpec:
    """Build an :class:`AggregateSpec` for an aggregate call.

    ``argument`` must be the compiled arg expression, or None when the
    argument is ``*``.
    """
    name = call.name
    star = len(call.args) == 1 and isinstance(call.args[0], ast.Star)
    if name == "COUNT":
        if star:
            factory: Callable[[], Accumulator] = _CountStar
        elif call.distinct:
            factory = _CountDistinct
        else:
            factory = _Count
    elif name == "SUM":
        factory = _SumDistinct if call.distinct else _Sum
    elif name == "AVG":
        factory = _AvgDistinct if call.distinct else _Avg
    elif name == "MIN":
        factory = _Min
    elif name == "MAX":
        factory = _Max
    else:
        raise PlanningError(f"unsupported aggregate {name!r}")
    if not star and len(call.args) != 1:
        raise PlanningError(f"{name} takes exactly one argument")
    return AggregateSpec(call=call, argument=None if star else argument, factory=factory)


# ---------------------------------------------------------------------------
# Columnar (vectorized) per-batch partials
# ---------------------------------------------------------------------------


def vector_fold(spec: AggregateSpec):
    """A ``(partials, fold)`` pair for vectorized grouping, or ``None``.

    ``partials(column, inverse, n_groups)`` reduces one batch to one
    bounded partial state per batch-group (plain Python values), where
    ``inverse`` maps each batch row to its group slot.  It returns
    ``None`` at runtime when the argument column's storage kind has no
    *exact* vector form: float and object SUM/AVG stay on the row path
    because ``numpy`` reassociates additions while row mode folds in
    row order, as do integer sums large enough to wrap an ``int64``
    and float MIN/MAX over NaN or ``-0.0``.  ``fold(accumulator,
    partial)`` then merges a partial into the group's streaming
    accumulator — both steps are exact algebraic decompositions
    (:class:`AlgebraicForm`), so the final results match row mode bit
    for bit.

    DISTINCT aggregates return ``None`` outright: their partial state
    is the unbounded distinct set (see :func:`is_algebraic`).
    """
    from repro.engine.layout import numpy_or_none

    np = numpy_or_none()
    if np is None:
        return None
    factory = spec.factory
    if factory is _CountStar:

        def count_star_partials(column, inverse, n_groups):
            if n_groups == 1:
                return [len(inverse)]
            return np.bincount(inverse, minlength=n_groups).tolist()

        def count_fold(accumulator, partial):
            accumulator.count += partial

        return count_star_partials, count_fold
    if factory is _Count:

        def count_partials(column, inverse, n_groups):
            column.materialize()
            if column.kind not in ("i8", "f8", "bool", "dict"):
                return None  # object columns: NULLs live inline, not in a mask
            validity = column.validity
            selected = inverse if validity is None else inverse[validity]
            return np.bincount(selected, minlength=n_groups).tolist()

        def count_fold(accumulator, partial):
            accumulator.count += partial

        return count_partials, count_fold
    if factory in (_Sum, _Avg):

        def sum_partials(column, inverse, n_groups):
            column.materialize()
            if column.kind not in ("i8", "bool"):
                return None  # float addition order matters; keep row order
            data = column.data
            validity = column.validity
            if validity is not None:
                inverse = inverse[validity]
                data = data[validity]
            if data.size and data.size * max(
                abs(int(data.min())), abs(int(data.max()))
            ) >= 2**63:
                return None  # an int64 total could wrap; Python ints do not
            totals = np.zeros(n_groups, dtype=np.int64)
            np.add.at(totals, inverse, data)
            counts = np.bincount(inverse, minlength=n_groups)
            return list(zip(totals.tolist(), counts.tolist()))

        if factory is _Avg:

            def sum_fold(accumulator, partial):
                accumulator.total += partial[0]
                accumulator.count += partial[1]

        else:

            def sum_fold(accumulator, partial):
                if partial[1]:
                    accumulator.total += partial[0]
                    accumulator.seen = True

        return sum_partials, sum_fold
    if factory in (_Min, _Max):
        minimum = factory is _Min

        def extremum_partials(column, inverse, n_groups):
            column.materialize()
            kind = column.kind
            if kind not in ("i8", "f8", "bool", "dict"):
                return None
            data = column.data
            validity = column.validity
            if validity is not None:
                inverse = inverse[validity]
                data = data[validity]
            counts = np.bincount(inverse, minlength=n_groups).tolist()
            if kind == "f8":
                if np.isnan(data).any() or np.signbit(data[data == 0.0]).any():
                    # NaN and -0.0 make the streaming result depend on
                    # comparison order; keep row order.
                    return None
                sentinel = np.inf if minimum else -np.inf
                out = np.full(n_groups, sentinel, dtype=np.float64)
            elif kind == "bool":
                out = np.full(n_groups, minimum, dtype=bool)
            else:
                info = np.iinfo(data.dtype)
                out = np.full(
                    n_groups, info.max if minimum else info.min, dtype=data.dtype
                )
            (np.minimum if minimum else np.maximum).at(out, inverse, data)
            values = out.tolist()
            if kind == "dict":
                dictionary = column.dictionary or ("",)
                return [
                    dictionary[value] if count else None
                    for value, count in zip(values, counts)
                ]
            return [
                value if count else None for value, count in zip(values, counts)
            ]

        def extremum_fold(accumulator, partial):
            accumulator.add(partial)  # None partials are ignored, like NULLs

        return extremum_partials, extremum_fold
    return None


# ---------------------------------------------------------------------------
# Algebraic decomposition (Section 6 / Appendix C)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicForm:
    """The (f^i, f^o) pair for an algebraic aggregate.

    ``partial(values)`` computes the bounded-size partial state of one
    partition; ``combine(states)`` merges partial states of disjoint
    partitions; ``finalize(state)`` produces the SQL result.
    """

    name: str
    partial: Callable[[Sequence[Any]], Any]
    combine: Callable[[Sequence[Any]], Any]
    finalize: Callable[[Any], Any]


def _non_null(values: Sequence[Any]) -> List[Any]:
    return [value for value in values if value is not None]


_ALGEBRAIC: Dict[str, AlgebraicForm] = {
    "COUNT*": AlgebraicForm(
        "COUNT*",
        partial=lambda values: len(values),
        combine=lambda states: sum(states),
        finalize=lambda state: state,
    ),
    "COUNT": AlgebraicForm(
        "COUNT",
        partial=lambda values: len(_non_null(values)),
        combine=lambda states: sum(states),
        finalize=lambda state: state,
    ),
    "SUM": AlgebraicForm(
        "SUM",
        partial=lambda values: sum(_non_null(values)) if _non_null(values) else None,
        combine=lambda states: (
            sum(s for s in states if s is not None)
            if any(s is not None for s in states)
            else None
        ),
        finalize=lambda state: state,
    ),
    "MIN": AlgebraicForm(
        "MIN",
        partial=lambda values: min(_non_null(values), default=None),
        combine=lambda states: min(
            (s for s in states if s is not None), default=None
        ),
        finalize=lambda state: state,
    ),
    "MAX": AlgebraicForm(
        "MAX",
        partial=lambda values: max(_non_null(values), default=None),
        combine=lambda states: max(
            (s for s in states if s is not None), default=None
        ),
        finalize=lambda state: state,
    ),
    "AVG": AlgebraicForm(
        "AVG",
        partial=lambda values: (
            (sum(_non_null(values)), len(_non_null(values)))
        ),
        combine=lambda states: (
            sum(s[0] for s in states),
            sum(s[1] for s in states),
        ),
        finalize=lambda state: (state[0] / state[1]) if state and state[1] else None,
    ),
}


def is_algebraic(call: ast.FuncCall) -> bool:
    """Is this aggregate algebraic in the sense of Gray et al.?

    DISTINCT aggregates are *not* algebraic (their partial state is
    unbounded: the full distinct set), which is exactly why Section 6
    requires algebraic aggregates only when partial results must be
    merged across bindings.
    """
    return call.name in ("COUNT", "SUM", "MIN", "MAX", "AVG") and not call.distinct


def algebraic_form(call: ast.FuncCall) -> AlgebraicForm:
    """The (f^i, f^o) decomposition for an algebraic aggregate call."""
    if not is_algebraic(call):
        raise PlanningError(f"{call.name} (DISTINCT={call.distinct}) is not algebraic")
    star = len(call.args) == 1 and isinstance(call.args[0], ast.Star)
    key = "COUNT*" if call.name == "COUNT" and star else call.name
    return _ALGEBRAIC[key]
