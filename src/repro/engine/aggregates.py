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
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanningError
from repro.sql import ast
from repro.engine.expressions import Compiled, columnar_values
from repro.engine.layout import Column, ColumnBatch, dense_codes, numpy_or_none

Row = Tuple[Any, ...]


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
# GROUP BY over rows and over column batches
# ---------------------------------------------------------------------------


def fold_rows(
    key_fns: Sequence[Compiled],
    specs: Sequence[AggregateSpec],
    rows: Sequence[Row],
    groups: Dict[Row, List[Accumulator]],
    params: Dict[str, Any],
) -> None:
    """Feed ``rows`` to the streaming accumulators of ``groups`` (key →
    accumulators, in first-seen order), in row order."""
    for row in rows:
        key = tuple(fn(row, params) for fn in key_fns)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [spec.new() for spec in specs]
            groups[key] = accumulators
        for spec, accumulator in zip(specs, accumulators):
            if spec.argument is None:
                accumulator.add(1)
            else:
                accumulator.add(spec.argument(row, params))


def result_rows(
    specs: Sequence[AggregateSpec], keyed: bool, groups: Dict[Row, List[Accumulator]]
) -> List[Row]:
    """Output rows for folded ``groups``, in first-seen group order."""
    if not groups and not keyed:
        # Scalar aggregate over an empty input still yields one row.
        return [tuple(spec.new().result() for spec in specs)]
    return [
        key + tuple(accumulator.result() for accumulator in accumulators)
        for key, accumulators in groups.items()
    ]


#: The accumulators whose partial state per group is a few integers or
#: one typed value: COUNT a count, SUM/AVG (total, count), MIN/MAX
#: (extremum, count).  The DISTINCT ones hold a set.
_IN_CODES = {
    _CountStar: "COUNT",
    _Count: "COUNT",
    _Sum: "SUM",
    _Avg: "AVG",
    _Min: "MIN",
    _Max: "MAX",
}

#: Pending batch groups are merged once they outnumber twice the groups
#: of the last merge by this many, so what is pending stays a small
#: multiple of the output however many batches come.
_MERGE_SLACK = 1 << 15


class _Part:
    """Groups in first-seen order: per key column the raw data of each
    group's first row, per aggregate its partial-state arrays."""

    __slots__ = ("keys", "states", "size")

    def __init__(self, keys: List[Any], states: List[Tuple[Any, ...]], size: int) -> None:
        self.keys = keys
        self.states = states
        self.size = size


def _first_seen(np: Any, keys: Sequence[Tuple[Any, Optional[int]]]) -> Tuple[Any, Any]:
    """``(group per row, first row per group)``, groups numbered in the
    order their first rows come.  ``keys`` holds ``(codes, radix)`` per
    key column, ``radix`` ``None`` for arbitrary ``int64`` values; the
    composite is a mixed-radix number, re-ranked before it could
    overflow."""
    combined, capacity = keys[0]
    for codes, radix in keys[1:]:
        if radix is None:
            space, codes = np.unique(codes, return_inverse=True)
            radix = len(space)
        if capacity is None or capacity * radix > 2**62:
            space, combined = np.unique(combined, return_inverse=True)
            capacity = len(space)
        combined = combined * radix + codes
        capacity *= radix
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _identity(np: Any, dtype: Any, minimum: bool) -> Any:
    """The value MIN (or MAX) of nothing starts from, in ``dtype``."""
    if dtype == bool:
        return minimum
    if dtype.kind == "f":
        return np.inf if minimum else -np.inf
    info = np.iinfo(dtype)
    return info.max if minimum else info.min


def _counts(np: Any, at: Any, count: int, size: int) -> Any:
    """Rows per group: ``count`` rows in groups ``at``."""
    if size == 1:
        return np.array([count], dtype=np.int64)
    return np.bincount(at, minlength=size)


def _scatter(
    np: Any, ufunc: Any, at: Any, data: Any, size: int, start: Any, dtype: Any
) -> Any:
    """``ufunc`` (``np.add``, ``np.minimum``, ``np.maximum``) over the
    ``data`` of each of ``size`` groups ``at``, from ``start``."""
    if size == 1:  # one group: no scatter
        return np.array([ufunc.reduce(data, dtype=dtype, initial=start)], dtype=dtype)
    out = np.full(size, start, dtype=dtype)
    ufunc.at(out, at, data)
    return out


def _column(kind: str, data: Any, valid: Any = None, dictionary: Any = None) -> Column:
    """An output column; ``valid`` False marks NULL, filled 0."""
    column = Column(kind, len(data))
    if valid is not None and not valid.all():
        data = data.copy()
        data[~valid] = 0
        column.validity = valid
    column.data = data
    column.dictionary = dictionary
    return column


def _averages(np: Any, totals: Any, counts: Any) -> Any:
    """``total / count`` per group as Python's ``int / int`` computes it.

    Both divisions round the exact quotient once, so they agree where
    the operands convert to float exactly: ``|total|, count <= 2^53``.
    Past that, Python divides.
    """
    counts = np.maximum(counts, 1)
    if len(totals) and max(-int(totals.min()), int(totals.max())) > 2**53:
        return np.array(
            [total / count for total, count in zip(totals.tolist(), counts.tolist())],
            dtype=np.float64,
        )
    return totals / counts


class GroupFold:
    """GROUP BY for one execution of an aggregate, over column batches:
    exact, in first-seen group order, touching each group from Python
    at most once.

    A batch folds in *code space* where arrays are exact: its key
    columns become group codes (:func:`dense_codes`), its groups are
    numbered by first row, and COUNT, integer SUM/AVG and MIN/MAX reduce
    to per-group arrays (``np.bincount``, ``np.add.at``,
    ``np.minimum.at``) that stay pending.  Pending batches merge by the
    keys' values — a dictionary's codes, bools, ``i8`` values, ``f8``
    bits with ``-0.0`` read as ``0.0`` — which is sound while every
    pending batch codes its keys alike: same kinds, same dictionaries
    (the ``signature``).  When every batch folded so, :meth:`batches`
    emits the output as columns: keys in their input dictionary, COUNT
    and SUM ``i8``, AVG ``f8``, MIN/MAX in their argument's kind.

    Any other batch — a NULL, NaN or ``obj`` key, DISTINCT, a float
    SUM/AVG (addition order), a NaN or ``-0.0`` MIN/MAX, an integer sum
    whose pending bound reaches 2^63, a signature change (``1`` and
    ``True`` merge as Python merges them only in a dict) — first flushes
    what is pending into ``_groups`` (key → accumulators) and then feeds
    its rows to the accumulators in row order, so first-seen order and
    every result are row mode's.

    Built once per execution; :meth:`rows` ends one evaluation and
    starts the next, for NLJP's kernels, which fold once per binding.
    """

    def __init__(
        self,
        key_fns: Sequence[Compiled],
        specs: Sequence[AggregateSpec],
        ctx: Any,
    ) -> None:
        self._np = numpy_or_none()
        self._params = ctx.params
        self._key_fns = tuple(key_fns)
        self._specs = tuple(specs)
        self._key_evals = [columnar_values(fn, ctx) for fn in key_fns]
        self._arg_evals = [
            columnar_values(spec.argument, ctx) if spec.argument is not None else None
            for spec in specs
        ]
        self._names = [_IN_CODES.get(spec.factory) for spec in specs]
        self._static = "DISTINCT" if None in self._names else None
        self.reset()

    def reset(self) -> None:
        """Forget everything folded: the next batch starts a new evaluation."""
        self._groups: Dict[Row, List[Accumulator]] = {}
        self._parts: List[_Part] = []
        self._pending = 0
        self._merged = 0
        #: Per key, then per aggregate: (kind, dictionary) of the codes
        #: pending (``None`` where any integer kind will do).
        self._signature: List[Any] = []
        #: Σ over pending batches of their widest n · max |x|: no
        #: pending integer total can reach it.
        self._bound = 0
        self._batches = 0
        self._coded = 0
        self._fallback: Optional[Tuple[int, str]] = None

    def add(self, batch: ColumnBatch) -> None:
        """Fold one non-empty batch."""
        reason = self._static or self._add_codes(batch)
        if reason is None:
            self._coded += 1
        else:
            self._flush(self._take())
            if self._fallback is None:
                self._fallback = (self._batches, reason)
            fold_rows(
                self._key_fns, self._specs, batch.cached_rows(), self._groups, self._params
            )
        self._batches += 1

    def describe(self) -> str:
        """``codes → columns``, ``codes → rows (batch n: why)`` or ``rows (why)``."""
        if self._fallback is None:
            return "codes → columns"
        batch, reason = self._fallback
        if self._coded:
            return f"codes → rows (batch {batch}: {reason})"
        return f"rows ({reason})"

    def batches(self, size: int, width: int) -> Iterator[ColumnBatch]:
        """The output, ``size`` rows a batch."""
        done = self._finish()
        if done is None:
            rows = result_rows(self._specs, bool(self._key_fns), self._groups)
            for start in range(0, len(rows), size):
                yield ColumnBatch.from_rows(rows[start : start + size], width)
            return
        whole = ColumnBatch(*done)
        if whole.length <= size:
            yield whole
            return
        for start in range(0, whole.length, size):
            yield whole.slice(start, min(start + size, whole.length))

    def rows(self) -> List[Row]:
        """The output rows; the fold is empty again afterwards."""
        parts = self._parts
        if parts and self._fallback is None:
            # Straight from the arrays: building output columns first
            # makes the one-group evaluations of NLJP's kernels ~1.5x slower.
            rows = self._rows(parts[0] if len(parts) == 1 else self._merge(parts))
        else:
            self._flush(self._take())
            rows = result_rows(self._specs, bool(self._key_fns), self._groups)
        self.reset()
        return rows

    # -- code space ------------------------------------------------------
    def _add_codes(self, batch: ColumnBatch) -> Optional[str]:
        """Fold ``batch`` into the pending parts, or say why not (and
        change nothing)."""
        np = self._np
        params = self._params
        signature: List[Any] = []
        keys = []
        codes = []
        for evaluate in self._key_evals:
            column = evaluate(batch, params)
            coded = dense_codes(column)
            if coded is None:
                return f"{column.kind} key"
            if column.validity is not None and not column.validity.all():
                return "NULL key"
            if column.kind == "f8" and np.isnan(coded[1][-1]):
                return "NaN key"
            signature.append((column.kind, column.dictionary))
            keys.append(column.data)
            codes.append((coded[0], len(coded[1])))
        if codes:
            slots, first = _first_seen(np, codes)
            keys = [data[first] for data in keys]
            size = len(first)
        else:
            slots = None
            size = 1
        states = []
        widest = 0  # the largest n · max |x| of this batch's integer sums
        for name, evaluate in zip(self._names, self._arg_evals):
            if evaluate is None:  # COUNT(*)
                signature.append(None)
                states.append((_counts(np, slots, batch.length, size),))
                continue
            column = evaluate(batch, params).materialize()
            kind = column.kind
            if kind == "obj":
                return "obj argument"
            data = column.data
            at = slots
            if column.validity is not None:
                data = data[column.validity]
                if at is not None:
                    at = at[column.validity]
            counts = _counts(np, at, len(data), size)
            if name == "COUNT":
                signature.append(None)
                states.append((counts,))
            elif name in ("SUM", "AVG"):
                if kind not in ("i8", "bool"):
                    return f"float {name}" if kind == "f8" else f"{kind} {name}"
                if len(data):
                    widest = max(widest, len(data) * max(-int(data.min()), int(data.max())))
                totals = _scatter(np, np.add, at, data, size, 0, np.int64)
                signature.append(None)
                states.append((totals, counts))
            else:
                if kind == "f8" and (
                    np.isnan(data).any() or np.signbit(data[data == 0.0]).any()
                ):
                    # The streaming result depends on comparison order.
                    return f"NaN or -0.0 {name}"
                minimum = name == "MIN"
                extremes = _scatter(
                    np,
                    np.minimum if minimum else np.maximum,
                    at,
                    data,
                    size,
                    _identity(np, data.dtype, minimum),
                    data.dtype,
                )
                signature.append((kind, column.dictionary))
                states.append((extremes, counts))
        if self._bound + widest >= 2**63:
            return "int64 bound"  # a total could wrap; Python ints do not
        if self._parts and signature != self._signature:
            width = len(self._key_evals)
            changed = signature[:width] != self._signature[:width]
            return "key kind changed" if changed else "argument kind changed"
        self._signature = signature
        self._bound += widest
        self._parts.append(_Part(keys, states, size))
        self._pending += size
        if self._pending > 2 * self._merged + _MERGE_SLACK:
            merged = self._merge(self._parts)
            self._parts = [merged]
            self._pending = self._merged = merged.size
        return None

    def _merge(self, parts: List[_Part]) -> _Part:
        """``parts`` as one, their groups merged by key value."""
        np = self._np
        if len(parts) == 1:
            return parts[0]
        keys = [np.concatenate(raw) for raw in zip(*(part.keys for part in parts))]
        if keys:
            stable = []
            for (kind, _), raw in zip(self._signature, keys):
                if kind == "f8":  # -0.0 + 0.0 is 0.0; NaN keys never get here
                    stable.append(((raw + 0.0).view(np.int64), None))
                else:
                    stable.append((raw.astype(np.int64, copy=False), None))
            slots, first = _first_seen(np, stable)
            keys = [raw[first] for raw in keys]
            size = len(first)
        else:
            slots = np.zeros(len(parts), dtype=np.int64)
            size = 1
        states = []
        for name, pieces in zip(self._names, zip(*(part.states for part in parts))):
            merged = []
            for position, arrays in enumerate(zip(*pieces)):
                joined = np.concatenate(arrays)
                if position == 0 and name in ("MIN", "MAX"):
                    minimum = name == "MIN"
                    ufunc = np.minimum if minimum else np.maximum
                    start = _identity(np, joined.dtype, minimum)
                    merged.append(_scatter(np, ufunc, slots, joined, size, start, joined.dtype))
                else:
                    merged.append(_scatter(np, np.add, slots, joined, size, 0, np.int64))
            states.append(tuple(merged))
        return _Part(keys, states, size)

    def _take(self) -> Optional[_Part]:
        """What is pending, merged; nothing is pending afterwards."""
        if not self._parts:
            return None
        part = self._merge(self._parts)
        self._parts = []
        self._pending = self._merged = self._bound = 0
        return part

    def _finish(self) -> Optional[Tuple[List[Column], int]]:
        """The output as ``(columns, length)`` when every batch folded in
        code space; otherwise ``None``, with everything in ``_groups``."""
        part = self._take()
        if part is not None and self._fallback is None:
            return self._columns(part), part.size
        self._flush(part)
        return None

    def _columns(self, part: _Part) -> List[Column]:
        np = self._np
        width = len(self._key_evals)
        columns = [
            _column(kind, raw, dictionary=dictionary)
            for raw, (kind, dictionary) in zip(part.keys, self._signature)
        ]
        for name, state, signature in zip(
            self._names, part.states, self._signature[width:]
        ):
            counts = state[-1]
            if name == "COUNT":
                columns.append(_column("i8", counts))
            elif name == "SUM":
                columns.append(_column("i8", state[0], counts > 0))
            elif name == "AVG":
                columns.append(_column("f8", _averages(np, *state), counts > 0))
            else:
                kind, dictionary = signature
                columns.append(_column(kind, state[0], counts > 0, dictionary))
        return columns

    def _decode(self, part: _Part) -> Tuple[List[Any], List[Tuple[List[Any], List[Any]]]]:
        """``part`` in Python values: per key column its keys, per
        aggregate ``(values, counts)`` (MIN/MAX decoded; COUNT's values
        are its counts)."""
        signature = self._signature
        keys = []
        for raw, (kind, dictionary) in zip(part.keys, signature):
            keys.append(_column(kind, raw, dictionary=dictionary).tolist())
        states = []
        for extent, state in zip(signature[len(keys) :], part.states):
            counts = state[-1].tolist()
            if extent is None:  # COUNT's state is its count alone
                states.append((state[0].tolist() if len(state) > 1 else counts, counts))
                continue
            kind, dictionary = extent  # MIN / MAX; a group with no value is NULL
            extremes = _column(kind, state[0], state[-1] > 0, dictionary)
            states.append((extremes.tolist(), counts))
        return keys, states

    def _rows(self, part: _Part) -> List[Row]:
        """Output rows straight from a part (no accumulators)."""
        columns, states = self._decode(part)
        for name, (values, counts) in zip(self._names, states):
            if name == "COUNT":
                columns.append(counts)
            elif name == "AVG":
                columns.append([t / c if c else None for t, c in zip(values, counts)])
            else:
                columns.append([v if c else None for v, c in zip(values, counts)])
        return list(zip(*columns)) if columns else [()] * part.size

    def _flush(self, part: Optional[_Part]) -> None:
        """Fold a merged part into ``_groups``, one visit per group."""
        if part is None:
            return
        keys, states = self._decode(part)
        groups = self._groups
        specs = self._specs
        for group, key in enumerate(zip(*keys) if keys else [()]):
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = [spec.new() for spec in specs]
            for name, accumulator, state in zip(self._names, accumulators, states):
                count = state[-1][group]
                if name == "COUNT":
                    accumulator.count += count
                elif not count:
                    continue
                elif name == "SUM":
                    accumulator.total += state[0][group]
                    accumulator.seen = True
                elif name == "AVG":
                    accumulator.total += state[0][group]
                    accumulator.count += count
                else:
                    accumulator.add(state[0][group])


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
