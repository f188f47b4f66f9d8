"""Row layouts and the columnar batch format.

During execution a row is a flat Python tuple.  A :class:`Layout`
records, for each position, the binding alias (FROM alias) and column
name, and resolves qualified and unqualified references with SQL's
ambiguity rules.

Columnar execution (``EngineConfig.execution_mode="columnar"``) keeps
the same logical layout but carries data as a :class:`ColumnBatch` —
one typed :class:`Column` per layout slot:

* numeric/bool columns are NumPy arrays with NULL slots *filled* (0)
  and tracked by a separate validity mask (``None`` == no NULLs);
* string columns are dictionary-encoded (sorted dictionary, so code
  order mirrors value order) as ``int32`` code arrays;
* everything else degrades to an object array with ``None`` inline.

Columns may be *lazy*: a gather (source column + index array), a
slice view, a broadcast constant, or a deferred thunk — all
materialized on first access, so joins only pay for the columns an
expression actually touches (late materialization).

When NumPy is not importable the same classes fall back to plain
Python lists: every operation stays correct, the fused kernels in
:mod:`repro.engine.expressions` simply decline to build and operators
take their row-fallback paths.

Zone maps (:func:`build_zone_maps`) summarize each chunk of a column
store with the min/max/null-count triple of the statistics subsystem's
:class:`~repro.storage.statistics.ColumnStats`, letting scans prove a
predicate unsatisfiable for a whole chunk without touching its rows.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanningError

try:  # NumPy is optional: pure-Python fallbacks keep everything correct.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None


def numpy_or_none():
    """The NumPy module, or ``None`` (tests monkeypatch ``_np``)."""
    return _np


class Layout:
    """An ordered list of ``(alias, column)`` slots with name resolution."""

    def __init__(self, slots: Sequence[Tuple[Optional[str], str]]) -> None:
        # ``str.lower`` makes a new string every time; interned, the
        # few dozen distinct names of a schema are shared by every
        # layout of every cached plan instead of copied into each.
        intern = sys.intern
        self._slots: Tuple[Tuple[Optional[str], str], ...] = tuple(
            (intern(alias.lower()) if alias else None, intern(column.lower()))
            for alias, column in slots
        )
        self._qualified: Dict[Tuple[str, str], int] = {}
        self._unqualified: Dict[str, List[int]] = {}
        for position, (alias, column) in enumerate(self._slots):
            if alias is not None:
                key = (alias, column)
                # Keep the first occurrence; duplicates within one alias
                # cannot happen for base tables.
                self._qualified.setdefault(key, position)
            self._unqualified.setdefault(column, []).append(position)

    @property
    def slots(self) -> Tuple[Tuple[Optional[str], str], ...]:
        return self._slots

    @property
    def width(self) -> int:
        return len(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:
        names = ", ".join(
            f"{alias}.{column}" if alias else column for alias, column in self._slots
        )
        return f"Layout({names})"

    def concat(self, other: "Layout") -> "Layout":
        return Layout(self._slots + other._slots)

    def resolve(self, table: Optional[str], column: str) -> int:
        """Resolve a reference to a slot position.

        Qualified references must match exactly; unqualified references
        must be unambiguous across all slots.
        """
        column = column.lower()
        if table is not None:
            table = table.lower()
            position = self._qualified.get((table, column))
            if position is None:
                raise PlanningError(f"unknown column {table}.{column}")
            return position
        positions = self._unqualified.get(column)
        if not positions:
            raise PlanningError(f"unknown column {column}")
        if len(positions) > 1:
            raise PlanningError(f"ambiguous column reference {column!r}")
        return positions[0]

    def try_resolve(self, table: Optional[str], column: str) -> Optional[int]:
        """Like :meth:`resolve` but returns None instead of raising."""
        try:
            return self.resolve(table, column)
        except PlanningError:
            return None

    def positions_for_alias(self, alias: str) -> List[int]:
        alias = alias.lower()
        return [
            position
            for position, (slot_alias, _) in enumerate(self._slots)
            if slot_alias == alias
        ]

    def aliases(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for alias, _ in self._slots:
            if alias is not None and alias not in seen:
                seen.append(alias)
        return tuple(seen)


# ---------------------------------------------------------------------------
# Columnar batches
# ---------------------------------------------------------------------------

#: Column storage kinds.  ``py`` is the pure-Python fallback (a plain
#: list holding exact values, ``None`` inline).
COLUMN_KINDS = ("i8", "f8", "bool", "dict", "obj", "py")


class Column:
    """One typed column of a :class:`ColumnBatch` (possibly lazy).

    Concrete storage (after :meth:`materialize`):

    ==========  =====================================  ==================
    kind        ``data``                               NULL representation
    ==========  =====================================  ==================
    ``i8``      ``int64`` ndarray (NULLs filled 0)     validity mask
    ``f8``      ``float64`` ndarray (filled 0.0)       validity mask
    ``bool``    ``bool`` ndarray (filled False)        validity mask
    ``dict``    ``int32`` code ndarray (filled 0)      validity mask
    ``obj``     ``object`` ndarray                     ``None`` inline
    ``py``      plain Python list                      ``None`` inline
    ==========  =====================================  ==================

    ``validity`` is ``None`` when every slot is valid.  ``dict``
    columns carry a *sorted* ``dictionary`` tuple, so code order is
    value order and code-space min/max decode to value-space min/max.

    Lazy forms — a gather over a source column, a slice view, a
    broadcast constant, or a deferred thunk — materialize on first
    access; building one is O(1).
    """

    __slots__ = (
        "kind",
        "length",
        "data",
        "validity",
        "dictionary",
        "_values",
        "_source",
        "_indices",
        "_start",
        "_const",
        "_thunk",
    )

    def __init__(self, kind: Optional[str], length: int) -> None:
        self.kind = kind
        self.length = length
        self.data: Any = None
        self.validity: Any = None
        self.dictionary: Optional[Tuple[Any, ...]] = None
        self._values: Any = None  # cached comparison-ready form (dict)
        self._source: Optional["Column"] = None
        self._indices: Any = None
        self._start: Optional[int] = None
        self._const: Any = None
        self._thunk: Optional[Callable[[], "Column"]] = None

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Column({self.kind}, n={self.length})"

    # -- constructors --------------------------------------------------
    @classmethod
    def from_values(cls, values: Sequence[Any], dict_strings: bool = True) -> "Column":
        """Build a materialized column, inferring the best storage kind.

        Inference is conservative: a kind is only chosen when decoding
        provably round-trips the exact Python values (mixed int/float
        or oversized ints degrade to ``obj``; without NumPy, to ``py``).
        """
        n = len(values)
        column = cls(None, n)
        if _np is None:
            column.kind = "py"
            column.data = list(values)
            return column
        saw_null = saw_bool = saw_int = saw_float = saw_str = saw_other = False
        for value in values:
            if value is None:
                saw_null = True
            elif isinstance(value, bool):
                saw_bool = True
            elif isinstance(value, int):
                saw_int = True
            elif isinstance(value, float):
                saw_float = True
            elif isinstance(value, str):
                saw_str = True
            else:
                saw_other = True
        validity = None
        if saw_null:
            validity = _np.fromiter(
                (value is not None for value in values), dtype=bool, count=n
            )
        numeric = saw_bool + saw_int + saw_float + saw_str + saw_other
        try:
            if saw_other or numeric > 1 or (saw_bool and saw_int):
                raise OverflowError  # mixed types: exactness needs objects
            if saw_str:
                if not dict_strings:
                    raise OverflowError
                dictionary = tuple(sorted({v for v in values if v is not None}))
                codes = {value: code for code, value in enumerate(dictionary)}
                column.kind = "dict"
                column.dictionary = dictionary
                column.data = _np.fromiter(
                    (0 if v is None else codes[v] for v in values),
                    dtype=_np.int32,
                    count=n,
                )
            elif saw_bool:
                column.kind = "bool"
                column.data = _np.fromiter(
                    (False if v is None else v for v in values), dtype=bool, count=n
                )
            elif saw_float:
                column.kind = "f8"
                column.data = _np.fromiter(
                    (0.0 if v is None else v for v in values),
                    dtype=_np.float64,
                    count=n,
                )
            else:  # ints only (possibly all-NULL)
                column.kind = "i8"
                column.data = _np.fromiter(
                    (0 if v is None else v for v in values), dtype=_np.int64, count=n
                )
        except OverflowError:
            column.kind = "obj"
            data = _np.empty(n, dtype=object)
            for position, value in enumerate(values):
                data[position] = value
            column.data = data
        column.validity = validity
        return column

    @classmethod
    def const(cls, value: Any, length: int) -> "Column":
        """A broadcast constant (one outer-row value across a batch)."""
        column = cls(None, length)
        column._const = (value,)
        return column

    @classmethod
    def deferred(cls, thunk: Callable[[], "Column"], length: int) -> "Column":
        """A column resolved by ``thunk`` on first access."""
        column = cls(None, length)
        column._thunk = thunk
        return column

    @classmethod
    def concat(cls, columns: Sequence["Column"]) -> "Column":
        """``columns`` end to end, as one materialized column.

        Columns of one typed kind join their arrays and dictionary
        columns merge their dictionaries; any other mix re-encodes the
        exact values, which is what :meth:`from_values` would have
        chosen for the whole sequence.
        """
        for column in columns:
            column.materialize()
        kinds = {column.kind for column in columns}
        if len(kinds) != 1 or kinds <= {"py", "obj"}:
            values: List[Any] = []
            for column in columns:
                values.extend(column.tolist())
            return cls.from_values(values)
        (kind,) = kinds
        joined = cls(kind, sum(column.length for column in columns))
        if kind == "dict":
            dictionary = tuple(
                sorted(set().union(*(column.dictionary or () for column in columns)))
            )
            codes = {value: code for code, value in enumerate(dictionary)}
            parts = []
            for column in columns:
                if column.dictionary == dictionary:
                    parts.append(column.data)
                    continue
                remap = _np.fromiter(
                    (codes[value] for value in column.dictionary), dtype=_np.int32
                )
                parts.append(remap[column.data])
            joined.dictionary = dictionary
            joined.data = _np.concatenate(parts)
        else:
            joined.data = _np.concatenate([column.data for column in columns])
        if any(column.validity is not None for column in columns):
            joined.validity = _np.concatenate(
                [
                    column.validity
                    if column.validity is not None
                    else _np.ones(column.length, dtype=bool)
                    for column in columns
                ]
            )
        return joined

    # -- materialization -----------------------------------------------
    def materialize(self) -> "Column":
        """Resolve any lazy form in place; returns ``self``."""
        if self.data is not None:
            return self
        if self._thunk is not None:
            resolved = self._thunk().materialize()
            self._thunk = None
            self._adopt(resolved)
            return self
        if self._const is not None:
            self._materialize_const()
            return self
        source = self._source
        assert source is not None, "column has no storage and no lazy form"
        source.materialize()
        self.kind = source.kind
        self.dictionary = source.dictionary
        if self._indices is not None:
            indices = self._indices
            if source.kind == "py":
                self.data = [source.data[i] for i in indices]
                if source.validity is not None:
                    self.validity = [source.validity[i] for i in indices]
            else:
                self.data = source.data[indices]
                if source.validity is not None:
                    self.validity = source.validity[indices]
                if source._values is not None:
                    self._values = source._values[indices]
        else:
            start = self._start
            stop = start + self.length
            self.data = source.data[start:stop]
            if source.validity is not None:
                self.validity = source.validity[start:stop]
            if source._values is not None:
                self._values = source._values[start:stop]
        self._source = None
        self._indices = None
        return self

    def _adopt(self, other: "Column") -> None:
        self.kind = other.kind
        self.data = other.data
        self.validity = other.validity
        self.dictionary = other.dictionary
        self._values = other._values

    def _materialize_const(self) -> None:
        (value,) = self._const
        n = self.length
        if _np is None:
            self.kind = "py"
            self.data = [value] * n
            return
        if value is None:
            self.kind = "i8"
            self.data = _np.zeros(n, dtype=_np.int64)
            self.validity = _np.zeros(n, dtype=bool)
        elif isinstance(value, bool):
            self.kind = "bool"
            self.data = _np.full(n, value, dtype=bool)
        elif isinstance(value, int):
            try:
                self.kind = "i8"
                self.data = _np.full(n, value, dtype=_np.int64)
            except OverflowError:
                self.kind = "obj"
                self.data = _np.full(n, value, dtype=object)
        elif isinstance(value, float):
            self.kind = "f8"
            self.data = _np.full(n, value, dtype=_np.float64)
        elif isinstance(value, str):
            self.kind = "dict"
            self.dictionary = (value,)
            self.data = _np.zeros(n, dtype=_np.int32)
        else:
            self.kind = "obj"
            data = _np.empty(n, dtype=object)
            for position in range(n):
                data[position] = value
            self.data = data

    # -- kernel-facing accessors ---------------------------------------
    def values(self) -> Any:
        """Comparison-ready vector: dict columns decode (NULLs filled)."""
        self.materialize()
        if self.kind != "dict":
            return self.data
        if self._values is None:
            lut = _np.array(self.dictionary or ("",), dtype=object)
            self._values = lut[self.data]
        return self._values

    def mask(self) -> Any:
        """Validity vector (``True`` == valid) or ``None`` when all valid."""
        self.materialize()
        return self.validity

    # -- restriction ----------------------------------------------------
    def take(self, indices: Any) -> "Column":
        """Lazy gather; ``indices`` is an int ndarray (or list)."""
        taken = Column(None, len(indices))
        taken._source = self
        taken._indices = indices
        return taken

    def slice(self, start: int, stop: int) -> "Column":
        """Lazy zero-copy view of ``[start, stop)``."""
        view = Column(None, stop - start)
        view._source = self
        view._start = start
        return view

    def compress(self, mask: Any) -> "Column":
        """Rows where the boolean ``mask`` is true, preserving order."""
        if _np is not None and isinstance(mask, _np.ndarray):
            return self.take(_np.nonzero(mask)[0])
        return self.take([i for i, keep in enumerate(mask) if keep])

    # -- decoding -------------------------------------------------------
    def tolist(self) -> List[Any]:
        """Exact Python values (``None`` for invalid slots)."""
        self.materialize()
        if self.kind == "py":
            return list(self.data)
        if self.kind == "dict":
            dictionary = self.dictionary or ("",)
            out = [dictionary[code] for code in self.data.tolist()]
        else:
            out = self.data.tolist()
        if self.validity is not None:
            out = [
                value if valid else None
                for value, valid in zip(out, self.validity.tolist())
            ]
        return out

    def value_at(self, position: int) -> Any:
        self.materialize()
        if self.kind == "py":
            return self.data[position]
        if self.validity is not None and not bool(self.validity[position]):
            return None
        if self.kind == "dict":
            return (self.dictionary or ("",))[int(self.data[position])]
        if self.kind == "obj":
            return self.data[position]
        return self.data[position].item()


class ColumnBatch:
    """A batch of rows in columnar form: one :class:`Column` per slot.

    The columnar twin of the row-mode ``List[Row]`` batch.  Operator
    contracts are unchanged — same logical rows, same order — only the
    physical representation differs, and :meth:`to_rows` decodes back
    to exact Python tuples at boundaries that need them.
    """

    __slots__ = ("columns", "length", "_rows")

    def __init__(self, columns: Sequence[Column], length: int) -> None:
        self.columns = list(columns)
        self.length = length
        self._rows: Optional[List[Tuple[Any, ...]]] = None

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"ColumnBatch({len(self.columns)} cols x {self.length} rows)"

    @property
    def width(self) -> int:
        return len(self.columns)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]], width: int) -> "ColumnBatch":
        """Encode a row batch; ``width`` disambiguates empty batches."""
        if not rows:
            return cls([Column.from_values(()) for _ in range(width)], 0)
        columns = [
            Column.from_values([row[position] for row in rows])
            for position in range(width)
        ]
        return cls(columns, len(rows))

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """Decode to exact Python row tuples (the row-mode values)."""
        if not self.columns:
            return [()] * self.length
        return list(zip(*(column.tolist() for column in self.columns)))

    def cached_rows(self) -> List[Tuple[Any, ...]]:
        """Like :meth:`to_rows`, but memoized — row-fallback paths that
        decode the same batch for several expressions pay decode once."""
        if self._rows is None:
            self._rows = self.to_rows()
        return self._rows

    # -- kernel-facing accessors ---------------------------------------
    def column(self, position: int) -> Column:
        return self.columns[position]

    def pair(self, position: int) -> Tuple[Any, Any]:
        """(values, validity) of one column, for generated kernels."""
        column = self.columns[position]
        return column.values(), column.mask()

    # -- restriction ----------------------------------------------------
    def take(self, indices: Any) -> "ColumnBatch":
        return ColumnBatch(
            [column.take(indices) for column in self.columns], len(indices)
        )

    def compress(self, mask: Any) -> "ColumnBatch":
        if _np is not None and isinstance(mask, _np.ndarray):
            return self.take(_np.nonzero(mask)[0])
        return self.take([i for i, keep in enumerate(mask) if keep])

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        return ColumnBatch(
            [column.slice(start, stop) for column in self.columns], stop - start
        )

    @classmethod
    def concat(
        cls, batches: Sequence["ColumnBatch"], width: int
    ) -> "ColumnBatch":
        """Concatenate batches column by column (:meth:`Column.concat`)."""
        batches = [batch for batch in batches if batch.length]
        if not batches:
            return cls.from_rows((), width)
        if len(batches) == 1:
            return batches[0]
        return cls(
            [
                Column.concat([batch.columns[position] for batch in batches])
                for position in range(width)
            ],
            sum(batch.length for batch in batches),
        )


# ---------------------------------------------------------------------------
# Equi-key grouping
# ---------------------------------------------------------------------------

#: Kinds whose array equality is Python's ``==``/``hash`` rule for the
#: values they hold.  ``obj``/``py`` columns mix types (``1 == 1.0 ==
#: True``, unbounded ints), so only a Python dict can match them.
_CODED_KINDS = ("i8", "f8", "bool", "dict")


class _DictionarySpace:
    """A build-side dictionary as a code space for probe columns."""

    __slots__ = ("_dictionary", "_code_of")

    def __init__(self, dictionary: Tuple[Any, ...]) -> None:
        self._dictionary = dictionary
        self._code_of = {value: code for code, value in enumerate(dictionary)}

    def __len__(self) -> int:
        return len(self._dictionary)

    def codes(self, column: Column) -> Any:
        """``column``'s rows in build codes; -1 where the build side
        does not have the value.  Slices and gathers of the build
        column itself carry its dictionary and need no translation."""
        if column.dictionary is self._dictionary:
            return column.data.astype(_np.int64)
        recode = _np.fromiter(
            (self._code_of.get(value, -1) for value in column.dictionary),
            dtype=_np.int64,
            count=len(column.dictionary),
        )
        return recode[column.data]


class KeyGrouping:
    """The build side of an equi-join, grouped once by its key columns.

    Every key column becomes dense integer codes (a dictionary column's
    own codes, the rank among the sorted distinct values otherwise), a
    composite key the mixed-radix number of its components' codes, and
    the build rows are stably sorted by that number: a bucket is a run
    of the sorted rows, in build order.  :meth:`match` puts probe keys
    into the same code space and yields the ``(probe position, build
    row)`` pairs a per-key dict lookup would produce, in the same
    order — probe order, then bucket insertion order.

    Rows with a NULL key component are left out, as SQL equality and
    :class:`~repro.storage.index.HashIndex` leave them out; a NaN key
    is a bucket nothing finds, as no decoded key equals it.  Immutable
    once built, so one grouping serves every session reading the same
    table version.
    """

    __slots__ = ("_kinds", "_spaces", "_codes", "_starts", "_counts", "_rows")

    def __init__(self, kinds, spaces, codes, starts, counts, rows) -> None:
        self._kinds = kinds
        #: Per column, what its codes index: the dictionary, or the
        #: sorted distinct values.
        self._spaces = spaces
        self._codes = codes  # distinct composite codes, ascending
        self._starts = starts  # bucket i is _rows[_starts[i]:][:_counts[i]]
        self._counts = counts
        self._rows = rows  # build row numbers, bucket by bucket

    @classmethod
    def build(cls, columns: Sequence[Column]) -> Optional["KeyGrouping"]:
        """Group ``columns``' rows, or ``None`` for key kinds (or a
        composite code beyond int64) that keep the per-key loop."""
        if _np is None or not columns:
            return None
        valid = None
        for column in columns:
            column.materialize()
            if column.kind not in _CODED_KINDS:
                return None
            if column.validity is not None:
                valid = column.validity if valid is None else valid & column.validity
        rows = (
            _np.arange(columns[0].length, dtype=_np.int64)
            if valid is None
            else _np.flatnonzero(valid)
        )
        spaces = []
        combined = _np.zeros(len(rows), dtype=_np.int64)
        capacity = 1
        for column in columns:
            data = column.data if valid is None else column.data[rows]
            if column.kind == "dict":
                space = _DictionarySpace(column.dictionary)
                codes = data.astype(_np.int64)
            else:
                space, codes = _np.unique(data, return_inverse=True)
            capacity *= max(len(space), 1)
            if capacity > 2**62:
                return None
            combined = combined * len(space) + codes
            spaces.append(space)
        order = _np.argsort(combined, kind="stable")
        ordered = combined[order]
        boundary = _np.ones(len(ordered), dtype=bool)
        boundary[1:] = ordered[1:] != ordered[:-1]
        starts = _np.flatnonzero(boundary)
        counts = _np.diff(_np.append(starts, len(ordered)))
        return cls(
            tuple(column.kind for column in columns),
            spaces,
            ordered[starts],
            starts,
            counts,
            rows[order],
        )

    def match(
        self, columns: Sequence[Column], limit: int
    ) -> Optional[Iterator[Tuple[Any, Any]]]:
        """``(probe positions, build rows)`` of every key-equal pair, in
        runs of at most ``limit`` pairs (more only for a single probe
        row, whose pairs stay together), so that what a join gathers
        and filters at once stays bounded.

        ``None`` when a probe column's kind differs from its build
        column's (an ``i8`` key may equal an ``f8`` one in Python; their
        arrays are not compared here).
        """
        for column in columns:
            column.materialize()
        if tuple(column.kind for column in columns) != self._kinds:
            return None
        if not len(self._codes):
            return iter(())
        found = None
        combined = None
        for column, space in zip(columns, self._spaces):
            if column.kind == "dict":
                codes = space.codes(column)
                hit = codes >= 0
            else:  # there are build rows, so ``space`` is not empty
                codes = _np.minimum(_np.searchsorted(space, column.data), len(space) - 1)
                hit = space[codes] == column.data
            if column.validity is not None:
                hit = hit & column.validity
            found = hit if found is None else found & hit
            combined = codes if combined is None else combined * len(space) + codes
        bucket = _np.minimum(
            _np.searchsorted(self._codes, combined), len(self._codes) - 1
        )
        probe = _np.flatnonzero(found & (self._codes[bucket] == combined))
        return self._pairs(probe, bucket[probe], limit)

    def _pairs(self, probe: Any, bucket: Any, limit: int) -> Iterator[Tuple[Any, Any]]:
        spans = span_pairs(probe, self._starts[bucket], self._counts[bucket], limit)
        for positions, source in spans:
            yield positions, self._rows[source]


def span_pairs(
    probe: Any, starts: Any, counts: Any, limit: int
) -> Iterator[Tuple[Any, Any]]:
    """``(probe[i], p)`` for every ``p`` in ``[starts[i], starts[i] +
    counts[i])``, row by row of ``probe``, in runs of at most ``limit``
    pairs -- more only for a single row, whose pairs stay together."""
    ends = _np.cumsum(counts)
    start = 0
    while start < len(probe):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(_np.searchsorted(ends, done + limit, side="right")))
        run = counts[start:stop]
        # Pair j of a row whose pairs begin at output position p reads
        # position ``span start + (j - p)``.
        source = _np.repeat(starts[start:stop] - (ends[start:stop] - run - done), run)
        source += _np.arange(len(source), dtype=_np.int64)
        yield _np.repeat(probe[start:stop], run), source
        start = stop


# ---------------------------------------------------------------------------
# Column stores and zone maps
# ---------------------------------------------------------------------------


def _zone_stats(name: str, column: Column, start: int, stop: int):
    """Per-chunk :class:`~repro.storage.statistics.ColumnStats`.

    Reuses the ANALYZE subsystem's stats record (the PR-3 min/max
    machinery) as the zone-map entry, computed vectorized over the
    chunk.  ``minimum``/``maximum`` are ``None`` when unknown — an
    unknown bound can never justify a skip.
    """
    from repro.storage.statistics import ColumnStats

    column.materialize()
    count = stop - start
    minimum: Any = None
    maximum: Any = None
    if column.kind == "py":
        values = [v for v in column.data[start:stop] if v is not None]
        nulls = count - len(values)
        if values:
            try:
                minimum = min(values)
                maximum = max(values)
            except TypeError:
                minimum = maximum = None
    else:
        data = column.data[start:stop]
        validity = None if column.validity is None else column.validity[start:stop]
        nulls = 0 if validity is None else int(count - validity.sum())
        if column.kind in ("i8", "f8", "bool", "dict"):
            selected = data if validity is None else data[validity]
            if selected.size:
                low = selected.min()
                high = selected.max()
                if column.kind == "dict":
                    dictionary = column.dictionary or ("",)
                    minimum = dictionary[int(low)]
                    maximum = dictionary[int(high)]
                else:
                    minimum = low.item()
                    maximum = high.item()
        # obj chunks keep unknown bounds: mixed types are not orderable.
    return ColumnStats(
        name=name, non_null=count - nulls, nulls=nulls, minimum=minimum, maximum=maximum
    )


class ColumnStore:
    """Full-table columnar image plus per-chunk zone maps.

    Built once per table (cached by :class:`repro.storage.table.Table`
    and invalidated on mutation).  ``zone_maps(chunk_size)`` returns,
    for each chunk of rows, a ``{position: ColumnStats}`` map used by
    columnar scans to skip chunks a predicate provably cannot match;
    ``key_grouping(positions)`` is the build side of an index join on
    those columns.  Both are derived once and dropped with the store.
    """

    def __init__(self, columns: Sequence[Column], names: Sequence[str], length: int) -> None:
        self.columns = list(columns)
        self.names = tuple(names)
        self.length = length
        self._zone_maps: Dict[int, List[Dict[int, Any]]] = {}
        self._key_groupings: Dict[Tuple[int, ...], Optional[KeyGrouping]] = {}

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Any]], names: Sequence[str]
    ) -> "ColumnStore":
        columns = [
            Column.from_values([row[position] for row in rows])
            for position in range(len(names))
        ]
        return cls(columns, names, len(rows))

    def column(self, position: int) -> Column:
        return self.columns[position]

    def batch(self, start: int = 0, stop: Optional[int] = None) -> ColumnBatch:
        stop = self.length if stop is None else stop
        return ColumnBatch(
            [column.slice(start, stop) for column in self.columns], stop - start
        )

    def key_grouping(self, positions: Sequence[int]) -> Optional[KeyGrouping]:
        """The rows grouped by the key at ``positions`` — what a hash
        index on those columns holds — or ``None`` (see
        :meth:`KeyGrouping.build`).  Built on first use and kept with
        the store, so it lives exactly as long as the table version."""
        positions = tuple(positions)
        if positions not in self._key_groupings:
            self._key_groupings[positions] = KeyGrouping.build(
                [self.columns[position] for position in positions]
            )
        return self._key_groupings[positions]

    def zone_maps(self, chunk_size: int) -> List[Dict[int, Any]]:
        cached = self._zone_maps.get(chunk_size)
        if cached is not None:
            return cached
        zones: List[Dict[int, Any]] = []
        for start in range(0, self.length, chunk_size):
            stop = min(start + chunk_size, self.length)
            zones.append(
                {
                    position: _zone_stats(self.names[position], column, start, stop)
                    for position, column in enumerate(self.columns)
                }
            )
        self._zone_maps[chunk_size] = zones
        return zones
