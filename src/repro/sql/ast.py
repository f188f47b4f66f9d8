"""AST node definitions for the supported SQL subset.

All nodes are frozen dataclasses, so they hash/compare structurally.
This matters: the Smart-Iceberg rewriter builds new queries by
substituting sub-trees, and the iceberg analyzer compares expressions
(e.g. "is this HAVING aggregate over attributes of L only?") by value.

Helper functions at the bottom provide generic traversal
(:func:`walk`), substitution (:func:`transform`), and column
collection (:func:`column_refs`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, Optional, Tuple, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean, or NULL (``value is None``)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference ``table.column``."""

    table: Optional[str]
    column: str

    def qualified(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` — only valid in SELECT lists and COUNT(*)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Parameter(Expr):
    """A named parameter ``:name``, bound at execution time.

    NLJP's inner and pruning queries are parameterized by the current
    binding; this node is how those bindings appear in generated SQL.
    """

    name: str


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operator application.

    ``op`` is one of ``= <> < <= > >= + - * / % AND OR ||``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operator: ``NOT`` or ``-``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    """Function or aggregate call.

    Aggregates are COUNT/SUM/AVG/MIN/MAX (name upper-cased); COUNT may
    take a :class:`Star` argument.  ``distinct`` covers
    ``COUNT(DISTINCT a)`` and friends.
    """

    name: str
    args: Tuple[Expr, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class TupleExpr(Expr):
    """Row constructor ``(a, b, ...)`` used on the left of IN."""

    items: Tuple[Expr, ...]


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (literal, literal, ...)``."""

    needle: Expr
    items: Tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` — the a-priori reducer's shape."""

    needle: Expr
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ExistsSubquery(Expr):
    """``[NOT] EXISTS (SELECT ...)`` — used by generated pruning SQL."""

    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    needle: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class CaseExpr(Expr):
    """Searched CASE: ``CASE WHEN c THEN v ... [ELSE e] END``."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One item of a SELECT list; ``alias`` may be None."""

    expr: Expr
    alias: Optional[str] = None


class TableExpr:
    """Marker base class for FROM items."""

    __slots__ = ()


@dataclass(frozen=True)
class NamedTable(TableExpr):
    """A base table or CTE reference, with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class DerivedTable(TableExpr):
    """A subquery in FROM; SQL requires an alias and so do we."""

    query: "Select"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias


@dataclass(frozen=True)
class JoinedTable(TableExpr):
    """An explicit ``A JOIN B ON cond`` / ``A NATURAL JOIN B`` item.

    Only inner semantics are supported; the planner flattens these into
    the query's conjunctive WHERE.
    """

    left: TableExpr
    right: TableExpr
    natural: bool = False
    condition: Optional[Expr] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class Select:
    """A single SELECT block (Listing 5's generic shape and beyond)."""

    items: Tuple[SelectItem, ...]
    from_items: Tuple[TableExpr, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class CommonTableExpr:
    """One WITH entry: ``name [(col, ...)] AS (SELECT ...)``."""

    name: str
    query: Select
    columns: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Query:
    """Top-level statement: optional CTE list plus a SELECT body."""

    body: Select
    ctes: Tuple[CommonTableExpr, ...] = ()

    @classmethod
    def of(cls, body: Select) -> "Query":
        return cls(body=body)


Statement = Union[Query, Select]


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

_CHILD_CACHE: dict = {}


def _node_fields(node: Any) -> Tuple[str, ...]:
    cls = type(node)
    cached = _CHILD_CACHE.get(cls)
    if cached is None:
        cached = tuple(f.name for f in fields(cls))
        _CHILD_CACHE[cls] = cached
    return cached


def _is_node(value: Any) -> bool:
    return isinstance(
        value,
        (Expr, Select, Query, SelectItem, TableExpr, OrderItem, CommonTableExpr),
    )


def children(node: Any) -> Iterator[Any]:
    """Yield direct AST children of ``node`` (flattening tuples)."""
    for name in _node_fields(node):
        value = getattr(node, name)
        if _is_node(value):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if _is_node(item):
                    yield item
                elif isinstance(item, tuple):  # CASE whens
                    for sub in item:
                        if _is_node(sub):
                            yield sub


def walk(node: Any, into_subqueries: bool = True) -> Iterator[Any]:
    """Pre-order traversal of the AST rooted at ``node``.

    When ``into_subqueries`` is false, nested :class:`Select` nodes are
    yielded but not descended into — useful when analyzing a single
    query block, the granularity at which the paper's checks operate.
    """
    yield node
    for child in children(node):
        if not into_subqueries and isinstance(child, Select) and child is not node:
            yield child
            continue
        yield from walk(child, into_subqueries)


def column_refs(node: Any, into_subqueries: bool = False) -> Tuple[ColumnRef, ...]:
    """All :class:`ColumnRef` nodes under ``node`` (this block only by default)."""
    return tuple(
        n for n in walk(node, into_subqueries) if isinstance(n, ColumnRef)
    )


def parameter_names(node: Any) -> Tuple[str, ...]:
    """The distinct :class:`Parameter` names under ``node``, subqueries
    included, in sorted order."""
    return tuple(
        sorted({n.name for n in walk(node) if isinstance(n, Parameter)})
    )


def aggregate_calls(node: Any) -> Tuple[FuncCall, ...]:
    """All aggregate :class:`FuncCall` nodes in this query block."""
    return tuple(
        n
        for n in walk(node, into_subqueries=False)
        if isinstance(n, FuncCall) and n.is_aggregate
    )


def transform(node: Any, fn: Callable[[Any], Any]) -> Any:
    """Bottom-up rewrite: apply ``fn`` to every node, rebuilding parents.

    ``fn`` receives each (already-rebuilt) node and returns a
    replacement (or the node unchanged).  Tuples of nodes are rebuilt
    element-wise.
    """

    def rebuild(value: Any) -> Any:
        if _is_node(value):
            return transform(value, fn)
        if isinstance(value, tuple):
            return tuple(rebuild(item) for item in value)
        return value

    if not _is_node(node):
        return fn(node)
    kwargs = {}
    changed = False
    for name in _node_fields(node):
        old = getattr(node, name)
        new = rebuild(old)
        kwargs[name] = new
        if new is not old and new != old:
            changed = True
    rebuilt = type(node)(**kwargs) if changed else node
    return fn(rebuilt)


def conjuncts(expr: Optional[Expr]) -> Tuple[Expr, ...]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return ()
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return (expr,)


def conjoin(parts: Tuple[Expr, ...] | list) -> Optional[Expr]:
    """Reassemble conjuncts into a single AND tree (None if empty)."""
    parts = tuple(parts)
    if not parts:
        return None
    result = parts[0]
    for part in parts[1:]:
        result = BinaryOp("AND", result, part)
    return result
