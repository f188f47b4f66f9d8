"""Compilation of AST expressions into Python closures.

Every expression is compiled once per plan into a closure
``fn(row, params) -> value`` where ``row`` is a flat tuple positioned
per a :class:`~repro.engine.layout.Layout` and ``params`` is the
binding dictionary for :class:`~repro.sql.ast.Parameter` nodes (NLJP's
inner/pruning queries are parameterized this way).

NULL semantics follow SQL: arithmetic propagates NULL, comparisons
yield unknown (``None``), AND/OR/NOT use Kleene three-valued logic, and
filters keep only rows where the predicate is *true*.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, PlanningError
from repro.sql import ast
from repro.engine.layout import Column, ColumnBatch, Layout, dense_codes, numpy_or_none
from repro.storage.types import sql_and, sql_not, sql_or

Compiled = Callable[[Sequence[Any], Dict[str, Any]], Any]

#: Rows produced by evaluating a subquery: list of tuples.
SubqueryExecutor = Callable[[ast.Select], List[Tuple[Any, ...]]]


class SubqueryResult:
    """The rows of one uncorrelated subquery, and what ``IN`` reads of them.

    Memoized by :class:`ExpressionCompiler` for one ``version``; the row
    closures and fused kernels it compiled share the object, so the set
    form is derived once per evaluation of the subquery.
    """

    __slots__ = ("version", "rows", "_members")

    def __init__(self, version: Any, rows: List[Tuple[Any, ...]]) -> None:
        self.version = version
        self.rows = rows
        self._members: Dict[bool, Tuple[set, bool]] = {}

    def members(self, wrap_single: bool) -> Tuple[set, bool]:
        """``(values, saw_null)``: the non-NULL keys as a set, and
        whether any key was (or held) a NULL.  A one-column row is its
        value when ``wrap_single`` (a scalar needle), else a tuple."""
        members = self._members.get(wrap_single)
        if members is None:
            values = set()
            saw_null = False
            for candidate in self.rows:
                key = candidate[0] if wrap_single and len(candidate) == 1 else candidate
                if key is None or (isinstance(key, tuple) and None in key):
                    saw_null = True
                else:
                    values.add(key)
            members = self._members[wrap_single] = (values, saw_null)
        return members


def _arith(op: str) -> Callable[[Any, Any], Any]:
    if op == "+":
        return lambda a, b: a + b
    if op == "-":
        return lambda a, b: a - b
    if op == "*":
        return lambda a, b: a * b
    if op == "/":

        def divide(a: Any, b: Any) -> Any:
            if b == 0:
                raise ExecutionError("division by zero")
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                return a // b
            return a / b

        return divide
    if op == "%":

        def modulo(a: Any, b: Any) -> Any:
            if b == 0:
                raise ExecutionError("division by zero")
            return a % b

        return modulo
    if op == "||":
        return lambda a, b: str(a) + str(b)
    raise PlanningError(f"unsupported arithmetic operator {op!r}")


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "ABS": abs,
    "FLOOR": lambda x: math.floor(x),
    "CEIL": lambda x: math.ceil(x),
    "CEILING": lambda x: math.ceil(x),
    "ROUND": lambda x, digits=0: round(x, int(digits)),
    "SQRT": math.sqrt,
    "LOWER": lambda s: s.lower(),
    "UPPER": lambda s: s.upper(),
    "LENGTH": len,
    "POWER": lambda x, y: x**y,
    "MOD": lambda a, b: a % b,
    "SIGN": lambda x: (x > 0) - (x < 0),
}


class ExpressionCompiler:
    """Compiles expressions against a fixed row layout.

    ``subquery_executor`` evaluates uncorrelated subqueries (IN /
    EXISTS); results are memoized per AST node so a subquery inside a
    join predicate runs once, not once per probe.  ``subquery_version``
    says what a result depends on: it is called with the names of the
    statement parameters the subquery reads, and a memoized result is
    reused while it returns the same value (a planned query passes the
    database's version token with those parameters' bound values, so a
    warm plan keeps its reducers until a write or another value), and
    for the compiler's lifetime when there is none.
    """

    def __init__(
        self,
        layout: Layout,
        subquery_executor: Optional[SubqueryExecutor] = None,
        subquery_version: Optional[Callable[[Tuple[str, ...]], Any]] = None,
    ) -> None:
        self._layout = layout
        self._subquery_executor = subquery_executor
        self._subquery_version = subquery_version
        self._subqueries: Dict[int, SubqueryResult] = {}
        #: The parameter names each subquery reads, collected once.
        self._subquery_params: Dict[int, Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    def compile(self, expr: ast.Expr) -> Compiled:
        """Compile ``expr`` to a closure; aggregates are rejected here.

        The returned closure is tagged with the source AST and this
        compiler (``_expr`` / ``_compiler``) so the columnar layer
        (:func:`columnar_filter` / :func:`columnar_values`) can build
        fused whole-batch kernels for it on demand.
        """
        fn = self._compile_node(expr)
        try:
            fn._expr = expr  # type: ignore[attr-defined]
            fn._compiler = self  # type: ignore[attr-defined]
        except (AttributeError, TypeError):  # pragma: no cover - defensive
            pass
        return fn

    def _compile_node(self, expr: ast.Expr) -> Compiled:
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda row, params: value
        if isinstance(expr, ast.ColumnRef):
            position = self._layout.resolve(expr.table, expr.column)
            return lambda row, params: row[position]
        if isinstance(expr, ast.Parameter):
            name = expr.name
            return lambda row, params: params[name]
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._compile_unary(expr)
        if isinstance(expr, ast.FuncCall):
            return self._compile_call(expr)
        if isinstance(expr, ast.TupleExpr):
            parts = [self.compile(item) for item in expr.items]
            return lambda row, params: tuple(part(row, params) for part in parts)
        if isinstance(expr, ast.InList):
            return self._compile_in_list(expr)
        if isinstance(expr, ast.InSubquery):
            return self._compile_in_subquery(expr)
        if isinstance(expr, ast.ExistsSubquery):
            return self._compile_exists(expr)
        if isinstance(expr, ast.Between):
            return self._compile_between(expr)
        if isinstance(expr, ast.IsNull):
            operand = self.compile(expr.operand)
            if expr.negated:
                return lambda row, params: operand(row, params) is not None
            return lambda row, params: operand(row, params) is None
        if isinstance(expr, ast.CaseExpr):
            return self._compile_case(expr)
        if isinstance(expr, ast.Star):
            raise PlanningError("'*' is only valid in SELECT lists and COUNT(*)")
        raise PlanningError(f"cannot compile expression {expr!r}")

    # ------------------------------------------------------------------
    def _compile_binary(self, expr: ast.BinaryOp) -> Compiled:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        op = expr.op
        if op == "AND":
            return lambda row, params: sql_and(left(row, params), right(row, params))
        if op == "OR":
            return lambda row, params: sql_or(left(row, params), right(row, params))
        if op in _COMPARATORS:
            compare = _COMPARATORS[op]

            def compiled_compare(row: Sequence[Any], params: Dict[str, Any]) -> Any:
                a = left(row, params)
                b = right(row, params)
                if a is None or b is None:
                    return None
                return compare(a, b)

            return compiled_compare
        apply = _arith(op)

        def compiled_arith(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return None
            return apply(a, b)

        return compiled_arith

    def _compile_unary(self, expr: ast.UnaryOp) -> Compiled:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":
            return lambda row, params: sql_not(operand(row, params))
        if expr.op == "-":

            def negate(row: Sequence[Any], params: Dict[str, Any]) -> Any:
                value = operand(row, params)
                return None if value is None else -value

            return negate
        raise PlanningError(f"unsupported unary operator {expr.op!r}")

    def _compile_call(self, expr: ast.FuncCall) -> Compiled:
        if expr.is_aggregate:
            raise PlanningError(
                f"aggregate {expr.name} is not allowed in this context"
            )
        name = expr.name.upper()
        if name == "COALESCE":
            parts = [self.compile(arg) for arg in expr.args]

            def coalesce(row: Sequence[Any], params: Dict[str, Any]) -> Any:
                for part in parts:
                    value = part(row, params)
                    if value is not None:
                        return value
                return None

            return coalesce
        if name in ("LEAST", "GREATEST"):
            parts = [self.compile(arg) for arg in expr.args]
            pick = min if name == "LEAST" else max

            def extremum(row: Sequence[Any], params: Dict[str, Any]) -> Any:
                values = [part(row, params) for part in parts]
                if any(value is None for value in values):
                    return None
                return pick(values)

            return extremum
        function = _SCALAR_FUNCTIONS.get(name)
        if function is None:
            raise PlanningError(f"unknown function {expr.name!r}")
        parts = [self.compile(arg) for arg in expr.args]

        def call(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            values = [part(row, params) for part in parts]
            if any(value is None for value in values):
                return None
            return function(*values)

        return call

    def _compile_in_list(self, expr: ast.InList) -> Compiled:
        needle = self.compile(expr.needle)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def membership(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            value = needle(row, params)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, params)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return sql_not(True) if negated else True
            result: Optional[bool] = None if saw_null else False
            return sql_not(result) if negated else result

        return membership

    def _subquery(self, subquery: ast.Select) -> SubqueryResult:
        if self._subquery_executor is None:
            raise PlanningError("subqueries are not supported in this context")
        version = None
        if self._subquery_version is not None:
            names = self._subquery_params.get(id(subquery))
            if names is None:
                names = self._subquery_params[id(subquery)] = ast.parameter_names(
                    subquery
                )
            version = self._subquery_version(names)
        result = self._subqueries.get(id(subquery))
        if result is None or result.version != version:
            result = SubqueryResult(version, self._subquery_executor(subquery))
            self._subqueries[id(subquery)] = result
        return result

    def _compile_in_subquery(self, expr: ast.InSubquery) -> Compiled:
        needle = self.compile(expr.needle)
        negated = expr.negated
        wrap_single = not isinstance(expr.needle, ast.TupleExpr)
        subquery = expr.subquery

        def membership(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            values, saw_null = self._subquery(subquery).members(wrap_single)
            value = needle(row, params)
            if value is None or (isinstance(value, tuple) and None in value):
                return None
            if value in values:
                return sql_not(True) if negated else True
            result: Optional[bool] = None if saw_null else False
            return sql_not(result) if negated else result

        return membership

    def _compile_exists(self, expr: ast.ExistsSubquery) -> Compiled:
        negated = expr.negated
        subquery = expr.subquery

        def exists(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            found = bool(self._subquery(subquery).rows)
            return (not found) if negated else found

        return exists

    def _compile_between(self, expr: ast.Between) -> Compiled:
        needle = self.compile(expr.needle)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def between(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            value = needle(row, params)
            lo = low(row, params)
            hi = high(row, params)
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return (not result) if negated else result

        return between

    def _compile_case(self, expr: ast.CaseExpr) -> Compiled:
        branches = [
            (self.compile(condition), self.compile(value))
            for condition, value in expr.whens
        ]
        default = self.compile(expr.default) if expr.default is not None else None

        def case(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            for condition, value in branches:
                if condition(row, params) is True:
                    return value(row, params)
            if default is not None:
                return default(row, params)
            return None

        return case


# ---------------------------------------------------------------------------
# Columnar (fused whole-column) evaluation
# ---------------------------------------------------------------------------
#
# Columnar mode evaluates expressions over :class:`ColumnBatch` inputs.
# For a supported structural subset — column references, literals,
# parameters, +/-/* arithmetic, the six comparators, AND/OR/NOT,
# BETWEEN, IS [NOT] NULL, IN over literal lists and over stored-column
# subqueries — ONE fused vectorized function is generated per
# predicate/projection conjunction (via ``compile()`` of synthesized
# source) operating on whole NumPy columns; generated functions are
# cached in a module-level table keyed on (expression fingerprint,
# layout), so repeated plans over the same schema skip codegen entirely.
#
# Three-valued logic becomes mask algebra: every column access yields a
# (values, validity) pair, a comparison is true only where all operand
# validity masks hold AND the vector comparison holds, and false only
# where the masks hold and it does not — exactly the row-mode Kleene
# split.  NULL-able *scalars* (parameters, probe-side outer values) are
# guarded by plain Python conditions hoisted out of the vector code, so
# a NULL scalar never reaches a NumPy operation.
#
# Every public entry point is total: when an expression has no fused
# form (statically) or a fused kernel raises (dynamically, e.g. a
# mixed-type comparison on an object column), evaluation falls back to
# decoding the batch to rows and calling the row closure per row —
# same values, same errors, bit-identical results.  One caveat is
# inherent to fixed-width encodings: fused integer arithmetic computes
# in int64, so intermediates beyond 2^63 would wrap where row mode's
# unbounded ints do not (column *values* that large already degrade to
# exact object columns at encode time; only computed intermediates can
# overflow).

#: Columnar filter: boolean selection mask over a batch.
ColumnarFilter = Callable[[ColumnBatch, Dict[str, Any]], Any]

#: Columnar evaluator: one output Column per batch.
ColumnarValues = Callable[[ColumnBatch, Dict[str, Any]], Column]


class _Unsupported(Exception):
    """Raised when an expression has no fused-kernel form."""


def _merge_guards(*guard_lists: Sequence[str]) -> List[str]:
    merged: List[str] = []
    for guards in guard_lists:
        for guard in guards:
            if guard not in merged:
                merged.append(guard)
    return merged


_PY_COMPARE = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_PY_ARITH = {"+": "+", "-": "-", "*": "*"}

_FUSED_KERNEL_CACHE: Dict[Any, Callable] = {}


def _k_not(x: Any) -> Any:
    """Logical NOT for bool-or-mask (``~True`` would be -2)."""
    return (not x) if isinstance(x, bool) else ~x


def _k_mask(m: Any) -> Any:
    """Validity mask, with ``None`` (all-valid) widened to ``True``."""
    return True if m is None else m


def _k_isin(value: Any, members: Any) -> Any:
    np = numpy_or_none()
    if isinstance(value, np.ndarray):
        return np.fromiter(
            (item in members for item in value.tolist()),
            dtype=bool,
            count=len(value),
        )
    return value in members


def _k_asmask(x: Any, n: int) -> Any:
    """Broadcast a scalar boolean result to a full selection mask."""
    np = numpy_or_none()
    if isinstance(x, (bool, np.bool_)):
        return np.full(n, bool(x), dtype=bool)
    return x


def _k_andmask(*masks: Any) -> Any:
    """AND of validity masks, ignoring ``None`` (all-valid) entries."""
    out = None
    for mask in masks:
        if mask is None:
            continue
        out = mask if out is None else (out & mask)
    return out


def _k_nullcol(n: int) -> Column:
    return Column.const(None, n)


def _k_distinct(np: Any, column: Column) -> Tuple[List[Any], Any]:
    """A column as ``(distinct Python values, code per row)``.

    Typed columns take :func:`dense_codes` (NULL slots carry the fill
    value; callers mask them), a dictionary decoding only the codes
    present, and an ``obj`` column — mixed types, no order — is its
    own list of values, one code per row.
    """
    coded = dense_codes(column)
    if coded is None:
        return column.data.tolist(), np.arange(column.length, dtype=np.int64)
    codes, space = coded
    if isinstance(space, tuple):  # a dictionary
        present, codes = np.unique(codes, return_inverse=True)
        return [space[code] for code in present.tolist()], codes
    return space.tolist(), codes


def _k_in_subquery(result: SubqueryResult, columns: Sequence[Column]) -> Tuple[Any, Any]:
    """``(true, false)`` masks of ``needle IN (subquery)``.

    The set-membership test runs once per *distinct* needle in the
    batch, in Python — so ``1 == 1.0 == True`` and every other rule of
    the row closure's ``value in values`` hold — and is spread over the
    rows through their codes.  The NULL rule is ``membership``'s: a
    NULL needle (or needle component) is unknown, a needle not found is
    false only when the subquery returned no NULL.
    """
    np = numpy_or_none()
    values, saw_null = result.members(len(columns) == 1)
    needles, codes = _k_distinct(np, columns[0])
    if len(columns) > 1:
        # A tuple needle: mixed-radix code over the components' codes,
        # decoded back to tuples for the combinations that occur.
        parts = [needles]
        capacity = len(needles)
        for column in columns[1:]:
            part, part_codes = _k_distinct(np, column)
            capacity *= len(part)
            if capacity > 2**62:
                raise OverflowError("tuple IN needle beyond int64 codes")
            parts.append(part)
            codes = codes * len(part) + part_codes
        distinct, codes = np.unique(codes, return_inverse=True)
        needles = []
        for code in distinct.tolist():
            needle = []
            for part in reversed(parts):
                code, digit = divmod(code, len(part))
                needle.append(part[digit])
            needles.append(tuple(reversed(needle)))
    found = np.fromiter(
        (needle in values for needle in needles), dtype=bool, count=len(needles)
    )[codes]
    valid = _k_andmask(*(column.validity for column in columns))
    if valid is not None:
        found = found & valid
    if saw_null:
        return found, np.zeros(len(found), dtype=bool)
    return found, (~found if valid is None else ~found & valid)


_VECTOR_KINDS = {"int64": "i8", "float64": "f8", "bool": "bool"}


def _k_vcol(value: Any, validity: Any, n: int) -> Column:
    """Wrap a kernel result vector (or broadcast scalar) as a Column."""
    np = numpy_or_none()
    if isinstance(value, np.ndarray):
        kind = _VECTOR_KINDS.get(value.dtype.name)
        if kind is None:
            if value.dtype != object:
                value = value.astype(object)
            kind = "obj"
        column = Column(kind, n)
        column.data = value
        column.validity = validity
        return column
    if isinstance(value, np.generic):  # 0-d numpy scalar leaked through
        value = value.item()
    column = Column.const(value, n).materialize()
    if validity is not None:
        column.validity = (
            validity if column.validity is None else (column.validity & validity)
        )
    return column


_COLUMNAR_ENV = {
    "NOT": _k_not,
    "M": _k_mask,
    "ISIN": _k_isin,
    "ASMASK": _k_asmask,
    "ANDM": _k_andmask,
    "NULLCOL": _k_nullcol,
    "VCOL": _k_vcol,
    "INSUB": _k_in_subquery,
}


class _ColumnarBuilder:
    """Generates fused columnar kernels from expression ASTs.

    Scalar nodes compile to ``(pyguards, maskguards, value)`` — the
    value expression is valid where every *pyguard* (a plain Python
    non-NULL test on a scalar) holds and every *maskguard* (a column
    validity ndarray) is true.  Boolean nodes compile to
    ``(istrue, isfalse)`` mask expressions implementing Kleene logic.

    ``outer_width`` > 0 builds a *probe* kernel ``(orow, B, params)``:
    layout positions below it read scalars from the outer row, the rest
    read columns of the (inner-side) batch — the shape join residuals
    need when the outer side is iterated row-wise.
    """

    def __init__(self, compiler: "ExpressionCompiler", outer_width: int = 0) -> None:
        self._compiler = compiler
        self._layout = compiler._layout
        self._outer_width = outer_width
        self.env: Dict[str, Any] = dict(_COLUMNAR_ENV)
        self.prologue: List[str] = []
        #: False once the kernel reads this compiler's subquery memo:
        #: it then belongs to one plan, not to every plan over the
        #: same expression and layout.
        self.shareable = True
        self._constants = 0
        self._params: Dict[str, str] = {}
        self._columns: Dict[int, str] = {}
        self._scalars: Dict[int, str] = {}

    # -- helpers -------------------------------------------------------
    def _const(self, value: Any) -> str:
        name = f"c{self._constants}"
        self._constants += 1
        self.env[name] = value
        return name

    def _param(self, name: str) -> str:
        if name not in self._params:
            var = f"p{len(self._params)}"
            self._params[name] = var
            self.prologue.append(f"    {var} = params[{name!r}]")
        return self._params[name]

    def _column(self, position: int) -> str:
        if position not in self._columns:
            var = f"v{position}"
            self._columns[position] = var
            self.prologue.append(f"    {var}, m{position} = B.pair({position})")
        return self._columns[position]

    def _outer_scalar(self, position: int) -> str:
        if position not in self._scalars:
            var = f"s{position}"
            self._scalars[position] = var
            self.prologue.append(f"    {var} = orow[{position}]")
        return self._scalars[position]

    def _guarded(
        self, pyguards: Sequence[str], masks: Sequence[str], body: str
    ) -> str:
        """A mask expression: ``body`` where all guards hold, else false."""
        if masks:
            mask_and = " & ".join(f"M(m{m})" for m in masks)
            body = f"({mask_and} & {body})"
        if pyguards:
            condition = " and ".join(pyguards)
            return f"(({body}) if ({condition}) else False)"
        return f"({body})"

    # -- scalar nodes --------------------------------------------------
    def scalar(self, expr: ast.Expr) -> Tuple[List[str], List[str], str]:
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return ["False"], [], "None"
            return [], [], self._const(expr.value)
        if isinstance(expr, ast.ColumnRef):
            position = self._layout.resolve(expr.table, expr.column)
            if position < self._outer_width:
                var = self._outer_scalar(position)
                return [f"{var} is not None"], [], var
            batch_position = position - self._outer_width
            var = self._column(batch_position)
            return [], [str(batch_position)], var
        if isinstance(expr, ast.Parameter):
            var = self._param(expr.name)
            return [f"{var} is not None"], [], var
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            pyguards, masks, value = self.scalar(expr.operand)
            return pyguards, masks, f"(-{value})"
        if isinstance(expr, ast.BinaryOp) and expr.op in _PY_ARITH:
            lp, lm, lv = self.scalar(expr.left)
            rp, rm, rv = self.scalar(expr.right)
            return (
                _merge_guards(lp, rp),
                _merge_guards(lm, rm),
                f"({lv} {_PY_ARITH[expr.op]} {rv})",
            )
        raise _Unsupported(type(expr).__name__)

    # -- boolean nodes -------------------------------------------------
    def boolean(self, expr: ast.Expr) -> Tuple[str, str]:
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "AND":
                lt, lf = self.boolean(expr.left)
                rt, rf = self.boolean(expr.right)
                return f"({lt} & {rt})", f"({lf} | {rf})"
            if expr.op == "OR":
                lt, lf = self.boolean(expr.left)
                rt, rf = self.boolean(expr.right)
                return f"({lt} | {rt})", f"({lf} & {rf})"
            if expr.op in _PY_COMPARE:
                lp, lm, lv = self.scalar(expr.left)
                rp, rm, rv = self.scalar(expr.right)
                pyguards = _merge_guards(lp, rp)
                masks = _merge_guards(lm, rm)
                compare = f"({lv} {_PY_COMPARE[expr.op]} {rv})"
                return (
                    self._guarded(pyguards, masks, compare),
                    self._guarded(pyguards, masks, f"NOT({compare})"),
                )
            raise _Unsupported(expr.op)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            istrue, isfalse = self.boolean(expr.operand)
            return isfalse, istrue
        if isinstance(expr, ast.IsNull):
            pyguards, masks, _ = self.scalar(expr.operand)
            non_null = self._guarded(pyguards, masks, "True")
            is_null = f"NOT({non_null})"
            return (non_null, is_null) if expr.negated else (is_null, non_null)
        if isinstance(expr, ast.Between):
            np_, nm, nv = self.scalar(expr.needle)
            lp, lm, lv = self.scalar(expr.low)
            hp, hm, hv = self.scalar(expr.high)
            pyguards = _merge_guards(np_, lp, hp)
            masks = _merge_guards(nm, lm, hm)
            inside = f"(({lv} <= {nv}) & ({nv} <= {hv}))"
            istrue = self._guarded(pyguards, masks, inside)
            isfalse = self._guarded(pyguards, masks, f"NOT({inside})")
            return (isfalse, istrue) if expr.negated else (istrue, isfalse)
        if isinstance(expr, ast.InList):
            values = []
            for item in expr.items:
                if not isinstance(item, ast.Literal) or item.value is None:
                    raise _Unsupported("non-literal IN list")
                values.append(item.value)
            try:
                members = self._const(frozenset(values))
            except TypeError as error:  # unhashable literal
                raise _Unsupported(str(error)) from error
            pyguards, masks, value = self.scalar(expr.needle)
            istrue = self._guarded(pyguards, masks, f"ISIN({value}, {members})")
            isfalse = self._guarded(
                pyguards, masks, f"NOT(ISIN({value}, {members}))"
            )
            return (isfalse, istrue) if expr.negated else (istrue, isfalse)
        if isinstance(expr, ast.InSubquery):
            return self._in_subquery(expr)
        # Scalar node in boolean position (e.g. a bool column/literal).
        pyguards, masks, value = self.scalar(expr)
        istrue = self._guarded(pyguards, masks, f"({value} == True)")
        isfalse = self._guarded(pyguards, masks, f"({value} == False)")
        return istrue, isfalse

    def _in_subquery(self, expr: ast.InSubquery) -> Tuple[str, str]:
        """``needle IN (subquery)`` over stored columns — the shape of
        an a-priori reducer — as masks computed once in the prologue.

        An empty batch returns before it: like the row closure, the
        kernel must not run the subquery for a row that never comes.
        """
        needle = expr.needle
        items = needle.items if isinstance(needle, ast.TupleExpr) else (needle,)
        columns = []
        for item in items:
            if not isinstance(item, ast.ColumnRef):
                raise _Unsupported("computed IN needle")
            position = self._layout.resolve(item.table, item.column)
            if position < self._outer_width:
                raise _Unsupported("IN needle on the outer row")
            columns.append(f"B.column({position - self._outer_width})")
        if not columns:
            raise _Unsupported("empty IN needle")
        if self.shareable:
            self.shareable = False
            self.prologue.insert(0, "    if not n: return ASMASK(False, 0)")
        compiler, subquery = self._compiler, expr.subquery
        result = self._const(lambda: compiler._subquery(subquery))
        hit, miss = f"{result}_true", f"{result}_false"
        self.prologue.append(
            f"    {hit}, {miss} = INSUB({result}(), ({', '.join(columns)},))"
        )
        return (miss, hit) if expr.negated else (hit, miss)

    # -- kernel assembly -----------------------------------------------
    def _build(self, body_lines: List[str], signature: str) -> Callable:
        source = (
            f"def kernel({signature}):\n"
            + "    n = B.length\n"
            + "".join(line + "\n" for line in self.prologue)
            + "".join(line + "\n" for line in body_lines)
        )
        namespace = dict(self.env)
        exec(compile(source, "<columnar-kernel>", "exec"), namespace)
        return namespace["kernel"]

    def build_filter(self, expr: ast.Expr) -> Callable:
        istrue, _ = self.boolean(expr)
        signature = "orow, B, params" if self._outer_width else "B, params"
        return self._build([f"    return ASMASK({istrue}, n)"], signature)

    def build_values(self, expr: ast.Expr) -> Callable:
        pyguards, masks, value = self.scalar(expr)
        lines = []
        if pyguards:
            condition = " and ".join(pyguards)
            lines.append(f"    if not ({condition}): return NULLCOL(n)")
        validity = "ANDM(" + ", ".join(f"m{m}" for m in masks) + ")" if masks else "None"
        lines.append(f"    return VCOL({value}, {validity}, n)")
        signature = "orow, B, params" if self._outer_width else "B, params"
        return self._build(lines, signature)


def _fused_kernel(
    fn: Compiled, kind: str, outer_width: int, ctx: Any
) -> Optional[Callable]:
    """Build (or fetch) the fused columnar kernel behind a closure.

    The process-wide cache is keyed on (kind, expression fingerprint,
    layout, probe width); ``fused_compilations`` is charged once per
    *closure* regardless of cache state, so the counter is a
    deterministic property of the query, not of process history.
    """
    expr = getattr(fn, "_expr", None)
    compiler = getattr(fn, "_compiler", None)
    if expr is None or compiler is None:
        return None
    key = (kind, repr(expr), compiler._layout.slots, outer_width)
    kernel = _FUSED_KERNEL_CACHE.get(key)
    if kernel is None and key not in _FUSED_KERNEL_CACHE:
        builder = _ColumnarBuilder(compiler, outer_width)
        try:
            if kind == "filter":
                kernel = builder.build_filter(expr)
            else:
                kernel = builder.build_values(expr)
        except (_Unsupported, PlanningError):
            kernel = None
        if builder.shareable:
            _FUSED_KERNEL_CACHE[key] = kernel
    if kernel is not None and ctx is not None:
        ctx.stats.fused_compilations += 1
    return kernel


def _row_filter_mask(fn: Compiled, batch: ColumnBatch, params: Dict[str, Any]):
    flags = [fn(row, params) is True for row in batch.cached_rows()]
    return numpy_or_none().fromiter(flags, dtype=bool, count=len(flags))


def columnar_filter(fn: Optional[Compiled], ctx: Any = None) -> Optional[ColumnarFilter]:
    """A whole-batch selection-mask evaluator for a compiled predicate.

    Total: fused when the structure allows, decoding to the row closure
    otherwise (including mid-batch, when a fused kernel raises on data
    the vector form cannot handle — the row path then reproduces row
    mode's exact values *and* exact errors).  ``None`` predicates pass
    through as ``None``.  The result is memoized on the closure.
    """
    if fn is None:
        return None
    cached = getattr(fn, "_columnar_filter", None)
    if cached is not None:
        return cached
    kernel = _fused_kernel(fn, "filter", 0, ctx)
    if kernel is None:
        evaluate = lambda batch, params: _row_filter_mask(fn, batch, params)
        evaluate.fused = False  # type: ignore[attr-defined]
    else:

        def evaluate(batch: ColumnBatch, params: Dict[str, Any]):
            try:
                return kernel(batch, params)
            except Exception:
                return _row_filter_mask(fn, batch, params)

        evaluate.fused = True  # type: ignore[attr-defined]
    try:
        fn._columnar_filter = evaluate  # type: ignore[attr-defined]
    except (AttributeError, TypeError):  # pragma: no cover - defensive
        pass
    return evaluate


def columnar_values(fn: Compiled, ctx: Any = None) -> ColumnarValues:
    """A whole-batch evaluator producing one :class:`Column` per batch.

    Plain column references pass the stored column through untouched
    (keeping dictionary encoding alive for group-bys and join keys);
    fusable computations run as one generated kernel; everything else —
    or a kernel that raises — decodes to rows and calls the row closure
    per row, re-encoding the exact row-mode values.
    """
    cached = getattr(fn, "_columnar_values", None)
    if cached is not None:
        return cached
    expr = getattr(fn, "_expr", None)
    compiler = getattr(fn, "_compiler", None)
    evaluate: Optional[ColumnarValues] = None
    if isinstance(expr, ast.ColumnRef) and compiler is not None:
        try:
            position = compiler._layout.resolve(expr.table, expr.column)
        except PlanningError:  # pragma: no cover - planner resolved it before
            position = None
        if position is not None:
            evaluate = lambda batch, params: batch.column(position)
    if evaluate is None:

        def row_eval(batch: ColumnBatch, params: Dict[str, Any]) -> Column:
            return Column.from_values([fn(row, params) for row in batch.cached_rows()])

        kernel = _fused_kernel(fn, "values", 0, ctx)
        if kernel is None:
            evaluate = row_eval
        else:

            def evaluate(batch: ColumnBatch, params: Dict[str, Any]) -> Column:
                try:
                    return kernel(batch, params)
                except Exception:
                    return row_eval(batch, params)

    try:
        fn._columnar_values = evaluate  # type: ignore[attr-defined]
    except (AttributeError, TypeError):  # pragma: no cover - defensive
        pass
    return evaluate


_RAW_MISSING = object()


def columnar_raw_filter(fn: Optional[Compiled], ctx: Any = None) -> Optional[Callable]:
    """The bare fused mask kernel — *no* row fallback — or ``None``.

    Index joins use this to precompute a pushed inner filter over the
    whole stored table at once.  A decode-and-evaluate fallback would be
    wrong there: it would run the row closure over rows that row mode
    never probes, raising errors row mode cannot raise.  Callers treat
    a ``None`` return (or a raising kernel) as "evaluate per candidate
    row instead".
    """
    if fn is None:
        return None
    cached = getattr(fn, "_columnar_raw_filter", _RAW_MISSING)
    if cached is not _RAW_MISSING:
        return cached
    kernel = _fused_kernel(fn, "filter", 0, ctx)
    try:
        fn._columnar_raw_filter = kernel  # type: ignore[attr-defined]
    except (AttributeError, TypeError):  # pragma: no cover - defensive
        pass
    return kernel


def columnar_key_columns(fn: Compiled, ctx: Any = None) -> Callable:
    """A whole-batch evaluator for join keys, one column per component.

    Returns ``evaluate(batch, params) -> list`` of :class:`Column`: a
    tuple expression gives one per item, anything else a single column.
    Components run through :func:`columnar_values`, so plain column
    references pass the stored (typed, dictionary-coded) column through.
    Memoized on the closure.
    """
    cached = getattr(fn, "_columnar_key_columns", None)
    if cached is not None:
        return cached
    expr = getattr(fn, "_expr", None)
    compiler = getattr(fn, "_compiler", None)
    tuple_key = isinstance(expr, ast.TupleExpr) and compiler is not None
    if tuple_key:
        parts = [
            columnar_values(compiler.compile(item), ctx) for item in expr.items
        ]
    else:
        parts = [columnar_values(fn, ctx)]

    def evaluate(batch: ColumnBatch, params: Dict[str, Any]) -> List[Column]:
        return [part(batch, params) for part in parts]

    evaluate.tuple_key = tuple_key  # type: ignore[attr-defined]
    try:
        fn._columnar_key_columns = evaluate  # type: ignore[attr-defined]
    except (AttributeError, TypeError):  # pragma: no cover - defensive
        pass
    return evaluate


def columnar_key_values(fn: Compiled, ctx: Any = None) -> Callable:
    """:func:`columnar_key_columns` decoded to per-row Python keys.

    Returns ``evaluate(batch, params) -> list``: tuple expressions
    decode to tuples (matching the row closure), everything else to
    scalars; typed columns decode exactly once per batch.
    """
    columns = columnar_key_columns(fn, ctx)
    if columns.tuple_key:

        def evaluate(batch: ColumnBatch, params: Dict[str, Any]) -> List[Any]:
            parts = columns(batch, params)
            if not parts:
                return [()] * batch.length
            return list(zip(*(part.tolist() for part in parts)))

    else:

        def evaluate(batch: ColumnBatch, params: Dict[str, Any]) -> List[Any]:
            return columns(batch, params)[0].tolist()

    return evaluate


# ---------------------------------------------------------------------------
# Zone-map chunk pruning
# ---------------------------------------------------------------------------

_ZONE_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _zone_value_getter(expr: ast.Expr) -> Optional[Callable[[Dict[str, Any]], Any]]:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda params: value
    if isinstance(expr, ast.Parameter):
        name = expr.name
        return lambda params: params.get(name)
    return None


def _zone_comparison_test(position: int, op: str, get_value):
    def test(zone, params) -> bool:
        stats = zone.get(position)
        if stats is None:
            return False
        value = get_value(params)
        if value is None:
            return True  # comparison with NULL is never true for any row
        if stats.non_null == 0:
            return True  # every value in the chunk is NULL
        low, high = stats.minimum, stats.maximum
        if low is None or high is None:
            return False  # unknown bounds can never justify a skip
        try:
            if op == "=":
                return value < low or value > high
            if op == "<>":
                return low == high == value
            if op == "<":
                return low >= value
            if op == "<=":
                return low > value
            if op == ">":
                return high <= value
            if op == ">=":
                return high < value
        except TypeError:
            return False  # un-orderable vs. the bounds: let the scan decide
        return False

    return test


def _zone_conjunct_test(conjunct: ast.Expr, layout: Layout):
    """A chunk-skip test for one conjunct, or ``None`` if unanalyzable."""

    def resolve(expr: ast.Expr) -> Optional[int]:
        if not isinstance(expr, ast.ColumnRef):
            return None
        try:
            return layout.resolve(expr.table, expr.column)
        except PlanningError:  # pragma: no cover - planner resolved it before
            return None

    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _ZONE_FLIP:
        position = resolve(conjunct.left)
        get_value = _zone_value_getter(conjunct.right)
        op = conjunct.op
        if position is None or get_value is None:
            position = resolve(conjunct.right)
            get_value = _zone_value_getter(conjunct.left)
            op = _ZONE_FLIP[conjunct.op]
        if position is None or get_value is None:
            return None
        return _zone_comparison_test(position, op, get_value)
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        position = resolve(conjunct.needle)
        get_low = _zone_value_getter(conjunct.low)
        get_high = _zone_value_getter(conjunct.high)
        if position is None or get_low is None or get_high is None:
            return None
        low_test = _zone_comparison_test(position, ">=", get_low)
        high_test = _zone_comparison_test(position, "<=", get_high)
        return lambda zone, params: low_test(zone, params) or high_test(zone, params)
    if isinstance(conjunct, ast.IsNull):
        position = resolve(conjunct.operand)
        if position is None:
            return None
        if conjunct.negated:  # IS NOT NULL: skip all-NULL chunks
            return lambda zone, params: (
                (stats := zone.get(position)) is not None and stats.non_null == 0
            )
        return lambda zone, params: (
            (stats := zone.get(position)) is not None and stats.nulls == 0
        )
    return None


def zone_pruner(fn: Optional[Compiled]):
    """A chunk-skip test derived from a scan predicate.

    Returns ``prune(zone, params) -> bool`` — ``True`` means *no row of
    the chunk can satisfy the predicate* (so the scan may skip it
    wholesale) — or ``None`` when no conjunct of the predicate is
    analyzable against zone statistics.  The predicate is split at AND
    nodes only; a single unsatisfiable conjunct falsifies the whole
    conjunction, so skipping on any one test is sound.  NULL-aware by
    construction: comparisons are only proven false via min/max over
    *non-NULL* values, and NULL rows never satisfy a comparison anyway.

    A predicate holding a subquery is never pruned: row mode runs the
    subquery at the first row it meets, and a scan that skipped every
    chunk would not have run (or charged) it at all.
    """
    if fn is None:
        return None
    expr = getattr(fn, "_expr", None)
    compiler = getattr(fn, "_compiler", None)
    if expr is None or compiler is None:
        return None
    if any(
        isinstance(node, (ast.InSubquery, ast.ExistsSubquery))
        for node in ast.walk(expr, into_subqueries=False)
    ):
        return None
    conjuncts: List[ast.Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BinaryOp) and node.op == "AND":
            stack.append(node.left)
            stack.append(node.right)
        else:
            conjuncts.append(node)
    tests = []
    for conjunct in conjuncts:
        test = _zone_conjunct_test(conjunct, compiler._layout)
        if test is not None:
            tests.append(test)
    if not tests:
        return None

    def prune(zone, params) -> bool:
        try:
            for test in tests:
                if test(zone, params):
                    return True
        except Exception:  # pragma: no cover - defensive
            return False
        return False

    return prune
