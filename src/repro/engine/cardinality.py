"""Cardinality estimation: selectivities and join-size estimates.

Built on the statistics subsystem (:mod:`repro.storage.statistics`),
this module answers the questions the cost-based join-order enumerator
asks:

* how many rows survive a relation's pushed-down filter?
* what fraction of tuple pairs satisfies a join conjunct?
* how large is the join of a *set* of relations?

Estimates degrade gracefully: with ANALYZE statistics they use
histograms and distinct-count sketches; without, they fall back to
``len(table)``, hash-index distinct-key counts, and fixed default
selectivities.  All estimates are deterministic, and conjunction is
*monotone*: adding a conjunct never raises an estimated selectivity
(every factor is clamped to [0, 1] before multiplying).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sql import ast
from repro.sql.render import render
from repro.storage.statistics import ColumnStats, TableStats

#: Row estimate for derived tables / CTEs whose size is unknown at
#: planning time (they materialize lazily, after planning).
DEFAULT_RELATION_ROWS = 1000.0

#: Fallback selectivities when no statistic applies (System R's).
EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 1.0 / 3.0

_RANGE_OPS = {"<", "<=", ">", ">="}

@dataclass
class RelationProfile:
    """Planning-time profile of one FROM item.

    ``table`` is the base :class:`~repro.storage.table.Table` when the
    item is one (enables index/statistics lookups); derived tables and
    CTEs carry only a default row estimate.
    """

    alias: str
    columns: Tuple[str, ...]
    rows: float
    table: Optional[Any] = None  # repro.storage.table.Table
    stats: Optional[TableStats] = None

    def column_stats(self, column: str) -> Optional[ColumnStats]:
        if self.stats is None:
            return None
        return self.stats.column(column)

    def ndv(self, column: str) -> float:
        """Estimated distinct count of one column, never below 1.

        Preference order: ANALYZE statistics, a hash index exactly on
        the column (its bucket count is a free exact distinct count),
        then the square-root heuristic.
        """
        column = column.lower()
        stats = self.column_stats(column)
        if stats is not None and stats.row_count > 0:
            return max(1.0, stats.distinct_count)
        if self.table is not None:
            try:
                index = self.table.find_hash_index([column])
            except Exception:
                index = None
            if index is not None and index.distinct_keys > 0:
                return float(index.distinct_keys)
        return max(1.0, math.sqrt(max(self.rows, 1.0)))


class CardinalityEstimator:
    """Selectivity/cardinality estimates over a set of relations.

    The estimator resolves column references against its profiles (by
    alias, or by unique column name for unqualified refs) and exposes
    predicate selectivities, filtered scan sizes, and multi-relation
    join cardinalities.
    """

    def __init__(self, profiles: Sequence[RelationProfile]) -> None:
        self.profiles: Dict[str, RelationProfile] = {p.alias: p for p in profiles}
        self._by_column: Dict[str, List[RelationProfile]] = {}
        for profile in profiles:
            for column in profile.columns:
                self._by_column.setdefault(column, []).append(profile)

    # ------------------------------------------------------------------
    # Reference resolution
    # ------------------------------------------------------------------
    def owner(self, ref: ast.ColumnRef) -> Optional[RelationProfile]:
        if ref.table is not None:
            return self.profiles.get(ref.table.lower())
        owners = self._by_column.get(ref.column.lower(), [])
        return owners[0] if len(owners) == 1 else None

    def _column_of(self, expr: ast.Expr) -> Optional[Tuple[RelationProfile, str]]:
        if isinstance(expr, ast.ColumnRef):
            profile = self.owner(expr)
            if profile is not None:
                return profile, expr.column.lower()
        return None

    @staticmethod
    def _constant_of(expr: ast.Expr) -> Optional[Any]:
        if isinstance(expr, ast.Literal):
            return expr.value
        return None

    # ------------------------------------------------------------------
    # Selectivity
    # ------------------------------------------------------------------
    def conjunction(self, exprs: Sequence[ast.Expr]) -> float:
        """Selectivity of a conjunction: product of clamped factors.

        Clamping each factor to [0, 1] before multiplying makes the
        estimator monotone — adding a conjunct can only shrink (or
        keep) the estimate, never grow it.
        """
        result = 1.0
        for expr in exprs:
            result *= self.selectivity(expr)
        return min(max(result, 0.0), 1.0)

    def selectivity(self, expr: ast.Expr) -> float:
        """Estimated fraction of tuples satisfying one predicate."""
        return min(max(self._selectivity(expr), 0.0), 1.0)

    def _selectivity(self, expr: ast.Expr) -> float:
        if isinstance(expr, ast.BinaryOp):
            op = expr.op.upper()
            if op == "AND":
                return self.selectivity(expr.left) * self.selectivity(expr.right)
            if op == "OR":
                left = self.selectivity(expr.left)
                right = self.selectivity(expr.right)
                return left + right - left * right
            if op == "=":
                return self._eq_selectivity(expr.left, expr.right)
            if op in ("<>", "!="):
                return 1.0 - self._eq_selectivity(expr.left, expr.right)
            if op in _RANGE_OPS:
                return self._range_selectivity(expr.left, expr.op, expr.right)
            return DEFAULT_SELECTIVITY
        if isinstance(expr, ast.Between):
            low = self._range_selectivity(expr.needle, ">=", expr.low)
            high = self._range_selectivity(expr.needle, "<=", expr.high)
            overlap = max(0.0, low + high - 1.0)
            return 1.0 - overlap if expr.negated else overlap
        if isinstance(expr, ast.IsNull):
            fraction = self._null_fraction(expr.operand)
            return fraction if not expr.negated else 1.0 - fraction
        if isinstance(expr, ast.UnaryOp) and expr.op.upper() == "NOT":
            return 1.0 - self.selectivity(expr.operand)
        if isinstance(expr, ast.InList):
            target = self._column_of(expr.needle)
            if target is not None:
                profile, column = target
                fraction = min(1.0, len(expr.items) / profile.ndv(column))
                return 1.0 - fraction if expr.negated else fraction
            return DEFAULT_SELECTIVITY
        if isinstance(expr, ast.Literal):
            if expr.value is True:
                return 1.0
            if expr.value in (False, None):
                return 0.0
            return DEFAULT_SELECTIVITY
        return DEFAULT_SELECTIVITY

    def _null_fraction(self, expr: ast.Expr) -> float:
        target = self._column_of(expr)
        if target is None:
            return 0.1
        profile, column = target
        stats = profile.column_stats(column)
        if stats is None:
            return 0.1
        return stats.null_fraction

    def _eq_selectivity(self, left: ast.Expr, right: ast.Expr) -> float:
        left_col = self._column_of(left)
        right_col = self._column_of(right)
        if left_col is not None and right_col is not None:
            left_profile, left_name = left_col
            right_profile, right_name = right_col
            if left_profile.alias != right_profile.alias:
                # Join conjunct: the classic 1 / max(ndv_l, ndv_r).
                return 1.0 / max(
                    left_profile.ndv(left_name), right_profile.ndv(right_name)
                )
            return 1.0 / max(left_profile.ndv(left_name), 1.0)
        for col_side, other in ((left_col, right), (right_col, left)):
            if col_side is None:
                continue
            profile, column = col_side
            stats = profile.column_stats(column)
            constant = self._constant_of(other)
            if (
                stats is not None
                and stats.histogram is not None
                and isinstance(constant, (int, float))
                and not isinstance(constant, bool)
            ):
                width = stats.histogram.width or 1.0
                within = stats.histogram.fraction_between(
                    float(constant) - width / 2.0, float(constant) + width / 2.0
                )
                # A bucket-width slice caps the point estimate; ndv
                # refines it below bucket resolution.
                return min(within, 1.0 / profile.ndv(column))
            return 1.0 / profile.ndv(column)
        return EQ_SELECTIVITY

    def _range_selectivity(self, left: ast.Expr, op: str, right: ast.Expr) -> float:
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        for mine, theirs, effective_op in (
            (left, right, op),
            (right, left, flip.get(op, op)),
        ):
            target = self._column_of(mine)
            if target is None:
                continue
            profile, column = target
            constant = self._constant_of(theirs)
            if constant is None or not isinstance(constant, (int, float)):
                return RANGE_SELECTIVITY
            stats = profile.column_stats(column)
            if stats is not None and stats.histogram is not None:
                value = float(constant)
                if effective_op == "<":
                    return stats.histogram.fraction_below(value, inclusive=False)
                if effective_op == "<=":
                    return stats.histogram.fraction_below(value, inclusive=True)
                if effective_op == ">":
                    return 1.0 - stats.histogram.fraction_below(value, inclusive=True)
                if effective_op == ">=":
                    return 1.0 - stats.histogram.fraction_below(value, inclusive=False)
            if (
                stats is not None
                and isinstance(stats.minimum, (int, float))
                and isinstance(stats.maximum, (int, float))
                and stats.maximum > stats.minimum
            ):
                # Linear interpolation over [min, max] without histogram.
                span = stats.maximum - stats.minimum
                below = (float(constant) - stats.minimum) / span
                below = min(max(below, 0.0), 1.0)
                return below if effective_op in ("<", "<=") else 1.0 - below
            return RANGE_SELECTIVITY
        return RANGE_SELECTIVITY

    # ------------------------------------------------------------------
    # Predicate fingerprints (query-log keys for observed actuals)
    # ------------------------------------------------------------------
    def _normalize(self, expr: ast.Expr) -> ast.Expr:
        """Canonicalize an expression for fingerprinting.

        Column references are rewritten to ``tablename.column`` when
        the owning relation is a base table, so the same predicate
        written under different aliases (or from different queries)
        maps to the same fingerprint.
        """
        if isinstance(expr, ast.ColumnRef):
            profile = self.owner(expr)
            table = expr.table.lower() if expr.table else None
            if profile is not None and profile.table is not None:
                table = profile.table.name
            return dataclasses.replace(
                expr, table=table, column=expr.column.lower()
            )
        if not dataclasses.is_dataclass(expr):
            return expr
        changes: Dict[str, Any] = {}
        for field_info in dataclasses.fields(expr):
            value = getattr(expr, field_info.name)
            if isinstance(value, ast.Expr):
                changes[field_info.name] = self._normalize(value)
            elif isinstance(value, tuple):
                changes[field_info.name] = tuple(
                    self._normalize(item) if isinstance(item, ast.Expr) else item
                    for item in value
                )
            elif isinstance(value, list):
                changes[field_info.name] = [
                    self._normalize(item) if isinstance(item, ast.Expr) else item
                    for item in value
                ]
        return dataclasses.replace(expr, **changes) if changes else expr

    def predicate_fingerprint(self, exprs: Sequence[ast.Expr]) -> str:
        """Order-insensitive canonical rendering of a conjunct set."""
        return ",".join(sorted(render(self._normalize(expr)) for expr in exprs))

    def scan_fingerprint(
        self, alias: str, filter_exprs: Sequence[ast.Expr]
    ) -> str:
        """Fingerprint of one relation under its pushed-down filters."""
        profile = self.profiles.get(alias)
        relation = (
            profile.table.name
            if profile is not None and profile.table is not None
            else alias.lower()
        )
        return f"scan:{relation}|{self.predicate_fingerprint(filter_exprs)}"

    def join_fingerprint(
        self,
        scan_fingerprints: Sequence[str],
        join_conjuncts: Sequence[ast.Expr],
    ) -> str:
        """Fingerprint of the join of a relation set.

        Composed from the member scan fingerprints (the observed join
        size depends on the pushed-down filters too) plus the internal
        join conjuncts; order-insensitive on both.
        """
        members = ";".join(sorted(scan_fingerprints))
        return f"join:{members}|{self.predicate_fingerprint(join_conjuncts)}"

    # ------------------------------------------------------------------
    # Cardinalities
    # ------------------------------------------------------------------
    def scan_rows(self, alias: str, filter_exprs: Sequence[ast.Expr]) -> float:
        """Estimated rows surviving a relation's pushed-down filters."""
        profile = self.profiles[alias]
        return max(profile.rows * self.conjunction(filter_exprs), 0.0)

    def join_rows(
        self,
        filtered_rows: Dict[str, float],
        aliases: Sequence[str],
        join_conjuncts: Sequence[ast.Expr],
    ) -> float:
        """Estimated size of the join of ``aliases``.

        ``filtered_rows`` maps alias -> post-filter cardinality;
        ``join_conjuncts`` are the multi-relation conjuncts internal to
        the alias set.  Order-independent, so the DP enumerator can
        memoize per subset.
        """
        result = 1.0
        for alias in aliases:
            result *= max(filtered_rows[alias], 0.0)
        result *= self.conjunction(join_conjuncts)
        return result
