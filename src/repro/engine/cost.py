"""Calibrated cost model for the join-order enumerator.

The engine already reports deterministic work counters
(:class:`repro.engine.stats.ExecutionStats`) and folds them into a
single machine-independent metric ``cost()``.  The planner's estimated
cost uses the *same unit costs* so estimated and measured cost live on
one scale: an estimated plan cost of X predicts ``stats.cost() ≈ X``
when the cardinality estimates are right.

:func:`fit_unit_costs` recovers the unit weights from measured
executions (``{"counters", "cost"}`` rows) by ordinary least squares.
On rows whose cost is ``ExecutionStats.cost`` it reproduces
:data:`DEFAULT_UNIT_COSTS` (the weights baked into that method), and it
flags drift if the counter weighting changes without the planner's
unit costs following.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

#: Counter names participating in the cost model, in fit order.
COUNTER_NAMES = (
    "rows_scanned",
    "join_pairs",
    "index_probes",
    "aggregation_inputs",
    "prune_checks",
    "cache_hits",
)


@dataclass(frozen=True)
class UnitCosts:
    """Per-counter unit costs (the coefficients of ``stats.cost()``)."""

    rows_scanned: float = 1.0
    join_pairs: float = 3.0
    index_probes: float = 1.0
    aggregation_inputs: float = 1.0
    prune_checks: float = 2.0
    cache_hits: float = 1.0

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def cost_of(self, counters: Mapping[str, float]) -> float:
        return sum(
            getattr(self, name) * counters.get(name, 0) for name in COUNTER_NAMES
        )


#: The weights of ``ExecutionStats.cost()``; what calibration recovers.
DEFAULT_UNIT_COSTS = UnitCosts()


def _solve(matrix: List[List[float]], rhs: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting (tiny dense systems)."""
    n = len(rhs)
    augmented = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r, col=col: abs(augmented[r][col]))
        if abs(augmented[pivot][col]) < 1e-12:
            # Singular direction (counter never varies in the sample):
            # pin its coefficient to the default.
            augmented[col][col] = 1.0
            augmented[col][-1] = getattr(DEFAULT_UNIT_COSTS, COUNTER_NAMES[col])
            for r in range(n):
                if r != col:
                    augmented[r][col] = 0.0
            continue
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        for r in range(n):
            if r == col:
                continue
            factor = augmented[r][col] / augmented[col][col]
            if factor:
                for c in range(col, n + 1):
                    augmented[r][c] -= factor * augmented[col][c]
    return [augmented[i][-1] / augmented[i][i] for i in range(n)]


def fit_unit_costs(records: Sequence[Mapping]) -> UnitCosts:
    """Least-squares fit of unit costs from measured rows.

    Each record needs a ``cost`` field and a ``counters`` mapping
    (``ExecutionStats.as_dict()``).  Solves the normal equations
    ``(X'X) w = X'y``; directions with no variance in the sample keep
    their default coefficient, so a degenerate sample cannot produce a
    wild model.
    """
    samples = [
        (record["counters"], float(record["cost"]))
        for record in records
        if "counters" in record and "cost" in record
    ]
    if not samples:
        return DEFAULT_UNIT_COSTS
    n = len(COUNTER_NAMES)
    xtx = [[0.0] * n for _ in range(n)]
    xty = [0.0] * n
    for counters, cost in samples:
        values = [float(counters.get(name, 0)) for name in COUNTER_NAMES]
        for i in range(n):
            xty[i] += values[i] * cost
            for j in range(n):
                xtx[i][j] += values[i] * values[j]
    solved = _solve(xtx, xty)
    return UnitCosts(**{name: round(w, 9) for name, w in zip(COUNTER_NAMES, solved)})


class CostModel:
    """Operator-level cost formulas in calibrated counter units.

    Each formula predicts the counters the corresponding physical
    operator will charge, weighted by the unit costs — so the model's
    ranking matches the measured ``stats.cost()`` ranking whenever the
    cardinality estimates do.
    """

    def __init__(self, units: UnitCosts = DEFAULT_UNIT_COSTS) -> None:
        self.units = units

    def scan(self, table_rows: float) -> float:
        """Full scan: every stored row is charged to rows_scanned."""
        return self.units.rows_scanned * table_rows

    def index_point_scan(self, matching_rows: float) -> float:
        return self.units.index_probes + self.units.rows_scanned * matching_rows

    def nested_loop_join(self, outer_rows: float, inner_rows: float) -> float:
        """NLJ evaluates every (outer, inner) pair."""
        return self.units.join_pairs * outer_rows * inner_rows

    def hash_join(self, probe_rows: float, matching_pairs: float) -> float:
        """Hash join charges join_pairs only for key-matching pairs."""
        return self.units.join_pairs * matching_pairs

    def index_nested_loop_join(
        self, outer_rows: float, matching_pairs: float
    ) -> float:
        """One index probe per outer row plus the matching pairs."""
        return (
            self.units.index_probes * outer_rows
            + self.units.join_pairs * matching_pairs
        )

    def aggregate(self, input_rows: float) -> float:
        return self.units.aggregation_inputs * input_rows
