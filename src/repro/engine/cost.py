"""Cost model: work units for the join-order enumerator, time for
the technique choice.

The engine reports deterministic work counters
(:class:`repro.engine.stats.ExecutionStats`) and folds them into a
single machine-independent metric ``cost()``.  The planner's estimated
cost uses the *same unit costs* so estimated and measured cost live on
one scale: an estimated plan cost of X predicts ``stats.cost() ≈ X``
when the cardinality estimates are right.

Units do not price a binding of NLJP's loop, which is Python around
the operators.  :data:`TIME_COSTS` turns units and bindings into
milliseconds so the optimizer can weigh an NLJP against the join it
would replace, and :func:`fit_unit_costs` fits those prices from timed
executions.  :class:`Decision` records what such a choice took and
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Sequence, Tuple

#: Counter names participating in the cost model.
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


#: The weights of ``ExecutionStats.cost()``.
DEFAULT_UNIT_COSTS = UnitCosts()


#: Where NLJP's inner query Q_R runs, one price per binding each (the
#: words ``NLJPOperator.inner_description`` starts with).
BINDING_PATHS = ("kernel", "block kernel", "operators")


@dataclass(frozen=True)
class TimeCosts:
    """Wall-clock prices that put execution paths on one scale.

    Work units (``stats.cost()``) rank plans that run on the same
    operators, but one NLJP binding costs tens of microseconds of
    Python where one vectorised join pair costs tens of nanoseconds.
    So a choice between a join and an NLJP compares estimated
    milliseconds: a price per work unit for each execution mode, plus a
    price per binding for the path NLJP's inner query runs on.
    """

    ns_per_unit: float  # a work unit under the columnar operators
    ns_per_row_unit: float  # a work unit under row mode
    us_kernel: float  # a binding whose scan-shaped Q_R runs the inner kernel
    us_block_kernel: float  # a binding of a join-shaped Q_R, a block at a time
    us_operators: float  # a binding whose Q_R runs the operator tree

    def binding_us(self, path: str) -> float:
        return getattr(self, "us_" + path.replace(" ", "_"))

    def binding_floor_ms(self, bindings: float) -> float:
        """What ``bindings`` NLJP bindings cost at least, on any path."""
        return bindings * min(self.binding_us(p) for p in BINDING_PATHS) / 1e3

    def plan_ms(self, units: float, columnar: bool) -> float:
        """A plan of ``units`` estimated work units."""
        ns = self.ns_per_unit if columnar else self.ns_per_row_unit
        return units * ns / 1e6

    def nljp_ms(
        self, qb_units: float, bindings: float, qr_units: float, path: str,
        columnar: bool,
    ) -> float:
        """Q_B, then Q_R once for each of its ``bindings``."""
        return self.plan_ms(qb_units + bindings * qr_units, columnar) + (
            bindings * self.binding_us(path) / 1e3
        )


@dataclass(frozen=True)
class Decision:
    """One plan-time choice: the option taken, the options rejected,
    each option's estimate in milliseconds, and why."""

    stage: str
    subject: str
    chosen: str
    alternatives: Tuple[str, ...] = ()
    estimates: Tuple[Tuple[str, float], ...] = ()
    #: Options priced by a lower bound on their cost, not in full.
    floors: Tuple[str, ...] = ()
    reason: str = ""

    def render(self) -> str:
        ms = dict(self.estimates)

        def named(option: str) -> str:
            if option not in ms:
                return option
            bound = "≥ " if option in self.floors else ""
            return f"{option} (est {bound}{ms[option]:.3g} ms)"

        text = f"{self.stage}: {named(self.chosen)}"
        if self.alternatives:
            text += "; rejected " + ", ".join(named(a) for a in self.alternatives)
        return f"{text} — {self.reason}" if self.reason else text

    def to_dict(self) -> Dict[str, object]:
        ms = dict(self.estimates)
        return {
            "stage": self.stage,
            "subject": self.subject,
            "chosen": self.chosen,
            "est_ms": ms.get(self.chosen),
            "alternatives": [
                {
                    "option": option,
                    "est_ms": ms.get(option),
                    "floor": option in self.floors,
                }
                for option in self.alternatives
            ],
            "reason": self.reason,
        }


#: Fitted by ``PYTHONPATH=src python -m repro.bench.calibrate`` (it
#: writes the sample ``tests/engine/golden/time_costs_sample.json`` and
#: prints these) on a 2-core Intel Xeon VM, CPython 3.11, NumPy 2.4.
TIME_COSTS = TimeCosts(
    ns_per_unit=53.53,
    ns_per_row_unit=528.97,
    us_kernel=12.04,
    us_block_kernel=53.73,
    us_operators=99.51,
)


def _solve(
    matrix: List[List[float]], rhs: List[float], defaults: Sequence[float]
) -> List[float]:
    """Gaussian elimination with partial pivoting (tiny dense systems)."""
    n = len(rhs)
    augmented = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r, col=col: abs(augmented[r][col]))
        if abs(augmented[pivot][col]) < 1e-12:
            # Singular direction (a path never seen in the sample): pin
            # its coefficient to the default.
            augmented[col][col] = 1.0
            augmented[col][-1] = defaults[col]
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


def _time_features(record: Mapping) -> List[float]:
    """The record's work in the units of :class:`TimeCosts`' fields:
    millions of work units, thousands of bindings."""
    units = float(record["units"]) / 1e6
    columnar = record["mode"] == "columnar"
    bindings = record.get("bindings", {})
    return [units if columnar else 0.0, 0.0 if columnar else units] + [
        float(bindings.get(path, 0)) / 1e3 for path in BINDING_PATHS
    ]


def fit_unit_costs(records: Sequence[Mapping]) -> TimeCosts:
    """Least-squares fit of :class:`TimeCosts` from timed executions.

    Each record holds the ``mode`` it ran in, its measured work
    ``units`` (``stats.cost()``), the ``bindings`` NLJP went through on
    its inner path (``{"kernel": n}``; none for a join) and the wall
    ``ms`` it took.  Each row is divided by its ``ms``, so the fit
    minimizes the relative error: a 2 ms statement counts as much as a
    700 ms one.
    Prices the sample never exercises keep their :data:`TIME_COSTS`
    value, so a degenerate sample cannot produce a wild model.
    """
    samples = [
        [x / record["ms"] for x in _time_features(record)]
        for record in records
        if record.get("ms", 0) > 0
    ]
    if not samples:
        return TIME_COSTS
    names = [field.name for field in fields(TimeCosts)]
    n = len(names)
    xtx = [[0.0] * n for _ in range(n)]
    xty = [0.0] * n  # every relative target is 1
    for values in samples:
        for i in range(n):
            xty[i] += values[i]
            for j in range(n):
                xtx[i][j] += values[i] * values[j]
    solved = _solve(xtx, xty, [getattr(TIME_COSTS, name) for name in names])
    return TimeCosts(**{name: round(w, 2) for name, w in zip(names, solved)})


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
