"""Smart-Iceberg: optimizing iceberg queries with complex joins.

A from-scratch reproduction of Walenz, Roy & Yang (SIGMOD 2017).  The
package bundles an in-memory relational engine (SQL parser, planner,
physical operators) and the paper's contribution on top of it:
generalized a-priori rewriting, cache-based pruning with automatically
derived subsumption predicates, memoization, and the NLJP operator.

Quick start::

    from repro import Column, Database, SmartIceberg, SqlType, TableSchema

    db = Database()
    basket = db.create_table(
        "basket",
        TableSchema.of(("bid", SqlType.INTEGER), ("item", SqlType.TEXT)),
        primary_key=("bid", "item"),
    )
    basket.insert_many([(1, "ale"), (1, "bread"), (2, "ale"), ...])

    system = SmartIceberg(db)
    result = system.execute('''
        SELECT i1.item, i2.item, COUNT(*)
        FROM basket i1, basket i2
        WHERE i1.bid = i2.bid AND i1.item < i2.item
        GROUP BY i1.item, i2.item HAVING COUNT(*) >= 20
    ''')

Execution runs the path the install has: columnar (NumPy column
batches, fused kernels) wherever NumPy imports, and the row-at-a-time
interpreter where it does not — identical rows, the same work counters
modulo zone-map skipping.  ``Result.execution_mode`` says which ran.
"""

from repro.engine import (
    CancelToken,
    EngineConfig,
    ExecutionStats,
    Result,
    execute,
    explain,
)
from repro.core import (
    Monotonicity,
    OptimizedQuery,
    SmartIceberg,
    SmartIcebergOptimizer,
)
from repro.serve import IcebergServer, Session
from repro.storage import Column, Database, SqlType, Table, TableSchema

__version__ = "1.3.0"

__all__ = [
    "CancelToken",
    "Column",
    "Database",
    "EngineConfig",
    "ExecutionStats",
    "IcebergServer",
    "Monotonicity",
    "OptimizedQuery",
    "Result",
    "Session",
    "SmartIceberg",
    "SmartIcebergOptimizer",
    "SqlType",
    "Table",
    "TableSchema",
    "execute",
    "explain",
    "__version__",
]
