"""Cyclic-join workload: a skewed directed graph.

Pairwise join plans are asymptotically suboptimal on cyclic join
graphs: a triangle query over a graph with ``m`` edges can produce
``Θ(m²)`` intermediate pairs under any join order, while the AGM bound
caps the output at ``O(m^1.5)`` (Ngo, Porat, Ré, Rudra 2012).  This
module builds a graph where that gap shows in the work counters: a
directed edge table with a power-law hub skew, so high-degree vertices
inflate pairwise intermediates far past the final triangle count.
The ``triangle_hub`` iceberg query over it is one of the served
benchmark's templates.

Everything is deterministic given ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple, Optional

from repro.storage.catalog import Database
from repro.storage.schema import TableSchema
from repro.storage.types import SqlType


@dataclass(frozen=True)
class CyclicConfig:
    """Knobs for the synthetic directed-graph generator."""

    n_edges: int = 10_000
    #: Vertex-count scale; ~sqrt density keeps triangle counts modest
    #: while hub skew keeps pairwise intermediates large.
    n_nodes: int = 0  # 0 → derived as max(16, n_edges // 8)
    #: Exponent of the hub skew: endpoints are drawn as
    #: ``int(n_nodes * u**skew)`` so small ids are hot hubs.
    skew: float = 2.0
    seed: int = 2017

    @property
    def node_count(self) -> int:
        return self.n_nodes if self.n_nodes > 0 else max(16, self.n_edges // 8)


EDGE_SCHEMA = TableSchema.of(
    ("src", SqlType.INTEGER),
    ("dst", SqlType.INTEGER),
    ("weight", SqlType.INTEGER),
)


def generate_edges(config: Optional[CyclicConfig] = None) -> List[Tuple[int, int, int]]:
    """Distinct (src, dst, weight) edges; no self-loops."""
    config = config if config is not None else CyclicConfig()
    rng = random.Random(config.seed)
    n_nodes = config.node_count
    seen = set()
    rows: List[Tuple[int, int, int]] = []
    while len(rows) < config.n_edges:
        src = int(n_nodes * rng.random() ** config.skew)
        dst = int(n_nodes * rng.random() ** config.skew)
        if src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        rows.append((src, dst, rng.randrange(1, 100)))
    return rows


def load_edges(
    db: Database,
    config: Optional[CyclicConfig] = None,
    table_name: str = "edge",
    with_indexes: bool = True,
) -> None:
    """Create and populate the edge table.

    Besides the (src, dst) primary key: a sorted (src, dst) index and
    hash indexes on each endpoint, which the planner's index
    nested-loop joins probe.
    """
    config = config if config is not None else CyclicConfig()
    table = db.create_table(table_name, EDGE_SCHEMA, primary_key=("src", "dst"))
    table.insert_many(generate_edges(config))
    if with_indexes:
        table.create_index(f"{table_name}_src_dst", ["src", "dst"], kind="sorted")
        table.create_index(f"{table_name}_src", ["src"], kind="hash")
        table.create_index(f"{table_name}_dst", ["dst"], kind="hash")


def make_cyclic_db(
    config: Optional[CyclicConfig] = None, with_indexes: bool = True
) -> Database:
    """A fresh database holding only the edge table."""
    config = config if config is not None else CyclicConfig()
    db = Database()
    load_edges(db, config, with_indexes=with_indexes)
    return db


def triangle_query(table: str = "edge") -> str:
    """Directed triangles: the canonical cyclic query (GYO-irreducible)."""
    return (
        "SELECT e1.src, e2.src, e3.src\n"
        f"FROM {table} e1, {table} e2, {table} e3\n"
        "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src"
    )


def square_query(table: str = "edge") -> str:
    """Directed 4-cycles: a longer cycle, whose pairwise intermediates
    grow faster than the triangle's."""
    return (
        "SELECT e1.src, e2.src, e3.src, e4.src\n"
        f"FROM {table} e1, {table} e2, {table} e3, {table} e4\n"
        "WHERE e1.dst = e2.src AND e2.dst = e3.src\n"
        "  AND e3.dst = e4.src AND e4.dst = e1.src"
    )


def triangle_hub_query(min_count: int = 2, table: str = "edge") -> str:
    """Iceberg variant: vertices anchoring at least ``min_count`` triangles."""
    return (
        "SELECT e1.src, COUNT(*)\n"
        f"FROM {table} e1, {table} e2, {table} e3\n"
        "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src\n"
        "GROUP BY e1.src\n"
        f"HAVING COUNT(*) >= {min_count}"
    )
