"""Skewed-selectivity workload: a heavy hitter the estimator misses.

Uniform-assumption estimators are at their worst on heavy-hitter
value distributions: without statistics, an equality predicate on a
column is charged ``1/ndv`` selectivity, but when one value carries
most of the mass the estimate is off by orders of magnitude — and the
mis-estimate cascades into join ordering (the "small" filtered side
gets picked as the driving relation when it is actually the large
one).  This module builds exactly that trap: an ``events`` fact table
whose ``kind`` column has one dominant value, joined to a small
``users`` dimension.

Under ``feedback="observe"`` the plan is unchanged and the scan's
actual rows show the q-error (``Result.report()``); nothing corrects
the estimate — the engine keeps no runtime feedback.  The subsumption
goldens and the observe-parity tests run this query.

Everything is deterministic given ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.storage.catalog import Database
from repro.storage.schema import TableSchema
from repro.storage.types import SqlType


@dataclass(frozen=True)
class SkewedConfig:
    """Knobs for the skewed events/users generator."""

    n_events: int = 6_000
    n_users: int = 300
    n_regions: int = 10
    #: Number of distinct ``kind`` values; ``hot_kind`` is one of them.
    n_kinds: int = 8
    #: The heavy-hitter ``kind`` value and its share of all events.
    hot_kind: int = 7
    hot_fraction: float = 0.85
    seed: int = 2017


EVENTS_SCHEMA = TableSchema.of(
    ("ev_id", SqlType.INTEGER),
    ("kind", SqlType.INTEGER),
    ("user_id", SqlType.INTEGER),
)

USERS_SCHEMA = TableSchema.of(
    ("user_id", SqlType.INTEGER),
    ("region", SqlType.TEXT),
)


def make_skewed_db(config: Optional[SkewedConfig] = None) -> Database:
    """A fresh database holding the skewed events/users pair.

    Neither table is ANALYZEd — the point of the workload is that the
    planner starts from index/row-count fallbacks and only the
    observed actual rows show the skew.
    """
    config = config if config is not None else SkewedConfig()
    rng = random.Random(config.seed)
    db = Database()
    users = db.create_table("users", USERS_SCHEMA, primary_key=("user_id",))
    for user_id in range(config.n_users):
        users.insert((user_id, f"region_{user_id % config.n_regions}"))
    # No index on events.user_id on purpose: with one, an index
    # nested-loop driving from ``users`` dominates regardless of the
    # events-side estimate, and the mis-estimate never changes a plan
    # decision.  Without it the "tiny" (mis-estimated) filtered events
    # side looks like the perfect probe side, which an estimate
    # corrected to the true size would no longer pick.
    events = db.create_table("events", EVENTS_SCHEMA, primary_key=("ev_id",))
    cold_kinds = config.n_kinds - 1
    for ev_id in range(config.n_events):
        if rng.random() < config.hot_fraction:
            kind = config.hot_kind
        else:
            kind = rng.randrange(cold_kinds)
            if kind >= config.hot_kind:
                kind += 1
        events.insert((ev_id, kind, rng.randrange(config.n_users)))
    return db


def skewed_query(config: Optional[SkewedConfig] = None) -> str:
    """Regions ranked by hot-kind event volume (the skew probe query).

    The ``e.kind = <hot>`` predicate is the trap: uniform estimation
    says a tiny filtered side, reality says ~``hot_fraction`` of the
    fact table survives.
    """
    config = config if config is not None else SkewedConfig()
    return (
        "SELECT u.region, COUNT(*) AS n\n"
        "FROM events e, users u\n"
        f"WHERE e.kind = {config.hot_kind} AND e.user_id = u.user_id\n"
        "GROUP BY u.region"
    )
