"""Synthetic baseball season statistics.

The paper evaluates on the Lahman MLB season-statistics archive
(3×10^5 rows of player performance).  That dataset is not
redistributable here, so this generator produces a synthetic stand-in
that preserves the properties the experiments depend on:

* heavy-tailed, *correlated* per-season counting stats — Figure 2's
  point is precisely that different attribute pairs have different
  joint distributions, which changes skyband selectivity;
* players with multi-season careers on shared teams (the pairs query
  needs co-membership across years/rounds);
* a composite key (playerid, year, round) with team as a dependent
  attribute.

Correlation model: each player has a latent ``skill`` and a latent
``power``/``speed`` mix.  Hits scale with skill; home runs scale with
skill·power (strongly correlated with hits); stolen bases scale with
skill·(1−power) (weakly/negatively correlated with home runs); walks
and RBIs sit in between.  This yields one strongly-correlated pairing
(h, hr) and one weakly-correlated pairing (hr, sb), matching the two
panels of Figure 2 qualitatively.

Everything is deterministic given ``seed``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple, Optional

from repro.storage.catalog import Database
from repro.storage.schema import TableSchema
from repro.storage.types import SqlType

#: Statistic columns produced per season row.
STAT_COLUMNS = ("b_h", "b_hr", "b_rbi", "b_sb", "b_bb")


@dataclass(frozen=True)
class BaseballConfig:
    """Knobs for the synthetic season-statistics generator."""

    n_rows: int = 10_000
    n_teams: int = 30
    start_year: int = 1980
    n_years: int = 40
    rounds_per_year: int = 1
    mean_career_years: float = 6.0
    seed: int = 2017


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's algorithm; adequate for the small means used here."""
    if lam <= 0:
        return 0
    if lam > 50:
        # Normal approximation keeps generation O(1) for large means.
        return max(0, int(rng.gauss(lam, math.sqrt(lam)) + 0.5))
    threshold = math.exp(-lam)
    k, product = 0, 1.0
    while True:
        product *= rng.random()
        if product <= threshold:
            return k
        k += 1


def generate_seasons(
    config: Optional[BaseballConfig] = None,
) -> List[Tuple[int, int, int, int, int, int, int, int, int]]:
    """Rows of (playerid, year, round, teamid, b_h, b_hr, b_rbi, b_sb, b_bb)."""
    config = config if config is not None else BaseballConfig()
    rng = random.Random(config.seed)
    rows: List[Tuple[int, int, int, int, int, int, int, int, int]] = []
    playerid = 0
    while len(rows) < config.n_rows:
        playerid += 1
        skill = rng.betavariate(2.2, 5.0)  # heavy tail of stars
        power = rng.betavariate(2.0, 2.0)  # hitter vs runner mix
        career = max(1, int(rng.expovariate(1.0 / config.mean_career_years)) + 1)
        first_year = config.start_year + rng.randrange(config.n_years)
        team = rng.randrange(config.n_teams)
        for offset in range(career):
            if len(rows) >= config.n_rows:
                break
            year = first_year + offset
            if rng.random() < 0.15:  # occasional trade
                team = rng.randrange(config.n_teams)
            form = max(0.2, rng.gauss(1.0, 0.25))  # per-season form swing
            base = skill * form
            for round_number in range(1, config.rounds_per_year + 1):
                if len(rows) >= config.n_rows:
                    break
                hits = _poisson(rng, 190 * base)
                home_runs = _poisson(rng, 0.22 * hits * power)
                rbi = _poisson(rng, 0.35 * hits + 1.1 * home_runs)
                stolen = _poisson(rng, 42 * base * (1.0 - power))
                walks = _poisson(rng, 0.30 * hits + 8 * skill)
                rows.append(
                    (
                        playerid,
                        year,
                        round_number,
                        team,
                        hits,
                        home_runs,
                        rbi,
                        stolen,
                        walks,
                    )
                )
    return rows


BATTING_SCHEMA = TableSchema.of(
    ("playerid", SqlType.INTEGER),
    ("year", SqlType.INTEGER),
    ("round", SqlType.INTEGER),
    ("teamid", SqlType.INTEGER),
    ("b_h", SqlType.INTEGER),
    ("b_hr", SqlType.INTEGER),
    ("b_rbi", SqlType.INTEGER),
    ("b_sb", SqlType.INTEGER),
    ("b_bb", SqlType.INTEGER),
)


def load_batting(
    db: Database,
    config: Optional[BaseballConfig] = None,
    table_name: str = "batting",
    with_indexes: bool = True,
) -> None:
    """Create and populate the season-statistics table.

    Declares the composite primary key, nonnegative stat domains (for
    SUM monotonicity), and — when ``with_indexes`` — the secondary
    indexes the paper's experiments assume (hash on the team/season
    join attributes, sorted "BT" indexes on stat pairs).
    """
    config = config if config is not None else BaseballConfig()
    table = db.create_table(
        table_name, BATTING_SCHEMA, primary_key=("playerid", "year", "round")
    )
    table.insert_many(generate_seasons(config))
    for column in STAT_COLUMNS:
        db.declare_domain(table_name, column, lower=0)
    if with_indexes:
        table.create_index(f"{table_name}_team", ["teamid", "year", "round"], kind="hash")
        table.create_index(f"{table_name}_h_hr", ["b_h", "b_hr"], kind="sorted")
        table.create_index(f"{table_name}_hr_sb", ["b_hr", "b_sb"], kind="sorted")


def make_batting_db(
    config: Optional[BaseballConfig] = None, with_indexes: bool = True
) -> Database:
    """A fresh database holding only the batting table."""
    config = config if config is not None else BaseballConfig()
    db = Database()
    load_batting(db, config, with_indexes=with_indexes)
    return db


# ---------------------------------------------------------------------------
# Unpivoted organization (used by the *complex* query, Section 8)
# ---------------------------------------------------------------------------

UNPIVOT_SCHEMA = TableSchema.of(
    ("id", SqlType.INTEGER),
    ("category", SqlType.TEXT),
    ("attr", SqlType.TEXT),
    ("val", SqlType.FLOAT),
)


def unpivot_careers(
    seasons: List[Tuple[int, int, int, int, int, int, int, int, int]],
    n_categories: int = 8,
) -> List[Tuple[int, str, str, float]]:
    """Per-player career totals as (id, category, attr, val) rows.

    ``category`` buckets players (think: position/league) so dominance
    comparisons happen within comparable groups, like Listing 3's
    product categories; it is a function of the player id, so the FD
    ``id → category`` holds by construction.
    """
    totals: Dict[int, List[int]] = {}
    for row in seasons:
        playerid = row[0]
        stats = row[4:]
        accumulated = totals.setdefault(playerid, [0] * len(STAT_COLUMNS))
        for index, value in enumerate(stats):
            accumulated[index] += value
    rows: List[Tuple[int, str, str, float]] = []
    for playerid, stats in sorted(totals.items()):
        category = f"cat{playerid % n_categories}"
        for column, value in zip(STAT_COLUMNS, stats):
            rows.append((playerid, category, column, float(value)))
    return rows


def load_unpivoted(
    db: Database,
    config: Optional[BaseballConfig] = None,
    table_name: str = "perf",
    n_categories: int = 8,
    with_indexes: bool = True,
) -> None:
    """Create and populate the unpivoted key-value table."""
    config = config if config is not None else BaseballConfig()
    table = db.create_table(table_name, UNPIVOT_SCHEMA, primary_key=("id", "attr"))
    db.declare_fd(table_name, ["id"], ["category"])
    table.insert_many(unpivot_careers(generate_seasons(config), n_categories))
    db.declare_domain(table_name, "val", lower=0)
    if with_indexes:
        table.create_index(f"{table_name}_cat_attr", ["category", "attr"], kind="hash")
        table.create_index(f"{table_name}_id", ["id"], kind="hash")
        table.create_index(f"{table_name}_val", ["val"], kind="sorted")


# ---------------------------------------------------------------------------
# Dense leagues: the databases the figures, calibration and checks load
# ---------------------------------------------------------------------------


def dense_config(n_rows: int, seed: int = 2017) -> BaseballConfig:
    """A league sized so team-seasons hold realistic rosters.

    The pairs queries need players that actually share team-seasons;
    keeping ~12 players per (team, year) at any scale mirrors the
    density of the paper's real MLB data.
    """
    team_seasons = max(8, n_rows // 12)
    n_teams = max(3, int(round((team_seasons / 1.5) ** 0.5)))
    n_years = max(4, team_seasons // n_teams)
    return BaseballConfig(
        n_rows=n_rows, n_teams=n_teams, n_years=n_years, seed=seed
    )


def batting_db(n_rows: int, with_indexes: bool = True, seed: int = 2017) -> Database:
    """A fresh database holding a dense-league batting table."""
    db = Database()
    load_batting(db, dense_config(n_rows, seed), with_indexes=with_indexes)
    return db


def perf_db(n_rows: int, seed: int = 2017, n_categories: int = 8) -> Database:
    """A fresh database holding a dense league's unpivoted table."""
    db = Database()
    load_unpivoted(db, dense_config(n_rows, seed), n_categories=n_categories)
    return db
