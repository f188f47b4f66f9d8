"""The four workloads: data, statement streams and set-up.

Everything a workload feeds the system is generated here; the system
under test receives only tables and SQL text.  The tables are the same
for every ``--seed`` (see ``DATA_SEED``); the seed decides what the
clients ask, in which order, and what they write.  Why each workload
exists is recorded once, in ``BENCHMARK.json``.

Set-up is what a user does before the first timed request: build the
tables, ``ANALYZE`` where the workload says so, construct
``IcebergServer(db)`` with its defaults, and execute the warm-up
statements once.  Nothing here passes an engine knob, so the numbers
follow the shipped defaults.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple, TypeVar

from repro import Database, IcebergServer, Session
from repro.workloads import (
    BaseballConfig,
    BasketConfig,
    CyclicConfig,
    complex_query,
    figure1_queries,
    load_baskets,
    load_batting,
    load_edges,
    load_unpivoted,
    market_basket_query,
    pairs_query,
    skyband_query,
    triangle_hub_query,
)


T = TypeVar("T")


@dataclass(frozen=True)
class Request:
    """One thing a client asks of the system."""

    kind: str  # template or statement name; "write" inserts ``rows``
    sql: str = ""
    #: ``(op, threshold)`` of the statement's ``HAVING COUNT(*)``; the
    #: count is the last output column of every template, so each
    #: response is checked against it as it arrives.
    having: Tuple[str, int] = ("", 0)
    rows: Tuple[tuple, ...] = ()
    #: ``read_write`` only: "replan" for the first read of a statement
    #: after a write, "warm" for the rest.
    tag: str = ""


#: Stream marker: the statement grid is used up; the client continues
#: on a fresh ``IcebergServer`` so no later request can hit a plan
#: cached for an earlier one.
EPOCH = Request(kind="epoch")


@dataclass
class Live:
    """A set-up workload: the system plus what its clients will send.

    Every timed run has one client.  Two clients were measured: their
    requests are pure Python, so they alternate on the interpreter lock
    every 5 ms, a request's latency becomes its CPU time plus a whole
    number of 5 ms waits, and the median of a 2-3 ms statement flipped
    between 2.9 ms and 6 ms from run to run of one seed.  The lists are
    for ``serve.client_scaling``, which adds a second client.
    """

    db: Database
    server: IcebergServer
    sessions: List[Session]
    streams: List[Iterator[Request]]
    #: Wall seconds of each warm-up statement's first (plan-cache
    #: missing) served execution, by SQL text.
    first_served: Dict[str, float] = field(default_factory=dict)

    def restart_server(self) -> None:
        self.server = IcebergServer(self.db)
        self.sessions = [self.server.session() for _ in self.sessions]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Requests of client 0's stream that the ``--layers`` pass replays.
    prefix: int
    build: Callable[[float], Database]
    warmup: Callable[[], List[Request]]
    stream: Callable[[int, int, Database], Iterator[Request]]
    #: Names the per-kind rows the timed run adds (``template.skyband.
    #: p50_ms``, ``statement.Q1.p50_ms``); empty when there is one kind.
    rows_prefix: str = ""
    #: Rows the ``--layers`` pass measures on this workload only:
    #: ``serve.client_scaling`` needs statements that can be repeated
    #: by a second client, ``core.work_ratio_vs_base`` tables small
    #: enough to run every statement's baseline plan too.
    extras: Tuple[str, ...] = ()


def set_up(workload: Workload, seed: int, scale: float) -> Live:
    db = workload.build(scale)
    server = IcebergServer(db)
    live = Live(db=db, server=server, sessions=[server.session()], streams=[])
    for request in workload.warmup():
        started = time.perf_counter()
        live.sessions[0].execute(request.sql)
        live.first_served[request.sql] = time.perf_counter() - started
    live.streams.append(workload.stream(seed, 0, db))
    return live


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------


#: The tables do not vary with ``--seed``.  The planner's choices do
#: vary with the data (on other graphs ``triangle_hub`` gains an
#: a-priori reducer and drops from 510 ms to 320 ms; ``complex`` at one
#: threshold ranges 170-400 ms), so with seeded tables ten seeds spread
#: ``adhoc_mix`` latency by a third and no regression below that could
#: be seen.  Two commits are compared on the same tables instead.
DATA_SEED = 2017


def _scaled(size: int, scale: float, floor: int) -> int:
    return max(floor, int(size * scale))


def _dense_config(n_rows: int, seed: int = DATA_SEED) -> BaseballConfig:
    """About 12 players per team-season at any size.

    The density rule of ``repro.bench.figures._dense_config``, copied
    so that retiring that module cannot change this benchmark's data:
    the pairs queries need players who actually share team-seasons.
    """
    team_seasons = max(8, n_rows // 12)
    n_teams = max(3, int(round((team_seasons / 1.5) ** 0.5)))
    n_years = max(4, team_seasons // n_teams)
    return BaseballConfig(n_rows=n_rows, n_teams=n_teams, n_years=n_years, seed=seed)


def _batting_db(n_rows: int, floor: int) -> Callable[[float], Database]:
    def build(scale: float) -> Database:
        db = Database()
        load_batting(db, _dense_config(_scaled(n_rows, scale, floor)))
        return db

    return build


def _mix_db(scale: float) -> Database:
    """One database with a table for each of the paper's techniques."""
    db = Database()
    load_batting(db, _dense_config(_scaled(5000, scale, 100)))
    load_unpivoted(db, _dense_config(_scaled(1500, scale, 100), DATA_SEED + 1))
    load_baskets(
        db, BasketConfig(n_baskets=_scaled(4000, scale, 100), seed=DATA_SEED + 2)
    )
    load_edges(db, CyclicConfig(n_edges=_scaled(3000, scale, 100), seed=DATA_SEED + 3))
    return db


def _analyzed_batting_db(scale: float) -> Database:
    db = _batting_db(3000, 100)(scale)
    db.analyze()
    return db


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

ATTR_PAIRS = (("b_h", "b_hr"), ("b_hr", "b_sb"), ("b_h", "b_rbi"))

# Figure 1's parameters (the defaults of ``figure1_queries``), spelled
# out because each response is checked against its threshold.
_SKYBAND_K = (50, 100, 200)
_PAIRS_PARAMS = ((3, 20, "AVG"), (3, 50, "AVG"), (5, 20, "SUM"), (5, 50, "SUM"))
_Q8_K = 20


def figure1_requests(names: Tuple[str, ...] = ()) -> List[Request]:
    """Q1-Q8 of the paper's Figure 1 (or the named ones) as requests."""
    queries = figure1_queries(
        skyband_k=_SKYBAND_K, pairs_params=_PAIRS_PARAMS, q8_k=_Q8_K
    )
    thresholds = (
        _SKYBAND_K + tuple(k for _c, k, _agg in _PAIRS_PARAMS) + (_Q8_K,)
    )
    return [
        Request(kind=name, sql=query.sql, having=("<=", k))
        for (name, query), k in zip(queries.items(), thresholds)
        if not names or name in names
    ]


def _pairs_request(c: int, k: int, agg: str) -> Request:
    return Request("pairs", pairs_query(c=c, k=k, agg=agg), ("<=", k))


def _mix_request(kind: str, parameter) -> Request:
    if kind == "skyband":
        (attr_a, attr_b), k = parameter
        return Request(kind, skyband_query(attr_a, attr_b, k), ("<=", k))
    builder = {
        "complex": complex_query,
        "basket": market_basket_query,
        "triangle_hub": triangle_hub_query,
    }[kind]
    return Request(kind, builder(parameter), (">=", parameter))


def _epochs(
    rng: random.Random, epoch: Callable[[random.Random], Iterator[Request]]
) -> Iterator[Request]:
    """Epoch after epoch of distinct statements, ``EPOCH`` between them."""
    for number in itertools.count():
        if number:
            yield EPOCH
        yield from epoch(rng)


def _stratified(rng: random.Random, strata: Sequence[List[T]]) -> Iterator[T]:
    """Every value once, each round taking one from every stratum.

    A statement's cost depends on its threshold (``complex`` runs 40 ms
    at 40 and 600 ms at 8), so a plain shuffle gives the dozen draws of
    one run a different mix each seed; drawing round by round across
    slices of the range gives every run the same mix in another order.
    """
    for stratum in strata:
        rng.shuffle(stratum)
    for round_number in range(max(len(stratum) for stratum in strata)):
        for index in rng.sample(range(len(strata)), len(strata)):
            if round_number < len(strata[index]):
                yield strata[index][round_number]


def _slices(values: Sequence[T], count: int) -> List[List[T]]:
    """``values`` cut into ``count`` contiguous slices of equal length."""
    size = len(values) // count
    return [list(values[i * size : (i + 1) * size]) for i in range(count)]


def _stream_rng(name: str, seed: int, client: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{client}")


# -- adhoc_pairs ------------------------------------------------------------


def _pairs_epoch(rng: random.Random) -> Iterator[Request]:
    # One stratum per c: it sets the size of the pair table, and with
    # it the part of the latency that is not planning.
    strata = [
        [(c, k, agg) for k in range(5, 201, 5) for agg in ("AVG", "SUM")]
        for c in range(2, 7)
    ]
    for c, k, agg in _stratified(rng, strata):
        yield _pairs_request(c, k, agg)


def _pairs_stream(seed: int, client: int, _db: Database) -> Iterator[Request]:
    return _epochs(_stream_rng("adhoc_pairs", seed, client), _pairs_epoch)


# -- adhoc_mix --------------------------------------------------------------

# Skyband twice per round: it is the template both pruning and
# memoization act on, and the cheapest to plan.
MIX_ORDER = ("skyband", "complex", "skyband", "basket", "triangle_hub")


def _mix_epoch(rng: random.Random) -> Iterator[Request]:
    draws = {
        "skyband": _stratified(
            rng,
            [
                [(pair, k) for k in ks]
                for pair in ATTR_PAIRS
                for ks in _slices(range(50, 350), 2)
            ],
        ),
        "complex": _stratified(rng, _slices(range(4, 44), 5)),
        "basket": _stratified(rng, _slices(range(10, 90), 5)),
        "triangle_hub": _stratified(rng, _slices(range(2, 42), 5)),
    }
    while True:
        for kind in MIX_ORDER:
            parameter = next(draws[kind], None)
            if parameter is None:
                return
            yield _mix_request(kind, parameter)


def _mix_stream(seed: int, client: int, _db: Database) -> Iterator[Request]:
    return _epochs(_stream_rng("adhoc_mix", seed, client), _mix_epoch)


def _mix_warmup() -> List[Request]:
    # One statement per template, each just outside its grid.
    return [
        _mix_request("skyband", (ATTR_PAIRS[0], 49)),
        _mix_request("complex", 3),
        _mix_request("basket", 9),
        _mix_request("triangle_hub", 1),
    ]


# -- repeat_hot -------------------------------------------------------------


def _hot_stream(seed: int, client: int, _db: Database) -> Iterator[Request]:
    rng = _stream_rng("repeat_hot", seed, client)
    requests = figure1_requests()
    while True:
        yield rng.choice(requests)


# -- read_write -------------------------------------------------------------

READ_STATEMENTS = ("Q1", "Q2", "Q3", "Q8")
ROWS_PER_WRITE = 25
READ_ROUNDS = 4


def _read_write_stream(seed: int, client: int, db: Database) -> Iterator[Request]:
    rng = _stream_rng("read_write", seed, client)
    # New rows are existing seasons under fresh player ids, so the
    # table keeps its value distribution while it grows.
    base = list(db.table("batting").rows)
    reads = figure1_requests(READ_STATEMENTS)
    next_player = 1_000_000
    while True:
        rows = []
        for _ in range(ROWS_PER_WRITE):
            next_player += 1
            rows.append((next_player,) + rng.choice(base)[1:])
        yield Request(kind="write", rows=tuple(rows))
        for round_number in range(READ_ROUNDS):
            tag = "warm" if round_number else "replan"
            for read in reads:
                yield Request(read.kind, read.sql, read.having, tag=tag)


#: Requests per ``read_write`` cycle: one write, then the reads.
CYCLE = 1 + READ_ROUNDS * len(READ_STATEMENTS)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="adhoc_pairs",
            prefix=8,
            build=_batting_db(600, 60),
            # k=3 is off the grid (multiples of 5), so no timed
            # request finds this plan cached.
            warmup=lambda: [_pairs_request(3, 3, "AVG")],
            stream=_pairs_stream,
        ),
        Workload(
            name="adhoc_mix",
            prefix=24,
            build=_mix_db,
            warmup=_mix_warmup,
            stream=_mix_stream,
            rows_prefix="template",
        ),
        Workload(
            name="repeat_hot",
            prefix=16,
            build=_batting_db(300, 60),
            warmup=figure1_requests,
            stream=_hot_stream,
            rows_prefix="statement",
            extras=("serve.client_scaling", "core.work_ratio_vs_base"),
        ),
        Workload(
            name="read_write",
            prefix=4 * CYCLE,
            build=_analyzed_batting_db,
            warmup=lambda: figure1_requests(READ_STATEMENTS),
            stream=_read_write_stream,
            rows_prefix="statement",
        ),
    )
}
