"""Streams are a function of the seed, and ad-hoc streams never repeat."""

import itertools

import pytest

from bench.workloads import CYCLE, EPOCH, READ_ROUNDS, READ_STATEMENTS, WORKLOADS, set_up

SMOKE = 0.1


def head(name, seed, count, client=0, db=None):
    workload = WORKLOADS[name]
    if db is None:
        db = workload.build(SMOKE)
    return list(itertools.islice(workload.stream(seed, client, db), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_stream(name):
    assert head(name, 11, 60) == head(name, 11, 60)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_stream(name):
    assert head(name, 11, 60) != head(name, 12, 60)


def test_clients_of_repeat_hot_draw_independently():
    db = WORKLOADS["repeat_hot"].build(SMOKE)
    assert head("repeat_hot", 11, 60, client=0, db=db) != head(
        "repeat_hot", 11, 60, client=1, db=db
    )


@pytest.mark.parametrize("name,epoch_length", [("adhoc_pairs", 400), ("adhoc_mix", 201)])
def test_adhoc_statements_never_repeat_within_an_epoch(name, epoch_length):
    requests = head(name, 11, epoch_length + 10)
    epoch = list(itertools.takewhile(lambda r: r is not EPOCH, requests))
    assert len(epoch) == epoch_length
    assert len({request.sql for request in epoch}) == epoch_length
    # ... and the next epoch starts behind a marker, on a fresh server.
    assert requests[epoch_length] is EPOCH


def test_warmup_statements_are_off_the_adhoc_grids():
    for name in ("adhoc_pairs", "adhoc_mix"):
        timed = {request.sql for request in head(name, 11, 410)}
        assert not timed & {request.sql for request in WORKLOADS[name].warmup()}


def test_read_write_cycle_is_a_write_then_tagged_reads():
    cycle = head("read_write", 11, CYCLE)
    assert cycle[0].kind == "write" and len(cycle[0].rows) == 25
    reads = cycle[1:]
    assert [r.kind for r in reads] == list(READ_STATEMENTS) * READ_ROUNDS
    assert [r.tag for r in reads] == ["replan"] * 4 + ["warm"] * 12
    keys = [row[:3] for request in head("read_write", 11, 3 * CYCLE) for row in request.rows]
    assert len(set(keys)) == len(keys) == 75


def test_every_read_carries_its_having_threshold():
    for name in WORKLOADS:
        for request in head(name, 11, 40):
            if request.sql:
                op, threshold = request.having
                assert f"HAVING COUNT(*) {op} {threshold}" in request.sql


def test_set_up_warms_the_plan_cache_and_records_first_latencies():
    workload = WORKLOADS["read_write"]
    live = set_up(workload, 11, SMOKE)
    assert len(live.sessions) == len(live.streams) == 1
    assert set(live.first_served) == {request.sql for request in workload.warmup()}
    assert live.server.plan_cache.stats()["entries"] == len(READ_STATEMENTS)
    assert live.db.table("batting").statistics is not None
