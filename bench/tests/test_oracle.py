"""The oracle shares no code with the engine and still agrees with it."""

from repro import SmartIceberg

from bench.oracle import Oracle, digest, normalized
from bench.workloads import WORKLOADS


def test_rows_compare_as_multisets_with_rounded_floats():
    assert normalized([(2, 0.1 + 0.2), (1, None)]) == normalized([(1, None), (2, 0.3)])
    assert normalized([(1,), (1,)]) != normalized([(1,)])
    assert digest([[(1, 2.0)], []]) == digest([[(1, 2.0000000000001)], []])
    assert digest([[(1,)], []]) != digest([[], [(1,)]])


def test_oracle_agrees_with_the_engine_on_every_warmup_statement():
    for name in ("adhoc_pairs", "adhoc_mix"):
        workload = WORKLOADS[name]
        db = workload.build(0.1)
        oracle = Oracle(db)
        for request in workload.warmup():
            rows = SmartIceberg(db).execute(request.sql).rows
            assert oracle.agrees(request.sql, rows), request.kind
            assert not oracle.agrees(request.sql, rows + [rows[0]] if rows else [(0,)])
        oracle.close()


def test_oracle_follows_writes():
    workload = WORKLOADS["read_write"]
    db = workload.build(0.1)
    oracle = Oracle(db)
    stream = workload.stream(5, 0, db)
    write, read = next(stream), next(stream)
    before = SmartIceberg(db).execute(read.sql).rows
    db.table("batting").insert_many(write.rows)
    oracle.insert("batting", write.rows)
    after = SmartIceberg(db).execute(read.sql).rows
    assert oracle.agrees(read.sql, after)
    assert before == after or not oracle.agrees(read.sql, before)
    oracle.close()
