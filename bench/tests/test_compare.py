"""Comparer verdicts on synthetic reports."""

import json

import pytest

from bench import compare
from bench.catalog import load_catalog

CATALOG = load_catalog()


def run(p50, load1=0.1, failed=0, digest="d", seed=1, layer_count=10, p95=200.0):
    return {
        "env": {"load1": load1, "nproc": 2},
        "seed": seed,
        "workloads": {
            "adhoc_pairs": {
                "attempted": 20,
                "failed": failed,
                "result_digest": digest,
                "end_to_end": {
                    "latency_p50_ms": {"value": p50, "unit": "ms"},
                    "throughput_qps": {"value": 1000.0 / p50, "unit": "1/s"},
                },
                "breakdown": {"latency_p95_ms": {"value": p95, "unit": "ms"}},
                "per_layer": {
                    "logic.fme.implies_calls": {"value": layer_count, "unit": "count"}
                },
            }
        },
    }


def verdicts(base, change, capsys):
    status = compare.compare(CATALOG, base, change)
    lines = capsys.readouterr().out.splitlines()
    found = {}
    for line in lines:
        words = line.split()
        if words and words[0] in CATALOG.end_to_end:
            found[words[0]] = next(
                w for w in words if w in {"better", "same", "worse", "unresolved", "refused"}
            )
    return status, found, "\n".join(lines)


def test_within_the_bound_is_same(capsys):
    status, found, _ = verdicts([run(100.0)], [run(105.0)], capsys)
    assert status == 0
    assert found == {"latency_p50_ms": "same", "throughput_qps": "same"}


def test_beyond_the_bound_is_worse_or_better_by_direction(capsys):
    status, found, text = verdicts([run(100.0)], [run(150.0)], capsys)
    assert status == 1
    assert found == {"latency_p50_ms": "worse", "throughput_qps": "worse"}
    assert "B/A  1.500 of 100" in text  # every ratio with its base
    status, found, _ = verdicts([run(100.0)], [run(60.0)], capsys)
    assert status == 0
    assert found == {"latency_p50_ms": "better", "throughput_qps": "better"}


def test_spread_wider_than_the_bound_is_unresolved(capsys):
    noisy = [run(p50) for p50 in (80.0, 100.0, 125.0, 150.0)]
    status, found, _ = verdicts(noisy, [run(200.0)], capsys)
    assert found["latency_p50_ms"] == "unresolved"
    assert status == 0


def test_medians_of_several_runs_decide(capsys):
    base = [run(p50) for p50 in (99.0, 100.0, 101.0, 100.5)]
    change = [run(p50) for p50 in (149.0, 150.0, 151.0, 150.5)]
    status, found, _ = verdicts(base, change, capsys)
    assert (status, found["latency_p50_ms"]) == (1, "worse")


def test_a_difference_below_the_floor_is_same():
    metric = CATALOG.end_to_end["latency_p50_ms"]
    assert compare.verdict(metric, [0.10], [0.14]) == "same"
    assert compare.verdict(metric, [10.0], [14.0]) == "worse"


def test_overloaded_machine_gets_no_verdict(capsys):
    status, found, _ = verdicts([run(100.0, load1=3.5)], [run(150.0)], capsys)
    assert status == 2
    assert set(found.values()) == {"refused"}


def test_more_failures_or_other_rows_fail_the_comparison(capsys):
    status, _, text = verdicts([run(100.0)], [run(100.0, failed=1)], capsys)
    assert status == 1 and "worse" in text
    status, _, text = verdicts([run(100.0)], [run(100.0, digest="e")], capsys)
    assert status == 1 and "DIFFERS" in text
    status, _, text = verdicts([run(100.0)], [run(100.0, digest="e", seed=2)], capsys)
    assert status == 0 and "DIFFERS" not in text


def test_tail_latency_row_has_a_verdict_of_its_own(capsys):
    base = [run(100.0), run(100.0, p95=202.0)]
    status, _, text = verdicts(base, [run(100.0, p95=250.0)] * 2, capsys)
    assert status == 1 and "bound 0.20  worse" in text
    status, _, text = verdicts(base, [run(100.0, p95=230.0)] * 2, capsys)
    assert status == 0 and "bound 0.20  same" in text
    # One run a side has no spread to hold the tail against.
    status, _, text = verdicts(base[:1], [run(100.0, p95=250.0)], capsys)
    assert status == 0 and "bound 0.20  unresolved" in text


def test_changed_counts_are_flagged(capsys):
    _, _, text = verdicts([run(100.0)], [run(100.0, layer_count=7)], capsys)
    assert "count differs" in text


def test_command_line_reads_appended_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"runs": [run(100.0), run(102.0)]}))
    b.write_text(json.dumps({"runs": [run(151.0)]}))
    assert compare.main([str(a), str(b)]) == 1
    assert "A 2 runs, spread" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        compare.main([str(a)])
