"""The end-to-end arithmetic, on samples small enough to do by hand."""

import pytest

from bench.loadgen import (
    Sample,
    breakdown,
    end_to_end,
    geometric_mean,
    satisfies_having,
    window_throughput,
)
from bench.workloads import Request


def test_window_rate_is_measured_between_completions_not_window_edges():
    # One request every 1.2 s for 20 s: 0.8333/s in every window,
    # though the 5 s windows hold 4, 4, 4 and 5 completions.
    ends = [1.2 * i for i in range(1, 18)]
    assert window_throughput(0.0, 20.0, ends) == pytest.approx(1 / 1.2)


def test_one_stalled_window_does_not_decide_throughput():
    ends = [0.1 * i for i in range(1, 50)] + [9.9] + [10 + 0.1 * i for i in range(1, 100)]
    assert window_throughput(0.0, 20.0, ends) == pytest.approx(10.0, rel=0.05)


def test_completions_after_the_deadline_join_the_last_window():
    assert window_throughput(0.0, 2.0, [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_p50_is_the_geometric_mean_of_per_kind_medians():
    samples = [Sample("a", "", 0.0, 0.001 * ms, True) for ms in (1, 2, 3)]
    samples += [Sample("b", "", 0.0, 0.001 * ms, True) for ms in (50, 8, 100)]
    samples += [Sample("write", "", 0.0, 5.0, True)]
    metrics = end_to_end(0.0, 5.0, samples)
    assert metrics["latency_p50_ms"] == (pytest.approx(10.0), 6)
    assert metrics["throughput_qps"][1] == 7  # writes are operations too
    assert set(metrics) == {"throughput_qps", "latency_p50_ms"}
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)


def test_breakdown_rows_by_kind_and_by_tag():
    samples = [
        Sample("Q1", "replan", 0.0, 0.100, True),
        Sample("Q1", "warm", 0.0, 0.020, True),
        Sample("Q1", "warm", 0.0, 0.030, True),
        Sample("write", "", 0.0, 0.001, True),
    ]
    rows = breakdown("statement", samples)
    assert rows["statement.Q1.p50_ms"] == (pytest.approx(30.0), 3)
    assert rows["serve.replan_read_p50_ms"] == (pytest.approx(100.0), 1)
    assert rows["serve.warm_read_p50_ms"] == (pytest.approx(25.0), 2)
    assert breakdown("", samples[:1]) == {"serve.replan_read_p50_ms": (pytest.approx(100.0), 1)}


def test_p95_is_printed_only_with_ten_samples_beyond_it():
    few = [Sample("Q1", "", 0.0, 0.001 * (i + 1), True) for i in range(199)]
    assert "latency_p95_ms" not in breakdown("", few)
    enough = few + [Sample("Q1", "", 0.0, 0.2, True)]
    value, count = breakdown("", enough)["latency_p95_ms"]
    assert count == 200 and value == pytest.approx(190.05)


def test_having_check_reads_the_last_column():
    at_most = Request("skyband", "...", ("<=", 3))
    at_least = Request("basket", "...", (">=", 3))
    assert satisfies_having(at_most, [(1, 2, 3), (9, 9, 0)])
    assert not satisfies_having(at_most, [(1, 2, 4)])
    assert satisfies_having(at_least, [("a", "b", 3)])
    assert not satisfies_having(at_least, [("a", "b", 2)])
