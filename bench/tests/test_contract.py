"""``BENCHMARK.json`` and what the program prints agree.

The smoke runs here are the real code paths at a tenth of the size.
"""

import json
import re
import subprocess
import sys

import pytest

from bench import run as bench_run
from bench.catalog import BENCHMARK_JSON, ROOT, load_catalog

CATALOG = load_catalog()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark(*arguments):
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_benchmark_json_is_within_the_drivers_limits():
    document = json.loads(BENCHMARK_JSON.read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert document["paths"] == ["bench"]
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = CATALOG.end_to_end["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in CATALOG.end_to_end.values())
    # 4 + 22 runs per workload must fit the driver's 3420 s with room
    # for set-up: this is the budget the run length was chosen from.
    runs = 4 + 22 * len(document["workloads"])
    assert runs * (document["run_seconds"] + 12) < 3420


@pytest.fixture(scope="module")
def timed_lines():
    return benchmark("--smoke", "--workload", "read_write", "--seed", "3", "--trace", "0")


@pytest.fixture(scope="module")
def layer_reports():
    def layers():
        return bench_run.run_worker("layers", "adhoc_mix", 3, bench_run.SMOKE_SCALE, 2.0)

    return layers(), layers()


def test_timed_run_prints_exactly_the_end_to_end_metrics(timed_lines):
    result = json.loads(timed_lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(CATALOG.end_to_end)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == CATALOG.end_to_end[name].unit
        assert entry["value"] > 0


def test_every_printed_row_has_a_catalogued_name_and_a_unit(timed_lines):
    rows = [line.split() for line in timed_lines if line.startswith("  ") and "!" not in line]
    assert {row[0] for row in rows} >= set(CATALOG.end_to_end) | {"failed_share"}
    for name, _value, unit, *_rest in rows:
        assert NAME.fullmatch(name)
        assert CATALOG.metric(name).unit == unit


def test_layers_pass_measures_exactly_the_per_layer_metrics(layer_reports):
    first, _ = layer_reports
    assert set(first["per_layer"]) == set(CATALOG.per_layer)
    assert first["failed"] == 0
    names = {span["name"] for span in first["spans"]}
    assert {"serve.execute", "sql.parse", "core.optimize", "engine.execute"} <= names
    by_index = first["spans"]
    for span in by_index:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            assert by_index[span["parent"]]["request"] == span["request"]


def test_layer_counts_and_digest_repeat_exactly(layer_reports):
    first, second = layer_reports
    counts = [n for n, m in CATALOG.per_layer.items() if m.unit == "count"]
    assert len(counts) >= 10
    assert {n: first["per_layer"][n] for n in counts} == {
        n: second["per_layer"][n] for n in counts
    }
    assert first["result_digest"] == second["result_digest"]
    # The prefix did real work on every technique.
    assert first["per_layer"]["logic.fme.implies_calls"] > 0
    assert first["per_layer"]["core.nljp.inner_evaluations"] > 0
    assert first["per_layer"]["engine.join_pairs"] > 0


def test_out_file_accumulates_runs(tmp_path):
    out = tmp_path / "report.json"
    for _ in range(2):
        benchmark("--smoke", "--workload", "adhoc_mix", "--trace", "0", "--out", str(out))
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 2
    for run in runs:
        assert {"nproc", "python", "numpy", "git_commit", "load1", "load1_end"} <= set(run["env"])
        assert run["seed"] == 2017 and run["smoke"] is True
        record = run["workloads"]["adhoc_mix"]
        assert record["failed_share"] == 0
        assert set(record["oracle_kinds"]) == {"skyband", "complex", "basket", "triangle_hub"}
        assert all("samples" in entry for entry in record["end_to_end"].values())


def test_without_the_program_there_is_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "SOURCE", tmp_path / "src")
    assert bench_run.main(["--workload", "adhoc_mix", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
