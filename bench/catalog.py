"""``BENCHMARK.json`` as the one catalogue of workloads and metrics.

The benchmark never spells a unit, a direction or a bound itself: it
measures values by metric *name* and this module attaches what
``BENCHMARK.json`` says about that name, so the file the driver reads
and the numbers the benchmark prints cannot drift apart.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Rows that only some workloads print (``template.*``,
#: ``serve.client_scaling`` ...), as (name prefix, unit, better, bound).
#: They cannot be entries of ``BENCHMARK.json``: every entry there is
#: printed by every workload, and an end-to-end entry must keep its
#: run-to-run spread within its bound on every workload, which
#: ``latency_p95_ms`` does not on this machine (see bench/README.md).
BREAKDOWN_ROWS: Tuple[Tuple[str, str, str, Optional[float]], ...] = (
    ("latency_p95_ms", "ms", "lower", 0.20),
    ("template.", "ms", "lower", None),
    ("statement.", "ms", "lower", None),
    ("serve.client_scaling", "ratio", "higher", None),
    ("serve.replan_read_p50_ms", "ms", "lower", None),
    ("serve.warm_read_p50_ms", "ms", "lower", None),
    ("core.work_ratio_vs_base", "ratio", "higher", None),
    # A catalogued metric may never read 0, and this one must.
    ("failed_share", "ratio", "lower", None),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # only where a verdict is given


@dataclass(frozen=True)
class Catalog:
    run_seconds: int
    workloads: Mapping[str, str]  # name -> why
    end_to_end: Mapping[str, Metric]
    per_layer: Mapping[str, Metric]

    def metric(self, name: str) -> Metric:
        """The catalogued metric, or the breakdown row, called ``name``."""
        found = self.end_to_end.get(name) or self.per_layer.get(name)
        if found is not None:
            return found
        for prefix, unit, better, bound in BREAKDOWN_ROWS:
            if name.startswith(prefix):
                return Metric(name, unit, better, bound)
        raise KeyError(f"metric {name!r} is not in BENCHMARK.json")


def load_catalog(path: Path = BENCHMARK_JSON) -> Catalog:
    with open(path) as handle:
        document = json.load(handle)
    return Catalog(
        run_seconds=int(document["run_seconds"]),
        workloads={w["name"]: w["why"] for w in document["workloads"]},
        end_to_end={
            m["name"]: Metric(m["name"], m["unit"], m["better"], m["bound"])
            for m in document["end_to_end"]
        },
        per_layer={
            m["name"]: Metric(m["name"], m["unit"], m["better"])
            for m in document["per_layer"]
        },
    )


def attach_units(catalog: Catalog, values: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``{name: value}`` or ``{name: (value, samples)}`` with units attached.

    A pair may arrive as a list: that is what JSON made of the tuple a
    worker measured.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for name, value in values.items():
        entry: Dict[str, Any] = {"unit": catalog.metric(name).unit}
        if isinstance(value, (tuple, list)):
            entry["value"], entry["samples"] = value
        else:
            entry["value"] = value
        out[name] = entry
    return out


def _git_commit() -> str:
    # The driver's checkout is not a git repository; that is not an error.
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> Dict[str, Any]:
    """What the numbers were measured on; recorded in every output."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "load1": os.getloadavg()[0],
    }
