"""Fit the time prices of the optimizer's technique choice.

Usage::

    python -m repro.bench.calibrate [SAMPLE.json]

Runs the paper's skyband, pairs, complex, frequent-pairs and triangle
statements under every path :data:`repro.engine.cost.TIME_COSTS`
prices: the a-priori join and the first admissible NLJP, each on the
columnar path and on the row path an install without NumPy runs
(through :func:`repro.testing.without_numpy`).  Each run is timed
(execution only, a fresh plan each time, best of three) with its work
units and the bindings NLJP went through (evaluated, memo hits and
pruned) on its inner path.  The runs are written to ``SAMPLE.json``
(by default the sample the tests refit) and the prices
:func:`~repro.engine.cost.fit_unit_costs` fits from them are printed,
ready to commit as ``TIME_COSTS``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import contextlib
import time
from typing import Dict, List

from repro.core.system import SmartIceberg
from repro.engine.cost import BINDING_PATHS, fit_unit_costs
from repro.storage.catalog import Database
from repro.testing import without_numpy
from repro.workloads import (
    BasketConfig,
    CyclicConfig,
    complex_query,
    load_baskets,
    load_batting,
    load_edges,
    load_unpivoted,
    market_basket_query,
    pairs_query,
    skyband_query,
    triangle_hub_query,
)
from repro.workloads.baseball import dense_config

SAMPLE = (
    pathlib.Path(__file__).resolve().parents[3]
    / "tests" / "engine" / "golden" / "time_costs_sample.json"
)

STATEMENTS = {
    "skyband.50": skyband_query("b_h", "b_hr", 50),
    "skyband.200": skyband_query("b_h", "b_hr", 200),
    "pairs.3.20": pairs_query(c=3, k=20, agg="AVG"),
    "pairs.5.50": pairs_query(c=5, k=50, agg="SUM"),
    "complex.6": complex_query(6),
    "complex.20": complex_query(20),
    "basket.20": market_basket_query(20),
    "triangle_hub.6": triangle_hub_query(6),
    "triangle_hub.20": triangle_hub_query(20),
}

SYSTEMS = {
    "join": dict(pruning=False, memo=False),
    "nljp": dict(technique_choice="first-applicable"),
}


def calibration_db() -> Database:
    db = Database()
    load_batting(db, dense_config(1200))
    load_unpivoted(db, dense_config(1000, 2018))
    load_baskets(db, BasketConfig(n_baskets=1500, seed=2019))
    load_edges(db, CyclicConfig(n_edges=800, seed=2020))
    return db


def measure(db: Database, repeats: int = 3) -> List[Dict[str, object]]:
    records = []
    for statement, sql in STATEMENTS.items():
        for system, knobs in SYSTEMS.items():
            for mode in ("columnar", "row"):
                engine = SmartIceberg(db, **knobs)
                best = None
                with without_numpy() if mode == "row" else contextlib.nullcontext():
                    for _ in range(repeats):
                        optimized = engine.optimize(sql)
                        started = time.perf_counter()
                        result = optimized.execute()
                        ms = (time.perf_counter() - started) * 1e3
                        best = ms if best is None else min(best, ms)
                if system == "nljp" and optimized.nljp is None:
                    continue  # no admissible partition: the join again
                bindings = {}
                if optimized.nljp is not None:
                    inner = optimized.nljp.inner_description()
                    path = next(p for p in BINDING_PATHS if inner.startswith(p))
                    stats = result.stats
                    bindings[path] = (
                        stats.inner_evaluations + stats.cache_hits + stats.pruned_bindings
                    )
                records.append({
                    "statement": statement, "system": system, "mode": mode,
                    "units": result.stats.cost(), "bindings": bindings,
                    "ms": round(best, 3),
                })
    return records


def main(argv: List[str]) -> int:
    out = pathlib.Path(argv[0]) if argv else SAMPLE
    records = measure(calibration_db())
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} runs written to {out}")
    print(fit_unit_costs(records))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
