"""Compare two benchmark reports, metric by metric.

    python -m bench.compare A.json B.json

``A`` is the base (the parent commit), ``B`` the change; each is a
file ``python -m bench.run --out`` wrote, holding one run or several.
For every workload and end-to-end metric this prints both medians, the
ratio B/A, the bound ``BENCHMARK.json`` fixes, and a verdict:

``better`` / ``worse``
    B's median differs from A's by more than the bound, in that
    direction (and by more than the unit's absolute floor).
``same``
    within the bound.
``unresolved``
    the run-to-run spread of either side (distance between its
    quartiles over its median) is wider than the bound, so the two
    medians cannot be told apart; more runs, or a quieter machine.
``refused``
    a run started with a load average above the core count.

Below that come the rows not every workload has (``latency_p95_ms``
with a verdict of its own once each side has two runs), the per-layer
table, and whether the ``result_digest`` of equal seeds agree.  Exit status 1
on any ``worse``, a higher ``failed_share`` or a differing digest; 2
when a verdict was refused; else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence

from bench.catalog import Catalog, Metric, load_catalog

Run = Dict[str, Any]

#: Differences smaller than this are below what the clock and the
#: allocator resolve here, whatever share of the median they are.
ABSOLUTE_FLOOR = {"ms": 0.05, "s": 0.05, "MB": 1.0}


def load_runs(path: str) -> List[Run]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def values(runs: Iterable[Run], workload: str, section: str, metric: str) -> List[float]:
    found = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get(section, {}).get(metric)
        if entry is not None:
            found.append(entry["value"])
    return found


def spread(samples: Sequence[float]) -> Optional[float]:
    """Distance between the quartiles over the median; None below two runs."""
    if len(samples) < 2:
        return None
    quartiles = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else None


def verdict(metric: Metric, base: Sequence[float], change: Sequence[float]) -> str:
    a, b = statistics.median(base), statistics.median(change)
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    if spreads and max(spreads) > metric.bound:
        return "unresolved"
    worsening = (b - a) / a if metric.better == "lower" else (a - b) / a
    if abs(b - a) <= ABSOLUTE_FLOOR.get(metric.unit, 0.0) or abs(worsening) <= metric.bound:
        return "same"
    return "worse" if worsening > 0 else "better"


def overloaded(runs: Iterable[Run], workload: str) -> bool:
    return any(
        workload in run["workloads"] and run["env"]["load1"] > run["env"]["nproc"]
        for run in runs
    )


def failed_share(runs: Iterable[Run], workload: str) -> float:
    records = [run["workloads"][workload] for run in runs if workload in run["workloads"]]
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def digests(runs: Iterable[Run], workload: str) -> Dict[int, set]:
    """seed -> the digests its runs recorded (one, if results repeat)."""
    by_seed: Dict[int, set] = {}
    for run in runs:
        digest = run["workloads"].get(workload, {}).get("result_digest")
        if digest is not None:
            by_seed.setdefault(run["seed"], set()).add(digest)
    return by_seed


def _format(value: float) -> str:
    return f"{value:>14.6g}"


def _spread_text(samples: Sequence[float]) -> str:
    s = spread(samples)
    return f"{len(samples)} runs" + ("" if s is None else f", spread {s:.3f}")


def _worst(status: int, outcome: str) -> int:
    """The exit status so far, after one more verdict."""
    if outcome == "worse":
        return 1
    if outcome == "refused" and status == 0:
        return 2
    return status


def compare(catalog: Catalog, base: List[Run], change: List[Run]) -> int:
    status = 0
    for workload in catalog.workloads:
        if not any(workload in run["workloads"] for run in base + change):
            continue
        print(f"== {workload}")
        refused = overloaded(base + change, workload)
        for name, metric in catalog.end_to_end.items():
            a = values(base, workload, "end_to_end", name)
            b = values(change, workload, "end_to_end", name)
            if not a or not b:
                continue
            outcome = "refused" if refused else verdict(metric, a, b)
            status = _worst(status, outcome)
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(
                f"  {name:<18}{_format(median_a)} ->{_format(median_b)} {metric.unit:<4}"
                f" B/A {median_b / median_a:6.3f} of {median_a:.6g}"
                f"  bound {metric.bound:.2f}  {outcome:<10}"
                f" (A {_spread_text(a)}; B {_spread_text(b)})"
            )
        share_a, share_b = failed_share(base, workload), failed_share(change, workload)
        worse = share_b > share_a
        if worse:
            status = 1
        print(
            f"  {'failed_share':<18}{_format(share_a)} ->{_format(share_b)} ratio"
            f"  bound 0     {'worse' if worse else 'same'}"
        )
        digests_a, digests_b = digests(base, workload), digests(change, workload)
        for seed in sorted(set(digests_a) & set(digests_b)):
            identical = len(digests_a[seed] | digests_b[seed]) == 1
            if not identical:
                status = 1
            print(
                f"  result_digest (seed {seed}): "
                f"{'identical' if identical else 'DIFFERS'}"
            )
        for section in ("breakdown", "per_layer"):
            names: Dict[str, None] = {}
            for run in base + change:
                names.update(dict.fromkeys(run["workloads"].get(workload, {}).get(section, {})))
            for name in names:
                a = values(base, workload, section, name)
                b = values(change, workload, section, name)
                if not a or not b:
                    continue
                metric = catalog.metric(name)
                median_a, median_b = statistics.median(a), statistics.median(b)
                note = ""
                if metric.bound is not None:
                    # The tail is the noisiest number printed: without a
                    # spread to hold it against, one run a side is no verdict.
                    if refused:
                        outcome = "refused"
                    elif min(len(a), len(b)) < 2:
                        outcome = "unresolved"
                    else:
                        outcome = verdict(metric, a, b)
                    status = _worst(status, outcome)
                    note = f"  bound {metric.bound:.2f}  {outcome}"
                elif metric.unit == "count" and set(a) | set(b) != {median_a}:
                    note = "  count differs"
                ratio = f"{median_b / median_a:6.3f}" if median_a else "   n/a"
                print(
                    f"    {name:<36}{_format(median_a)} ->{_format(median_b)} "
                    f"{metric.unit:<5} B/A {ratio}{note}"
                )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", metavar="A.json")
    parser.add_argument("change", metavar="B.json")
    args = parser.parse_args(argv)
    return compare(load_catalog(), load_runs(args.base), load_runs(args.change))


if __name__ == "__main__":
    sys.exit(main())
