"""One workload in one process: set-up, then a timed run or a layers pass.

``bench.run`` starts this module in a fresh interpreter for every
measurement (with ``PYTHONHASHSEED=0``), so process-wide caches start
cold, ``peak_rss_mb`` belongs to one workload, and a set-up repeated
for its median is a whole set-up each time.  The last line of standard
output is one JSON document.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional


def _timed(workload, seed: int, scale: float, seconds: float, entered: float) -> Dict[str, Any]:
    from repro import SmartIceberg

    from bench import loadgen
    from bench.oracle import Oracle
    from bench.workloads import set_up

    live = set_up(workload, seed, scale)
    setup_s = time.perf_counter() - entered

    # Before timing: the first request of every kind, straight through
    # the library, against the oracle.  A second copy of client 0's
    # stream supplies them, so the clients' own streams stay untouched
    # and the server's plan cache stays as set-up left it.
    oracle = Oracle(live.db)
    mismatches: List[str] = []
    checked = []
    for request in _first_of_each_kind(workload, seed, live):
        rows = SmartIceberg(live.db).execute(request.sql).rows
        checked.append(request.kind)
        if not oracle.agrees(request.sql, rows):
            mismatches.append(f"{request.kind}: differs from the oracle before timing")

    started, logs = loadgen.run_clients(live, seconds)
    timed_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # After timing: what each client was last served, per kind, against
    # the oracle brought up to date with the clients' writes.
    for log in logs:
        for rows in log.writes:
            oracle.insert("batting", rows)
    for log in logs:
        for kind, (request, rows) in sorted(log.last.items()):
            if not oracle.agrees(request.sql, rows):
                mismatches.append(f"{kind}: the last served result differs from the oracle")
    oracle.close()

    samples = [sample for log in logs for sample in log.samples]
    metrics = loadgen.end_to_end(started, seconds, samples)
    metrics["peak_rss_mb"] = (peak_rss_mb, 1)
    return {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "attempted": len(samples),
        "failed": sum(not sample.ok for sample in samples) + len(mismatches),
        "errors": (mismatches + [error for log in logs for error in log.errors])[:10],
        "oracle_kinds": checked,
        "end_to_end": metrics,
        "breakdown": loadgen.breakdown(workload.rows_prefix, samples),
    }


def _first_of_each_kind(workload, seed: int, live) -> List[Any]:
    first: Dict[str, Any] = {}
    for request in itertools.islice(workload.stream(seed, 0, live.db), workload.prefix):
        if request.sql:
            first.setdefault(request.kind, request)
    return list(first.values())


def main(argv: Optional[List[str]] = None) -> int:
    # Taken before ``repro`` is imported: importing the library is part
    # of what a user waits for, and of what a change can make dearer.
    entered = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", choices=("setup", "timed", "layers"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    from bench.workloads import WORKLOADS, set_up

    workload = WORKLOADS[args.workload]
    if args.phase == "setup":
        set_up(workload, args.seed, args.scale)
        document: Dict[str, Any] = {"setup_s": time.perf_counter() - entered}
    elif args.phase == "timed":
        document = _timed(workload, args.seed, args.scale, args.seconds, entered)
    else:
        from bench.layers import layers_pass

        document = layers_pass(workload, args.seed, args.scale)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
