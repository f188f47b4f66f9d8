"""The closed-loop load generator and the end-to-end metrics.

Each client is a thread of this process that sends its next request
only when the previous one has returned; there are at most as many
clients as cores.  The timed run wraps nothing: a request's latency is
the wall time of ``Session.execute`` (or ``Table.insert_many``) as
the client sees it.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import Result

from bench.workloads import EPOCH, Live, Request

#: Throughput is the median over windows of this length, so that one
#: machine blip does not decide it.
WINDOW_SECONDS = 5.0


@dataclass(frozen=True)
class Sample:
    kind: str
    tag: str
    start: float
    end: float
    ok: bool


def satisfies_having(request: Request, rows: Sequence[Sequence[Any]]) -> bool:
    """Does every row's ``COUNT(*)`` (last column) pass the HAVING?"""
    op, threshold = request.having
    if op == "<=":
        return all(row[-1] <= threshold for row in rows)
    if op == ">=":
        return all(row[-1] >= threshold for row in rows)
    return True


class ClientLog:
    """What one client did: samples, errors, and the last result per kind."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.errors: List[str] = []
        #: kind -> (request, rows) of the latest read since the latest
        #: write; checked against the oracle after the run.
        self.last: Dict[str, Tuple[Request, List[tuple]]] = {}
        self.writes: List[Tuple[tuple, ...]] = []


def perform(live: Live, client: int, request: Request, log: ClientLog) -> Optional[Result]:
    """Send one request as client ``client`` and record what came back.

    Returns the result of a read that succeeded, else ``None``.
    """
    if request is EPOCH:
        live.restart_server()
        return None
    result = None
    started = time.perf_counter()
    try:
        if request.kind == "write":
            live.db.table("batting").insert_many(request.rows)
        else:
            result = live.sessions[client].execute(request.sql)
        ended = time.perf_counter()
    except Exception as error:  # a failed request is a result, not a crash
        ended = time.perf_counter()
        log.errors.append(f"{request.kind}: {type(error).__name__}: {error}")
        log.samples.append(Sample(request.kind, request.tag, started, ended, False))
        return None
    if result is None:
        log.writes.append(request.rows)
        log.last.clear()
        ok = True
    else:
        log.last[request.kind] = (request, result.rows)
        ok = satisfies_having(request, result.rows)
        if not ok:
            log.errors.append(f"{request.kind}: a row fails HAVING COUNT(*) {request.having}")
    log.samples.append(Sample(request.kind, request.tag, started, ended, ok))
    return result


def run_clients(
    live: Live, seconds: float, clients: Optional[int] = None
) -> Tuple[float, List[ClientLog]]:
    """Run the (first ``clients``) clients for ``seconds``; returns the start."""
    streams = live.streams[:clients]
    logs = [ClientLog() for _ in streams]
    barrier = threading.Barrier(len(logs) + 1)
    deadline: List[float] = []

    def client_loop(client: int, stream: Iterator[Request]) -> None:
        barrier.wait()
        while time.perf_counter() < deadline[0]:
            perform(live, client, next(stream), logs[client])

    threads = [
        threading.Thread(target=client_loop, args=(client, stream))
        for client, stream in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    deadline.append(started + seconds)
    barrier.wait()
    for thread in threads:
        thread.join()
    return started, logs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def window_throughput(started: float, seconds: float, ends: Sequence[float]) -> float:
    """Median over ``WINDOW_SECONDS`` windows of completions per second.

    A window's rate is its completions over the time between the last
    completion before it and its own last completion, so a window that
    holds four 1.2 s requests reads 4 / 4.8 s and not 4 / 5 s: counting
    against fixed edges would quantise slow workloads to 20 % steps.
    Requests that complete after the deadline belong to the last window.
    """
    last_window = max(1, round(seconds / WINDOW_SECONDS)) - 1
    windows: Dict[int, List[float]] = {}
    for end in sorted(ends):
        index = min(last_window, int((end - started) / WINDOW_SECONDS))
        windows.setdefault(index, []).append(end)
    rates = []
    previous_end = started
    for index in sorted(windows):
        window = windows[index]
        rates.append(len(window) / (window[-1] - previous_end))
        previous_end = window[-1]
    return statistics.median(rates)


def median_by_kind(samples: Sequence[Sample]) -> Dict[str, Tuple[float, int]]:
    """Per kind, the median latency in ms and its sample count."""
    by_kind: Dict[str, List[float]] = {}
    for sample in samples:
        by_kind.setdefault(sample.kind, []).append(1000 * (sample.end - sample.start))
    return {
        kind: (statistics.median(values), len(values))
        for kind, values in sorted(by_kind.items())
    }


#: A percentile is printed only when ten samples lie beyond it.
TAIL_SAMPLES = 200


def end_to_end(
    started: float, seconds: float, samples: Sequence[Sample]
) -> Dict[str, Tuple[float, int]]:
    """The timed run's metrics as ``name -> (value, sample count)``."""
    reads = [sample for sample in samples if sample.kind != "write"]
    medians = median_by_kind(reads)
    return {
        "throughput_qps": (
            window_throughput(started, seconds, [sample.end for sample in samples]),
            len(samples),
        ),
        # A pooled median sits between the clusters of a mix of cheap
        # and dear statements and jumps between them from run to run;
        # the geometric mean of the per-kind medians does not, and a
        # regression in any one kind moves it.
        "latency_p50_ms": (
            geometric_mean([value for value, _count in medians.values()]),
            len(reads),
        ),
    }


def breakdown(rows_prefix: str, samples: Sequence[Sample]) -> Dict[str, Tuple[float, int]]:
    """The rows not every workload has, from the timed run.

    ``latency_p95_ms`` (pooled over the reads) when there are samples
    enough, ``<rows_prefix>.<kind>.p50_ms`` per kind of read when the
    workload names a prefix, and ``serve.<tag>_read_p50_ms`` per tag.
    """
    reads = [sample for sample in samples if sample.kind != "write"]
    rows: Dict[str, Tuple[float, int]] = {}
    if len(reads) >= TAIL_SAMPLES:
        latencies = [1000 * (sample.end - sample.start) for sample in reads]
        p95 = statistics.quantiles(latencies, n=20, method="inclusive")[-1]
        rows["latency_p95_ms"] = (p95, len(reads))
    if rows_prefix:
        for kind, entry in median_by_kind(reads).items():
            rows[f"{rows_prefix}.{kind}.p50_ms"] = entry
    for tag in sorted({sample.tag for sample in reads} - {""}):
        values = [
            1000 * (sample.end - sample.start) for sample in reads if sample.tag == tag
        ]
        rows[f"serve.{tag}_read_p50_ms"] = (statistics.median(values), len(values))
    return rows
