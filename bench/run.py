"""Run the served-query benchmark and print every metric by name.

    python -m bench.run [--seed 2017] [--workload NAME] [--layers]
                        [--smoke] [--out FILE]

With no ``--workload`` all four run, one after the other, each in
subprocesses of its own (see ``bench.worker``).  ``--layers`` adds the
per-layer pass.  ``--out FILE`` appends this run to ``FILE``, which is
what ``python -m bench.compare`` reads; run the command several times
on the same file to give the comparer medians and a spread.

The driver of ``BENCHMARK.json`` calls the same program as
``--workload NAME --seed N --seconds S --trace 0|1``: ``--trace 0``
is the timed run alone and ``--trace 1`` the per-layer pass alone.
When one workload is run, the last line printed is the JSON object
that contract asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench.catalog import ROOT, Catalog, attach_units, environment, load_catalog

SOURCE = ROOT / "src"

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3

#: ``--smoke``: the same code paths at a tenth of the size, 1.5 s runs.
SMOKE_SCALE = 0.1
SMOKE_SECONDS = 1.5

#: A worker that has not answered by now is stopped; the driver allows
#: a whole invocation 180 s.
WORKER_TIMEOUT_SECONDS = 150


class WorkerFailed(RuntimeError):
    pass


def run_worker(phase: str, workload: str, seed: int, scale: float, seconds: float) -> Dict[str, Any]:
    """One ``bench.worker`` process, waited for; its JSON document."""
    environ = dict(os.environ)
    environ["PYTHONHASHSEED"] = "0"  # set iteration order, hence counts, repeat
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(ROOT)] + [p for p in [environ.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, "-m", "bench.worker",
        "--phase", phase, "--workload", workload, "--seed", str(seed),
        "--scale", str(scale), "--seconds", str(seconds),
    ]  # fmt: skip
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=environ,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_SECONDS,
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerFailed(f"{workload}/{phase}: no answer in {error.timeout} s") from error
    if done.returncode != 0:
        raise WorkerFailed(f"{workload}/{phase}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    catalog: Catalog, name: str, seed: int, scale: float, seconds: float,
    setups: int, timed: bool, layers: bool,
) -> Dict[str, Any]:
    """Every measurement of one workload, with units attached."""
    record: Dict[str, Any] = {"attempted": 0, "failed": 0, "errors": [], "breakdown": {}}

    def absorb(document: Dict[str, Any]) -> None:
        record["attempted"] += document["attempted"]
        record["failed"] += document["failed"]
        record["errors"] += document["errors"]
        record["breakdown"].update(attach_units(catalog, document["breakdown"]))

    if timed:
        setup_samples = [
            run_worker("setup", name, seed, scale, seconds)["setup_s"]
            for _ in range(setups - 1)
        ]
        document = run_worker("timed", name, seed, scale, seconds)
        setup_samples.append(document["setup_s"])
        metrics = document["end_to_end"]
        metrics["setup_s"] = (statistics.median(setup_samples), len(setup_samples))
        record["end_to_end"] = attach_units(catalog, metrics)
        record["setup_samples_s"] = setup_samples
        record["timed_s"] = document["timed_s"]
        record["oracle_kinds"] = document["oracle_kinds"]
        absorb(document)
    if layers:
        document = run_worker("layers", name, seed, scale, seconds)
        record["per_layer"] = attach_units(catalog, document["per_layer"])
        record["result_digest"] = document["result_digest"]
        record["spans"] = document["spans"]
        absorb(document)
    record["failed_share"] = record["failed"] / record["attempted"]
    return record


def print_workload(catalog: Catalog, name: str, record: Dict[str, Any]) -> None:
    print(f"== {name}: {catalog.workloads[name]}")
    for section in ("end_to_end", "breakdown", "per_layer"):
        for metric, entry in record.get(section, {}).items():
            samples = f"n={entry['samples']}" if "samples" in entry else ""
            print(f"  {metric:<36} {entry['value']:>16.6g} {entry['unit']:<6} {samples}")
    print(
        f"  {'failed_share':<36} {record['failed_share']:>16.6g} ratio  "
        f"n={record['attempted']} (failed={record['failed']})"
    )
    if "result_digest" in record:
        print(f"  result_digest {record['result_digest']}")
    for error in record["errors"]:
        print(f"  ! {error}")


def driver_line(record: Dict[str, Any]) -> str:
    """The one JSON object the ``BENCHMARK.json`` contract asks for."""
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for section in ("end_to_end", "per_layer")
        for name, entry in record.get(section, {}).items()
    }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def append_run(path: str, run: Dict[str, Any]) -> None:
    document: Dict[str, Any] = {"runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    document["runs"].append(run)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    catalog = load_catalog()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(catalog.workloads))
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, help="length of each timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="the driver's switch")
    parser.add_argument("--layers", action="store_true", help="add the per-layer pass")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"bench.run: no program to measure at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else catalog.run_seconds)
    names = [args.workload] if args.workload else list(catalog.workloads)
    run: Dict[str, Any] = {
        "env": environment(),
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    env = run["env"]
    print(
        f"bench.run seed={args.seed} seconds={seconds:g} smoke={args.smoke} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"load1={env['load1']:.2f} commit={env['git_commit']}"
    )
    if env["load1"] > env["nproc"]:
        print("  ! load average exceeds the core count: bench.compare will refuse a verdict")
    for name in names:
        try:
            record = run_workload(
                catalog, name, args.seed,
                scale=SMOKE_SCALE if args.smoke else 1.0,
                seconds=seconds,
                setups=1 if args.smoke else SETUPS,
                timed=args.trace != 1,
                layers=args.layers or args.trace == 1,
            )  # fmt: skip
        except WorkerFailed as error:
            print(f"bench.run: {error}", file=sys.stderr)
            return 1
        run["workloads"][name] = record
        print_workload(catalog, name, record)
    run["env"]["load1_end"] = os.getloadavg()[0]
    if args.out:
        append_run(args.out, run)
    if len(names) == 1:
        print(driver_line(run["workloads"][names[0]]))
    # Failed requests are part of the measurement (``failed_share``,
    # ``correct``), not a failure to measure.
    return 0


if __name__ == "__main__":
    sys.exit(main())
