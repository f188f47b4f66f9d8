"""The repository's served-query benchmark.

``python -m bench.run`` drives the system the way a user gets it
(``IcebergServer(db)`` / ``SmartIceberg(db)`` with no engine knobs)
on four workloads, checks the results against a ``sqlite3`` oracle and
prints every metric by name with its unit; ``python -m bench.compare``
turns two of its reports into per-metric verdicts.  ``BENCHMARK.json``
at the repository root is the catalogue of workloads, metrics, units
and bounds; ``bench/README.md`` says why each exists.
"""
