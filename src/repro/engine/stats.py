"""Deterministic work counters for query execution.

The paper reports wall-clock seconds on fixed 2017 hardware.  Wall
clock on shared machines is noisy, so every benchmark in this repo
additionally reports *work counters*, which deterministically capture
the quantities the paper's optimizations actually reduce:

* ``rows_scanned`` — tuples read from base tables / materializations,
* ``join_pairs`` — tuple pairs for which a join predicate was
  evaluated (the dominant cost of the baseline plans),
* ``index_probes`` — index lookups performed,
* ``inner_evaluations`` — NLJP inner-query executions (what
  memoization and pruning avoid),
* ``cache_hits`` / ``pruned_bindings`` — NLJP cache effectiveness,
* ``cache_evictions`` — NLJP cache entries evicted (bounded-cache
  policies and governor memory-pressure fallback alike),
* ``subsumption_merges`` — partial aggregation states folded into an
  existing (G_L, G_R) group by NLJP's combining mode,
* ``rows_output`` — result cardinality.

Columnar execution adds three counters that make its wins observable:

* ``rows_skipped`` — rows never materialized because their whole chunk
  was proven irrelevant by a zone map,
* ``chunks_skipped`` — zone-map chunk eliminations,
* ``fused_compilations`` — fused columnar kernels built for this
  query's plan, charged once per compiled expression on the first
  execution that uses it.

A fourth says how much of NLJP's work was speculative:

* ``inner_prefetch_discarded`` — inner-query results a block kernel
  (:class:`repro.engine.kernel.BlockKernel`) computed ahead of the
  binding loop for bindings the loop then pruned.  They are charged to
  no other counter: work done in vain is time, not cost.

These four are *mode-variant*: they differ between the columnar path
(wherever NumPy imports) and the row path (an install without it).
The row path never skips, so ``rows_skipped``/``chunks_skipped`` stay
0 there and a zone-map skip legitimately lowers ``rows_scanned`` on
the columnar one.  ``fused_compilations`` and
``inner_prefetch_discarded`` are 0 on the row path, which has no fused
kernels and no block kernel.
Path-parity checks therefore compare :meth:`parity_dict`, which folds
skipped rows back into ``rows_scanned`` and drops the mode-variant
keys — the invariant is ``columnar rows_scanned + rows_skipped ==
row rows_scanned`` with every other counter identical.

``cost()`` combines these into a single machine-independent work
metric used for the shape assertions in benchmarks.  Skipped rows and
fused compilations are deliberately *excluded* from ``cost()``: work
avoided is cost avoided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(slots=True)
class ExecutionStats:
    """Mutable counter bundle threaded through one query execution.

    ``degradations`` is not a counter: it is the ordered list of
    graceful-degradation events (strings) recorded by the execution
    governor and the optimizer's per-technique fallbacks.  It is empty
    for healthy runs, excluded from :meth:`as_dict` (which stays a
    pure counter mapping), and concatenated by :meth:`merge`.
    """

    rows_scanned: int = 0
    join_pairs: int = 0
    index_probes: int = 0
    rows_output: int = 0
    aggregation_inputs: int = 0
    inner_evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pruned_bindings: int = 0
    prune_checks: int = 0
    cache_rows: int = 0
    cache_bytes: int = 0
    cache_evictions: int = 0
    subsumption_merges: int = 0
    rows_skipped: int = 0
    chunks_skipped: int = 0
    fused_compilations: int = 0
    inner_prefetch_discarded: int = 0
    degradations: List[str] = field(default_factory=list)

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another stats bundle into this one."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def cost(self) -> int:
        """Machine-independent work estimate.

        Join pair evaluations and scanned rows dominate; index probes
        are cheaper; cache bookkeeping is charged per check so pruning
        is never free.
        """
        return (
            self.rows_scanned
            + 3 * self.join_pairs
            + self.index_probes
            + self.aggregation_inputs
            + 2 * self.prune_checks
            + self.cache_hits
        )

    def parity_dict(self) -> Dict[str, Any]:
        """Counters normalized for cross-mode parity comparisons.

        Folds ``rows_skipped`` back into ``rows_scanned`` (a zone-map
        skip is work *avoided*, not work *lost*) and drops the
        mode-variant counters, so a columnar run can be compared
        exactly against its row-mode twin.  For row runs this is
        simply :meth:`as_dict` minus the four keys.
        """
        counters = self.as_dict()
        counters["rows_scanned"] += counters.pop("rows_skipped")
        counters.pop("chunks_skipped")
        counters.pop("fused_compilations")
        counters.pop("inner_prefetch_discarded")
        return counters

    def as_dict(self, include_events: bool = False) -> Dict[str, Any]:
        """The counter mapping; pure ints by default.

        ``include_events=True`` additionally serializes the
        ``degradations`` event list (as a fresh list), matching what
        :meth:`__repr__` shows — for callers that persist the full stats
        bundle, while mode-parity checks keep the default pure-int
        mapping.
        """
        counters: Dict[str, Any] = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name != "degradations"
        }
        if include_events:
            counters["degradations"] = list(self.degradations)
        return counters

    def __repr__(self) -> str:
        interesting = {
            k: v for k, v in self.as_dict(include_events=True).items() if v
        }
        return f"ExecutionStats({interesting})"
