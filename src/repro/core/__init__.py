"""Smart-Iceberg core: the paper's contribution.

Submodules map to paper sections: :mod:`monotonicity` (Table 2),
:mod:`apriori` (Section 4), :mod:`subsumption` and :mod:`pruning`
(Section 5), :mod:`memo` (Section 6), :mod:`nljp` and :mod:`optimizer`
(Section 7, Appendix D), :mod:`rewriter` (Appendix C), :mod:`cache`
(the NLJP cache), :mod:`system` (the user-facing facade).
"""

from repro.core.apriori import (
    AprioriDecision,
    Reducer,
    apply_reducer_to_select,
    build_reducer,
    check_apriori,
)
from repro.core.cache import PayloadStore, PruneView
from repro.core.iceberg import IcebergBlock, PartitionView
from repro.core.memo import MemoizationDecision, check_memoization
from repro.core.monotonicity import Monotonicity, classify
from repro.core.nljp import NLJPOperator
from repro.core.optimizer import (
    OptimizationReport,
    OptimizedQuery,
    SmartIcebergOptimizer,
)
from repro.core.pruning import PruneDirection, PruningDecision, check_pruning
from repro.core.rewriter import memoization_rewrite
from repro.core.subsumption import SubsumptionPredicate, derive_subsumption
from repro.core.system import SmartIceberg

__all__ = [
    "AprioriDecision",
    "IcebergBlock",
    "MemoizationDecision",
    "Monotonicity",
    "NLJPOperator",
    "OptimizationReport",
    "OptimizedQuery",
    "PartitionView",
    "PayloadStore",
    "PruneDirection",
    "PruneView",
    "PruningDecision",
    "Reducer",
    "SmartIceberg",
    "SmartIcebergOptimizer",
    "SubsumptionPredicate",
    "apply_reducer_to_select",
    "build_reducer",
    "check_apriori",
    "check_memoization",
    "check_pruning",
    "classify",
    "derive_subsumption",
    "memoization_rewrite",
]
