"""Safe-pruning conditions (Theorem 3) and pruning-direction logic.

With L as the NLJP driver and Φ applicable to R:

* monotone Φ and ``𝔾_L → 𝔸_L`` (superkey): prune ℓ when some cached
  unpromising ``w'`` satisfies ``ℓ.𝕁_L ⪯ w'`` — ℓ joins a *subset* of
  what ``w'`` joined, and a subset cannot satisfy a monotone Φ that the
  superset failed;
* anti-monotone Φ, ``𝔾_L → 𝔸_L``, and ``𝔾_R = ∅``: prune when
  ``ℓ.𝕁_L ⪰ w'`` — ℓ joins a superset, which cannot satisfy an
  anti-monotone Φ that the subset failed.

The subsumption test itself is derived automatically from Θ
(:mod:`repro.core.subsumption`); derivation failure (non-linear Θ)
simply disables pruning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import QuantifierEliminationError
from repro.core.iceberg import PartitionView
from repro.core.monotonicity import Monotonicity
from repro.core.subsumption import SubsumptionPredicate, derive_subsumption


class PruneDirection(enum.Enum):
    """Which way the subsumption test is applied when pruning ℓ."""

    #: monotone Φ: prune if cached ⪰ new (new joins a subset).
    NEW_SUBSUMED_BY_CACHED = "new ⪯ cached"
    #: anti-monotone Φ: prune if new ⪰ cached (new joins a superset).
    NEW_SUBSUMES_CACHED = "new ⪰ cached"


@dataclass
class PruningDecision:
    """Outcome of the Theorem 3 check (plus predicate derivation)."""

    applicable: bool
    reason: str
    direction: Optional[PruneDirection] = None
    predicate: Optional[SubsumptionPredicate] = None

    def __bool__(self) -> bool:
        return self.applicable

    def should_prune(self, new_binding, cached_binding) -> bool:
        """Apply the derived test in the safe direction."""
        assert self.predicate is not None and self.direction is not None
        if self.direction is PruneDirection.NEW_SUBSUMED_BY_CACHED:
            return self.predicate.holds(cached_binding, new_binding)
        return self.predicate.holds(new_binding, cached_binding)

    def array_test(self):
        """:meth:`should_prune` over column arrays, ``test(new, cached)``,
        with the positions its atoms compare — or ``None``; see
        :meth:`SubsumptionPredicate.array_test`."""
        assert self.predicate is not None and self.direction is not None
        compiled = self.predicate.array_test()
        if compiled is None:
            return None
        holds, pairs = compiled
        if self.direction is PruneDirection.NEW_SUBSUMED_BY_CACHED:
            return (lambda new, cached: holds(cached, new)), pairs
        return holds, pairs


#: ``derive_subsumption``'s signature: (Θ conjuncts, J_outer, J_inner) → p⪰.
Derive = Callable[[Sequence, Sequence[str], Sequence[str]], SubsumptionPredicate]


def check_pruning(
    view: PartitionView,
    outer_left: bool = True,
    derive: Derive = derive_subsumption,
) -> PruningDecision:
    """Theorem 3 safety check with L (= ``outer_left`` side) as driver.

    ``derive`` turns Θ into p⪰; the optimizer passes its own, which
    reuses the formulas its engine has already derived.
    """
    block = view.block
    if block.having is None:
        return PruningDecision(False, "no HAVING condition")
    if not view.phi_applicable_to(not outer_left):
        return PruningDecision(
            False, "HAVING is not applicable to the inner relation"
        )
    g_outer = view.g_left if outer_left else view.g_right
    g_inner = view.g_right if outer_left else view.g_left
    fds_outer = view.fds(outer_left)
    outer_attributes = view.attributes(outer_left)
    if not fds_outer.is_superkey(g_outer, outer_attributes):
        return PruningDecision(
            False, "G_L is not a superkey of the driver side"
        )

    monotonicity = block.phi_monotonicity()
    if monotonicity is Monotonicity.MONOTONE:
        direction = PruneDirection.NEW_SUBSUMED_BY_CACHED
    elif monotonicity is Monotonicity.ANTI_MONOTONE:
        if g_inner:
            return PruningDecision(
                False,
                "anti-monotone HAVING requires no GROUP BY attributes "
                "on the inner relation (G_R = ∅)",
            )
        direction = PruneDirection.NEW_SUBSUMES_CACHED
    else:
        return PruningDecision(
            False,
            f"HAVING monotonicity is {monotonicity.value}; pruning needs "
            "a (anti-)monotone condition",
        )

    j_outer = sorted(view.j_left if outer_left else view.j_right)
    j_inner = sorted(view.j_right if outer_left else view.j_left)
    try:
        predicate = derive(list(view.theta), j_outer, j_inner)
    except QuantifierEliminationError as error:
        return PruningDecision(
            False, f"subsumption derivation failed: {error}"
        )
    if predicate.is_trivially_false:
        return PruningDecision(
            False, "derived subsumption predicate is FALSE (never prunes)"
        )
    return PruningDecision(
        True,
        f"{monotonicity.value} HAVING, G_L superkey"
        + ("" if monotonicity is Monotonicity.MONOTONE else ", G_R = ∅"),
        direction=direction,
        predicate=predicate,
    )
