"""Binary-search address pruning — the paper's contribution (Section 5.2).

For a W-way cache, the *tipping point* tau is the smallest prefix length n
such that the first n candidates evict the target; the tau-th candidate is
congruent.  Binary search finds each tipping point in O(log N) parallel
TestEviction calls; the found congruent address is swapped to the front
and excluded from further searches.  After W iterations the first W
addresses form a minimal eviction set (Figure 4).

Backtracking (noise recovery): a false-positive TestEviction can drive UB
below the true tipping point; this is detected when the converged prefix
fails a verification test, and repaired by growing UB with a large stride
until the prefix evicts again, then restarting the iteration's search.

Each probe is one ``tester.test`` over a prefix of the same ``addrs``
list, so on an engaged data plane every query runs the fused
``traverse_kernel`` over the shared :class:`TranslationPlane` rows for
the pool (DESIGN.md §2.3) — binary search issues O(W log N) tests and
amortizes translation across all of them.
"""

from __future__ import annotations

from typing import List

from ...errors import BudgetExceededError, EvictionSetError
from .primitives import EvictionTester
from .types import AlgorithmStats, EvsetConfig


class BinarySearchPruning:
    """The paper's BinS pruner."""

    def __init__(self) -> None:
        self.name = "bins"
        self.wants_parallel = True

    def prune(
        self,
        tester: EvictionTester,
        target_va: int,
        candidates: List[int],
        cfg: EvsetConfig,
        deadline: int,
        stats: AlgorithmStats,
    ) -> List[int]:
        addrs = list(candidates)
        n_total = len(addrs)
        w = tester.ways
        if n_total < w:
            raise EvictionSetError("candidate set smaller than associativity")
        machine = tester.ctx.machine
        stride = max(w, int(n_total * cfg.backtrack_stride_frac))
        backtracks = 0

        # Establish the loop invariant: the first UB addresses evict T_a.
        ub = n_total
        stats.tests += 1
        if not tester.test(target_va, addrs, ub):
            raise EvictionSetError("full candidate set does not evict the target")

        for i in range(1, w + 1):
            while True:
                lb = i - 1
                hi = ub
                while hi - lb != 1:
                    if machine.now > deadline:
                        raise BudgetExceededError("binary search ran out of budget")
                    n = (lb + hi) // 2
                    stats.tests += 1
                    if tester.test(target_va, addrs, n):
                        hi = n
                    else:
                        lb = n
                tau = hi
                # Guard against noise: the converged prefix must really evict.
                stats.tests += 1
                if tester.test(target_va, addrs, tau):
                    break
                backtracks += 1
                stats.backtracks += 1
                if backtracks > cfg.max_backtracks:
                    raise EvictionSetError("binary search exceeded backtrack limit")
                # Recover: grow UB by a large stride until the prefix evicts.
                recovered = False
                grow = tau
                while grow < n_total:
                    grow = min(n_total, grow + stride)
                    if machine.now > deadline:
                        raise BudgetExceededError("binary search ran out of budget")
                    stats.tests += 1
                    if tester.test(target_va, addrs, grow):
                        ub = grow
                        recovered = True
                        break
                if not recovered:
                    raise EvictionSetError(
                        "binary search could not re-establish the invariant"
                    )
            # addrs[tau-1] is congruent; park it at the front of the prefix.
            addrs[i - 1], addrs[tau - 1] = addrs[tau - 1], addrs[i - 1]
            # UB needs no reset: the swap keeps W congruent addresses inside
            # the first tau entries (Section 5.2).
            ub = max(tau, i + 1)

        evset = addrs[:w]
        stats.tests += 1
        if not tester.test(target_va, evset):
            raise EvictionSetError("binary search result failed verification")
        return evset
