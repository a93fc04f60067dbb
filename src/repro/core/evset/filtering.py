"""L2-driven candidate address filtering (Section 5.1).

The L2 set-index bits are a subset of the LLC/SF set-index bits, so two
addresses that are not congruent in the L2 cannot be congruent in the
LLC/SF.  Filtering therefore: (1) builds an L2 eviction set for the target,
(2) keeps only candidates that the L2 eviction set evicts.  The filtered
set is ~U_L2 times smaller, shrinking every downstream TestEviction — the
single biggest lever against cloud noise.

Section 5.3.1's reuse tricks are here too: the filtered groups at page
offset 0 can be *shifted* by a small delta to obtain filtered groups at any
other page offset (L2 congruence is preserved under same-page shifts).

Filtering is the heaviest ``test_many`` caller — one L2 eviction set
tested against hundreds of candidates.  Each candidate's test runs the
fused ``traverse_kernel`` (DESIGN.md §2.3) over the L2 eviction set's
plane rows, which are translated once and memoized for every
per-candidate prime/traverse/reload cycle.
"""

from __future__ import annotations

from typing import List, Optional

from ...errors import BudgetExceededError, EvictionSetError
from ..context import AttackerContext
from .binary_search import BinarySearchPruning
from .candidates import build_candidate_set, candidate_set_size
from .primitives import EvictionTester
from .types import AlgorithmStats, EvictionSet, EvsetConfig


def build_l2_eviction_set(
    ctx: AttackerContext,
    target_va: int,
    cfg: EvsetConfig = EvsetConfig(budget_ms=100.0),
    candidates: Optional[List[int]] = None,
) -> EvictionSet:
    """Construct a minimal L2 eviction set for ``target_va``.

    Uses the binary-search pruner in L2 mode (any pruner works; this is the
    fastest).  Allocates its own candidate set unless one is supplied.
    """
    if candidates is None:
        size = candidate_set_size(ctx.machine.cfg, target="l2", scale=cfg.candidate_scale)
        candidates = build_candidate_set(
            ctx, target_va % ctx.machine.cfg.page_bytes, size=size
        ).vas
    tester = EvictionTester(ctx, mode="l2", parallel=True, repeats=cfg.traversal_repeats)
    stats = AlgorithmStats()
    deadline = ctx.machine.now + cfg.budget_cycles(ctx.machine.cfg.clock_ghz)
    pruner = BinarySearchPruning()
    last_error: Optional[Exception] = None
    for _ in range(cfg.max_attempts):
        try:
            vas = pruner.prune(tester, target_va, candidates, cfg, deadline, stats)
            return EvictionSet(kind="l2", vas=vas, target_va=target_va)
        except BudgetExceededError as exc:
            raise EvictionSetError("L2 eviction set construction timed out") from exc
        except EvictionSetError as exc:
            last_error = exc
            ctx.rng.shuffle(candidates)
    raise EvictionSetError("could not build an L2 eviction set") from last_error


def filter_candidates(
    ctx: AttackerContext,
    l2_evset: EvictionSet,
    candidate_vas: List[int],
) -> List[int]:
    """Keep only the candidates the L2 eviction set can evict.

    For each candidate: prime it privately, traverse the L2 eviction set,
    and time a reload — eviction means the candidate shares the target's L2
    set, so it *may* share its LLC/SF set; survival proves it cannot.
    """
    tester = EvictionTester(ctx, mode="l2", parallel=True)
    verdicts = tester.test_many(candidate_vas, l2_evset.vas)
    return [va for va, evicted in zip(candidate_vas, verdicts) if evicted]


def shift_candidates(filtered_vas: List[int], delta: int, page_bytes: int = 4096) -> List[int]:
    """Derive a filtered candidate set at page offset ``base + delta``.

    Valid because adding a small (same-page) delta to two L2-congruent
    addresses keeps them L2-congruent (Section 5.3.1).  Raises if any shift
    would cross a page boundary.
    """
    shifted = []
    for va in filtered_vas:
        if (va % page_bytes) + delta >= page_bytes or (va % page_bytes) + delta < 0:
            raise EvictionSetError("delta would cross a page boundary")
        shifted.append(va + delta)
    return shifted
