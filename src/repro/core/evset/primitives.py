"""The ``TestEviction`` primitive (Section 4.1).

``TestEviction(T_a, addrs, n)``: prime the target, access the first ``n``
candidates, and time a reload of the target to decide whether it was
evicted.  Three target structures are supported, each with the state
manipulation and latency threshold that makes the verdict observable:

* ``"llc"`` — the target and candidates are made *shared* (helper-thread
  shadowing turns lines S, so they reside in the LLC).  Eviction of the
  target from the LLC also invalidates its private copies (the directory
  entry goes away), so a reload from DRAM vs. an LLC hit is the signal.
* ``"sf"`` — the target and candidates are *stored* (RFO makes them
  private/E, tracked by the SF).  Evicting the target's SF entry
  back-invalidates its private copies; the reload leaves the private
  caches, which the private-hit threshold detects.
* ``"l2"`` — plain private loads; eviction from the L2 sends the line to
  the LLC (victim cache) or DRAM, either way past the private threshold.

The *parallel* form traverses candidates with overlapped accesses (MLP),
making the test an order of magnitude faster — and therefore far less
exposed to background noise — than the *sequential* (pointer-chase) form.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...errors import ConfigurationError
from ...memsys.hierarchy import SHARED_OWNER
from ..context import AttackerContext


class EvictionTester:
    """Bound ``TestEviction`` primitive for one target structure.

    Args:
        ctx: Attacker context.
        mode: ``"llc"``, ``"sf"``, or ``"l2"``.
        parallel: Use overlapped traversal (True) or pointer-chase (False).
        repeats: Traversals per test (1 suffices under LRU-like policies).
    """

    def __init__(
        self,
        ctx: AttackerContext,
        mode: str = "llc",
        parallel: bool = True,
        repeats: int = 1,
    ) -> None:
        if mode not in ("llc", "sf", "l2"):
            raise ConfigurationError(f"unknown TestEviction mode {mode!r}")
        self.ctx = ctx
        self.mode = mode
        self.parallel = parallel
        self.repeats = max(1, repeats)
        cfg = ctx.machine.cfg
        self.ways = {"llc": cfg.llc.ways, "sf": cfg.sf.ways, "l2": cfg.l2.ways}[mode]
        # Partition-aware dynamic associativity: a way-partitioned shared
        # cache exposes `effective_ways(owner)` (duck-typed; absent on the
        # plain data plane).  The contention domain differs by mode — llc
        # traversals make lines *shared* (they land in the shared-traffic
        # partition), sf traversals *store* from the main core (they land
        # in the attacker's own partition) — so the tester sizes sets for
        # the domain's real associativity instead of the config total.
        hier = ctx.machine.hierarchy
        if mode == "llc":
            probe = getattr(hier.llc, "effective_ways", None)
            if probe is not None:
                self.ways = probe(SHARED_OWNER)
        elif mode == "sf":
            probe = getattr(hier.sf, "effective_ways", None)
            if probe is not None:
                self.ways = probe(ctx.main_core)
        self.n_tests = 0
        self.traversed_addresses = 0

    # -- State manipulation ------------------------------------------------------

    def prime_target(self, target_va: int) -> None:
        """Bring the target into the tested structure, freshly MRU.

        The target is flushed first: a plain reload can be a private-cache
        hit that never refreshes the target's LLC/L2 replacement state,
        leaving it eviction-preferred and poisoning the test with false
        positives.  The flush+reload makes the installed state
        deterministic, and the target is the attacker's own line, so
        clflush is always available.  (Stores carry their own RFO, so the
        SF mode needs no flush.)
        """
        ctx = self.ctx
        machine = ctx.machine
        tline = ctx.line(target_va)
        if self.mode == "llc":
            machine.flush(tline)
            machine.access(ctx.main_core, tline)
            machine.access(ctx.helper_core, tline, advance=False)
        elif self.mode == "sf":
            machine.access(ctx.main_core, tline, write=True)
        else:
            machine.flush(tline)
            machine.access(ctx.main_core, tline)

    def traverse(self, vas: Sequence[int], n: Optional[int] = None) -> None:
        """Flush then access the first ``n`` candidates in this mode's state.

        The flush is essential on a non-inclusive hierarchy: a candidate
        still resident in the attacker's private caches (or, shared, in
        both the L2 and the LLC) is a cache *hit* and exerts no insertion
        pressure on the tested structure — small candidate prefixes would
        silently stop testing anything.  Flushing first makes every
        candidate contribute exactly one insertion.

        This is where every test picks its path: the context's fused
        kernels (DESIGN.md §2.3) when they engage, else the Machine
        batch APIs.
        """
        count = len(vas) if n is None else min(n, len(vas))
        kernels = self.ctx.kernels()
        if kernels is not None:
            rows = self.ctx.rows(vas)
            if self.parallel:
                kernels.traverse_kernel(self.mode, rows, count, self.repeats)
            else:
                # Pointer-chase traversal (Prime+Scope): the chase itself
                # stays unfused, but the flush and translation do not.
                self._chase_rows(kernels, rows, count)
            self.traversed_addresses += count * self.repeats
            return
        lines = self.ctx.lines(vas if count == len(vas) else vas[:count])
        self._traverse_lines(lines)

    def _chase_rows(self, kernels, rows, count: int) -> None:
        """Fused-flush + sequential chase (the non-parallel traversal)."""
        ctx = self.ctx
        machine = ctx.machine
        lines = rows.lines if count == len(rows.lines) else rows.lines[:count]
        write = self.mode == "sf"
        kernels.flush_rows(rows, count)
        shadow = ctx.helper_core if self.mode == "llc" else None
        for _ in range(self.repeats):
            machine.access_chase(ctx.main_core, lines, write=write, shadow_core=shadow)

    def _traverse_lines(self, lines: Sequence[int]) -> None:
        """Flush then access pre-translated candidate lines (see traverse)."""
        ctx = self.ctx
        machine = ctx.machine
        write = self.mode == "sf"
        machine.flush_batch(lines)
        shadow = ctx.helper_core if self.mode == "llc" else None
        for _ in range(self.repeats):
            if self.parallel:
                machine.access_batch(
                    ctx.main_core, lines, write=write, shadow_core=shadow
                )
            else:
                machine.access_chase(
                    ctx.main_core, lines, write=write, shadow_core=shadow
                )
        self.traversed_addresses += len(lines) * self.repeats

    @property
    def threshold(self) -> int:
        return (
            self.ctx.threshold_llc if self.mode == "llc" else self.ctx.threshold_private
        )

    def check_evicted(self, target_va: int) -> bool:
        """Timed reload of the target; True if it left the structure."""
        return self.ctx.timed_load(target_va) > self.threshold

    # -- The primitive -------------------------------------------------------------

    def test(self, target_va: int, vas: Sequence[int], n: Optional[int] = None) -> bool:
        """TestEviction: do the first ``n`` candidates evict the target?"""
        self.n_tests += 1
        self.prime_target(target_va)
        self.traverse(vas, n)
        return self.check_evicted(target_va)

    def test_many(
        self, target_vas: Sequence[int], vas: Sequence[int], n: Optional[int] = None
    ) -> List[bool]:
        """TestEviction of each target against one fixed candidate list.

        :meth:`test` per target, in order.  The candidate tuple's
        translation is memoized (``AttackerContext.rows`` / ``lines``), so
        candidate filtering, which tests one L2 eviction set against
        hundreds of candidates, translates it once.
        """
        return [self.test(target, vas, n) for target in target_vas]

    def is_eviction_set(self, target_va: int, vas: Sequence[int], votes: int = 1) -> bool:
        """Verify a (small) set evicts the target; majority over ``votes``."""
        positive = 0
        for _ in range(votes):
            if self.test(target_va, vas):
                positive += 1
        return positive * 2 > votes


def deadline_exceeded(ctx: AttackerContext, deadline: int) -> bool:
    """Whether the simulated clock has passed the construction deadline."""
    return ctx.machine.now > deadline
