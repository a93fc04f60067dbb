"""The non-inclusive Skylake-SP-style cache hierarchy.

Structures (Section 2.3 of the paper):

* Per-core private **L1** and **L2**.
* A sliced, shared, **non-inclusive LLC** holding *shared* (S-state) lines.
* A sliced, shared **Snoop Filter (SF)** tracking *private* (E/M-state)
  lines that live only in some core's L1/L2.  The SF mirrors the LLC's set
  count, slice count, and slice hash, and has more ways.

State transitions modelled (private = tracked by SF, shared = resident in
LLC):

* Miss everywhere -> DRAM fetch, line becomes private to the requesting
  core (SF entry allocated).
* A second core reads a private line -> the line becomes shared: the SF
  entry is freed and the line is inserted into the LLC.
* SF entry evicted (capacity) -> the owner's private copies are
  **back-invalidated** (this is the attacker-observable event of an SF
  Prime+Probe); the line is inserted into the LLC with probability
  ``reuse_predictor_p``, else dropped.
* Private line evicted from an L2 -> its SF entry is freed; the line moves
  to the LLC (as shared) with probability ``l2_victim_to_llc_p``, else it is
  dropped.  This victim-cache behaviour is what makes the LLC-eviction test
  (`TestEviction` with an LLC threshold) reliable.
* LLC line evicted -> any private copies are invalidated.

Background-tenant noise enters through ``noise_source.reconcile``: before
real traffic touches a shared set, accumulated Poisson noise events are
applied to that set (lazy reconciliation; see DESIGN.md).
"""

from __future__ import annotations

import enum
import random
from typing import Dict, List

from ..config import MachineConfig
from .cache import SetAssociativeCache
from .slice_hash import make_slice_hash

#: Owner annotation for background-tenant (noise) lines.
NOISE_OWNER = -1
#: Owner annotation for shared (LLC-resident) lines.
SHARED_OWNER = -2

#: Tags at or above this value denote background-tenant (noise) lines.
_NOISE_TAG_BASE = 1 << 60


class Level(enum.IntEnum):
    """Where an access was satisfied; maps to a latency in LatencyConfig."""

    L1 = 0
    L2 = 1
    LLC = 2
    #: Cross-core transfer through the SF (private line read by another core).
    SF_TRANSFER = 3
    DRAM = 4


class HierarchyStats:
    """Cheap event counters, reset with :meth:`reset`."""

    __slots__ = (
        "accesses",
        "l1_hits",
        "l2_hits",
        "llc_hits",
        "sf_transfers",
        "dram_fetches",
        "sf_back_invalidations",
        "noise_insertions",
        "flushes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.accesses = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.llc_hits = 0
        self.sf_transfers = 0
        self.dram_fetches = 0
        self.sf_back_invalidations = 0
        self.noise_insertions = 0
        self.flushes = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class CacheHierarchy:
    """L1/L2 per core + sliced LLC and SF, with coherence-lite semantics."""

    def __init__(self, cfg: MachineConfig, rng: random.Random, hash_seed: int = 0):
        self.cfg = cfg
        self._rng = rng
        self.slice_hash = make_slice_hash(
            cfg.slice_hash, cfg.llc.slices, seed=hash_seed, width=cfg.phys_bits - 6
        )
        self.l1: List[SetAssociativeCache] = [
            SetAssociativeCache(f"L1[{c}]", cfg.l1.sets, cfg.l1.ways, cfg.l1_policy, rng)
            for c in range(cfg.cores)
        ]
        self.l2: List[SetAssociativeCache] = [
            SetAssociativeCache(f"L2[{c}]", cfg.l2.sets, cfg.l2.ways, cfg.l2_policy, rng)
            for c in range(cfg.cores)
        ]
        n_shared_sets = cfg.llc.total_sets
        self.llc = SetAssociativeCache("LLC", n_shared_sets, cfg.llc.ways, cfg.llc_policy, rng)
        self.sf = SetAssociativeCache("SF", n_shared_sets, cfg.sf.ways, cfg.sf_policy, rng)
        self.stats = HierarchyStats()
        #: Optional background-noise source; duck-typed object exposing
        #: ``reconcile(hierarchy, shared_set_idx, now)``.
        self.noise_source = None
        self._slice_memo: Dict[int, int] = {}
        self._sidx_memo: Dict[int, int] = {}
        self._l1_mask = cfg.l1.sets - 1
        self._l2_mask = cfg.l2.sets - 1
        self._shared_mask = cfg.llc.sets - 1
        self._shared_sets_per_slice = cfg.llc.sets
        self._noise_tag_next = _NOISE_TAG_BASE

    # -- Address mapping ---------------------------------------------------

    def slice_of(self, line: int) -> int:
        """LLC/SF slice of a physical line address (memoized)."""
        memo = self._slice_memo
        s = memo.get(line)
        if s is None:
            s = self.slice_hash.slice_of(line)
            memo[line] = s
        return s

    def shared_set_index(self, line: int) -> int:
        """Global LLC/SF set index (slice * sets_per_slice + set; memoized)."""
        memo = self._sidx_memo
        sidx = memo.get(line)
        if sidx is None:
            sidx = self.slice_of(line) * self._shared_sets_per_slice + (
                line & self._shared_mask
            )
            memo[line] = sidx
        return sidx

    def l1_index(self, line: int) -> int:
        return line & self._l1_mask

    def l2_index(self, line: int) -> int:
        return line & self._l2_mask

    # -- Internal helpers --------------------------------------------------

    def _reconcile_noise(self, sidx: int, now: int) -> None:
        if self.noise_source is not None:
            self.noise_source.reconcile(self, sidx, now)

    def _invalidate_private(self, core: int, line: int) -> None:
        """Drop ``line`` from one core's private caches."""
        self.l1[core].remove(line & self._l1_mask, line)
        self.l2[core].remove(line & self._l2_mask, line)

    def _invalidate_private_everywhere(self, line: int) -> None:
        for core in range(self.cfg.cores):
            self._invalidate_private(core, line)

    def _llc_install(self, sidx: int, line: int) -> None:
        """Install a shared line into the LLC, handling the LLC victim."""
        evicted = self.llc.insert(sidx, line, SHARED_OWNER)
        if evicted is not None:
            etag, _ = evicted
            if etag < _NOISE_TAG_BASE:  # foreign lines have no private copies
                self._invalidate_private_everywhere(etag)

    def _sf_install(self, sidx: int, line: int, owner: int) -> None:
        """Allocate an SF entry (line becomes private), handling the victim.

        An evicted SF entry back-invalidates its owner's private copies and
        is inserted into the LLC with probability ``reuse_predictor_p``.
        """
        evicted = self.sf.insert(sidx, line, owner)
        if evicted is None:
            return
        etag, eowner = evicted
        if eowner >= 0:
            self._invalidate_private(eowner, etag)
            self.stats.sf_back_invalidations += 1
        if self._rng.random() < self.cfg.reuse_predictor_p:
            self._llc_install(sidx, etag)

    def _handle_l2_victim(self, core: int, vline: int, now: int) -> None:
        """A line fell out of core's L2; reconcile its SF/LLC residence."""
        sidx = self._sidx_memo.get(vline)
        if sidx is None:
            sidx = self.shared_set_index(vline)
        if self.sf.owner_of(sidx, vline) == core:
            # Private line lost its only cached copy (unless still in L1;
            # treat the L2 as the private point of residence).
            self.sf.remove(sidx, vline)
            self.l1[core].remove(vline & self._l1_mask, vline)
            if self._rng.random() < self.cfg.l2_victim_to_llc_p:
                self._reconcile_noise(sidx, now)
                self._llc_install(sidx, vline)
        # Shared lines keep their LLC copy; nothing to do.

    def _fill_private(self, core: int, line: int, now: int) -> None:
        """Install ``line`` into core's L2 then L1 (victims handled)."""
        evicted = self.l2[core].insert(line & self._l2_mask, line, core)
        if evicted is not None:
            self._handle_l2_victim(core, evicted[0], now)
        # L1 victims are silent: the line usually still lives in the L2, and
        # if not, its SF entry is lazily cleaned up on the next access.
        self.l1[core].insert(line & self._l1_mask, line, core)

    # -- Public operations ---------------------------------------------------

    def access(
        self, core: int, line: int, now: int, write: bool = False,
        reconcile: bool = True,
    ) -> Level:
        """A load (or code fetch) of physical line ``line`` by ``core``.

        Returns the level that satisfied the access.  The caller (the
        Machine) converts levels to latencies and advances the clock.
        ``write=True`` models a store: a read-for-ownership that forces the
        line exclusive (private, SF-tracked) even if it was shared.
        ``reconcile=False`` skips the noise reconciliation — only for batch
        callers that already reconciled this line's shared set.
        """
        if write:
            return self._write(core, line, now, reconcile=reconcile)
        stats = self.stats
        stats.accesses += 1
        # Reconcile background noise *before* the private lookup: a pending
        # noise eviction of this line's LLC/SF entry back-invalidates its
        # private copies, and that must be visible to this access's timing.
        if reconcile and self.noise_source is not None:
            self.noise_source.reconcile(self, self.shared_set_index(line), now)
        if self.l1[core].lookup(line & self._l1_mask, line):
            stats.l1_hits += 1
            return Level.L1
        if self.l2[core].lookup(line & self._l2_mask, line):
            stats.l2_hits += 1
            self.l1[core].insert(line & self._l1_mask, line, core)
            return Level.L2
        sidx = self._sidx_memo.get(line)
        if sidx is None:
            sidx = self.shared_set_index(line)
        owner = self.sf.owner_of(sidx, line)
        if owner is not None:
            if owner == core or owner == NOISE_OWNER:
                # Stale self-owned entry (L1-only residence lost) or a
                # noise-owned line: serve from memory, keep/retake the entry.
                self.sf.insert(sidx, line, core)
                self._fill_private(core, line, now)
                stats.dram_fetches += 1
                return Level.DRAM
            # Another core holds it privately: the line becomes shared.
            self.sf.remove(sidx, line)
            self._llc_install(sidx, line)
            self._fill_private(core, line, now)
            stats.sf_transfers += 1
            return Level.SF_TRANSFER
        if self.llc.lookup(sidx, line):
            stats.llc_hits += 1
            self._fill_private(core, line, now)
            return Level.LLC
        # Miss everywhere: fetch from DRAM, line becomes private to core.
        self._sf_install(sidx, line, core)
        self._fill_private(core, line, now)
        stats.dram_fetches += 1
        return Level.DRAM

    def access_many(
        self,
        core: int,
        lines,
        now: int,
        write: bool = False,
        reconcile_each: bool = True,
    ) -> List[Level]:
        """:meth:`access` for each line of a traversal, in order.

        ``[access(core, ln, now, write=write, reconcile=reconcile_each)
        for ln in lines]``: the batch entry point of
        :meth:`Machine.access_batch` and of the invariant hook
        (:mod:`repro.check.invariants`).  The fused kernels
        (:mod:`repro.memsys.kernels`) walk their own inline hit path.
        """
        access = self.access
        return [
            access(core, ln, now, write=write, reconcile=reconcile_each)
            for ln in lines
        ]

    def _write(self, core: int, line: int, now: int, reconcile: bool = True) -> Level:
        """A store: hit fast if already exclusive, else read-for-ownership.

        The RFO removes any LLC (shared) copy, invalidates other cores'
        private copies, and allocates an SF entry owned by ``core`` — this is
        how the attacker forces its eviction-set lines to be SF-tracked.
        """
        stats = self.stats
        stats.accesses += 1
        sidx = self._sidx_memo.get(line)
        if sidx is None:
            sidx = self.shared_set_index(line)
        if reconcile:
            self._reconcile_noise(sidx, now)
        sf = self.sf
        owner = sf.owner_of(sidx, line)
        if owner == core:
            # Possibly already exclusive here: a plain private-cache write
            # hit.  The L1 probe doubles as the recency touch (lookup only
            # touches on a hit, so a miss leaves no trace — same end state
            # as the seed's separate contains-then-lookup).  The SF inserts
            # are pure recency refreshes of an entry this core already owns
            # — update_owner=False makes that explicit (and keeps a refresh
            # from ever reassigning a line, see SetAssociativeCache.insert).
            l1 = self.l1[core]
            l1_idx = line & self._l1_mask
            if l1.lookup(l1_idx, line):
                stats.l1_hits += 1
                sf.insert(sidx, line, core, update_owner=False)
                return Level.L1
            l2 = self.l2[core]
            l2_idx = line & self._l2_mask
            if l2.contains(l2_idx, line):
                l2.lookup(l2_idx, line)
                l1.insert(l1_idx, line, core)
                sf.insert(sidx, line, core, update_owner=False)
                stats.l2_hits += 1
                return Level.L2
            # Stale self-owned entry with no private copy: fall through to
            # the shared-copy check / exclusive refetch below.
        elif owner is not None and owner != NOISE_OWNER:
            # Steal exclusivity from the current private owner.
            self._invalidate_private(owner, line)
            self.sf.remove(sidx, line)
            self._sf_install(sidx, line, core)
            self._fill_private(core, line, now)
            stats.sf_transfers += 1
            return Level.SF_TRANSFER
        if self.llc.contains(sidx, line):
            # Shared -> exclusive: drop the LLC copy and all other sharers.
            self.llc.remove(sidx, line)
            self._invalidate_private_everywhere(line)
            self._sf_install(sidx, line, core)
            self._fill_private(core, line, now)
            stats.llc_hits += 1
            return Level.LLC
        # Miss (or stale/noise-owned SF entry): fetch exclusive from DRAM.
        self.sf.remove(sidx, line)
        self._sf_install(sidx, line, core)
        self._fill_private(core, line, now)
        stats.dram_fetches += 1
        return Level.DRAM

    def flush_line(self, line: int, now: int = 0) -> None:
        """clflush: remove ``line`` from every structure."""
        self.stats.flushes += 1
        self._invalidate_private_everywhere(line)
        sidx = self.shared_set_index(line)
        self._reconcile_noise(sidx, now)
        self.sf.remove(sidx, line)
        self.llc.remove(sidx, line)

    # -- Noise entry points (called by the noise source) --------------------

    def fresh_noise_tag(self) -> int:
        """A unique tag representing another tenant's line."""
        tag = self._noise_tag_next
        self._noise_tag_next += 1
        return tag

    def noise_insert_sf(self, sidx: int) -> None:
        """Insert a foreign private line into SF set ``sidx``."""
        self.stats.noise_insertions += 1
        self._sf_install(sidx, self.fresh_noise_tag(), NOISE_OWNER)

    def noise_insert_llc(self, sidx: int) -> None:
        """Insert a foreign shared line into LLC set ``sidx``."""
        self.stats.noise_insertions += 1
        self._llc_install(sidx, self.fresh_noise_tag())

    # -- Inspection helpers (tests, scanners) --------------------------------

    def in_private_cache(self, core: int, line: int) -> bool:
        """Whether ``line`` is in core's L1 or L2 (no state change)."""
        return self.l1[core].contains(self.l1_index(line), line) or self.l2[
            core
        ].contains(self.l2_index(line), line)

    def in_sf(self, line: int) -> bool:
        return self.sf.contains(self.shared_set_index(line), line)

    def in_llc(self, line: int) -> bool:
        return self.llc.contains(self.shared_set_index(line), line)

    def cached_anywhere(self, line: int) -> bool:
        if self.in_sf(line) or self.in_llc(line):
            return True
        return any(self.in_private_cache(c, line) for c in range(self.cfg.cores))
