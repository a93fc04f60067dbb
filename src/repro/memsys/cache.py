"""Set-associative cache structure — the flat, array-backed data plane.

:class:`SetAssociativeCache` stores tags (physical line addresses) with an
owner annotation per line and delegates recency decisions to a table-driven
replacement policy.  It is used both for private caches (L1/L2, one instance
per core) and, with externally computed global set indices, for the sliced
shared LLC and Snoop Filter.

Layout (one flat plane per cache, no per-set objects):

* ``_tags``/``_owners`` — ``n_sets * ways`` slots; slot ``set*W + way``.
  Empty ways hold ``None``.
* ``_state`` — flat per-set replacement-policy state with a policy-specific
  stride (see :mod:`repro.memsys.policy_tables`); one policy-table object
  per cache replaces the seed's policy object per *set*.
* ``_where`` — tag index: ``tag * n_sets + set_idx -> slot``.  Hit tests
  are a single dict probe instead of a per-set list scan, and misses do
  not pay an exception.
* ``_occ`` — per-set valid-line counts (victim-path fast check).
* ``_noise_t`` — per-set cycle up to which background noise has been
  reconciled (maintained through :meth:`noise_clock`/:meth:`set_noise_clock`
  by the hierarchy's noise hook).  The clock plane deliberately survives
  :meth:`flush_all`: dropping it with the lines would make the next access
  draw a Poisson catch-up over the entire elapsed simulated time.
* ``_touched`` — per-set bytemap of sets ever inserted into or
  noise-reconciled since the last :meth:`flush_all` (:attr:`touched_sets`;
  the invariant checker's shallow scan visits only these sets).

The seed dict-of-sets implementation lives on in
:mod:`repro.memsys._reference` as the parity oracle; the parity suite pins
this plane to it seed-for-seed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .policy_tables import LRUTable, make_policy_table


class SetAssociativeCache:
    """A (possibly sliced) set-associative cache indexed by set number.

    The caller computes the set index — for private caches that is the plain
    index field of the address, for the LLC/SF it is
    ``slice * sets_per_slice + index`` — so this class stays agnostic of
    slicing and address mapping.
    """

    __slots__ = (
        "name",
        "n_sets",
        "ways",
        "_policy_name",
        "_rng",
        "_pol",
        "_pstride",
        "_pt_touch",
        "_pt_fill",
        "_pt_victim",
        "_pt_invalidate",
        "_lru",
        "_tags",
        "_owners",
        "_occ",
        "_state",
        "_where",
        "_noise_t",
        "_touched",
        "_touched_count",
        "policy_touches",
        "policy_fills",
        "policy_victims",
    )

    def __init__(
        self,
        name: str,
        n_sets: int,
        ways: int,
        policy_name: str,
        rng: random.Random,
    ) -> None:
        self.name = name
        self.n_sets = n_sets
        self.ways = ways
        self._policy_name = policy_name
        self._rng = rng
        pol = make_policy_table(policy_name, ways, rng)
        self._pol = pol
        self._pstride = pol.stride
        # Bound methods: one attribute hop at construction instead of two
        # (`self._pol.touch`) per access on the hot path.
        self._pt_touch = pol.touch
        self._pt_fill = pol.fill
        self._pt_victim = pol.victim
        self._pt_invalidate = pol.invalidate
        # LRU fast path: the state index equals the flat slot, so the
        # stamp write is inlined at the hit, fill and invalidate sites.
        self._lru = pol if type(pol) is LRUTable else None
        n = n_sets * ways
        self._tags: List[Optional[int]] = [None] * n
        self._owners: List[int] = [0] * n
        self._occ: List[int] = [0] * n_sets
        self._state: List[int] = pol.make_state(n_sets)
        self._where: dict = {}
        self._noise_t: List[int] = [0] * n_sets
        self._touched = bytearray(n_sets)
        self._touched_count = 0
        #: Policy-table operation counters (data-plane observability).
        self.policy_touches = 0
        self.policy_fills = 0
        self.policy_victims = 0

    def _mark_touched(self, set_idx: int) -> None:
        if not self._touched[set_idx]:
            self._touched[set_idx] = 1
            self._touched_count += 1

    # -- Noise reconciliation clock -----------------------------------------

    def noise_clock(self, set_idx: int) -> int:
        """Cycle up to which background noise is reconciled for the set."""
        self._mark_touched(set_idx)
        return self._noise_t[set_idx]

    def set_noise_clock(self, set_idx: int, now: int) -> None:
        self._mark_touched(set_idx)
        self._noise_t[set_idx] = now

    def exchange_noise_clock(self, set_idx: int, now: int) -> int:
        """Advance the set's noise clock to ``now``; returns the old value.

        Fused read-modify-write for the per-access reconciliation hot path
        (one call instead of a :meth:`noise_clock`/:meth:`set_noise_clock`
        pair).  A clock already past ``now`` is left alone.
        """
        if not self._touched[set_idx]:
            self._touched[set_idx] = 1
            self._touched_count += 1
        nt = self._noise_t
        old = nt[set_idx]
        if now > old:
            nt[set_idx] = now
        return old

    # -- Queries ---------------------------------------------------------

    def lookup(self, set_idx: int, tag: int) -> bool:
        """Hit test that updates replacement state on a hit."""
        slot = self._where.get(tag * self.n_sets + set_idx)
        if slot is None:
            return False
        lru = self._lru
        if lru is not None:  # inline LRUTable.touch (stamp counter shared)
            lru._stamp = stamp = lru._stamp + 1
            self._state[slot] = stamp
        else:
            self._pt_touch(
                self._state, set_idx * self._pstride, slot - set_idx * self.ways
            )
        self.policy_touches += 1
        return True

    def contains(self, set_idx: int, tag: int) -> bool:
        """Hit test with no side effects."""
        return (tag * self.n_sets + set_idx) in self._where

    def owner_of(self, set_idx: int, tag: int) -> Optional[int]:
        """Owner annotation of ``tag``, or None if absent."""
        slot = self._where.get(tag * self.n_sets + set_idx)
        if slot is None:
            return None
        return self._owners[slot]

    def occupancy(self, set_idx: int) -> int:
        """Number of valid lines in the set."""
        return self._occ[set_idx]

    def tags_in_set(self, set_idx: int) -> List[int]:
        """Valid tags currently in the set (unordered snapshot)."""
        base = set_idx * self.ways
        return [t for t in self._tags[base : base + self.ways] if t is not None]

    def peek_victim(self, set_idx: int) -> Optional[int]:
        """Tag that the next fill into a *full* set would evict.

        Returns None when the set has a free way (no eviction would occur).
        This is the eviction candidate (EVC) that Prime+Scope relies on.
        """
        if self._occ[set_idx] < self.ways:
            return None
        way = self._pt_victim(self._state, set_idx * self._pstride)
        return self._tags[set_idx * self.ways + way]

    # -- Mutations ---------------------------------------------------------

    def insert(
        self, set_idx: int, tag: int, owner: int = 0, update_owner: bool = True
    ) -> Optional[Tuple[int, int]]:
        """Install ``tag``; returns the evicted ``(tag, owner)`` if any.

        If the tag is already present this degrades to a recency touch and
        nothing is evicted.  ``update_owner`` controls whether the
        touch-degraded path also rewrites the resident line's owner
        annotation: ownership-transferring call sites (SF entry retake,
        shared-line install) want the rewrite, while pure recency refreshes
        must pass ``update_owner=False`` so they cannot silently reassign a
        line they do not own.
        """
        n_sets = self.n_sets
        key = tag * n_sets + set_idx
        where = self._where
        slot = where.get(key)
        ways = self.ways
        if slot is not None:
            if update_owner:
                self._owners[slot] = owner
            lru = self._lru
            if lru is not None:  # inline touch fast path (see lookup)
                lru._stamp = stamp = lru._stamp + 1
                self._state[slot] = stamp
            else:
                self._pt_touch(
                    self._state, set_idx * self._pstride, slot - set_idx * ways
                )
            self.policy_touches += 1
            return None
        base = set_idx * ways
        tags = self._tags
        occ = self._occ
        if occ[set_idx] < ways:
            slot = tags.index(None, base, base + ways)
            way = slot - base
            occ[set_idx] += 1
            evicted = None
        else:
            way = self._pt_victim(self._state, set_idx * self._pstride)
            self.policy_victims += 1
            slot = base + way
            etag = tags[slot]
            evicted = (etag, self._owners[slot])
            del where[etag * n_sets + set_idx]
        tags[slot] = tag
        self._owners[slot] = owner
        where[key] = slot
        lru = self._lru
        if lru is not None:  # inline LRUTable.fill (== touch; see lookup)
            lru._stamp = stamp = lru._stamp + 1
            self._state[slot] = stamp
        else:
            self._pt_fill(self._state, set_idx * self._pstride, way)
        self.policy_fills += 1
        if not self._touched[set_idx]:
            self._touched[set_idx] = 1
            self._touched_count += 1
        return evicted

    def remove(self, set_idx: int, tag: int) -> bool:
        """Invalidate ``tag`` if present; returns whether it was.

        One ``dict.pop`` replaces the probe-then-delete pair (the common
        flush path calls this hundreds of thousands of times per trial);
        every other effect is a single flat-plane write.
        """
        slot = self._where.pop(tag * self.n_sets + set_idx, None)
        if slot is None:
            return False
        self._tags[slot] = None
        self._owners[slot] = 0
        self._occ[set_idx] -= 1
        lru = self._lru
        if lru is not None:  # inline LRUTable.invalidate (see lookup)
            lru._inv_stamp = stamp = lru._inv_stamp - 1
            self._state[slot] = stamp
        else:
            self._pt_invalidate(
                self._state, set_idx * self._pstride, slot - set_idx * self.ways
            )
        return True

    def flush_all(self, now: int = 0) -> None:
        """Drop every line (used by tests and machine reset).

        The per-set noise-reconciliation clocks are *not* dropped — noise
        accumulated before the flush is irrelevant to the (now empty) sets,
        so the clocks are floored at ``now`` and otherwise carried.  Pass
        the current cycle so sets that were never reconciled do not draw a
        whole-history Poisson catch-up on their next access.
        """
        n = self.n_sets * self.ways
        self._tags = [None] * n
        self._owners = [0] * n
        self._occ = [0] * self.n_sets
        self._state = self._pol.make_state(self.n_sets)
        self._where = {}
        self._touched = bytearray(self.n_sets)
        self._touched_count = 0
        if now > 0:
            self._noise_t = [t if t > now else now for t in self._noise_t]

    @property
    def touched_sets(self) -> int:
        """Number of sets ever inserted into or noise-reconciled."""
        return self._touched_count
