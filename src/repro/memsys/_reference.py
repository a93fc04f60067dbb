"""The seed (pre-data-plane) set-associative cache — kept as a parity oracle.

This is the object-based implementation the repository started with: one
lazily materialized :class:`_CacheSet` per touched set, each holding its own
:class:`~repro.memsys.replacement.ReplacementPolicy` instance.  The hot path
now runs on the flat array-backed :class:`~repro.memsys.cache.SetAssociativeCache`;
this module exists so that

* the parity suite (``tests/test_dataplane_parity.py``) can prove, seed for
  seed, that the data plane reproduces the seed behavior exactly, and
* ``benchmarks/bench_perf_memsys.py`` can measure genuine before/after
  numbers on the same host by swapping this class into the hierarchy.

It mirrors the full duck interface the hierarchy and noise source use,
including the newer ``noise_clock``/``set_noise_clock`` accessors and the
``flush_all(now)`` reconciliation-clock carry (without which the seed bug —
a post-flush Poisson catch-up over the entire elapsed simulated time —
would make old/new traces diverge for reasons unrelated to the data plane).

Do not use this class on any hot path.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .replacement import make_policy


class _CacheSet:
    """One set: parallel tag/owner arrays plus replacement state."""

    __slots__ = ("tags", "owners", "policy", "noise_t")

    def __init__(self, ways: int, policy_name: str, rng: random.Random) -> None:
        self.tags: List[Optional[int]] = [None] * ways
        self.owners: List[int] = [0] * ways
        self.policy = make_policy(policy_name, ways, rng)
        #: Cycle up to which background noise has been reconciled
        #: (maintained by the hierarchy's noise hook).
        self.noise_t = 0


class ReferenceSetAssociativeCache:
    """The seed dict-of-sets cache (see module docstring)."""

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
        self._sets: Dict[int, _CacheSet] = {}
        #: Reconciliation clocks carried across flush_all (parity with the
        #: flat plane's persistent per-set noise clocks): per-set survivors
        #: plus a floor for sets never materialized before the flush.
        self._saved_clocks: Dict[int, int] = {}
        self._noise_floor = 0
        self.policy_fills = 0
        self.policy_touches = 0
        self.policy_victims = 0

    def _set(self, set_idx: int) -> _CacheSet:
        cset = self._sets.get(set_idx)
        if cset is None:
            cset = _CacheSet(self.ways, self._policy_name, self._rng)
            cset.noise_t = self._saved_clocks.get(set_idx, self._noise_floor)
            self._sets[set_idx] = cset
        return cset

    def get_set(self, set_idx: int) -> _CacheSet:
        """The set object (materializing it if needed); used by noise hooks."""
        return self._set(set_idx)

    # -- Noise reconciliation clock ---------------------------------------

    def noise_clock(self, set_idx: int) -> int:
        return self._set(set_idx).noise_t

    def set_noise_clock(self, set_idx: int, now: int) -> None:
        self._set(set_idx).noise_t = now

    def exchange_noise_clock(self, set_idx: int, now: int) -> int:
        """Advance the set's noise clock to ``now``; returns the old value."""
        cset = self._set(set_idx)
        old = cset.noise_t
        if now > old:
            cset.noise_t = now
        return old

    # -- Queries ---------------------------------------------------------

    def lookup(self, set_idx: int, tag: int) -> bool:
        """Hit test that updates replacement state on a hit."""
        cset = self._sets.get(set_idx)
        if cset is None:
            return False
        try:
            way = cset.tags.index(tag)
        except ValueError:
            return False
        cset.policy.touch(way)
        self.policy_touches += 1
        return True

    def contains(self, set_idx: int, tag: int) -> bool:
        """Hit test with no side effects."""
        cset = self._sets.get(set_idx)
        return cset is not None and tag in cset.tags

    def owner_of(self, set_idx: int, tag: int) -> Optional[int]:
        """Owner annotation of ``tag``, or None if absent."""
        cset = self._sets.get(set_idx)
        if cset is None:
            return None
        try:
            return cset.owners[cset.tags.index(tag)]
        except ValueError:
            return None

    def occupancy(self, set_idx: int) -> int:
        """Number of valid lines in the set."""
        cset = self._sets.get(set_idx)
        if cset is None:
            return 0
        return sum(1 for t in cset.tags if t is not None)

    def tags_in_set(self, set_idx: int) -> List[int]:
        """Valid tags currently in the set (unordered snapshot)."""
        cset = self._sets.get(set_idx)
        if cset is None:
            return []
        return [t for t in cset.tags if t is not None]

    def peek_victim(self, set_idx: int) -> Optional[int]:
        """Tag that the next fill into a *full* set would evict."""
        cset = self._sets.get(set_idx)
        if cset is None or None in cset.tags:
            return None
        return cset.tags[cset.policy.victim()]

    # -- Mutations ---------------------------------------------------------

    def insert(
        self, set_idx: int, tag: int, owner: int = 0, update_owner: bool = True
    ) -> Optional[Tuple[int, int]]:
        """Install ``tag``; returns the evicted ``(tag, owner)`` if any."""
        cset = self._set(set_idx)
        tags = cset.tags
        try:
            way = tags.index(tag)
        except ValueError:
            way = -1
        if way >= 0:
            if update_owner:
                cset.owners[way] = owner
            cset.policy.touch(way)
            self.policy_touches += 1
            return None
        try:
            way = tags.index(None)
            evicted = None
        except ValueError:
            way = cset.policy.victim()
            self.policy_victims += 1
            evicted = (tags[way], cset.owners[way])
        tags[way] = tag
        cset.owners[way] = owner
        cset.policy.fill(way)
        self.policy_fills += 1
        return evicted

    def remove(self, set_idx: int, tag: int) -> bool:
        """Invalidate ``tag`` if present; returns whether it was."""
        cset = self._sets.get(set_idx)
        if cset is None:
            return False
        try:
            way = cset.tags.index(tag)
        except ValueError:
            return False
        cset.tags[way] = None
        cset.owners[way] = 0
        cset.policy.invalidate(way)
        return True

    def flush_all(self, now: int = 0) -> None:
        """Drop every line; carry the noise-reconciliation clocks forward."""
        saved = self._saved_clocks
        for set_idx, cset in self._sets.items():
            saved[set_idx] = cset.noise_t
        self._sets.clear()
        if now > 0:
            for set_idx, t in saved.items():
                if t < now:
                    saved[set_idx] = now
            if now > self._noise_floor:
                self._noise_floor = now

    @property
    def touched_sets(self) -> int:
        """Number of sets that have been materialized."""
        return len(self._sets)
