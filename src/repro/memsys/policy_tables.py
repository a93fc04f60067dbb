"""Table-driven replacement policies for the flat cache data plane.

The object-based policies in :mod:`repro.memsys.replacement` allocate one
policy instance per cache *set*; at full scale that is hundreds of
thousands of tiny objects, and every access pays an attribute hop and a
method dispatch into one of them.  The data plane instead keeps one
*table* object per cache and stores all per-set policy state in a single
flat integer list, indexed by ``set_idx * stride + slot``.

Each table implements the exact decision semantics of its object-based
counterpart — :mod:`repro.memsys.replacement` remains the executable
specification, and ``tests/test_policy_parity.py`` property-checks every
table against it over randomized touch/fill/invalidate/victim strings.

Equivalence notes (the non-obvious ones):

* ``lru`` is implemented with monotone stamps instead of an explicit
  recency stack: ``touch``/``fill`` assign the next value of a per-cache
  counter and ``victim`` takes the lowest-stamped way.  Untouched ways
  keep their initial stamp 0, so ties resolve to the lowest way index —
  exactly the seed stack's initial ``[0, 1, ..., W-1]`` order.
  ``invalidate`` assigns from a second, *decreasing* negative counter so
  the most recently invalidated way is most eviction-preferred, matching
  the stack's insert-at-front semantics.
* ``random`` keeps its pending-victim cache in the state table (one slot
  per set) and draws from the same shared cache RNG at the same points
  (lazily in ``victim``, cleared by ``fill``), so RNG consumption order —
  and therefore every downstream trial — is bit-identical.
"""

from __future__ import annotations

import random
from typing import Dict, List, Type

from ..errors import ConfigurationError


class PolicyTable:
    """Base: flat per-set policy state with ``stride`` slots per set."""

    __slots__ = ("ways", "stride")

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        self.ways = ways
        self.stride = ways

    def make_state(self, n_sets: int) -> List[int]:
        """Fresh state plane for ``n_sets`` sets (all sets initialized)."""
        raise NotImplementedError

    def touch(self, state: List[int], base: int, way: int) -> None:
        """A hit on ``way`` of the set whose state starts at ``base``."""
        raise NotImplementedError

    def fill(self, state: List[int], base: int, way: int) -> None:
        """A new line was installed in ``way``."""
        raise NotImplementedError

    def victim(self, state: List[int], base: int) -> int:
        """The way that would be evicted next (no state change)."""
        raise NotImplementedError

    def invalidate(self, state: List[int], base: int, way: int) -> None:
        """``way`` was invalidated; make it maximally eviction-preferred."""
        raise NotImplementedError


class LRUTable(PolicyTable):
    """Exact LRU via monotone recency stamps (see module docstring)."""

    __slots__ = ("_stamp", "_inv_stamp")

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        super().__init__(ways, rng)
        self._stamp = 0
        self._inv_stamp = 0

    def make_state(self, n_sets: int) -> List[int]:
        return [0] * (n_sets * self.ways)

    def touch(self, state: List[int], base: int, way: int) -> None:
        self._stamp += 1
        state[base + way] = self._stamp

    fill = touch

    def victim(self, state: List[int], base: int) -> int:
        hi = base + self.ways
        seg = state[base:hi]
        return seg.index(min(seg))

    def invalidate(self, state: List[int], base: int, way: int) -> None:
        self._inv_stamp -= 1
        state[base + way] = self._inv_stamp


class TreePLRUTable(PolicyTable):
    """Binary-tree pseudo-LRU; ``ways - 1`` internal-node bits per set."""

    __slots__ = ("_levels",)

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        if ways & (ways - 1) or ways < 2:
            raise ConfigurationError("tree PLRU requires power-of-two ways >= 2")
        super().__init__(ways, rng)
        self.stride = ways - 1
        self._levels = ways.bit_length() - 1

    def make_state(self, n_sets: int) -> List[int]:
        return [0] * (n_sets * self.stride)

    def touch(self, state: List[int], base: int, way: int) -> None:
        # Flip internal nodes to point *away* from the accessed way.
        node = 0
        levels = self._levels
        for level in range(levels):
            bit = (way >> (levels - 1 - level)) & 1
            state[base + node] = 1 - bit
            node = 2 * node + 1 + bit

    fill = touch

    def victim(self, state: List[int], base: int) -> int:
        node = 0
        way = 0
        for _ in range(self._levels):
            bit = state[base + node]
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        return way

    def invalidate(self, state: List[int], base: int, way: int) -> None:
        # Point the tree at the invalidated way so it is refilled first.
        node = 0
        levels = self._levels
        for level in range(levels):
            bit = (way >> (levels - 1 - level)) & 1
            state[base + node] = bit
            node = 2 * node + 1 + bit


class TreePLRU4Table(TreePLRUTable):
    """4-way Tree-PLRU with the 2-level tree walk unrolled (hot L1/L2 sizes)."""

    __slots__ = ()

    def touch(self, state: List[int], base: int, way: int) -> None:
        b0 = (way >> 1) & 1
        state[base] = 1 - b0
        state[base + 1 + b0] = 1 - (way & 1)

    fill = touch

    def victim(self, state: List[int], base: int) -> int:
        b0 = state[base]
        return (b0 << 1) | state[base + 1 + b0]

    def invalidate(self, state: List[int], base: int, way: int) -> None:
        b0 = (way >> 1) & 1
        state[base] = b0
        state[base + 1 + b0] = way & 1


class TreePLRU8Table(TreePLRUTable):
    """8-way Tree-PLRU with the 3-level tree walk unrolled (hot L1/L2 sizes)."""

    __slots__ = ()

    def touch(self, state: List[int], base: int, way: int) -> None:
        b0 = (way >> 2) & 1
        state[base] = 1 - b0
        b1 = (way >> 1) & 1
        node = 1 + b0
        state[base + node] = 1 - b1
        state[base + 2 * node + 1 + b1] = 1 - (way & 1)

    fill = touch

    def victim(self, state: List[int], base: int) -> int:
        b0 = state[base]
        node = 1 + b0
        b1 = state[base + node]
        return (b0 << 2) | (b1 << 1) | state[base + 2 * node + 1 + b1]

    def invalidate(self, state: List[int], base: int, way: int) -> None:
        b0 = (way >> 2) & 1
        state[base] = b0
        b1 = (way >> 1) & 1
        node = 1 + b0
        state[base + node] = b1
        state[base + 2 * node + 1 + b1] = way & 1


class SRRIPTable(PolicyTable):
    """Static RRIP with 2-bit RRPVs; aging applied on fill (as the seed)."""

    __slots__ = ()

    _MAX = 3

    def make_state(self, n_sets: int) -> List[int]:
        return [self._MAX] * (n_sets * self.ways)

    def touch(self, state: List[int], base: int, way: int) -> None:
        state[base + way] = 0

    def fill(self, state: List[int], base: int, way: int) -> None:
        hi = base + self.ways
        # Apply the aging that the victim search would have performed.
        bump = self._MAX - max(state[base:hi])
        if bump > 0:
            for i in range(base, hi):
                state[i] += bump
        state[base + way] = 2

    def victim(self, state: List[int], base: int) -> int:
        hi = base + self.ways
        seg = state[base:hi]
        return seg.index(max(seg))

    def invalidate(self, state: List[int], base: int, way: int) -> None:
        state[base + way] = self._MAX


class QLRUTable(SRRIPTable):
    """Quad-age LRU approximation; fills insert at age 1 (SRRIP shape)."""

    __slots__ = ()

    def fill(self, state: List[int], base: int, way: int) -> None:
        hi = base + self.ways
        bump = self._MAX - max(state[base:hi])
        if bump > 0:
            for i in range(base, hi):
                state[i] += bump
        state[base + way] = 1


class RandomTable(PolicyTable):
    """Uniform random victim; one pending-victim slot per set (-1 = none).

    ``victim`` must be stable between the query and the subsequent fill,
    so the choice is drawn lazily and cached until consumed by a fill —
    preserving the seed policy's RNG consumption points exactly.
    """

    __slots__ = ("_rng",)

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        super().__init__(ways, rng)
        self.stride = 1
        self._rng = rng if rng is not None else random.Random(0)

    def make_state(self, n_sets: int) -> List[int]:
        return [-1] * n_sets

    def touch(self, state: List[int], base: int, way: int) -> None:
        pass

    def fill(self, state: List[int], base: int, way: int) -> None:
        state[base] = -1

    def victim(self, state: List[int], base: int) -> int:
        pending = state[base]
        if pending < 0:
            pending = self._rng.randrange(self.ways)
            state[base] = pending
        return pending

    def invalidate(self, state: List[int], base: int, way: int) -> None:
        state[base] = way


_TABLES: Dict[str, Type[PolicyTable]] = {
    "lru": LRUTable,
    "tree_plru": TreePLRUTable,
    "srrip": SRRIPTable,
    "qlru": QLRUTable,
    "random": RandomTable,
}


def table_names() -> List[str]:
    """Names of all registered policy tables (mirrors ``policy_names``)."""
    return sorted(_TABLES)


#: Unrolled Tree-PLRU specializations for the common associativities; the
#: generic loop implementation serves every other power of two.
_TREE_UNROLLED: Dict[int, Type[TreePLRUTable]] = {
    4: TreePLRU4Table,
    8: TreePLRU8Table,
}


def make_policy_table(
    name: str, ways: int, rng: random.Random = None
) -> PolicyTable:
    """Instantiate the policy table ``name`` for ``ways``-way sets."""
    try:
        cls = _TABLES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {table_names()}"
        ) from None
    if cls is TreePLRUTable:
        cls = _TREE_UNROLLED.get(ways, TreePLRUTable)
    return cls(ways, rng)
