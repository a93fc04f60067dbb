"""Cache replacement policies.

Each policy maintains per-set state over ``ways`` entries and answers three
questions: what happens on a hit (:meth:`touch`), what happens on a fill
(:meth:`fill`), and which way would be evicted next (:meth:`victim`).
:meth:`victim` is a *pure* query — the cache calls it and then overwrites the
returned way via :meth:`fill` — which is exactly the hook Prime+Scope needs
to reason about the eviction candidate (EVC).

Policies supported (Section 2.3 / Section 6.1 context: Intel's real policies
are undocumented; Parallel Probing is valuable precisely because it works
regardless of the policy):

* ``lru`` — true least-recently-used.
* ``tree_plru`` — binary-tree pseudo-LRU (power-of-two ways only).
* ``srrip`` — 2-bit static re-reference interval prediction.
* ``qlru`` — quad-age LRU approximation (hit promotes to age 0, fill at 1).
* ``random`` — uniform random victim.
"""

from __future__ import annotations

import random
from typing import List

from ..errors import ConfigurationError


class ReplacementPolicy:
    """Base class; subclasses implement the three state hooks."""

    __slots__ = ("ways",)

    def __init__(self, ways: int) -> None:
        self.ways = ways

    def touch(self, way: int) -> None:
        """A hit on ``way``."""
        raise NotImplementedError

    def fill(self, way: int) -> None:
        """A new line was installed in ``way``."""
        raise NotImplementedError

    def victim(self) -> int:
        """The way that would be evicted next (no state change)."""
        raise NotImplementedError

    def invalidate(self, way: int) -> None:
        """``way`` was invalidated; make it maximally eviction-preferred."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Exact LRU; the recency stack is a list of ways, MRU last."""

    __slots__ = ("_stack",)

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        super().__init__(ways)
        self._stack: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        stack = self._stack
        stack.remove(way)
        stack.append(way)

    fill = touch

    def victim(self) -> int:
        return self._stack[0]

    def invalidate(self, way: int) -> None:
        stack = self._stack
        stack.remove(way)
        stack.insert(0, way)


class TreePLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU; requires a power-of-two way count."""

    __slots__ = ("_bits", "_levels")

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        if ways & (ways - 1) or ways < 2:
            raise ConfigurationError("tree PLRU requires power-of-two ways >= 2")
        super().__init__(ways)
        self._levels = ways.bit_length() - 1
        self._bits = [0] * (ways - 1)

    def _update_towards(self, way: int) -> None:
        # Flip internal nodes to point *away* from the accessed way.
        node = 0
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            self._bits[node] = 1 - bit
            node = 2 * node + 1 + bit

    touch = _update_towards
    fill = _update_towards

    def victim(self) -> int:
        node = 0
        way = 0
        for _ in range(self._levels):
            bit = self._bits[node]
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        return way

    def invalidate(self, way: int) -> None:
        # Point the tree at the invalidated way so it is refilled first.
        node = 0
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            self._bits[node] = bit
            node = 2 * node + 1 + bit


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with 2-bit re-reference prediction values (RRPV).

    Hit promotes to RRPV 0; fills insert at RRPV 2 ("long"); the victim is
    the lowest-indexed way at RRPV 3, aging everyone until one exists.
    Victim search ages state, so :meth:`victim` precomputes the answer
    without mutating (the aging happens on :meth:`fill` of that way).
    """

    __slots__ = ("_rrpv",)

    _MAX = 3

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        super().__init__(ways)
        self._rrpv = [self._MAX] * ways

    def touch(self, way: int) -> None:
        self._rrpv[way] = 0

    def fill(self, way: int) -> None:
        rrpv = self._rrpv
        # Apply the aging that the victim search would have performed.
        bump = self._MAX - max(rrpv)
        if bump < 0:
            bump = 0
        if bump:
            for i in range(self.ways):
                rrpv[i] += bump
        rrpv[way] = 2

    def victim(self) -> int:
        rrpv = self._rrpv
        best = max(rrpv)
        return rrpv.index(best)

    def invalidate(self, way: int) -> None:
        self._rrpv[way] = self._MAX


class QLRUPolicy(ReplacementPolicy):
    """Quad-age LRU approximation (Intel client-like QLRU).

    Ages are 0 (youngest) to 3 (oldest).  Hits rejuvenate to 0, fills insert
    at age 1, victims are the oldest way (ties broken by lowest index) with
    aging applied when no way is at age 3 yet.
    """

    __slots__ = ("_age",)

    _MAX = 3

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        super().__init__(ways)
        self._age = [self._MAX] * ways

    def touch(self, way: int) -> None:
        self._age[way] = 0

    def fill(self, way: int) -> None:
        age = self._age
        bump = self._MAX - max(age)
        if bump > 0:
            for i in range(self.ways):
                age[i] += bump
        age[way] = 1

    def victim(self) -> int:
        age = self._age
        best = max(age)
        return age.index(best)

    def invalidate(self, way: int) -> None:
        self._age[way] = self._MAX


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection.

    ``victim`` must be stable between the query and the subsequent fill, so
    the choice is drawn lazily and cached until consumed by a fill.
    """

    __slots__ = ("_rng", "_pending")

    def __init__(self, ways: int, rng: random.Random = None) -> None:
        super().__init__(ways)
        self._rng = rng if rng is not None else random.Random(0)
        self._pending = None

    def touch(self, way: int) -> None:
        pass

    def fill(self, way: int) -> None:
        self._pending = None

    def victim(self) -> int:
        if self._pending is None:
            self._pending = self._rng.randrange(self.ways)
        return self._pending

    def invalidate(self, way: int) -> None:
        self._pending = way


_POLICIES = {
    "lru": LRUPolicy,
    "tree_plru": TreePLRUPolicy,
    "srrip": SRRIPPolicy,
    "qlru": QLRUPolicy,
    "random": RandomPolicy,
}


def policy_names():
    """Names of all registered replacement policies."""
    return sorted(_POLICIES)


def make_policy(name: str, ways: int, rng: random.Random = None) -> ReplacementPolicy:
    """Instantiate the replacement policy ``name`` for a ``ways``-way set."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {policy_names()}"
        ) from None
    return cls(ways, rng)
