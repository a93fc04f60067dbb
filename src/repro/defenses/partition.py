"""Way partitioning of the shared LLC/SF (Intel CAT / DAWG style).

Each security domain (tenant) is assigned a disjoint subset of the ways
of every shared cache set; insertions triggered by a domain may evict
only within that domain's ways.  Lookups still see all ways (the cache
stays functionally shared), but cross-domain *contention* — the entire
basis of Prime+Probe — disappears.

Implementation: a :class:`WayPartitionedCache` presents the same duck
interface as :class:`repro.memsys.cache.SetAssociativeCache` while
delegating to one sub-cache per domain, so the hierarchy needs no
changes; :func:`apply_way_partitioning` swaps a machine's SF and LLC for
partitioned versions at setup time.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..memsys.cache import SetAssociativeCache
from ..memsys.hierarchy import NOISE_OWNER, SHARED_OWNER
from ..memsys.machine import Machine

#: Domain label for traffic not belonging to a registered tenant
#: (background tenants, shared-line insertions without a tracked owner).
OTHER_DOMAIN = "other"


class WayPartitionedCache:
    """A sliced shared cache with per-domain way partitions.

    Args:
        name: Structure label.
        n_sets: Total (global) set count.
        policy_name: Replacement policy for every partition.
        rng: RNG for stochastic policies.
        partitions: domain -> number of ways reserved for that domain.
        domain_of_owner: Maps an owner annotation (core id, SHARED_OWNER,
            NOISE_OWNER) to a domain label.
    """

    def __init__(
        self,
        name: str,
        n_sets: int,
        policy_name: str,
        rng: random.Random,
        partitions: Dict[str, int],
        domain_of_owner: Callable[[int], str],
    ) -> None:
        if OTHER_DOMAIN not in partitions:
            raise ConfigurationError(
                f"partitions must reserve ways for {OTHER_DOMAIN!r}"
            )
        if any(w < 1 for w in partitions.values()):
            raise ConfigurationError("every partition needs at least one way")
        self.name = name
        self.n_sets = n_sets
        self.ways = sum(partitions.values())
        self._domain_of_owner = domain_of_owner
        self._parts: Dict[str, SetAssociativeCache] = {
            domain: SetAssociativeCache(
                f"{name}[{domain}]", n_sets, ways, policy_name, rng
            )
            for domain, ways in partitions.items()
        }

    #: Whether one tag may legitimately be resident in several parts at
    #: once (copy-on-access designs set this; the invariant checker's
    #: partition-overlap scan keys off it).
    allows_cross_part_copies = False

    def parts(self) -> Dict[str, SetAssociativeCache]:
        """Inner flat caches by domain label (checker/digest protocol)."""
        return self._parts

    # -- Interface mirrored from SetAssociativeCache ------------------------

    def _domain(self, owner: int) -> str:
        domain = self._domain_of_owner(owner)
        if domain not in self._parts:
            return OTHER_DOMAIN
        return domain

    def _holding_part(self, set_idx: int, tag: int) -> Optional[SetAssociativeCache]:
        for part in self._parts.values():
            if part.contains(set_idx, tag):
                return part
        return None

    def lookup(self, set_idx: int, tag: int) -> bool:
        part = self._holding_part(set_idx, tag)
        if part is None:
            return False
        return part.lookup(set_idx, tag)

    def contains(self, set_idx: int, tag: int) -> bool:
        return self._holding_part(set_idx, tag) is not None

    def owner_of(self, set_idx: int, tag: int) -> Optional[int]:
        part = self._holding_part(set_idx, tag)
        return None if part is None else part.owner_of(set_idx, tag)

    def occupancy(self, set_idx: int) -> int:
        return sum(p.occupancy(set_idx) for p in self._parts.values())

    def tags_in_set(self, set_idx: int) -> List[int]:
        return [t for p in self._parts.values() for t in p.tags_in_set(set_idx)]

    def peek_victim(self, set_idx: int) -> Optional[int]:
        """Best-effort: the eviction candidate of the fullest partition."""
        best = None
        for part in self._parts.values():
            candidate = part.peek_victim(set_idx)
            if candidate is not None:
                best = candidate
        return best

    def effective_ways(self, owner: int) -> int:
        """Associativity actually available to ``owner``'s insertions.

        The partition-aware probe the eviction-set machinery duck-types
        against (plain caches do not define it): under partitioning, the
        contention-relevant way count is the owner's domain budget, not
        the config total — an attacker sizing sets for the static
        associativity builds supersets that can never be minimized.
        """
        return self._parts[self._domain(owner)].ways

    def insert(
        self, set_idx: int, tag: int, owner: int = 0, update_owner: bool = True
    ):
        """Insert into the owner's partition; eviction stays inside it.

        If another domain already holds the tag (e.g. a line transitioning
        between tenants), it is moved: removed there, inserted here.
        """
        target = self._parts[self._domain(owner)]
        holder = self._holding_part(set_idx, tag)
        if holder is not None and holder is not target:
            holder.remove(set_idx, tag)
        return target.insert(set_idx, tag, owner, update_owner=update_owner)

    def remove(self, set_idx: int, tag: int) -> bool:
        part = self._holding_part(set_idx, tag)
        return part.remove(set_idx, tag) if part is not None else False

    def flush_all(self, now: int = 0) -> None:
        for part in self._parts.values():
            part.flush_all(now)

    @property
    def touched_sets(self) -> int:
        return max(p.touched_sets for p in self._parts.values())

    # Noise bookkeeping attaches to the background-tenant partition
    # (background insertions only ever land there).

    def noise_clock(self, set_idx: int) -> int:
        return self._parts[OTHER_DOMAIN].noise_clock(set_idx)

    def set_noise_clock(self, set_idx: int, now: int) -> None:
        self._parts[OTHER_DOMAIN].set_noise_clock(set_idx, now)

    def exchange_noise_clock(self, set_idx: int, now: int) -> int:
        return self._parts[OTHER_DOMAIN].exchange_noise_clock(set_idx, now)


def apply_way_partitioning(
    machine: Machine,
    core_domains: Dict[int, str],
    sf_partitions: Dict[str, int],
    llc_partitions: Optional[Dict[str, int]] = None,
) -> None:
    """Replace a machine's SF and LLC with way-partitioned versions.

    Must be called before any traffic (the shared caches start empty).

    Args:
        core_domains: core id -> domain label (tenant).
        sf_partitions / llc_partitions: domain -> reserved ways; must
            include :data:`OTHER_DOMAIN` for background/shared traffic.
            ``llc_partitions`` defaults to the SF assignment.
    """
    if llc_partitions is None:
        llc_partitions = dict(sf_partitions)
    hier = machine.hierarchy
    if hier.sf.touched_sets or hier.llc.touched_sets:
        raise ConfigurationError(
            "apply way partitioning before any shared-cache traffic"
        )

    def domain_of_owner(owner: int) -> str:
        if owner in (NOISE_OWNER, SHARED_OWNER):
            return OTHER_DOMAIN
        return core_domains.get(owner, OTHER_DOMAIN)

    cfg = machine.cfg
    rng = hier._rng
    hier.sf = WayPartitionedCache(
        "SF", cfg.llc.total_sets, cfg.sf_policy, rng, sf_partitions,
        domain_of_owner,
    )
    hier.llc = WayPartitionedCache(
        "LLC", cfg.llc.total_sets, cfg.llc_policy, rng, llc_partitions,
        domain_of_owner,
    )
