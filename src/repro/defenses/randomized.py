"""Randomized-index defenses for the shared SF/LLC (CEASER / skew style).

Two hardware defense families from the paper's mitigation survey replace
the fixed address-to-set mapping of the shared caches with keyed index
functions (:mod:`repro.memsys.randomize`):

* :class:`CeaserCache` — one keyed, epoch-rekeyed index function over
  the whole cache (CEASER, Qureshi MICRO'18).  Congruence in the
  attacker's address view no longer implies congruence in the cache, so
  eviction sets built from page-offset/slice reasoning stop working; a
  periodic :meth:`~CeaserCache.rekey` bounds how long any discovered
  congruence stays valid.
* :class:`SkewedCache` — skewed associativity (CEASER-S, Scatter-Cache):
  the ways are split into skews, each with its *own* keyed index
  function, and a fill picks a skew (free way first, else a keyed
  choice), so two lines that collide in one skew are almost never
  congruent in another.

Both present the duck interface of
:class:`~repro.memsys.cache.SetAssociativeCache` — exactly like
:class:`~repro.defenses.partition.WayPartitionedCache` — so the
hierarchy and all execution tiers run unmodified: the optimized fast
paths and fused kernels disengage on the foreign type and take the
generic route, bit-identically on every tier.

Placement is keyed by the **address alone**: the hierarchy tags shared
caches with the full line address, so the internal index is
``index_of(tag % n_sets, tag)`` and the ``set_idx`` the caller passes is
ignored for location (it is derived from the same address and carries no
extra information).  That mirrors real randomized caches — the index is
a keyed function of the address — and makes every call site locate a
line correctly, including the SF-victim reinstall path that passes the
*inserting* line's set index rather than the victim's.

Modeling notes (honest limitations):

* ``rekey`` *invalidates* remapped lines instead of relocating them
  (rekey-by-flush); real CEASER relocates in the background.  Either
  way the attacker's congruence knowledge dies with the epoch.
* ``peek_victim`` returns ``None``: with a keyed index there is no
  externally predictable eviction candidate, which is precisely what
  degrades Prime+Scope-style monitoring.
* The per-set noise-reconciliation clocks stay keyed by the *external*
  set index (they meter background pressure per observable set, not per
  physical row), so the lazy-noise machinery and the invariant
  checker's monotonicity scan work unchanged.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..memsys.cache import SetAssociativeCache
from ..memsys.randomize import (
    KeyedSetIndex,
    derive_master_key,
    epoch_key,
    keyed_choice,
)


class _RandomizedSharedCache:
    """Shared plumbing of the keyed-index defense caches.

    Subclasses own the placement logic; this base keeps the external
    residency map ``_ext`` (tag -> external set index as last inserted,
    serving the observable read-only views), the epoch/access
    bookkeeping for auto-rekey, and the ``parts()`` /
    ``snapshot_extra()`` / ``validate()`` protocol the invariant checker
    and :func:`~repro.check.digest.plane_digest` generalize over.
    """

    def __init__(
        self, name: str, n_sets: int, ways: int, epoch_accesses: int
    ) -> None:
        if epoch_accesses < 0:
            raise ConfigurationError("epoch_accesses must be >= 0")
        self.name = name
        self.n_sets = n_sets
        self.ways = ways
        #: Inserts per automatic rekey epoch (0 = manual rekey only).
        self.epoch_accesses = epoch_accesses
        self._accesses = 0
        self._ext: Dict[int, int] = {}

    # -- placement hooks (subclass) -----------------------------------------

    def _locate(self, tag: int):
        """(inner cache, internal index) holding ``tag``, or ``None``."""
        raise NotImplementedError

    def rekey(self) -> List[Tuple[int, int]]:
        """Advance the epoch; returns the invalidated (tag, ext) lines."""
        raise NotImplementedError

    def _maybe_rekey(self) -> None:
        if not self.epoch_accesses:
            return
        self._accesses += 1
        if self._accesses >= self.epoch_accesses:
            self._accesses = 0
            self.rekey()

    # -- SetAssociativeCache duck interface ---------------------------------
    # set_idx is accepted (duck compatibility) but never used for
    # location: the keyed index is a function of the tag (see module
    # docstring).

    def lookup(self, set_idx: int, tag: int) -> bool:
        located = self._locate(tag)
        if located is None:
            return False
        inner, idx = located
        return inner.lookup(idx, tag)

    def contains(self, set_idx: int, tag: int) -> bool:
        return self._locate(tag) is not None

    def owner_of(self, set_idx: int, tag: int) -> Optional[int]:
        located = self._locate(tag)
        if located is None:
            return None
        inner, idx = located
        return inner.owner_of(idx, tag)

    def remove(self, set_idx: int, tag: int) -> bool:
        located = self._locate(tag)
        if located is None:
            return False
        inner, idx = located
        self._ext.pop(tag, None)
        return inner.remove(idx, tag)

    def flush_all(self, now: int = 0) -> None:
        for inner in self.parts().values():
            inner.flush_all(now)
        self._ext.clear()

    # External (observable) views — derived from the residency map; the
    # product never calls these on the shared caches, tests do.

    def occupancy(self, set_idx: int) -> int:
        return sum(1 for s in self._ext.values() if s == set_idx)

    def tags_in_set(self, set_idx: int) -> List[int]:
        return [t for t, s in self._ext.items() if s == set_idx]

    def peek_victim(self, set_idx: int) -> Optional[int]:
        """No externally predictable eviction candidate under a keyed
        index — exactly the Prime+Scope degradation the defense buys."""
        return None

    @property
    def touched_sets(self) -> int:
        return max(p.touched_sets for p in self.parts().values())

    # Noise clocks stay keyed by the external set (see module docstring);
    # the first part carries the plane.

    def _clock_part(self) -> SetAssociativeCache:
        return next(iter(self.parts().values()))

    def noise_clock(self, set_idx: int) -> int:
        return self._clock_part().noise_clock(set_idx)

    def set_noise_clock(self, set_idx: int, now: int) -> None:
        self._clock_part().set_noise_clock(set_idx, now)

    def exchange_noise_clock(self, set_idx: int, now: int) -> int:
        return self._clock_part().exchange_noise_clock(set_idx, now)

    # -- checker / digest protocol ------------------------------------------

    def parts(self) -> Dict[str, SetAssociativeCache]:
        """Inner flat caches, keyed by a stable label (checker protocol)."""
        raise NotImplementedError

    def resident_tags(self):
        return set(self._ext)

    def snapshot_extra(self) -> Dict[str, Any]:
        """Wrapper-local state beyond the inner planes, which
        :func:`~repro.check.digest.plane_digest` folds in."""
        return {
            "ext": dict(self._ext),
            "accesses": self._accesses,
            "epochs": self._epochs(),
        }

    def _epochs(self) -> List[int]:
        raise NotImplementedError

    def validate(self) -> None:
        """Internal-consistency check (invariant-checker protocol).

        Raises :class:`ConfigurationError` when the residency map and the
        inner planes disagree, a tag is resident in more than one
        skew/part, or a resident tag is not at its keyed index under the
        current epoch; pure reads only.
        """
        resident: Dict[int, int] = {}
        for part in self.parts().values():
            for key in part._where:
                tag = key // part.n_sets
                if tag in resident:
                    raise ConfigurationError(
                        f"{self.name}: tag {tag} resident in more than one "
                        f"skew/part"
                    )
                resident[tag] = key % part.n_sets
        if set(resident) != set(self._ext):
            missing = set(resident) ^ set(self._ext)
            raise ConfigurationError(
                f"{self.name}: residency map out of sync with planes for "
                f"tags {sorted(missing)[:4]}"
            )
        for tag, idx in resident.items():
            located = self._locate(tag)
            if located is None or located[1] != idx:
                raise ConfigurationError(
                    f"{self.name}: tag {tag} resident at internal set "
                    f"{idx} but the keyed index derives "
                    f"{None if located is None else located[1]}"
                )


class CeaserCache(_RandomizedSharedCache):
    """A shared cache behind one keyed, epoch-rekeyed index function.

    Args:
        name: Structure label.
        n_sets / ways: Geometry (matches the cache it replaces).
        policy_name: Replacement policy of the backing planes.
        rng: Shared cache RNG (stochastic policies).
        seed: Key seed (stands in for the per-boot hardware key).
        epoch_accesses: Inserts per automatic rekey (0 = manual only).
    """

    kind = "ceaser"

    def __init__(
        self,
        name: str,
        n_sets: int,
        ways: int,
        policy_name: str,
        rng: random.Random,
        seed: int = 0,
        epoch_accesses: int = 0,
    ) -> None:
        super().__init__(name, n_sets, ways, epoch_accesses)
        self._index = KeyedSetIndex(n_sets, seed, label=name)
        self._inner = SetAssociativeCache(
            f"{name}[rand]", n_sets, ways, policy_name, rng
        )

    @property
    def epoch(self) -> int:
        return self._index.epoch

    def parts(self) -> Dict[str, SetAssociativeCache]:
        return {"rand": self._inner}

    def _place(self, tag: int) -> int:
        """The keyed internal index of an address this epoch."""
        return self._index.index_of(tag % self.n_sets, tag)

    def _locate(self, tag: int):
        idx = self._place(tag)
        if self._inner.contains(idx, tag):
            return self._inner, idx
        return None

    def insert(
        self, set_idx: int, tag: int, owner: int = 0, update_owner: bool = True
    ):
        evicted = self._inner.insert(
            self._place(tag), tag, owner, update_owner=update_owner
        )
        self._ext[tag] = set_idx
        if evicted is not None:
            self._ext.pop(evicted[0], None)
        self._maybe_rekey()
        return evicted

    def rekey(self) -> List[Tuple[int, int]]:
        """New epoch key; invalidates exactly the lines whose index moved.

        Lines whose keyed index is unchanged under the new key stay
        resident (their placement is still correct); everything else is
        dropped from the planes (rekey-by-flush).  Returns the
        invalidated ``(tag, external set)`` pairs, sorted by tag.
        """
        old = [
            (tag, ext, self._place(tag))
            for tag, ext in sorted(self._ext.items())
        ]
        self._index.rekey()
        invalidated: List[Tuple[int, int]] = []
        for tag, ext, old_idx in old:
            if self._place(tag) != old_idx:
                self._inner.remove(old_idx, tag)
                del self._ext[tag]
                invalidated.append((tag, ext))
        return invalidated

    def _epochs(self) -> List[int]:
        return [self._index.epoch]


class SkewedCache(_RandomizedSharedCache):
    """Skewed associativity: per-way-group keyed index functions.

    The ``ways`` are split as evenly as possible into ``n_skews`` groups,
    each backed by its own planes and its own :class:`KeyedSetIndex`.  A
    fill probes every skew at its own index; a miss lands in the first
    skew with a free way at its index, else in a keyed choice between
    the (full) skews — deterministic in the tag, so every execution tier
    derives the same placement without consuming shared RNG state.
    """

    kind = "skew"

    def __init__(
        self,
        name: str,
        n_sets: int,
        ways: int,
        policy_name: str,
        rng: random.Random,
        seed: int = 0,
        n_skews: int = 2,
        epoch_accesses: int = 0,
    ) -> None:
        if n_skews < 2:
            raise ConfigurationError("skewed cache needs at least two skews")
        if ways < n_skews:
            raise ConfigurationError(
                f"cannot split {ways} ways into {n_skews} skews"
            )
        super().__init__(name, n_sets, ways, epoch_accesses)
        self.n_skews = n_skews
        base, extra = divmod(ways, n_skews)
        self._skews: List[SetAssociativeCache] = []
        self._indexes: List[KeyedSetIndex] = []
        for i in range(n_skews):
            skew_ways = base + (1 if i < extra else 0)
            self._skews.append(
                SetAssociativeCache(
                    f"{name}[skew{i}]", n_sets, skew_ways, policy_name, rng
                )
            )
            self._indexes.append(
                KeyedSetIndex(n_sets, seed, label=f"{name}#skew{i}")
            )
        self._select_master = derive_master_key(f"{name}#select", seed)
        self._select_key = epoch_key(self._select_master, 0)

    @property
    def epoch(self) -> int:
        return self._indexes[0].epoch

    def parts(self) -> Dict[str, SetAssociativeCache]:
        return {f"skew{i}": skew for i, skew in enumerate(self._skews)}

    def _place(self, skew: int, tag: int) -> int:
        """The keyed internal index of an address in ``skew`` this epoch."""
        return self._indexes[skew].index_of(tag % self.n_sets, tag)

    def _locate(self, tag: int):
        for i, skew in enumerate(self._skews):
            idx = self._place(i, tag)
            if skew.contains(idx, tag):
                return skew, idx
        return None

    def insert(
        self, set_idx: int, tag: int, owner: int = 0, update_owner: bool = True
    ):
        located = self._locate(tag)
        if located is not None:  # hit: recency touch in the holding skew
            inner, idx = located
            evicted = inner.insert(idx, tag, owner, update_owner=update_owner)
            self._ext[tag] = set_idx
        else:
            indices = [self._place(i, tag) for i in range(self.n_skews)]
            choice = None
            for i, skew in enumerate(self._skews):
                if skew.occupancy(indices[i]) < skew.ways:
                    choice = i
                    break
            if choice is None:
                choice = keyed_choice(self._select_key, tag, self.n_skews)
            evicted = self._skews[choice].insert(
                indices[choice], tag, owner, update_owner=update_owner
            )
            self._ext[tag] = set_idx
            if evicted is not None:
                self._ext.pop(evicted[0], None)
        self._maybe_rekey()
        return evicted

    def rekey(self) -> List[Tuple[int, int]]:
        """New epoch keys in every skew; invalidates the remapped lines."""
        old = []
        for tag, ext in sorted(self._ext.items()):
            located = self._locate(tag)
            if located is not None:
                old.append((tag, ext, self._skews.index(located[0]),
                            located[1]))
        for index in self._indexes:
            index.rekey()
        self._select_key = epoch_key(self._select_master, self.epoch)
        invalidated: List[Tuple[int, int]] = []
        for tag, ext, i, old_idx in old:
            if self._place(i, tag) != old_idx:
                self._skews[i].remove(old_idx, tag)
                del self._ext[tag]
                invalidated.append((tag, ext))
        return invalidated

    def _epochs(self) -> List[int]:
        return [index.epoch for index in self._indexes]
