"""Exact, digest-verified machine checkpoints over the flat planes.

:func:`checkpoint` captures everything a trial's future behavior can
depend on — per-cache tag/owner/occupancy/policy-state planes, the
``_where`` tag index, per-set noise-reconciliation clocks, replacement
policy scalars (LRU stamp counters), the hierarchy stats block, the
simulated clock and pending event heap, and the full ``getstate()`` of
every serial RNG stream — and
:func:`restore` puts a machine back bit-for-bit, verified against the
canonical :func:`~repro.check.digest.machine_digest` captured at
checkpoint time.

Restore rewrites every plane whole (C-level list/dict copies): its
callers — the fuzzer's ``restore`` op and
:func:`~repro.check.digest.assert_digest_memo_blind` — restore a few
times per trace, so no per-row bookkeeping pays for itself.

Checkpoints deliberately exclude pure memo caches (translation planes,
the monitor-round memo): they are derivable functions of state and
restoring around them cannot change observable behavior.  The digest
verification at restore is exactly the proof of that exclusion.

Works on all execution tiers: the flat plane
(:class:`~repro.memsys.cache.SetAssociativeCache`), the reference
oracle (:class:`~repro.memsys._reference.ReferenceSetAssociativeCache`,
snapshotted by policy-object deepcopy with RNG identity pinned), and
way-partitioned shared caches
(:class:`~repro.defenses.partition.WayPartitionedCache`, recursed).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from .cache import SetAssociativeCache

__all__ = [
    "MachineCheckpoint",
    "SnapshotParityError",
    "checkpoint",
    "restore",
    "checkpoint_key",
]

class SnapshotParityError(RuntimeError):
    """A restored machine's digest does not match the checkpoint's."""


class _PlaneSnap:
    """Full capture of one flat :class:`SetAssociativeCache`.

    Capture and restore are both whole-plane C-level copies
    (list/dict/bytes constructors).
    """

    __slots__ = (
        "tags", "owners", "occ", "state", "where", "noise_t",
        "touched", "touched_count", "lru_stamp", "lru_inv",
        "policy_touches", "policy_fills", "policy_victims",
    )

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.tags = list(cache._tags)
        self.owners = list(cache._owners)
        self.occ = list(cache._occ)
        self.state = list(cache._state)
        self.where = dict(cache._where)
        self.noise_t = list(cache._noise_t)
        self.touched = bytes(cache._touched)
        self.touched_count = cache._touched_count
        lru = cache._lru
        if lru is not None:
            self.lru_stamp = lru._stamp
            self.lru_inv = lru._inv_stamp
        else:
            self.lru_stamp = self.lru_inv = None
        self.policy_touches = cache.policy_touches
        self.policy_fills = cache.policy_fills
        self.policy_victims = cache.policy_victims

    def restore(self, cache: SetAssociativeCache) -> None:
        cache._tags = list(self.tags)
        cache._owners = list(self.owners)
        cache._occ = list(self.occ)
        cache._state = list(self.state)
        cache._noise_t = list(self.noise_t)
        cache._touched = bytearray(self.touched)
        cache._where = dict(self.where)
        cache._touched_count = self.touched_count
        lru = cache._lru
        if lru is not None:
            lru._stamp = self.lru_stamp
            lru._inv_stamp = self.lru_inv
        cache.policy_touches = self.policy_touches
        cache.policy_fills = self.policy_fills
        cache.policy_victims = self.policy_victims


class _RefSnap:
    """Deepcopy capture of the reference dict-of-sets oracle.

    Policy objects hold a reference to the cache's (shared) serial RNG,
    pinned by identity through the deepcopy so the snapshot shares it
    rather than cloning its state (RNG state is captured once at machine
    level).  Not a hot path, exactly like the tier it snapshots.
    """

    __slots__ = (
        "sets", "saved_clocks", "noise_floor",
        "policy_touches", "policy_fills", "policy_victims",
    )

    @staticmethod
    def _pin(cache) -> Dict[int, Any]:
        return {id(cache._rng): cache._rng}

    def __init__(self, cache) -> None:
        self.sets = copy.deepcopy(cache._sets, self._pin(cache))
        self.saved_clocks = dict(cache._saved_clocks)
        self.noise_floor = cache._noise_floor
        self.policy_touches = cache.policy_touches
        self.policy_fills = cache.policy_fills
        self.policy_victims = cache.policy_victims

    def restore(self, cache) -> None:
        cache._sets = copy.deepcopy(self.sets, self._pin(cache))
        cache._saved_clocks = dict(self.saved_clocks)
        cache._noise_floor = self.noise_floor
        cache.policy_touches = self.policy_touches
        cache.policy_fills = self.policy_fills
        cache.policy_victims = self.policy_victims


class _PartSnap:
    """Recursive capture of any composite exposing the ``parts()``
    protocol (way partitions, randomized wrappers, soft copies).

    Wrapper-local state beyond the inner planes — residency maps, rekey
    epochs, auto-rekey counters — travels through the optional
    ``snapshot_extra()`` / ``restore_extra()`` pair, so new composite
    caches never need snapshot-layer edits.
    """

    __slots__ = ("parts", "extra")

    def __init__(self, cache) -> None:
        self.parts = {
            domain: _snap_cache(part) for domain, part in cache.parts().items()
        }
        extra = getattr(cache, "snapshot_extra", None)
        self.extra = extra() if callable(extra) else None

    def restore(self, cache) -> None:
        parts = cache.parts()
        for domain, snap in self.parts.items():
            snap.restore(parts[domain])
        if self.extra is not None:
            cache.restore_extra(self.extra)


def _snap_cache(cache):
    if isinstance(cache, SetAssociativeCache):
        return _PlaneSnap(cache)
    if callable(getattr(cache, "parts", None)):
        return _PartSnap(cache)
    if hasattr(cache, "_sets"):
        return _RefSnap(cache)
    raise TypeError(f"cannot snapshot cache type {type(cache).__name__}")


def _machine_caches(machine) -> List[Any]:
    hier = machine.hierarchy
    return [*hier.l1, *hier.l2, hier.llc, hier.sf]


class MachineCheckpoint:
    """One exact machine state capture (see module docstring).

    Immutable once taken; a single checkpoint may be restored any
    number of times, onto the machine it came from or onto a freshly
    built machine of identical configuration.
    """

    __slots__ = (
        "label", "caches", "now", "event_seq", "events",
        "batch_calls", "batch_lines", "stats", "noise_events",
        "rng_states", "used_frames", "noise_tag_next", "digest",
    )

    def __init__(self, machine, label: Optional[str]) -> None:
        hier = machine.hierarchy
        self.label = label
        self.caches = [_snap_cache(c) for c in _machine_caches(machine)]
        self.now = machine.now
        self.event_seq = machine._event_seq
        self.events = tuple(machine._events)
        self.batch_calls = machine.batch_calls
        self.batch_lines = machine.batch_lines
        stats = hier.stats
        self.stats = tuple(
            getattr(stats, name) for name in type(stats).__slots__
        )
        self.noise_events = machine.noise.events
        self.rng_states = {
            "hierarchy": hier._rng.getstate(),
            "noise": machine.noise._rng.getstate(),
            "preempt": machine._preempt_rng.getstate(),
            "jitter": machine._jitter_rng.getstate(),
            "aspace": machine._aspace_rng.getstate(),
        }
        self.used_frames = frozenset(machine._used_frames)
        self.noise_tag_next = hier._noise_tag_next
        from ..check.digest import machine_digest

        self.digest = machine_digest(machine)


def checkpoint(machine, label: Optional[str] = None) -> MachineCheckpoint:
    """Capture the machine's exact observable state."""
    return MachineCheckpoint(machine, label)


def restore(machine, cp: MachineCheckpoint, verify: bool = True) -> None:
    """Put ``machine`` back into checkpoint state, bit for bit.

    With ``verify`` (the default) the restored machine's canonical
    digest is compared against the one captured at checkpoint time and
    a :class:`SnapshotParityError` naming the divergent paths is raised
    on mismatch — the digest is computed from live structures only, so
    equality proves no stale memo or index survived the restore.
    """
    caches = _machine_caches(machine)
    if len(caches) != len(cp.caches):
        raise SnapshotParityError(
            f"checkpoint has {len(cp.caches)} caches, machine has "
            f"{len(caches)} — structure changed since capture"
        )
    for cache, snap in zip(caches, cp.caches):
        snap.restore(cache)
    hier = machine.hierarchy
    machine.now = cp.now
    machine._event_seq = cp.event_seq
    machine._events = list(cp.events)
    machine.batch_calls = cp.batch_calls
    machine.batch_lines = cp.batch_lines
    stats = hier.stats
    for name, value in zip(type(stats).__slots__, cp.stats):
        setattr(stats, name, value)
    machine.noise.events = cp.noise_events
    hier._rng.setstate(cp.rng_states["hierarchy"])
    machine.noise._rng.setstate(cp.rng_states["noise"])
    machine._preempt_rng.setstate(cp.rng_states["preempt"])
    machine._jitter_rng.setstate(cp.rng_states["jitter"])
    machine._aspace_rng.setstate(cp.rng_states["aspace"])
    # In place, not rebound: every AddressSpace spawned from this machine
    # aliases the frame set, and a rebind would silently fork them from
    # the allocator (stale aliasing — frames double-allocated after
    # restore).
    machine._used_frames.clear()
    machine._used_frames.update(cp.used_frames)
    hier._noise_tag_next = cp.noise_tag_next
    if verify:
        from ..check.digest import diff_keys, machine_digest

        digest = machine_digest(machine)
        if digest != cp.digest:
            raise SnapshotParityError(
                "restored state diverges from checkpoint at: "
                + ", ".join(diff_keys(cp.digest, digest))
            )


def checkpoint_key(cp: MachineCheckpoint) -> str:
    """Stable content address of a checkpoint (digest + label).

    Two checkpoints of bit-identical machine states (same label) get
    the same key; fuzz artifacts record it so a replay can assert it reconstructed the same state.
    """
    from ..check.digest import obj_digest

    return obj_digest({"label": cp.label, "digest": cp.digest})
