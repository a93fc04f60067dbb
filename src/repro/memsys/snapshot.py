"""Exact, digest-verified machine checkpoints over the flat planes.

:func:`checkpoint` captures everything a trial's future behavior can
depend on — per-cache tag/owner/occupancy/policy-state planes, the
``_where`` tag index, per-set noise-reconciliation clocks, replacement
policy scalars (LRU stamp counters, keyed-victim draw counts), the
hierarchy stats block, the simulated clock and pending event heap, and
the full ``getstate()`` of every serial RNG stream — and
:func:`restore` puts a machine back bit-for-bit, verified against the
canonical :func:`~repro.check.digest.machine_digest` captured at
checkpoint time.

Restore cost is O(touched rows), not O(cache size): the planes'
existing dirty-set bytemap (``_touched``) tells both sides which sets
may differ, so only the union of rows touched at capture time and rows
touched since is rewritten.  A ``flush_all`` between checkpoint and
restore rebinds the planes and floors *every* noise clock (including
untouched sets), which the bytemap cannot see — each flush therefore
draws a globally unique *flush epoch* (:data:`repro.memsys.cache._EPOCHS`)
and an epoch mismatch downgrades that cache to a full plane rewrite.

Checkpoints deliberately exclude pure memo caches (translation planes,
lane plans, vec/construct memos, the ``CounterRng`` half-key memo): they
are derivable functions of state or of ``(seed, key)`` and restoring
around them cannot change observable behavior.  The digest verification at
restore is exactly the proof of that exclusion.

Works on all execution tiers: the flat plane
(:class:`~repro.memsys.cache.SetAssociativeCache`), the reference
oracle (:class:`~repro.memsys._reference.ReferenceSetAssociativeCache`,
snapshotted by policy-object deepcopy with RNG identity pinned), and
way-partitioned shared caches
(:class:`~repro.defenses.partition.WayPartitionedCache`, recursed).
"""

from __future__ import annotations

import copy
import re
from typing import Any, Dict, List, Optional, Tuple

from .cache import SetAssociativeCache

__all__ = [
    "MachineCheckpoint",
    "SnapshotParityError",
    "checkpoint",
    "restore",
    "checkpoint_key",
]

#: C-level scan for dirty-set bytes (values are only ever 0/1).
_DIRTY = re.compile(b"[^\x00]")


class SnapshotParityError(RuntimeError):
    """A restored machine's digest does not match the checkpoint's."""


class _PlaneSnap:
    """Full capture of one flat :class:`SetAssociativeCache`.

    Capture is all C-level copies (list/dict/bytes constructors); the
    sparse restore path only runs Python per *dirty* set.
    """

    __slots__ = (
        "epoch", "tags", "owners", "occ", "state", "where", "noise_t",
        "touched", "touched_count", "lru_stamp", "lru_inv", "vctr",
        "policy_touches", "policy_fills", "policy_victims",
    )

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.epoch = cache._flush_epoch
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
        ctr = getattr(cache._pol, "_ctr", None)
        self.vctr = dict(ctr) if ctr is not None else None
        self.policy_touches = cache.policy_touches
        self.policy_fills = cache.policy_fills
        self.policy_victims = cache.policy_victims

    def restore(self, cache: SetAssociativeCache) -> None:
        if cache._flush_epoch != self.epoch:
            # A flush_all happened on one side of the checkpoint: the
            # planes were rebound and every noise clock floored, which
            # the dirty bytemap cannot account for.  Full rewrite.
            cache._tags = list(self.tags)
            cache._owners = list(self.owners)
            cache._occ = list(self.occ)
            cache._state = list(self.state)
            cache._noise_t = list(self.noise_t)
            cache._touched = bytearray(self.touched)
            cache._flush_epoch = self.epoch
        else:
            # Same flush generation: any row not dirty on either side
            # is untouched since that flush in both states, hence
            # already identical.  Rewrite only the dirty union.
            union = (
                int.from_bytes(self.touched, "little")
                | int.from_bytes(cache._touched, "little")
            ).to_bytes(len(self.touched), "little")
            ways = cache.ways
            ps = cache._pstride
            tags, owners, state = cache._tags, cache._owners, cache._state
            stags, sowners, sstate = self.tags, self.owners, self.state
            occ, socc = cache._occ, self.occ
            nt, snt = cache._noise_t, self.noise_t
            for m in _DIRTY.finditer(union):
                i = m.start()
                b = i * ways
                e = b + ways
                tags[b:e] = stags[b:e]
                owners[b:e] = sowners[b:e]
                occ[i] = socc[i]
                nt[i] = snt[i]
                sb = i * ps
                state[sb:sb + ps] = sstate[sb:sb + ps]
            cache._touched[:] = self.touched
        cache._where = dict(self.where)
        cache._touched_count = self.touched_count
        lru = cache._lru
        if lru is not None:
            lru._stamp = self.lru_stamp
            lru._inv_stamp = self.lru_inv
        if self.vctr is not None:
            cache._pol._ctr = dict(self.vctr)
        cache.policy_touches = self.policy_touches
        cache.policy_fills = self.policy_fills
        cache.policy_victims = self.policy_victims


class _RefSnap:
    """Deepcopy capture of the reference dict-of-sets oracle.

    Policy objects hold a reference to the cache's (shared) serial RNG
    and, in counter mode, to the CounterRng — both are pinned by
    identity through the deepcopy so the snapshot shares them rather
    than cloning their state (RNG state is captured once at machine
    level).  Not a hot path, exactly like the tier it snapshots.
    """

    __slots__ = (
        "sets", "saved_vctr", "saved_clocks", "noise_floor",
        "policy_touches", "policy_fills", "policy_victims",
    )

    @staticmethod
    def _pin(cache) -> Dict[int, Any]:
        memo: Dict[int, Any] = {id(cache._rng): cache._rng}
        if cache._keyed is not None:
            memo[id(cache._keyed[0])] = cache._keyed[0]
        return memo

    def __init__(self, cache) -> None:
        self.sets = copy.deepcopy(cache._sets, self._pin(cache))
        self.saved_vctr = dict(cache._saved_vctr)
        self.saved_clocks = dict(cache._saved_clocks)
        self.noise_floor = cache._noise_floor
        self.policy_touches = cache.policy_touches
        self.policy_fills = cache.policy_fills
        self.policy_victims = cache.policy_victims

    def restore(self, cache) -> None:
        cache._sets = copy.deepcopy(self.sets, self._pin(cache))
        cache._saved_vctr = dict(self.saved_vctr)
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
    built machine of identical configuration (the content-addressed
    trial-prefix store in :mod:`repro.exec.prefix` does the latter).
    """

    __slots__ = (
        "label", "caches", "now", "event_seq", "events",
        "batch_calls", "batch_lines", "stats", "noise_events",
        "rng_states", "used_frames", "noise_tag_next",
        "sf_reuse_ctr", "l2v_ctr", "digest",
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
        self.sf_reuse_ctr = dict(hier._sf_reuse_ctr)
        self.l2v_ctr = dict(hier._l2v_ctr)
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
    hier._sf_reuse_ctr = dict(cp.sf_reuse_ctr)
    hier._l2v_ctr = dict(cp.l2v_ctr)
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
    the same key; fuzz artifacts and the trial-prefix store record it
    so a replay can assert it reconstructed the same state.
    """
    from ..check.digest import obj_digest

    return obj_digest({"label": cp.label, "digest": cp.digest})
