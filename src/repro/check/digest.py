"""Canonical machine-state digests and the recursive diff used as oracle.

The parity suites (``tests/test_dataplane_parity.py``,
``tests/test_kernel_parity.py``) and the differential fuzzer all collapse
a machine's observable state to the same dict — simulated clock, hierarchy
stats, noise event count, and a hash of every RNG stream's full
``getstate()`` — so a single digest comparison covers everything a trial
can depend on.

The dict shape here is load-bearing: the golden fingerprints pinned in the
parity suites are SHA-256 digests of exactly this structure.  Do not add,
rename, or reorder fields without recapturing the goldens.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List


def obj_digest(obj: Any) -> str:
    """16-hex-char SHA-256 of the canonical JSON form of ``obj``."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:16]


def rng_state_digests(machine) -> Dict[str, str]:
    """Digest of the full ``getstate()`` of every Machine RNG stream."""
    streams = {
        "hierarchy": machine.hierarchy._rng,
        "noise": machine.noise._rng,
        "preempt": machine._preempt_rng,
        "jitter": machine._jitter_rng,
    }
    return {name: obj_digest(rng.getstate()) for name, rng in streams.items()}


def machine_digest(machine) -> Dict[str, Any]:
    """The canonical observable-state dict (see module docstring)."""
    return {
        "now": machine.now,
        "stats": machine.hierarchy.stats.as_dict(),
        "noise_events": machine.noise.events,
        "rng": rng_state_digests(machine),
    }


def plane_digest(machine) -> str:
    """Deep digest of raw cache-plane content, strictly finer than
    :func:`machine_digest`.

    Folds in, for every structure (way partitions expanded): the tag and
    owner planes, the flat policy-state plane, per-set occupancy, per-set
    noise clocks, and — crucially — the ``_where`` tag index, so an index
    left stale by a checkpoint restore diverges here even when the planes
    themselves agree.  Each flat cache also contributes what the fused
    kernels accumulate in locals and fold once per call: its touched-set
    bytemap and count, its policy-operation counters, and an LRU table's
    stamp counters.  The reference oracle contributes its per-set tags,
    owners, noise clocks and policy-operation counters; the machine, its
    batch counters and the hierarchy's next noise tag.

    Unlike :func:`machine_digest`, this shape is *not* golden-pinned; it
    serves the snapshot round-trip suites and
    :func:`assert_digest_memo_blind`.  Like every digest it is blind to
    accelerator caches (translation memos, monitor-round recordings):
    those are derived state, never observable.
    """
    from ..memsys._reference import ReferenceSetAssociativeCache
    from ..memsys.cache import SetAssociativeCache
    from .invariants import _iter_caches

    planes: List[Any] = []
    for label, cache in _iter_caches(machine.hierarchy):
        if type(cache) is SetAssociativeCache:
            planes.append([
                label,
                [-1 if t is None else t for t in cache._tags],
                list(cache._owners),
                list(cache._state),
                list(cache._occ),
                list(cache._noise_t),
                sorted(cache._where.items()),
                list(cache._touched),
                cache._touched_count,
                [cache.policy_touches, cache.policy_fills,
                 cache.policy_victims],
                None if cache._lru is None
                else [cache._lru._stamp, cache._lru._inv_stamp],
            ])
        elif isinstance(cache, ReferenceSetAssociativeCache):
            planes.append([
                label,
                [
                    [
                        s,
                        [-1 if t is None else t for t in cset.tags],
                        list(cset.owners),
                        cset.noise_t,
                    ]
                    for s, cset in sorted(cache._sets.items())
                ],
                [cache.policy_touches, cache.policy_fills,
                 cache.policy_victims],
            ])
    # Composite wrappers (randomized indexes, partitions) may carry
    # state beyond their inner planes — residency maps, rekey epochs,
    # auto-rekey counters — published via ``snapshot_extra()``; fold it
    # in so a restore that left a wrapper map stale diverges here.
    hier = machine.hierarchy
    planes.append(["machine", machine.batch_calls, machine.batch_lines,
                   hier._noise_tag_next])
    for label, cache in (("llc", hier.llc), ("sf", hier.sf)):
        extra = getattr(cache, "snapshot_extra", None)
        if callable(extra):
            planes.append([f"{label}#extra", sorted_extra(extra())])
    return obj_digest(planes)


def sorted_extra(extra: Dict[str, Any]) -> List[Any]:
    """Canonical (order-stable) form of a wrapper's ``snapshot_extra``."""
    out: List[Any] = []
    for key in sorted(extra):
        value = extra[key]
        out.append([key, sorted(value.items()) if isinstance(value, dict)
                    else value])
    return out


def assert_digest_memo_blind(machine, ctx=None) -> None:
    """Assert no memo/snapshot cache leaks into the state digests.

    Takes a throwaway :func:`repro.memsys.snapshot.checkpoint` and drops
    every accelerator cache reachable from ``ctx`` (translation memos and
    monitor-round recordings, via ``invalidate_translations``), then
    asserts that neither :func:`machine_digest` nor :func:`plane_digest`
    moved.  The golden fingerprints depend on this blindness: a digest
    that folded in warm-up state would differ between a cold and a
    memo-warm run of the same trial.  Raises :class:`AssertionError`
    naming the leaked paths.
    """
    from ..memsys.snapshot import checkpoint

    before = [machine_digest(machine), plane_digest(machine)]
    checkpoint(machine, label="digest-blindness-probe")
    if ctx is not None:
        ctx.invalidate_translations()
    after = [machine_digest(machine), plane_digest(machine)]
    delta = diff_keys(before, after)
    if delta:
        raise AssertionError(
            f"digest is not memo-blind: {delta[:4]} moved after a "
            "checkpoint + accelerator-cache clear"
        )


def diff_keys(expected: Any, actual: Any, prefix: str = "") -> List[str]:
    """Paths at which two (JSON-shaped) values disagree.

    Recurses through dicts and lists; leaves are compared with ``==``.
    Returns ``[]`` when the values are identical — the fuzz oracle's
    verdict — and otherwise dotted paths like ``"stats.l1_hits"`` or
    ``"records.3"`` naming every point of divergence.
    """
    where = prefix or "$"
    if type(expected) is not type(actual):
        return [where]
    if isinstance(expected, dict):
        out: List[str] = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected or key not in actual:
                out.append(sub)
            else:
                out.extend(diff_keys(expected[key], actual[key], sub))
        return out
    if isinstance(expected, (list, tuple)):
        if len(expected) != len(actual):
            return [f"{where}#len"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            sub = f"{prefix}.{i}" if prefix else str(i)
            out.extend(diff_keys(e, a, sub))
        return out
    return [] if expected == actual else [where]
