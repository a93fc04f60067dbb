"""Shared digest helpers for the parity suites and the fuzz oracle.

The parity suites (data plane, kernels, counter RNG, snapshots, defenses)
and the differential fuzzer all fingerprint a machine the same way.  The
implementation lives in :mod:`repro.check.digest` — the fuzz oracle diffs
exactly what the golden fingerprints pin — and this module re-exports it
under the historical helper names the suites use.
"""

from __future__ import annotations

from repro.check.digest import diff_keys, machine_digest, obj_digest, rng_state_digests

#: sha256(json(obj, sort_keys))[:16] — the golden-fingerprint hash.
_h = obj_digest

#: Digest of every Machine RNG stream's full ``getstate()``.
_rng_states = rng_state_digests

#: The canonical observable-state dict the goldens are captured from.
_machine_digest = machine_digest

__all__ = [
    "_h",
    "_machine_digest",
    "_rng_states",
    "diff_keys",
    "machine_digest",
    "obj_digest",
    "rng_state_digests",
]
