"""Shared helpers for the parity suites: digests and monitor set-up.

The parity suites (data plane, kernels, defenses) and the differential
fuzzer all fingerprint a machine the same way.  The implementation lives
in :mod:`repro.check.digest` — the fuzz oracle diffs exactly what the
golden fingerprints pin — and this module re-exports it under the
historical helper names the suites use.  The monitor-loop
suites also share how they build an eviction set and its victim.
"""

from __future__ import annotations

import contextlib

from repro.check.digest import diff_keys, machine_digest, obj_digest, rng_state_digests
from repro.core.evset.types import EvictionSet
from repro.memsys import kernels_disabled, vec_disabled

#: sha256(json(obj, sort_keys))[:16] — the golden-fingerprint hash.
_h = obj_digest

#: Digest of every Machine RNG stream's full ``getstate()``.
_rng_states = rng_state_digests

#: The canonical observable-state dict the goldens are captured from.
_machine_digest = machine_digest

#: The execution paths the monitor parity suites compare.
PATHS = ["unfused", "kernels", "vec"]


@contextlib.contextmanager
def _path_guard(path: str):
    """unfused -> no kernels; kernels -> the VecKernels bundle with the
    monitor-round memo off (live rounds); vec -> the default resolution."""
    if path == "unfused":
        with kernels_disabled():
            yield
    elif path == "kernels":
        with vec_disabled():
            yield
    else:
        yield


def _congruent_evset(ctx, kind: str, n: int, offset: int = 0x2C0):
    """Assemble an eviction set from known-congruent lines (no pruning)."""
    machine = ctx.machine
    target_va = ctx.alloc_pages(1)[0] + offset
    tset = machine.hierarchy.shared_set_index(ctx.line(target_va))
    vas = []
    while len(vas) < n:
        for page in ctx.alloc_pages(32):
            va = page + offset
            if machine.hierarchy.shared_set_index(ctx.line(va)) == tset:
                vas.append(va)
    return EvictionSet(kind=kind, vas=vas[:n], target_va=target_va), tset


def _victim_line(machine, tset: int) -> int:
    """A line of a foreign address space in shared set ``tset``."""
    space = machine.new_address_space()
    while True:
        line = space.translate_line(space.alloc_page() + 0x2C0)
        if machine.hierarchy.shared_set_index(line) == tset:
            return line


def _schedule_victim(machine, line: int, stores: int, interval: int) -> None:
    """A victim on core 3 stores to ``line`` every ``interval`` cycles."""
    for i in range(stores):
        machine.schedule(
            machine.now + 3_000 + i * interval,
            lambda t, line=line: machine.hierarchy.access(
                3, line, t, write=True),
        )


__all__ = [
    "PATHS",
    "_congruent_evset",
    "_h",
    "_machine_digest",
    "_path_guard",
    "_rng_states",
    "_schedule_victim",
    "_victim_line",
    "diff_keys",
    "machine_digest",
    "obj_digest",
    "rng_state_digests",
]
