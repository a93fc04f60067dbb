"""Mutation self-test: prove the differential harness catches seeded faults.

A fuzzer that reports "zero divergences" is only evidence if it would
have reported one.  This module injects one deliberate bug at a time
(:data:`MUTATIONS`):

* ``lru-mru-victim`` — :class:`~repro.memsys.policy_tables.LRUTable`
  evicting the *most* recently used way instead of the least, in the flat
  data plane only (the reference oracle's object-based policies are
  untouched);
* ``kernel-lru-touch`` — the fused kernels' cascade description
  (:data:`repro.memsys.kernels.POLICY_FORMS`) writing the previous LRU
  stamp on a hit touch, so only the generated kernels carry it.

For each, it demonstrates that:

1. differential fuzzing flags a divergence within a few seeds;
2. the shrinker reduces the diverging trace to a minimal replayable
   artifact;
3. the shrunk trace runs clean once the mutation is lifted (the fault,
   not the harness, was the problem).

A patch must be active *before* machine construction: the flat cache
binds ``self._pt_victim = pol.victim`` at ``__init__`` time, and a kernel
bundle binds its generated kernels on first use.  :func:`run_selftest`
keeps the mutation inside the predicate passed to the shrinker for
exactly that reason — every probe rebuilds its machines under the patch.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Any, Dict, Optional

from ..memsys import kernels
from ..memsys.policy_tables import LRUTable
from .fuzz import (
    DEFAULT_ARTIFACT_DIR,
    FuzzConfig,
    generate_trace,
    run_tiers,
    write_artifact,
)
from .shrink import shrink_trace


@contextlib.contextmanager
def replacement_policy_mutation():
    """Swap LRUTable's victim choice to MRU (flat data plane only).

    The reference oracle builds its policies through
    ``repro.memsys.replacement.make_policy`` and is unaffected, so every
    machine built under this context diverges from the reference tier as
    soon as a full set takes a fill.
    """
    original = LRUTable.victim

    def mru_victim(self, state, base):
        hi = base + self.ways
        seg = state[base:hi]
        return seg.index(max(seg))

    LRUTable.victim = mru_victim
    try:
        yield
    finally:
        LRUTable.victim = original


@contextlib.contextmanager
def kernel_description_mutation():
    """Make the cascade description's LRU hit touch write the previous
    stamp (generated kernels only).

    The batched tier's ``SetAssociativeCache.lookup`` keeps its own touch,
    so a kernels-tier run leaves different LRU stamps than the batched
    tier as soon as a generated kernel touches an LRU line.  Compiled
    kernels are dropped on entry and exit, so the next kernel bundle
    compiles the description in force.
    """
    lru = kernels.POLICY_FORMS["lru"]
    original = lru["touch"]
    lru["touch"] = original.replace("] = stamp\n", "] = stamp - 1\n")
    kernels._GENERATED.clear()
    try:
        yield
    finally:
        lru["touch"] = original
        kernels._GENERATED.clear()


#: The injectable faults, by name.
MUTATIONS = {
    "lru-mru-victim": replacement_policy_mutation,
    "kernel-lru-touch": kernel_description_mutation,
}


def run_selftest(
    cfg: Optional[FuzzConfig] = None,
    max_seeds: int = 25,
    base_seed: int = 0,
    artifact_dir: Optional[Path] = None,
    mutation: str = "lru-mru-victim",
) -> Dict[str, Any]:
    """Inject ``mutation``, catch it, shrink it, and verify the cure.

    Returns a summary dict; ``caught`` is the headline bit.  An artifact
    of the shrunk diverging trace is written to ``artifact_dir`` so the
    failure mode the harness is certified against stays inspectable.
    """
    mutate = MUTATIONS[mutation]

    def mutated_failing(trace: Dict[str, Any]) -> bool:
        with mutate():
            return not run_tiers(trace)["ok"]

    cfg = cfg or FuzzConfig(noise="none", defense="none")
    artifact_dir = Path(artifact_dir or DEFAULT_ARTIFACT_DIR)
    for seed in range(base_seed, base_seed + max_seeds):
        trace = generate_trace(cfg, seed)
        with mutate():
            mutated = run_tiers(trace)
        if mutated["ok"]:
            continue
        shrunk = shrink_trace(trace, mutated_failing)
        with mutate():
            shrunk_result = run_tiers(shrunk)
        clean_result = run_tiers(shrunk)
        artifact = write_artifact(
            artifact_dir / f"selftest-{mutation}-seed{seed}.json",
            shrunk,
            {
                "kind": "mutation-selftest",
                "mutation": mutation,
                "seed": seed,
                "mutated": shrunk_result,
                "clean": clean_result,
            },
        )
        return {
            "mutation": mutation,
            "caught": True,
            "seed": seed,
            "seeds_tried": seed - base_seed + 1,
            "ops_before": len(trace["ops"]),
            "ops_after": len(shrunk["ops"]),
            "divergent": mutated["divergent"],
            "shrunk_still_fails": not shrunk_result["ok"],
            "clean_after_unpatch": clean_result["ok"],
            "artifact": str(artifact),
        }
    return {"mutation": mutation, "caught": False, "seeds_tried": max_seeds}
