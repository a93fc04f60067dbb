"""repro.check — correctness tooling for the three execution tiers.

The optimized tiers (data plane, kernels) all promise bit-identical
trials; this package *enforces* the promise instead of sampling it:

* :mod:`repro.check.digest` — the canonical machine-state digest shared
  with the parity suites, plus the recursive diff used as fuzz oracle.
* :mod:`repro.check.invariants` — structural invariants of the hierarchy
  (``_where`` index consistency, SF/LLC exclusivity, policy-state bounds,
  noise-clock monotonicity), installable as a per-access debug hook.
* :mod:`repro.check.fuzz` — seeded attack-shaped traces replayed on all
  three tiers and diffed (``python -m repro fuzz``).
* :mod:`repro.check.shrink` — ddmin reduction of diverging traces.
* :mod:`repro.check.selftest` — a deliberate replacement-policy mutation
  proving the harness catches seeded faults.
"""

from .digest import (
    assert_digest_memo_blind,
    diff_keys,
    machine_digest,
    obj_digest,
    plane_digest,
    rng_state_digests,
)
from .fuzz import (
    DEFAULT_ARTIFACT_DIR,
    TIERS,
    FuzzConfig,
    fuzz_campaign,
    fuzz_trial,
    generate_trace,
    load_artifact,
    replay_artifact,
    run_tiers,
    run_trace,
    write_artifact,
)
from .invariants import (
    InvariantChecker,
    InvariantViolation,
    install_invariant_hook,
    invariant_hook,
    uninstall_invariant_hook,
)
from .selftest import replacement_policy_mutation, run_selftest
from .shrink import shrink_trace

__all__ = [
    "DEFAULT_ARTIFACT_DIR",
    "FuzzConfig",
    "InvariantChecker",
    "InvariantViolation",
    "TIERS",
    "assert_digest_memo_blind",
    "diff_keys",
    "fuzz_campaign",
    "fuzz_trial",
    "generate_trace",
    "install_invariant_hook",
    "invariant_hook",
    "load_artifact",
    "machine_digest",
    "obj_digest",
    "plane_digest",
    "replacement_policy_mutation",
    "replay_artifact",
    "rng_state_digests",
    "run_selftest",
    "run_tiers",
    "run_trace",
    "shrink_trace",
    "uninstall_invariant_hook",
    "write_artifact",
]
