"""Golden-fingerprint parity for defended trials (one per defense).

The same fixed fuzz trace is replayed under every defense in
:data:`repro.defenses.DEFENSE_NAMES` on all three execution tiers
(reference/batched/kernels).  Two assertions per defense:

* **Tier equality** — every tier produces identical op records and an
  identical machine digest (the fuzz oracle's verdict), proving the
  accelerated paths disengage correctly on the defense wrappers.
* **Golden fingerprint** — a sha256 digest of the kernels tier's records
  plus final machine digest (verdicts, stats, clock, noise log, RNG
  states), pinned at capture time.  Any behavioral drift in a defense
  implementation — placement, rekey schedule, eviction choice, noise
  reconciliation — moves the fingerprint.
"""

from __future__ import annotations

import pytest

from repro.check.fuzz import FuzzConfig, generate_trace, run_tiers, run_trace
from repro.defenses import DEFENSE_NAMES
from tests._parity import _h

#: One fixed trace seed; the per-defense trace differs only in the
#: defense axis (and the ops the axis unlocks, e.g. rekey).  Chosen so
#: all five defended digests are *distinct* — the trace is violent
#: enough that placement policy shows up in the observables.
TRACE_SEED = 424

#: A second seed whose ceaser/skew traces carry explicit rekey ops, so
#: the epoch-turn path is golden-pinned too.
REKEY_SEED = 97

_TRACE_CFG = dict(machine="tiny", noise="cloud-quiet", n_ops=14)

#: Captured from the implementation at defense-matrix introduction time.
GOLDEN_DEFENDED_TRIALS = {
    "none": "8fe588095df7530a",
    "way-partition": "cdb4deac2387e97d",
    "ceaser": "52ecb370a359af26",
    "skew": "2e4c859fe7e7a4e5",
    "soft-copy": "e2a892847cb1fbb6",
}

GOLDEN_REKEY_TRIALS = {
    "ceaser": "0d16dce85a81c355",
    "skew": "0d16dce85a81c355",
}


def _defended_trace(defense: str, seed: int = TRACE_SEED):
    return generate_trace(FuzzConfig(defense=defense, **_TRACE_CFG), seed)


@pytest.mark.parametrize("defense", DEFENSE_NAMES)
class TestDefendedTrialParity:
    def test_four_tier_equality(self, defense):
        result = run_tiers(_defended_trace(defense))
        assert result["ok"], (result["divergent"], result["violations"])

    def test_golden_fingerprint(self, defense):
        run = run_trace(_defended_trace(defense), "kernels")
        assert run["violation"] is None
        assert _h([run["records"], run["digest"]]) == (
            GOLDEN_DEFENDED_TRIALS[defense]
        )


@pytest.mark.parametrize("defense", sorted(GOLDEN_REKEY_TRIALS))
class TestRekeyTrialParity:
    def test_four_tier_equality(self, defense):
        result = run_tiers(_defended_trace(defense, REKEY_SEED))
        assert result["ok"], (result["divergent"], result["violations"])

    def test_golden_fingerprint(self, defense):
        trace = _defended_trace(defense, REKEY_SEED)
        assert any(op[0] == "rekey" for op in trace["ops"])
        run = run_trace(trace, "kernels")
        assert run["violation"] is None
        assert _h([run["records"], run["digest"]]) == (
            GOLDEN_REKEY_TRIALS[defense]
        )


def test_goldens_distinguish_the_defenses():
    """Five defenses, five distinct fingerprints: the pinned trace is
    violent enough that every defense's placement policy is observable."""
    assert len(set(GOLDEN_DEFENDED_TRIALS.values())) == len(DEFENSE_NAMES)


def test_traces_actually_carry_the_defenses():
    """Guard the goldens' meaning: each trace pins its declared defense."""
    for defense in DEFENSE_NAMES:
        trace = _defended_trace(defense)
        if defense == "none":
            assert trace["partition"] is None and trace["defense"] is None
        elif defense == "way-partition":
            assert trace["partition"] is not None
        else:
            assert trace["defense"]["kind"] == defense
