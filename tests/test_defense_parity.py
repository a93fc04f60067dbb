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

The traces are frozen in ``tests/data/defense_parity_traces.json``, not
regenerated: a change to the fuzz grammar's generator moves every trace
it draws, and these goldens must move only when a defense's behavior
does.  They were drawn by :func:`repro.check.fuzz.generate_trace` with
``FuzzConfig(machine="tiny", noise="cloud-quiet", n_ops=14)`` and a
pinned ``defense``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.fuzz import run_tiers, run_trace
from repro.defenses import DEFENSE_NAMES
from tests._parity import _h

#: Frozen traces by seed, then defense.  Seed 424 is violent enough that
#: all five defended digests are *distinct*; seed 97's ceaser/skew traces
#: carry explicit rekey ops, so the epoch-turn path is golden-pinned too.
TRACES = json.loads(
    (Path(__file__).parent / "data" / "defense_parity_traces.json").read_text()
)
TRACE_SEED = "424"
REKEY_SEED = "97"

GOLDEN_DEFENDED_TRIALS = {
    "none": "491290857abe9b63",
    "way-partition": "00a14a5ae50446ee",
    "ceaser": "a6437acb5b9957c5",
    "skew": "03f75b4f25c1c3f7",
    "soft-copy": "446f8d015c53638d",
}

GOLDEN_REKEY_TRIALS = {
    "ceaser": "9aa760ca2a798327",
    "skew": "9aa760ca2a798327",
}


@pytest.mark.parametrize("defense", DEFENSE_NAMES)
class TestDefendedTrialParity:
    def test_four_tier_equality(self, defense):
        result = run_tiers(TRACES[TRACE_SEED][defense])
        assert result["ok"], (result["divergent"], result["violations"])

    def test_golden_fingerprint(self, defense):
        run = run_trace(TRACES[TRACE_SEED][defense], "kernels")
        assert run["violation"] is None
        assert _h([run["records"], run["digest"]]) == (
            GOLDEN_DEFENDED_TRIALS[defense]
        )


@pytest.mark.parametrize("defense", sorted(GOLDEN_REKEY_TRIALS))
class TestRekeyTrialParity:
    def test_four_tier_equality(self, defense):
        result = run_tiers(TRACES[REKEY_SEED][defense])
        assert result["ok"], (result["divergent"], result["violations"])

    def test_golden_fingerprint(self, defense):
        trace = TRACES[REKEY_SEED][defense]
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
    for seed in TRACES:
        for defense, trace in TRACES[seed].items():
            if defense == "none":
                assert trace["partition"] is None and trace["defense"] is None
            elif defense == "way-partition":
                assert trace["partition"] is not None
            else:
                assert trace["defense"]["kind"] == defense
    assert sorted(TRACES[TRACE_SEED]) == sorted(DEFENSE_NAMES)
