"""Tests for repro.exec.spec: trial specs, seed streams, fingerprints."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.exec import (
    Campaign,
    ConstructionSample,
    TrialSpec,
    arithmetic_seeds,
    dataclass_codec,
    seed_stream,
)
from repro.defenses.matrix import DefenseTrialSample
from repro.exec.spec import stable_repr
from repro.fleet.campaigns import NoiseWindowSample


def toy_trial(cfg, seed):
    return (cfg["k"], seed)


class TestSeedStreams:
    def test_arithmetic_matches_historical_convention(self):
        assert arithmetic_seeds(1000, 4) == (1000, 1001, 1002, 1003)
        assert arithmetic_seeds(5, 3, stride=10) == (5, 15, 25)

    def test_hashed_stream_is_deterministic(self):
        assert seed_stream(42, 6) == seed_stream(42, 6)

    def test_hashed_stream_prefix_stable(self):
        # Growing a campaign must not perturb existing trials' seeds.
        assert seed_stream(42, 10)[:6] == seed_stream(42, 6)

    def test_hashed_stream_unique_and_tagged(self):
        seeds = seed_stream(0, 64)
        assert len(set(seeds)) == 64
        assert seed_stream(0, 4) != seed_stream(1, 4)
        assert seed_stream(0, 4) != seed_stream(0, 4, tag="other")

    def test_hashed_seeds_fit_in_63_bits(self):
        assert all(0 <= s < 2**63 for s in seed_stream(7, 32))


class TestCampaign:
    def test_build_produces_indexed_trials(self):
        campaign = Campaign.build("t", toy_trial, {"k": 1}, trials=3, base_seed=9)
        specs = campaign.trials()
        assert [s.index for s in specs] == [0, 1, 2]
        assert [s.seed for s in specs] == list(campaign.seeds)
        assert all(s.fn is toy_trial for s in specs)

    def test_build_arithmetic_mode(self):
        campaign = Campaign.build(
            "t", toy_trial, {}, trials=3, base_seed=100, seed_mode="arithmetic"
        )
        assert campaign.seeds == (100, 101, 102)

    def test_build_rejects_unknown_seed_mode(self):
        with pytest.raises(ValueError):
            Campaign.build("t", toy_trial, {}, trials=2, seed_mode="magic")

    def test_mismatched_configs_and_seeds_rejected(self):
        with pytest.raises(ValueError):
            Campaign(name="t", fn=toy_trial, configs=({},), seeds=(1, 2))

    def test_trial_spec_is_picklable(self):
        campaign = Campaign.build("t", toy_trial, {"k": 1}, trials=1)
        spec = campaign.trials()[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.fn(clone.config, clone.seed) == toy_trial(
            spec.config, spec.seed
        )


class TestFingerprint:
    def test_stable_across_calls(self):
        c = Campaign.build("t", toy_trial, {"k": 1}, trials=4, base_seed=3)
        assert c.fingerprint() == c.fingerprint()

    def test_sensitive_to_inputs(self):
        base = Campaign.build("t", toy_trial, {"k": 1}, trials=4, base_seed=3)
        others = [
            Campaign.build("u", toy_trial, {"k": 1}, trials=4, base_seed=3),
            Campaign.build("t", toy_trial, {"k": 2}, trials=4, base_seed=3),
            Campaign.build("t", toy_trial, {"k": 1}, trials=5, base_seed=3),
            Campaign.build("t", toy_trial, {"k": 1}, trials=4, base_seed=4),
        ]
        prints = {c.fingerprint() for c in others}
        assert base.fingerprint() not in prints
        assert len(prints) == len(others)

    def test_sensitive_to_code_version(self):
        c = Campaign.build("t", toy_trial, {"k": 1}, trials=2)
        assert c.fingerprint("v1") != c.fingerprint("v2")


class TestStableRepr:
    def test_dict_key_order_irrelevant(self):
        assert stable_repr({"a": 1, "b": 2}) == stable_repr({"b": 2, "a": 1})

    def test_dataclass_renders_fields(self):
        sample = ConstructionSample(True, True, 1.5, 10, 2, 300)
        text = stable_repr(sample)
        assert "ConstructionSample" in text
        assert "elapsed_ms=1.5" in text

    def test_callables_render_by_qualname(self):
        assert "toy_trial" in stable_repr(toy_trial)


class TestDataclassCodec:
    def test_round_trip(self):
        codec = dataclass_codec(ConstructionSample)
        sample = ConstructionSample(True, False, 3.25, 7, 1, 42)
        encoded = codec.encode(sample)
        assert isinstance(encoded, dict)
        assert codec.decode(encoded) == sample

    @pytest.mark.parametrize(
        "sample",
        [
            NoiseWindowSample(events=2, survived=False, rate_per_ms=11.5),
            ConstructionSample(True, False, 3.25, 7, 1, 42),
            DefenseTrialSample(
                defense="ceaser", n_evsets=3, valid_evsets=2,
                construct_rate=0.5, monitor_accuracy=0.875, error="",
            ),
        ],
        ids=lambda sample: type(sample).__name__,
    )
    def test_encode_equals_asdict(self, sample):
        # Every journaled result type: the field-tuple encoder must give
        # exactly what dataclasses.asdict gives.
        codec = dataclass_codec(type(sample))
        assert codec.encode(sample) == dataclasses.asdict(sample)
        assert codec.decode(codec.encode(sample)) == sample

    def test_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            dataclass_codec(int)
