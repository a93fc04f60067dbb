"""Differential fuzzer smoke tests: trace generation, replay, shrink, self-test."""

from __future__ import annotations

import json

import pytest

from repro.check import (
    TIERS,
    FuzzConfig,
    fuzz_campaign,
    fuzz_trial,
    generate_trace,
    kernel_description_mutation,
    load_artifact,
    replay_artifact,
    replacement_policy_mutation,
    run_selftest,
    run_tiers,
    run_trace,
    shrink_trace,
    write_artifact,
)
from repro.errors import ReproError
from repro.exec import ExecPolicy, run_campaign

QUIET = FuzzConfig(machine="tiny", noise="none", defense="none", n_ops=8)


class TestGenerateTrace:
    def test_deterministic_for_seed(self):
        assert generate_trace(QUIET, 4) == generate_trace(QUIET, 4)

    def test_seed_changes_trace(self):
        assert generate_trace(QUIET, 4) != generate_trace(QUIET, 5)

    def test_trace_is_json_round_trippable(self):
        trace = generate_trace(QUIET, 1)
        assert json.loads(json.dumps(trace)) == trace

    def test_partition_always_includes_partition_spec(self):
        """The way-partition defense always carries a partition spec that
        names the attacker's snoop-filter domain."""
        cfg = FuzzConfig(
            machine="tiny", noise="none", defense="way-partition", n_ops=6
        )
        trace = generate_trace(cfg, 0)
        assert trace["partition"] is not None
        assert "att" in trace["partition"]["sf"]

    def test_ops_start_with_calibrate_and_pool(self):
        trace = generate_trace(QUIET, 9)
        assert trace["ops"][0] == ["calibrate"]
        assert trace["ops"][1][0] == "pool"

    def test_defense_axis_deterministic(self):
        cfg = FuzzConfig(machine="tiny", noise="none", n_ops=8)  # full mix
        assert generate_trace(cfg, 11) == generate_trace(cfg, 11)

    def test_defense_none_means_undefended(self):
        trace = generate_trace(QUIET, 3)
        assert trace["partition"] is None
        assert trace["defense"] is None

    @pytest.mark.parametrize("defense", ["ceaser", "skew", "soft-copy"])
    def test_explicit_defense_carried_in_trace(self, defense):
        cfg = FuzzConfig(
            machine="tiny", noise="none", n_ops=8, defense=defense
        )
        trace = generate_trace(cfg, 1)
        assert trace["defense"]["kind"] == defense
        assert trace["partition"] is None
        assert json.loads(json.dumps(trace)) == trace

    def test_explicit_way_partition_uses_legacy_key(self):
        """Explicit defense=way-partition emits the legacy trace shape, so
        pre-axis artifacts and new traces replay through one code path."""
        cfg = FuzzConfig(
            machine="tiny", noise="none", n_ops=8, defense="way-partition"
        )
        trace = generate_trace(cfg, 1)
        assert trace["partition"] is not None
        assert trace["defense"] is None

    def test_rekey_ops_only_on_randomized_defenses(self):
        for defense in ("none", "way-partition", "soft-copy"):
            cfg = FuzzConfig(
                machine="tiny", noise="none", n_ops=30, defense=defense
            )
            ops = generate_trace(cfg, 5)["ops"]
            assert not any(op[0] == "rekey" for op in ops)
        found = False
        for seed in range(6):
            cfg = FuzzConfig(
                machine="tiny", noise="none", n_ops=30, defense="ceaser"
            )
            ops = generate_trace(cfg, seed)["ops"]
            found = found or any(op[0] == "rekey" for op in ops)
        assert found

    def test_mix_draws_every_defense(self):
        cfg = FuzzConfig(machine="tiny", noise="none", n_ops=4)
        kinds = set()
        for seed in range(120):
            trace = generate_trace(cfg, seed)
            if trace["partition"] is not None:
                kinds.add("way-partition")
            elif trace["defense"] is not None:
                kinds.add(trace["defense"]["kind"])
            else:
                kinds.add("none")
        assert kinds == {"none", "way-partition", "ceaser", "skew", "soft-copy"}


class TestRunTrace:
    def test_reference_tier_replays(self):
        out = run_trace(generate_trace(QUIET, 2), "reference")
        assert out["violation"] is None
        assert out["checks"] > 0
        assert out["records"]

    def test_unknown_tier_rejected(self):
        with pytest.raises(ReproError):
            run_trace(generate_trace(QUIET, 2), "warp")


class TestPlaneVerdict:
    """The flat-plane tiers (batched, kernels) must also agree on the raw
    cache planes, which ``machine_digest`` cannot see."""

    TRACE = {
        "machine": "skylake-small", "noise": "none", "seed": 5,
        "ctx_seed": 6, "partition": None, "defense": None,
        "ops": [["calibrate"], ["pool", 0x2C0, 12], ["monitor", 0, 8, 30_000]],
    }

    def test_clean_trace_agrees(self):
        assert run_tiers(self.TRACE)["ok"]

    def test_stamp_drift_flags_kernels_tier(self, monkeypatch):
        """A one-off L2 stamp after a ``monitor`` op on the kernels tier
        only: every record and ``machine_digest`` still agree."""
        import repro.check.fuzz as fuzz

        live = fuzz.monitor_set

        def drifting(monitor, duration):
            trace = live(monitor, duration)
            ctx = monitor.ctx
            if ctx.kernels() is not None:
                l2 = ctx.machine.hierarchy.l2[ctx.main_core]
                base = monitor._rows.l2_sets[0] * l2.ways
                stamps = l2._state[base:base + l2.ways]
                l2._state[base + stamps.index(min(stamps))] = l2._lru._stamp
            return trace

        monkeypatch.setattr(fuzz, "monitor_set", drifting)
        result = run_tiers(self.TRACE)
        assert result["divergent"] == ["kernels"]
        assert result["diffs"]["kernels"] == ["planes"]
        assert not result["violations"]


@pytest.mark.slow
class TestFuzzSmoke:
    """The CI smoke: fixed seeds, all three tiers must agree exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_quiet_seeds_agree(self, seed):
        result = run_tiers(generate_trace(QUIET, seed))
        assert result["ok"], result

    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_partitioned_seeds_agree(self, seed):
        cfg = FuzzConfig(
            machine="tiny", noise="cloud-quiet", defense="way-partition",
            n_ops=8,
        )
        result = run_tiers(generate_trace(cfg, seed))
        assert result["ok"], result

    @pytest.mark.parametrize("defense", ["ceaser", "skew", "soft-copy"])
    @pytest.mark.parametrize("seed", range(2))
    def test_defended_seeds_agree(self, defense, seed):
        cfg = FuzzConfig(
            machine="tiny", noise="cloud-quiet", n_ops=8, defense=defense
        )
        result = run_tiers(generate_trace(cfg, seed))
        assert result["ok"], result

    def test_campaign_runs_through_executor(self):
        campaign = fuzz_campaign(QUIET, seeds=3)
        result = run_campaign(campaign, ExecPolicy(jobs=1))
        assert result.ok
        assert all(r["ok"] for r in result.values())

    def test_trial_seed_recorded(self):
        trial = fuzz_trial(QUIET, 7)
        assert trial["seed"] == 7
        assert trial["ok"]


class TestShrinker:
    def _trace(self, n=12):
        ops = [["calibrate"], ["pool", 0x240, 10]]
        ops += [["advance", i] for i in range(n)]
        return {"machine": "tiny", "noise": "none", "seed": 0,
                "ctx_seed": 1, "partition": None, "ops": ops}

    def test_minimizes_to_single_culprit(self):
        trace = self._trace()

        def failing(t):
            return any(op[0] == "advance" and op[1] == 5 for op in t["ops"])

        shrunk = shrink_trace(trace, failing)
        advances = [op for op in shrunk["ops"] if op[0] == "advance"]
        assert advances == [["advance", 5]]

    def test_keeps_pair_dependencies(self):
        trace = self._trace()

        def failing(t):
            hits = {op[1] for op in t["ops"] if op[0] == "advance"}
            return {2, 9} <= hits

        shrunk = shrink_trace(trace, failing)
        advances = sorted(op[1] for op in shrunk["ops"] if op[0] == "advance")
        assert advances == [2, 9]

    def test_input_not_mutated(self):
        trace = self._trace()
        before = json.dumps(trace, sort_keys=True)
        shrink_trace(trace, lambda t: len(t["ops"]) > 2)
        assert json.dumps(trace, sort_keys=True) == before

    def test_non_failing_trace_returned_whole(self):
        trace = self._trace(n=3)
        assert shrink_trace(trace, lambda t: False)["ops"] == trace["ops"]


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        trace = generate_trace(QUIET, 3)
        path = write_artifact(tmp_path / "a" / "t.json", trace, {"ok": True})
        loaded, result = load_artifact(path)
        assert loaded == trace
        assert result == {"ok": True}

    def test_replay_artifact_fresh_verdict(self, tmp_path):
        trace = generate_trace(QUIET, 3)
        path = write_artifact(tmp_path / "t.json", trace, {})
        assert replay_artifact(path)["ok"]

    def test_replay_refuses_counter_contract_artifact(self, tmp_path):
        """Older artifacts record their RNG contract; only serial ones
        can reproduce their verdict on today's machines."""
        trace = generate_trace(QUIET, 3)
        serial = write_artifact(
            tmp_path / "serial.json", {**trace, "rng": "serial"}, {})
        assert replay_artifact(serial)["ok"]
        counter = write_artifact(
            tmp_path / "counter.json", {**trace, "rng": "counter"}, {})
        with pytest.raises(ReproError, match="'counter' RNG contract"):
            replay_artifact(counter)

    @pytest.mark.parametrize(
        "op", [["bogus", 1], ["snapshot"], ["restore", 0]],
        ids=["bogus", "snapshot", "restore"],
    )
    def test_replay_refuses_op_outside_the_grammar(self, tmp_path, op):
        """Recorded as an op failure, an unknown op would fail alike on
        every tier and pass the verdict; the replay refuses it instead
        (older artifacts carry the deleted ``snapshot``/``restore``)."""
        trace = generate_trace(QUIET, 3)
        path = write_artifact(
            tmp_path / "t.json", {**trace, "ops": trace["ops"] + [op]}, {})
        with pytest.raises(ReproError, match=f"unknown fuzz op.*'{op[0]}'"):
            replay_artifact(path)

    def test_rejects_non_artifact(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"version": 9}))
        with pytest.raises(ReproError):
            load_artifact(path)


@pytest.mark.slow
class TestMutationSelfTest:
    def test_mutation_is_caught_and_shrunk(self, tmp_path):
        summary = run_selftest(max_seeds=25, artifact_dir=tmp_path)
        assert summary["caught"]
        assert summary["shrunk_still_fails"]
        assert summary["clean_after_unpatch"]
        assert summary["ops_after"] <= summary["ops_before"]
        trace, result = load_artifact(summary["artifact"])
        assert result["kind"] == "mutation-selftest"
        # The artifact replays clean on pristine code and diverges mutated.
        assert run_tiers(trace)["ok"]
        with replacement_policy_mutation():
            assert not run_tiers(trace)["ok"]

    def test_kernel_description_mutation_flags_kernels_tier(self, tmp_path):
        """A slip in the cascade description reaches only the generated
        kernels: the fuzzer flags the kernels tier alone, shrinks the
        trace, and the shrunk trace runs clean without the slip."""
        summary = run_selftest(max_seeds=25, artifact_dir=tmp_path,
                               mutation="kernel-lru-touch")
        assert summary["caught"]
        assert summary["divergent"] == ["kernels"]
        assert summary["shrunk_still_fails"]
        assert summary["clean_after_unpatch"]
        assert summary["ops_after"] <= summary["ops_before"]
        trace, result = load_artifact(summary["artifact"])
        assert result["mutation"] == "kernel-lru-touch"
        assert run_tiers(trace)["ok"]
        with kernel_description_mutation():
            assert not run_tiers(trace)["ok"]
