"""Checkpoint/restore round-trips, digest blindness, and prefix parity (§2.8).

The snapshot subsystem (:mod:`repro.memsys.snapshot`) promises *exact*,
digest-verified machine checkpoints on every execution tier and under
both RNG contracts; the trial-prefix store (:mod:`repro.exec.prefix`)
and the construct memo (:mod:`repro.memsys.vec`) build on that promise.
These suites pin it:

* checkpoint -> mutate -> restore round-trips on the reference, kernels,
  and vec tiers, serial and counter mode, quiet and noisy —
  verified with both the golden-pinned :func:`machine_digest` and the
  finer :func:`plane_digest`, and re-running the mutation after restore
  must reproduce it bit-for-bit;
* the flush-epoch downgrade (``flush_all`` between checkpoint and
  restore forces the full-plane rewrite path);
* a regression for stale ``_where`` index entries surviving a restore;
* digest blindness to accelerator caches
  (:func:`repro.check.digest.assert_digest_memo_blind`);
* construct memo-replay equivalence across restores (replayed batteries
  == recorded batteries == memo-disabled live control);
* trial-prefix store leases: bit-identical ``ConstructionSample`` values
  with the cache on, off, and on cache hits, under both RNG contracts.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest

from tests._parity import _machine_digest, obj_digest

from repro.check.digest import assert_digest_memo_blind, plane_digest
from repro.check.fuzz import _reference_cache_swap
from repro.config import cloud_run_noise, no_noise, skylake_sp_small, tiny_machine
from repro.core.context import AttackerContext
from repro.core.evset import EvsetConfig
from repro.core.evset.primitives import EvictionTester
from repro.envs import EnvSpec
from repro.exec.campaigns import ConstructionTrialConfig, construction_trial
from repro.exec.prefix import TrialPrefixStore, prefix_key, thread_store
from repro.memsys import (
    checkpoint,
    checkpoint_key,
    construct_memo_disabled,
    restore,
    vec_disabled,
)
from repro.memsys.machine import Machine
from repro.memsys.snapshot import SnapshotParityError, _machine_caches

RNG_MODES = ("serial", "counter")

#: Tier name -> runtime guard (reference also swaps the cache class at
#: build time; vec is the default resolution, which memo-replays monitor
#: rounds in both modes and construction tests in counter mode, while
#: kernels runs the same bundle with both memos off).
TIERS = ("reference", "kernels", "vec")


@contextlib.contextmanager
def _runtime_guard(tier: str):
    if tier == "kernels":
        with vec_disabled(), construct_memo_disabled():
            yield
    else:
        yield


def _machine_ctx(tier: str, mode: str, noisy: bool = False):
    cfg = dataclasses.replace(skylake_sp_small(), rng_mode=mode)
    noise = cloud_run_noise() if noisy else no_noise()
    build = (
        _reference_cache_swap() if tier == "reference"
        else contextlib.nullcontext()
    )
    with build:
        machine = Machine(cfg, noise=noise, seed=11)
    return machine, AttackerContext(machine, seed=5)


def _digests(machine):
    return (_machine_digest(machine), plane_digest(machine))


def _mutate(machine, core: int, lines) -> None:
    """A machine-only workload segment (no attacker-RNG draws), so
    re-running it after a restore must reproduce it exactly."""
    machine.access_batch(core, lines, write=False)
    machine.advance(5_000)
    machine.access_batch(core, lines[::2], write=True)
    machine.access_batch(core, lines[1::3], write=False)


class TestRoundTrip:
    @pytest.mark.parametrize("mode", RNG_MODES)
    @pytest.mark.parametrize("tier", TIERS)
    def test_checkpoint_restore_round_trip(self, tier, mode):
        machine, ctx = _machine_ctx(tier, mode)
        with _runtime_guard(tier):
            ctx.calibrate()
            vas = [page + 0x240 for page in ctx.alloc_pages(10)]
            lines = ctx.lines(vas)
            tester = EvictionTester(ctx, mode="sf", parallel=True)
            tester.test(vas[0], vas[1:], 6)
            cp = checkpoint(machine, label="rt")
            at_cp = _digests(machine)
            assert cp.digest == at_cp[0]
            _mutate(machine, ctx.main_core, lines)
            moved = _digests(machine)
            assert moved != at_cp
            restore(machine, cp)
            assert _digests(machine) == at_cp
            # The rewind is exact, so replaying the mutation reproduces
            # the post-mutation state bit for bit.
            _mutate(machine, ctx.main_core, lines)
            assert _digests(machine) == moved

    @pytest.mark.parametrize("mode", RNG_MODES)
    def test_round_trip_under_noise(self, mode):
        machine, ctx = _machine_ctx("vec", mode, noisy=True)
        ctx.calibrate()
        vas = [page + 0x140 for page in ctx.alloc_pages(8)]
        lines = ctx.lines(vas)
        machine.access_batch(ctx.main_core, lines)
        cp = checkpoint(machine)
        at_cp = _digests(machine)
        _mutate(machine, ctx.main_core, lines)
        moved = _digests(machine)
        restore(machine, cp)
        assert _digests(machine) == at_cp
        _mutate(machine, ctx.main_core, lines)
        assert _digests(machine) == moved

    @pytest.mark.parametrize("mode", RNG_MODES)
    def test_restore_across_flush_epoch(self, mode):
        """flush_all rebinds planes and floors every noise clock; an
        epoch mismatch must downgrade to the full-plane rewrite."""
        machine, ctx = _machine_ctx("vec", mode)
        ctx.calibrate()
        lines = ctx.lines([page + 0x240 for page in ctx.alloc_pages(8)])
        machine.access_batch(ctx.main_core, lines)
        cp = checkpoint(machine)
        at_cp = _digests(machine)
        machine.flush_all_caches()
        machine.access_batch(ctx.main_core, lines[:3])
        restore(machine, cp)
        assert _digests(machine) == at_cp

    def test_restore_is_repeatable(self):
        machine, ctx = _machine_ctx("vec", "serial")
        ctx.calibrate()
        lines = ctx.lines([page + 0x240 for page in ctx.alloc_pages(6)])
        cp = checkpoint(machine)
        at_cp = _digests(machine)
        for _ in range(3):
            _mutate(machine, ctx.main_core, lines)
            restore(machine, cp)
            assert _digests(machine) == at_cp

    def test_restore_rejects_mismatched_machine(self):
        machine, _ = _machine_ctx("vec", "serial")
        cp = checkpoint(machine)
        other = Machine(tiny_machine(), noise=no_noise(), seed=1)
        with pytest.raises(SnapshotParityError):
            restore(other, cp)


class TestWhereIndexRegression:
    def test_restore_drops_where_entries_inserted_after_checkpoint(self):
        """Regression: lines first inserted *after* the checkpoint must
        not leave stale ``_where`` entries behind after the restore."""
        machine, ctx = _machine_ctx("vec", "serial")
        ctx.calibrate()
        warm = ctx.lines([page + 0x240 for page in ctx.alloc_pages(6)])
        machine.access_batch(ctx.main_core, warm)
        cp = checkpoint(machine)
        before = [dict(c._where) for c in _machine_caches(machine)]
        fresh = ctx.lines([page + 0x380 for page in ctx.alloc_pages(4)])
        machine.access_batch(ctx.main_core, fresh)
        after_insert = [dict(c._where) for c in _machine_caches(machine)]
        assert any(
            set(now) - set(old)
            for old, now in zip(before, after_insert)
        ), "workload never inserted a fresh line; the regression has no teeth"
        restore(machine, cp)
        assert [dict(c._where) for c in _machine_caches(machine)] == before


class TestDigestBlindness:
    @pytest.mark.parametrize("mode", RNG_MODES)
    def test_digests_blind_to_accelerator_caches(self, mode):
        """Warm every memo layer, then prove the digests cannot see them."""
        machine, ctx = _machine_ctx("vec", mode)
        ctx.calibrate()
        vas = [page + 0x240 for page in ctx.alloc_pages(10)]
        tester = EvictionTester(ctx, mode="sf", parallel=True)
        cp = checkpoint(machine, label="warm")
        rng_state = ctx.rng.getstate()
        tester.test(vas[0], vas[1:], 6)
        # Counter mode: a second identical battery after a rewind drives
        # the construct memo's record/replay path before the assertion.
        restore(machine, cp)
        ctx.rng.setstate(rng_state)
        tester.test(vas[0], vas[1:], 6)
        assert_digest_memo_blind(machine, ctx)


class TestConstructMemoReplay:
    def test_memo_replay_matches_live_across_restores(self):
        """record -> replay -> memo-disabled control, all bit-identical."""
        machine, ctx = _machine_ctx("vec", "counter")
        ctx.calibrate()
        vas = [page + 0x240 for page in ctx.alloc_pages(12)]
        tester = EvictionTester(ctx, mode="sf", parallel=True)
        cp = checkpoint(machine, label="battery")
        rng_state = ctx.rng.getstate()

        def battery():
            verdicts = [tester.test(vas[0], vas[1:], n) for n in (4, 6, 8)]
            verdicts.append(tester.test_many(vas[:2], vas[2:], 6))
            return verdicts, obj_digest(_machine_digest(machine))

        recorded = battery()
        restore(machine, cp)
        ctx.rng.setstate(rng_state)
        replayed = battery()
        assert replayed == recorded
        restore(machine, cp)
        ctx.rng.setstate(rng_state)
        with construct_memo_disabled():
            live = battery()
        assert live == recorded


class TestPrefixStore:
    ENV = EnvSpec(machine="skylake-small", noise="none")

    def test_prefix_key_is_content_addressed(self):
        key = prefix_key(self.ENV, 310, 0x240)
        assert key == prefix_key(self.ENV, 310, 0x240)
        assert key != prefix_key(self.ENV, 311, 0x240)
        assert key != prefix_key(self.ENV, 310, 0x380)
        assert key != prefix_key("local", 310, 0x240)
        counter = dataclasses.replace(self.ENV, rng_mode="counter")
        assert key != prefix_key(counter, 310, 0x240)

    @pytest.mark.parametrize("mode", RNG_MODES)
    def test_lease_restores_identical_state(self, mode):
        env = dataclasses.replace(self.ENV, rng_mode=mode)
        store = TrialPrefixStore()
        machine, ctx, target, vas, hit = store.lease(env, 310, 0x240)
        assert not hit
        state = obj_digest(_machine_digest(machine))
        pool = list(ctx._pool)
        # Dirty the leased environment, then lease again: same objects,
        # rewound bit-for-bit.
        machine.access_batch(ctx.main_core, ctx.lines(vas[:4]))
        machine.advance(9_000)
        machine2, ctx2, target2, vas2, hit2 = store.lease(env, 310, 0x240)
        assert hit2 and machine2 is machine and ctx2 is ctx
        assert (target2, vas2) == (target, vas)
        assert obj_digest(_machine_digest(machine2)) == state
        assert list(ctx2._pool) == pool
        assert store.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_construction_trial_parity_with_prefix_cache(self, monkeypatch):
        cfg = ConstructionTrialConfig(
            env="local", algorithm="bins",
            evset_cfg=EvsetConfig(budget_ms=1000.0),
        )
        seeds = (310, 311)
        monkeypatch.delenv("REPRO_PREFIX_CACHE", raising=False)
        base = [construction_trial(cfg, s) for s in seeds]
        monkeypatch.setenv("REPRO_PREFIX_CACHE", "1")
        store = thread_store()
        store.clear()
        hits0 = store.hits
        cold = [construction_trial(cfg, s) for s in seeds]
        warm = [construction_trial(cfg, s) for s in seeds]
        assert cold == base
        assert warm == base
        assert store.hits - hits0 >= len(seeds)
