"""Checkpoint/restore round-trips and digest blindness (§2.8).

The snapshot subsystem (:mod:`repro.memsys.snapshot`) promises *exact*,
digest-verified machine checkpoints on every execution tier; the fuzzer's
snapshot/restore ops build on that promise.  These suites pin it:

* checkpoint -> mutate -> restore round-trips on the reference, kernels,
  and vec tiers, quiet and noisy — verified with both the golden-pinned
  :func:`machine_digest` and the finer :func:`plane_digest`, and
  re-running the mutation after restore must reproduce it bit-for-bit;
* a ``flush_all`` between checkpoint and restore (it rebinds every plane
  and floors every noise clock; the whole-plane restore must undo both);
* a regression for stale ``_where`` index entries surviving a restore;
* digest blindness to accelerator caches
  (:func:`repro.check.digest.assert_digest_memo_blind`).
"""

from __future__ import annotations

import contextlib

import pytest

from tests._parity import _machine_digest

from repro.check.digest import assert_digest_memo_blind, plane_digest
from repro.check.fuzz import _reference_cache_swap
from repro.config import cloud_run_noise, no_noise, skylake_sp_small, tiny_machine
from repro.core.context import AttackerContext
from repro.core.evset.primitives import EvictionTester
from repro.memsys import checkpoint, restore, vec_disabled
from repro.memsys.machine import Machine
from repro.memsys.snapshot import SnapshotParityError, _machine_caches

#: Tier name -> runtime guard (reference also swaps the cache class at
#: build time; vec is the default resolution, which memo-replays monitor
#: rounds, while kernels runs the same bundle with the memo off).
TIERS = ("reference", "kernels", "vec")


@contextlib.contextmanager
def _runtime_guard(tier: str):
    if tier == "kernels":
        with vec_disabled():
            yield
    else:
        yield


def _machine_ctx(tier: str, noisy: bool = False):
    cfg = skylake_sp_small()
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
    @pytest.mark.parametrize("tier", TIERS)
    def test_checkpoint_restore_round_trip(self, tier):
        machine, ctx = _machine_ctx(tier)
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

    def test_round_trip_under_noise(self):
        machine, ctx = _machine_ctx("vec", noisy=True)
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

    def test_restore_across_flush_epoch(self):
        """flush_all rebinds planes and floors every noise clock; the
        restore must put back the captured planes and clocks anyway."""
        machine, ctx = _machine_ctx("vec")
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
        machine, ctx = _machine_ctx("vec")
        ctx.calibrate()
        lines = ctx.lines([page + 0x240 for page in ctx.alloc_pages(6)])
        cp = checkpoint(machine)
        at_cp = _digests(machine)
        for _ in range(3):
            _mutate(machine, ctx.main_core, lines)
            restore(machine, cp)
            assert _digests(machine) == at_cp

    def test_restore_rejects_mismatched_machine(self):
        machine, _ = _machine_ctx("vec")
        cp = checkpoint(machine)
        other = Machine(tiny_machine(), noise=no_noise(), seed=1)
        with pytest.raises(SnapshotParityError):
            restore(other, cp)


class TestWhereIndexRegression:
    def test_restore_drops_where_entries_inserted_after_checkpoint(self):
        """Regression: lines first inserted *after* the checkpoint must
        not leave stale ``_where`` entries behind after the restore."""
        machine, ctx = _machine_ctx("vec")
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
    def test_digests_blind_to_accelerator_caches(self):
        """Warm every memo layer, then prove the digests cannot see them."""
        machine, ctx = _machine_ctx("vec")
        ctx.calibrate()
        vas = [page + 0x240 for page in ctx.alloc_pages(10)]
        tester = EvictionTester(ctx, mode="sf", parallel=True)
        tester.test(vas[0], vas[1:], 6)
        assert_digest_memo_blind(machine, ctx)
