"""Fused-kernel vs unfused-path parity (DESIGN.md §2.3).

The fused attack kernels in :mod:`repro.memsys.kernels` promise
*bit-identical* trials: every kernel consumes the hierarchy, noise,
preemption, and jitter RNG streams in exactly the per-access order of the
unfused Machine path, and advances the clock by the same amounts.  These
suites hold them to it:

* **Dynamic parity** — the same TestEviction batteries, monitor loops,
  and eviction-set constructions run twice, fused and unfused
  (:func:`repro.memsys.kernels_disabled`), and
  every observable must agree exactly: verdicts, hierarchy stats, the
  simulated clock, noise event counts, and the full ``getstate()`` of
  every RNG stream (so not just the same number of draws — the same
  draws).  The policy-axis cases repeat the batteries and the monitor
  loop on machines whose replacement policies take the inline walks'
  other branches (LRU L1, SRRIP / QLRU / random L2, LLC and SF).
* **Golden fingerprints** — sha256 digests of the fused runs, captured
  from the unfused path.  They freeze trial behavior against drift in
  *either* path: a kernel "optimization" that reorders RNG draws and a
  Machine change that forgets the kernels both show up here.

Everything here is fast-lane sized (small machine, tiny pools, short
budgets) so CI runs it on every push.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

import pytest

from tests._parity import (
    PATHS,
    _congruent_evset,
    _h,
    _machine_digest,
    _path_guard,
    _schedule_victim,
    _victim_line,
)

from repro.check.digest import plane_digest
from repro.check.fuzz import _reference_cache_swap
from repro.config import (
    cloud_run_noise,
    icelake_sp_small,
    no_noise,
    skylake_sp_small,
)
from repro.core.context import AttackerContext
from repro.core.evset import EvsetConfig
from repro.core.evset.candidates import build_candidate_set
from repro.core.evset.filtering import build_l2_eviction_set
from repro.core.evset.primitives import EvictionTester
from repro.core.monitor import ParallelProbing, PrimeScopeFlush, monitor_set
from repro.memsys import kernels_disabled
from repro.memsys.kernels import KERNELS_ENABLED
from repro.memsys.machine import Machine
from repro.memsys.vec import VecKernels


# --- TestEviction parity ----------------------------------------------------


def _tester_battery(mode: str, noisy: bool, fused: bool,
                    cfg=skylake_sp_small(), planes: bool = False) -> dict:
    """One deterministic battery of test()/test_many() calls.

    ``planes`` adds the raw cache planes (:func:`plane_digest`) to the
    fingerprint, which the golden below does not pin."""
    noise = cloud_run_noise() if noisy else no_noise()
    machine = Machine(cfg, noise=noise, seed=23)
    ctx = AttackerContext(machine, seed=2)
    ctx.calibrate()
    cand = build_candidate_set(ctx, 0x140, size=40)
    with contextlib.nullcontext() if fused else kernels_disabled():
        tester = EvictionTester(ctx, mode=mode, parallel=True)
        target, pool = cand.vas[0], cand.vas[1:]
        verdicts = [tester.test(target, pool, n) for n in (39, 20, 10, 5)]
        verdicts += tester.test_many(cand.vas[:4], cand.vas[4:], 24)
        # A repeated traversal exercises the repeats loop inside the kernel.
        deep = EvictionTester(ctx, mode=mode, parallel=True, repeats=2)
        verdicts.append(deep.test(target, pool, 16))
    out = {"verdicts": verdicts, **_machine_digest(machine)}
    if planes:
        out["planes"] = plane_digest(machine)
    return out


@pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("mode", ["llc", "sf", "l2"])
class TestEvictionKernelParity:
    def test_battery_bitwise_identical(self, mode, noisy):
        fused = _tester_battery(mode, noisy, fused=True)
        unfused = _tester_battery(mode, noisy, fused=False)
        assert fused == unfused


def test_kernels_enabled_by_default():
    assert KERNELS_ENABLED


def _resolved(cfg, reference: bool = False):
    """An l2 tester on a fresh context over ``cfg`` (built on the seed
    oracle's caches when ``reference``)."""
    with _reference_cache_swap() if reference else contextlib.nullcontext():
        machine = Machine(cfg, noise=no_noise(), seed=4)
    return EvictionTester(AttackerContext(machine, seed=1), mode="l2")


def test_kernels_disabled_context_forces_unfused():
    tester = _resolved(skylake_sp_small())
    with kernels_disabled():
        assert tester.ctx.kernels() is None
    # One bundle per machine: the memo-replay bundle, none at all on the
    # duck-typed reference caches.
    assert type(tester.ctx.kernels()) is VecKernels
    assert _resolved(skylake_sp_small(), reference=True).ctx.kernels() is None


def test_reference_cache_disengages_kernels():
    """The seed oracle (and any duck-typed stand-in) must bypass kernels."""
    tester = _resolved(skylake_sp_small(), reference=True)
    assert tester.ctx.kernels() is None


# --- Monitor parity ---------------------------------------------------------


def _monitor_run(strategy_cls, path: str, cfg=skylake_sp_small(),
                 planes: bool = False) -> dict:
    machine = Machine(cfg, noise=cloud_run_noise(), seed=31)
    ctx = AttackerContext(machine, seed=3)
    ctx.calibrate()
    evset, tset = _congruent_evset(ctx, "sf", machine.cfg.sf.ways)
    # A victim on another core hammers the monitored set.
    interval = 20_000
    _schedule_victim(machine, _victim_line(machine, tset), 15, interval)
    with _path_guard(path):
        trace = monitor_set(
            strategy_cls(ctx, evset), duration_cycles=15 * interval + 30_000
        )
    out = {
        "trace": [trace.timestamps, trace.start, trace.end,
                  trace.probe_latencies, trace.prime_latencies],
        **_machine_digest(machine),
    }
    if planes:
        out["planes"] = plane_digest(machine)
    return out


@pytest.mark.parametrize(
    "strategy_cls", [ParallelProbing, PrimeScopeFlush],
    ids=["parallel", "prime-scope"],
)
def test_monitor_parity(strategy_cls):
    """Unfused, live-kernel and memo-replayed rounds agree bit for bit."""
    runs = {path: _monitor_run(strategy_cls, path) for path in PATHS}
    assert runs["vec"] == runs["kernels"]
    assert runs["kernels"] == runs["unfused"]


#: Machines whose policies take the inline walks' other branches: the
#: 12-way LRU L1 of icelake-small (which also keeps the monitor-round memo
#: off, so every round runs live) and skylake-small with each non-LRU
#: policy in its L2, LLC and SF.
POLICY_MACHINES = {
    "icelake-small": icelake_sp_small(),
    **{
        f"skylake-small-{policy}": replace(
            skylake_sp_small(),
            l2_policy=policy, llc_policy=policy, sf_policy=policy,
        )
        for policy in ("srrip", "qlru", "random")
    },
}


@pytest.mark.parametrize("machine", list(POLICY_MACHINES))
class TestPolicyAxisParity:
    @pytest.mark.parametrize("mode", ["llc", "sf", "l2"])
    def test_battery(self, machine, mode):
        cfg = POLICY_MACHINES[machine]
        runs = [_tester_battery(mode, True, fused, cfg, planes=True)
                for fused in (True, False)]
        assert runs[0] == runs[1]

    def test_monitor(self, machine):
        cfg = POLICY_MACHINES[machine]
        runs = {path: _monitor_run(ParallelProbing, path, cfg, planes=True)
                for path in PATHS}
        assert runs["vec"] == runs["kernels"]
        assert runs["kernels"] == runs["unfused"]


def test_vec_replay_actually_engages(monkeypatch):
    """The memo-replay path must fire on the steady-state monitor loop,
    with a victim event pending the whole window (otherwise the vec tier
    silently degenerates to live kernels and the parity suites prove
    nothing about replay)."""
    replays = []
    replay = VecKernels._replay

    def counted(self, *args):
        replays.append(1)
        return replay(self, *args)

    monkeypatch.setattr(VecKernels, "_replay", counted)
    machine = Machine(skylake_sp_small(), noise=cloud_run_noise(), seed=31)
    ctx = AttackerContext(machine, seed=3)
    ctx.calibrate()
    evset, tset = _congruent_evset(ctx, "sf", machine.cfg.sf.ways)
    interval = 20_000
    _schedule_victim(machine, _victim_line(machine, tset), 12, interval)
    monitor_set(ParallelProbing(ctx, evset), duration_cycles=10 * interval)
    assert machine.pending_events(), "the victim must outlive the window"
    assert replays


def _due_victim_run(path: str) -> dict:
    """Prime+Probe rounds, some starting with a victim store already due
    (scheduled at the current clock), which the round must run before
    it walks the eviction set."""
    machine = Machine(skylake_sp_small(), noise=cloud_run_noise(), seed=31)
    ctx = AttackerContext(machine, seed=3)
    ctx.calibrate()
    evset, tset = _congruent_evset(ctx, "sf", machine.cfg.sf.ways)
    line = _victim_line(machine, tset)
    strategy = ParallelProbing(ctx, evset)
    seen = []
    with _path_guard(path):
        for i in range(48):
            strategy.prime()
            if i % 6 == 5:
                machine.schedule(
                    machine.now,
                    lambda t: machine.hierarchy.access(3, line, t, write=True),
                )
            seen.append(strategy.probe())
    return {"seen": seen, **_machine_digest(machine)}


def test_due_event_runs_before_replayed_round():
    runs = {path: _due_victim_run(path) for path in PATHS}
    assert runs["vec"] == runs["kernels"]
    assert runs["kernels"] == runs["unfused"]
    assert any(runs["vec"]["seen"]), "the due victim stores must be seen"


# --- Construction parity ----------------------------------------------------


def _l2_construction(fused: bool) -> dict:
    machine = Machine(skylake_sp_small(), noise=cloud_run_noise(), seed=47)
    ctx = AttackerContext(machine, seed=5)
    ctx.calibrate()
    target_va = ctx.alloc_pages(1)[0] + 0x180
    guard = kernels_disabled() if not fused else None
    if guard is None:
        evset = build_l2_eviction_set(ctx, target_va,
                                      EvsetConfig(budget_ms=50.0))
    else:
        with guard:
            evset = build_l2_eviction_set(ctx, target_va,
                                          EvsetConfig(budget_ms=50.0))
    return {"vas": sorted(evset.vas), **_machine_digest(machine)}


def test_l2_construction_parity():
    assert _l2_construction(True) == _l2_construction(False)


# --- Golden fingerprints (captured from the unfused path) -------------------

GOLDEN_BATTERY_NOISY_SF = "20d53b2141cf92e4"
GOLDEN_MONITOR_PARALLEL = "9b0e8bd69a10f584"
GOLDEN_L2_CONSTRUCTION = "27d41eff975b2212"


class TestGoldenFingerprints:
    def test_battery(self):
        assert _h(_tester_battery("sf", True, fused=True)) == GOLDEN_BATTERY_NOISY_SF

    def test_monitor(self):
        for path in PATHS:
            assert _h(_monitor_run(ParallelProbing, path)) == \
                GOLDEN_MONITOR_PARALLEL, path

    def test_construction(self):
        assert _h(_l2_construction(True)) == GOLDEN_L2_CONSTRUCTION
