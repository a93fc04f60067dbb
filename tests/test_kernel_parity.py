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
import sys
import traceback
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
        fused = _tester_battery(mode, noisy, fused=True, planes=True)
        unfused = _tester_battery(mode, noisy, fused=False, planes=True)
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


def test_generated_kernel_traceback_shows_source():
    """Generated kernels register their source with linecache, so a
    traceback through one names the kernel and shows the failing line."""
    tester = _resolved(skylake_sp_small())
    ctx = tester.ctx
    rows = ctx.rows(ctx.alloc_pages(3))
    with pytest.raises(IndexError) as info:
        ctx.kernels().flush_rows(rows, len(rows) + 1)
    frame = traceback.extract_tb(info.value.__traceback__)[-1]
    assert frame.filename.startswith("<repro.memsys.kernels flush ")
    assert frame.line == "line = lines[j]"


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
    """Unfused, live-kernel and memo-replayed rounds agree bit for bit,
    replacement state (PLRU bits, LRU stamps) included."""
    runs = {path: _monitor_run(strategy_cls, path, planes=True)
            for path in PATHS}
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


@contextlib.contextmanager
def _fold_log():
    """Log every plane write of the memo-replay path, in order.

    ``VecKernels._land`` writes one round replayed by ``_replay`` (logged
    ``"apply"``) or a whole stretch of folded probes (logged ``"fold"``,
    or ``"noise"`` when the first noise insertion of a reconcile forced
    it); ``"replay-read"`` logs a read round that went through
    ``_replay`` instead of being folded by the window.  The yielded dict
    also sums the rounds written by fold write-backs.  Tests append
    their own markers to ``log["events"]``."""
    from repro.memsys import vec

    log = {"events": [], "folded": 0}
    land, replay = VecKernels._land, VecKernels._replay

    def logged_land(self, geom, last, folded):
        caller = sys._getframe(1).f_code.co_name
        if caller == "land":
            kind = ("noise" if sys._getframe(2).f_code.co_name == "reconcile"
                    else "fold")
            log["folded"] += sum(rec[vec._N] for rec in folded)
        else:
            kind = "apply"
        log["events"].append(kind)
        return land(self, geom, last, folded)

    def logged_replay(self, geom, rec):
        if rec[vec._POST] is not None:
            log["events"].append("replay-read")
        return replay(self, geom, rec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VecKernels, "_land", logged_land)
        patch.setattr(VecKernels, "_replay", logged_replay)
        yield log


def test_vec_replay_actually_engages():
    """Quiet probes must fold on the steady-state monitor loop, with a
    victim event pending the whole window: most probes are written back
    in stretches, not one by one, and no read round is replayed outside
    the window (otherwise the vec tier silently degenerates to per-round
    replay and the parity suites prove nothing about folding)."""
    machine = Machine(skylake_sp_small(), noise=cloud_run_noise(), seed=31)
    ctx = AttackerContext(machine, seed=3)
    ctx.calibrate()
    evset, tset = _congruent_evset(ctx, "sf", machine.cfg.sf.ways)
    interval = 20_000
    _schedule_victim(machine, _victim_line(machine, tset), 12, interval)
    monitor = ParallelProbing(ctx, evset)
    with _fold_log() as log:
        monitor_set(monitor, duration_cycles=10 * interval)
    assert machine.pending_events(), "the victim must outlive the window"
    probes = len(monitor.probe_latencies)
    write_backs = log["events"].count("fold") + log["events"].count("noise")
    assert "replay-read" not in log["events"]
    assert log["folded"] > 0.9 * probes, (log["folded"], probes)
    assert 0 < write_backs < log["folded"] / 10, (write_backs, log["folded"])


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
    return {"seen": seen, **_machine_digest(machine),
            "planes": plane_digest(machine)}


def test_due_event_runs_before_replayed_round():
    runs = {path: _due_victim_run(path) for path in PATHS}
    assert runs["vec"] == runs["kernels"]
    assert runs["kernels"] == runs["unfused"]
    assert any(runs["vec"]["seen"]), "the due victim stores must be seen"


class _VictimFault(Exception):
    """Raised by a victim event in the write-back trigger parity case."""


#: The folded window's write-back triggers, one parity case each:
#: ``monitor_set`` keyword arguments, the window count, and whether the
#: victim events raise.  Each case is replayed on every path.  With the
#: default ``lines`` (the SF ways) every probe round ends in the same L1
#: state, so a prime that ran on owed planes could not show; 9 or 11
#: lines monitor sets whose rounds do not, where it would.
TRIGGER_CASES = {
    # Noise scaled so insertions land inside folded stretches.
    "noise": dict(scale=20.0),
    # Victim stores that come due mid-stretch, each observing the planes.
    "victim": dict(victims=8),
    "cadence": dict(victims=3, kwargs=dict(refresh_quiet_probes=5),
                    scrub_period=7, lines=9),
    "max-events": dict(victims=8, kwargs=dict(max_events=3)),
    # Short, frequent preemptions push folded all-hit probes over the
    # detection threshold.
    "preemption": dict(preempt=(1e6, 2_000), lines=11),
    # The scrub cadence carries over from the first window to the second.
    "two-windows": dict(victims=4, windows=2, scrub_period=50),
    # A raising event aborts each of two windows mid-stretch.
    "raise": dict(victims=8, raises=True, windows=2),
}


def _trigger_run(case: str, path: str):
    spec = TRIGGER_CASES[case]
    noise = cloud_run_noise().scaled(spec.get("scale", 1.0))
    if "preempt" in spec:
        rate_hz, cycles = spec["preempt"]
        noise = replace(noise, preemption_rate_hz=rate_hz,
                        preemption_cycles=cycles)
    machine = Machine(skylake_sp_small(), noise=noise, seed=31)
    ctx = AttackerContext(machine, seed=3)
    ctx.calibrate()
    evset, tset = _congruent_evset(ctx, "sf",
                                   spec.get("lines", machine.cfg.sf.ways))
    line = _victim_line(machine, tset)
    monitor = ParallelProbing(ctx, evset,
                              llc_scrub_period=spec.get("scrub_period", 128))
    out = {"windows": [], "seen": [], "faults": 0}
    with _fold_log() as log:

        def victim(t):
            # The event sees the planes exactly as the per-round loop
            # leaves them: a folded stretch must have landed first.
            log["events"].append("event")
            out["seen"].append(plane_digest(machine))
            machine.hierarchy.access(3, line, t, write=True)
            if spec.get("raises"):
                raise _VictimFault(t)

        for i in range(spec.get("victims", 0)):
            machine.schedule(machine.now + 9_000 + i * 23_117, victim)
        with _path_guard(path):
            for _ in range(spec.get("windows", 1)):
                try:
                    trace = monitor_set(monitor, 110_000,
                                        **spec.get("kwargs", {}))
                except _VictimFault:
                    out["faults"] += 1
                    continue
                out["windows"].append([
                    trace.timestamps, trace.start, trace.end,
                    monitor._probes_since_scrub,
                ])
    out.update(
        probes=list(monitor.probe_latencies),
        primes=list(monitor.prime_latencies),
        since=monitor._probes_since_scrub,
        planes=plane_digest(machine),
        **_machine_digest(machine),
    )
    return out, log


@pytest.mark.parametrize("case", list(TRIGGER_CASES))
def test_fold_write_back_triggers(case):
    """Every write-back trigger of the folded window leaves the trace,
    ``machine_digest`` and ``plane_digest`` of the per-round loop."""
    runs, logs = {}, {}
    for path in PATHS:
        runs[path], logs[path] = _trigger_run(case, path)
    assert runs["vec"] == runs["kernels"]
    assert runs["kernels"] == runs["unfused"]
    events = logs["vec"]["events"]
    assert logs["vec"]["folded"], "the case must fold probes"
    if case == "noise":
        assert "noise" in events, "an insertion must land mid-stretch"
    if TRIGGER_CASES[case].get("victims"):
        pairs = list(zip(events, events[1:]))
        assert ("fold", "event") in pairs, "an event must come due mid-stretch"
    if case == "preemption":
        assert runs["vec"]["windows"][0][0], "a preempted probe must detect"
    if case == "max-events":
        assert [len(w[0]) for w in runs["vec"]["windows"]] == [3]
    if case == "raise":
        assert runs["vec"]["faults"] == 2
    if case == "two-windows":
        assert runs["vec"]["windows"][0][3], "the cadence must carry over"


# --- Construction parity ----------------------------------------------------


def _l2_construction(fused: bool, planes: bool = False) -> dict:
    """One L2 eviction-set construction; ``planes`` adds the raw cache
    planes, which the golden below does not pin."""
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
    out = {"vas": sorted(evset.vas), **_machine_digest(machine)}
    if planes:
        out["planes"] = plane_digest(machine)
    return out


def test_l2_construction_parity():
    assert (_l2_construction(True, planes=True)
            == _l2_construction(False, planes=True))


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
