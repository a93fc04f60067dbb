"""Counter-RNG contract: cross-tier parity, memo-replay, statistics (§2.7).

The event-keyed RNG mode (``MachineConfig.rng_mode == "counter"``) breaks
the serial draw-order contract on purpose: every stochastic draw becomes a
pure function of ``(trial_seed, stream, event key)``, so the *same* trial
must come out bit-identical no matter which execution tier draws in which
order.  These suites pin that promise:

* four-way path parity (unfused / kernels / live lanes / memo-replay vec)
  on the kernel batteries and the monitor loop, quiet and noisy;
* the reference-tier oracle via the differential fuzzer's ``run_tiers``;
* golden fingerprints for the counter mode (captured from the unfused
  path — the vectorized tiers must reproduce them exactly, the same
  collapse-the-oracle-chain structure as ``tests/test_lane_parity.py``);
* :class:`~repro.memsys.vec.VecKernels` replay-vs-live equivalence;
* statistical sanity of the keyed draws (uniformity per stream,
  Poisson moments, scalar/vector agreement, order independence).

CI runs this file twice — with and without ``REPRO_NO_NUMPY=1`` — so the
no-NumPy fallback (vec and lanes quietly disengage, scalar draws carry the
contract alone) is exercised for real.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import pytest

from tests._parity import _h, _machine_digest

from repro import rng as rngmod
from repro.config import cloud_run_noise, no_noise, skylake_sp_small
from repro.core.context import AttackerContext
from repro.core.evset.candidates import build_candidate_set
from repro.core.evset.primitives import EvictionTester
from repro.core.evset.types import EvictionSet
from repro.core.monitor import ParallelProbing, PrimeScopeFlush, monitor_set
from repro.memsys import kernels_disabled, lanes_disabled, vec_disabled
from repro.memsys import lanes as lanesmod
from repro.memsys.machine import Machine
from repro.memsys.vec import VecKernels
from repro.rng import (
    RNG_MODES,
    S_NOISE_LLC,
    S_NOISE_SF,
    S_SF_REUSE,
    S_VICTIM,
    CounterRng,
    resolve_rng_mode,
)


def _counter_cfg():
    return dataclasses.replace(skylake_sp_small(), rng_mode="counter")


def _path_guard(path: str):
    """unfused -> no kernels; kernels -> scalar kernels; lanes -> live
    LaneKernels rounds (memo-replay off); vec -> the default resolution."""
    if path == "unfused":
        return kernels_disabled()
    if path == "kernels":
        return lanes_disabled()
    if path == "lanes":
        return vec_disabled()
    return contextlib.nullcontext()


PATHS = ["unfused", "kernels", "lanes", "vec"]


# --- TestEviction parity ----------------------------------------------------


def _tester_battery(mode: str, noisy: bool, path: str) -> dict:
    """The lane-parity battery, on a counter-mode machine."""
    fused = path != "unfused"
    noise = cloud_run_noise() if noisy else no_noise()
    machine = Machine(_counter_cfg(), noise=noise, seed=23)
    ctx = AttackerContext(machine, seed=2)
    with _path_guard(path):
        ctx.calibrate()
        cand = build_candidate_set(ctx, 0x140, size=40)
        tester = EvictionTester(ctx, mode=mode, parallel=True, use_kernels=fused)
        target, pool = cand.vas[0], cand.vas[1:]
        verdicts = [tester.test(target, pool, n) for n in (39, 20, 10, 5)]
        verdicts += tester.test_many(cand.vas[:4], cand.vas[4:], 24)
        deep = EvictionTester(ctx, mode=mode, parallel=True, repeats=2,
                              use_kernels=fused)
        verdicts.append(deep.test(target, pool, 16))
    return {"verdicts": verdicts, **_machine_digest(machine)}


@pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("mode", ["llc", "sf", "l2"])
class TestCounterFourWayParity:
    def test_battery_bitwise_identical(self, mode, noisy):
        runs = {path: _tester_battery(mode, noisy, path) for path in PATHS}
        assert runs["vec"] == runs["lanes"]
        assert runs["lanes"] == runs["kernels"]
        assert runs["kernels"] == runs["unfused"]


# --- Monitor parity (the loop memo-replay accelerates) ----------------------


def _monitor_run(strategy_cls, path: str, seed: int = 31) -> dict:
    machine = Machine(_counter_cfg(), noise=cloud_run_noise(), seed=seed)
    ctx = AttackerContext(machine, seed=3)
    with _path_guard(path):
        ctx.calibrate()
        target_va = ctx.alloc_pages(1)[0] + 0x2C0
        tset = machine.hierarchy.shared_set_index(ctx.line(target_va))
        vas = []
        while len(vas) < machine.cfg.sf.ways:
            for page in ctx.alloc_pages(32):
                va = page + 0x2C0
                if machine.hierarchy.shared_set_index(ctx.line(va)) == tset:
                    vas.append(va)
        evset = EvictionSet(
            kind="sf", vas=vas[: machine.cfg.sf.ways], target_va=target_va
        )
        space = machine.new_address_space()
        while True:
            line = space.translate_line(space.alloc_page() + 0x2C0)
            if machine.hierarchy.shared_set_index(line) == tset:
                break
        interval = 20_000
        for i in range(15):
            machine.schedule(
                machine.now + 3_000 + i * interval,
                lambda t, line=line: machine.hierarchy.access(
                    3, line, t, write=True),
            )
        trace = monitor_set(
            strategy_cls(ctx, evset), duration_cycles=15 * interval + 30_000
        )
    return {
        "trace": [trace.timestamps, trace.start, trace.end,
                  trace.probe_latencies, trace.prime_latencies],
        **_machine_digest(machine),
    }


@pytest.mark.parametrize(
    "strategy_cls", [ParallelProbing, PrimeScopeFlush],
    ids=["parallel", "prime-scope"],
)
def test_monitor_four_way_parity(strategy_cls):
    runs = {path: _monitor_run(strategy_cls, path) for path in PATHS}
    assert runs["vec"] == runs["lanes"]
    assert runs["lanes"] == runs["kernels"]
    assert runs["kernels"] == runs["unfused"]


def test_vec_replay_actually_engages():
    """The memo-replay path must fire on the steady-state monitor loop
    (otherwise the vec tier silently degenerates to live lanes and the
    parity above proves nothing about replay)."""
    if not lanesmod.HAVE_NUMPY:
        pytest.skip("vec tier needs NumPy")
    machine = Machine(_counter_cfg(), noise=cloud_run_noise(), seed=31)
    ctx = AttackerContext(machine, seed=3)
    ctx.calibrate()
    kern = ctx.lane_kernels()
    assert type(kern) is VecKernels
    cand = build_candidate_set(ctx, 0x2C0, size=machine.cfg.sf.ways)
    evset = EvictionSet(
        kind="sf", vas=list(cand.vas[:-1]), target_va=cand.vas[-1]
    )
    monitor_set(ParallelProbing(ctx, evset), duration_cycles=200_000)
    replayed = sum(
        len(geom.entries) > 0 for geom in kern._vmemo.values()
    )
    assert kern._vmemo and replayed > 0


# --- Reference tier (fuzz oracle) -------------------------------------------


class TestReferenceTierCounter:
    def test_four_tiers_agree_on_counter_traces(self):
        from repro.check import FuzzConfig, generate_trace, run_tiers

        cfg = FuzzConfig(
            machine="tiny", noise="mix", partition="mix", n_ops=8,
            rng_mode="counter",
        )
        for seed in range(4):
            trace = generate_trace(cfg, seed)
            assert trace["rng"] == "counter"
            result = run_tiers(trace)
            assert result["ok"], (seed, result)

    def test_counter_trace_differs_from_serial(self):
        """Same seed, different contract -> different (both valid) trial."""
        from repro.check import FuzzConfig, generate_trace, run_trace

        mk = lambda mode: dataclasses.replace(
            FuzzConfig(machine="tiny", noise="cloud", partition="never",
                       n_ops=8),
            rng_mode=mode,
        )
        serial = run_trace(generate_trace(mk("serial"), 1), "reference")
        counter = run_trace(generate_trace(mk("counter"), 1), "reference")
        assert serial["digest"] != counter["digest"]


# --- Golden fingerprints ----------------------------------------------------
# Captured from the unfused path on the counter contract; every vectorized
# tier must reproduce them exactly.  (Serial-mode goldens live unchanged in
# tests/test_kernel_parity.py / test_lane_parity.py — this mode adds new
# goldens, it never moves old ones.)

GOLDEN_COUNTER_BATTERY_NOISY_SF = "bd83113e62527f7d"
GOLDEN_COUNTER_MONITOR_PARALLEL = "50ef3beb9c57ecb0"


class TestCounterGoldenFingerprints:
    def test_battery_vec(self):
        assert _h(_tester_battery("sf", True, "vec")) == \
            GOLDEN_COUNTER_BATTERY_NOISY_SF

    def test_battery_kernels(self):
        assert _h(_tester_battery("sf", True, "kernels")) == \
            GOLDEN_COUNTER_BATTERY_NOISY_SF

    def test_monitor_vec(self):
        assert _h(_monitor_run(ParallelProbing, "vec")) == \
            GOLDEN_COUNTER_MONITOR_PARALLEL


# --- Mode plumbing ----------------------------------------------------------


class TestModePlumbing:
    def test_resolve_rng_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_RNG", raising=False)
        assert resolve_rng_mode() == "serial"
        assert resolve_rng_mode("counter") == "counter"
        monkeypatch.setenv("REPRO_RNG", "counter")
        assert resolve_rng_mode() == "counter"
        assert resolve_rng_mode("serial") == "serial"
        with pytest.raises(ValueError):
            resolve_rng_mode("splitmix")
        assert set(RNG_MODES) == {"serial", "counter"}

    def test_serial_machine_has_no_crng(self):
        machine = Machine(skylake_sp_small(), noise=no_noise(), seed=1)
        assert machine.hierarchy.crng is None

    def test_counter_machine_has_crng(self):
        machine = Machine(_counter_cfg(), noise=no_noise(), seed=1)
        assert machine.hierarchy.crng is not None
        assert machine.hierarchy.crng.seed == 1


# --- Statistical sanity of the keyed draws ----------------------------------


class TestCounterStatistics:
    def _chi2_uniform(self, samples, bins: int = 20) -> float:
        n = len(samples)
        counts = [0] * bins
        for u in samples:
            counts[min(int(u * bins), bins - 1)] += 1
        e = n / bins
        return sum((c - e) ** 2 / e for c in counts)

    @pytest.mark.parametrize(
        "stream", [S_NOISE_SF, S_NOISE_LLC, S_SF_REUSE, S_VICTIM]
    )
    def test_u01_uniform_per_stream(self, stream):
        """Chi-square on 20 bins, 20k draws; df=19, p=0.001 cutoff 43.8."""
        crng = CounterRng(7)
        samples = [crng.u01(stream, k1, k2, 0)
                   for k1 in range(20) for k2 in range(1000)]
        assert self._chi2_uniform(samples) < 43.8
        assert all(0.0 < u < 1.0 for u in samples)

    def test_streams_decorrelated(self):
        """Identical event keys on different streams share no structure."""
        crng = CounterRng(7)
        a = [crng.u01(S_NOISE_SF, 3, k, 0) for k in range(4000)]
        b = [crng.u01(S_NOISE_LLC, 3, k, 0) for k in range(4000)]
        mean_a = sum(a) / len(a)
        mean_b = sum(b) / len(b)
        cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b)) / len(a)
        var_a = sum((x - mean_a) ** 2 for x in a) / len(a)
        var_b = sum((y - mean_b) ** 2 for y in b) / len(b)
        assert abs(cov / math.sqrt(var_a * var_b)) < 0.05

    def test_u01_deterministic_and_order_free(self):
        crng = CounterRng(11)
        forward = [crng.u01(S_NOISE_SF, 1, k, 0) for k in range(100)]
        fresh = CounterRng(11)
        backward = [fresh.u01(S_NOISE_SF, 1, k, 0)
                    for k in reversed(range(100))]
        assert forward == backward[::-1]
        assert CounterRng(11).u01(S_NOISE_SF, 1, 5, 0) == forward[5]
        assert CounterRng(12).u01(S_NOISE_SF, 1, 5, 0) != forward[5]

    def test_noise_poisson_bernoulli_rate(self):
        """lam < 0.01 path: hit frequency tracks lam."""
        crng = CounterRng(3)
        lam = 0.005
        n = 200_000
        hits = sum(crng.noise_poisson(S_NOISE_SF, 1, old, lam)
                   for old in range(n))
        # Binomial(200k, 0.005): mean 1000, sd ~31.5; allow 5 sd.
        assert abs(hits - n * lam) < 5 * math.sqrt(n * lam)

    def test_noise_poisson_knuth_moments(self):
        """0.01 <= lam <= 64 path: sample mean and variance match lam."""
        crng = CounterRng(5)
        lam = 5.0
        draws = [crng.noise_poisson(S_NOISE_LLC, 2, old, lam)
                 for old in range(20_000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert abs(mean - lam) < 0.1
        assert abs(var - lam) < 0.35

    def test_noise_poisson_normal_tail(self):
        """lam > 64 path: clamped normal approximation, right moments."""
        crng = CounterRng(9)
        lam = 200.0
        draws = [crng.noise_poisson(S_NOISE_SF, 4, old, lam)
                 for old in range(5_000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - lam) < 1.5
        assert min(draws) >= 0

    def test_poisson_deterministic_per_key(self):
        crng = CounterRng(13)
        a = [crng.noise_poisson(S_NOISE_SF, 6, old, 2.5) for old in range(500)]
        b = [CounterRng(13).noise_poisson(S_NOISE_SF, 6, old, 2.5)
             for old in range(500)]
        assert a == b


class TestVectorScalarAgreement:
    """The numpy bulk draws must be bit-identical to the scalar ones."""

    def setup_method(self):
        if rngmod._np is None:
            pytest.skip("NumPy unavailable (REPRO_NO_NUMPY leg)")

    def test_u01_many_matches_scalar(self):
        np = rngmod._np
        crng = CounterRng(21)
        k1s = np.arange(512, dtype=np.int64) % 64
        k2s = (np.arange(512, dtype=np.int64) * 977) % 100_000
        vec = crng.u01_many(S_NOISE_SF, k1s, k2s, 0)
        for j in range(512):
            assert vec[j] == crng.u01(S_NOISE_SF, int(k1s[j]), int(k2s[j]), 0)

    def test_noise_poisson_many_matches_scalar(self):
        np = rngmod._np
        crng = CounterRng(23)
        sidxs = np.arange(100, dtype=np.int64) % 16
        olds = np.arange(100, dtype=np.int64) * 53
        lams = np.where(np.arange(100) % 3 == 0, 0.004, 1.7)
        lams[0] = 0.0
        vec = crng.noise_poisson_many(S_NOISE_SF, sidxs, olds, lams)
        fresh = CounterRng(23)
        for j in range(100):
            assert vec[j] == fresh.noise_poisson(
                S_NOISE_SF, int(sidxs[j]), int(olds[j]), float(lams[j])
            )
