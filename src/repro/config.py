"""Machine, latency, and noise configuration.

This module defines the static description of a simulated Intel server
machine (cache geometries, slice hashing, latencies) and of the environment
noise (background tenant activity), together with presets for the platforms
used in the paper:

* ``skylake_sp()`` — the Intel Xeon Platinum 8173M used on Cloud Run
  (28 LLC/SF slices).
* ``skylake_sp_local()`` — the Intel Xeon Gold 6152 used for the local
  quiescent experiments (22 LLC/SF slices).
* ``icelake_sp()`` — the Intel Xeon Gold 5320 (26 slices, higher
  associativity) used in Section 5.3.2.
* ``*_small()`` — reduced geometries that preserve every structural
  relationship the paper's results depend on (see DESIGN.md) while keeping
  pure-Python simulation fast enough for tests and benchmarks.

All classes are frozen dataclasses: a configuration is a value, never
mutated after creation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from .errors import ConfigurationError

#: Default standard page size (bytes).  Cloud Run containers cannot allocate
#: huge pages (Section 3 of the paper), so 4 kB is the only page size.
PAGE_BYTES = 4096

#: Cache line size used by all modelled Intel parts.
LINE_BYTES = 64

#: Lines per 4 kB page; the number of distinct page offsets at line
#: granularity (the 64x factor between PageOffset and WholeSys scenarios).
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache structure (or of one slice of a sliced cache).

    Attributes:
        name: Human-readable identifier, e.g. ``"L2"`` or ``"SF"``.
        ways: Associativity.
        sets: Number of sets per slice.
        slices: Number of slices (1 for private caches).
        line_bytes: Cache line size in bytes.
    """

    name: str
    ways: int
    sets: int
    slices: int = 1
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ConfigurationError(f"{self.name}: ways must be >= 1")
        if not _is_pow2(self.sets):
            raise ConfigurationError(f"{self.name}: sets must be a power of two")
        if not _is_pow2(self.line_bytes):
            raise ConfigurationError(f"{self.name}: line_bytes must be a power of two")
        if self.slices < 1:
            raise ConfigurationError(f"{self.name}: slices must be >= 1")

    @property
    def offset_bits(self) -> int:
        """Number of line-offset bits (low bits ignored by set indexing)."""
        return self.line_bytes.bit_length() - 1

    @property
    def index_bits(self) -> int:
        """Number of set-index bits per slice."""
        return self.sets.bit_length() - 1

    @property
    def total_sets(self) -> int:
        """Total sets across all slices."""
        return self.sets * self.slices

    @property
    def lines(self) -> int:
        """Total line capacity across all slices."""
        return self.total_sets * self.ways

    @property
    def capacity_bytes(self) -> int:
        return self.lines * self.line_bytes

    def set_index(self, pa: int) -> int:
        """Per-slice set index of physical address ``pa``."""
        return (pa >> self.offset_bits) & (self.sets - 1)

    def uncertainty(self, page_bytes: int = PAGE_BYTES) -> int:
        """Cache uncertainty U for an attacker controlling only page offsets.

        For an unsliced cache this is ``2**n_uc`` where ``n_uc`` is the number
        of set-index bits above the page offset; for a sliced cache it is
        additionally multiplied by the slice count (Section 2.2.1).
        """
        page_bits = page_bytes.bit_length() - 1
        controllable = page_bits - self.offset_bits
        n_uc = max(0, self.index_bits - controllable)
        return (1 << n_uc) * self.slices


@dataclass(frozen=True)
class LatencyConfig:
    """Access-latency model (cycles at the configured clock).

    The absolute values are calibrated so that the simulated platform
    reproduces the paper's measured orders of magnitude (Table 5, Figure 3):
    an L1 hit is a few cycles, an LLC/SF hit tens of cycles, DRAM hundreds,
    and overlapped (MLP) traversal costs ``issue_gap`` cycles per extra line
    instead of a full round trip.
    """

    l1_hit: int = 4
    l2_hit: int = 14
    llc_hit: int = 48
    #: Latency observed when an access misses everywhere (or its SF entry was
    #: back-invalidated) and must fetch from DRAM.
    dram: int = 260
    #: Extra serialization penalty of a dependent (pointer-chase) access over
    #: an independent one; models address-generation and TLB effects that make
    #: the paper's sequential TestEviction ~10x slower than the parallel one.
    chase_overhead: int = 160
    #: Per-line issue gap for overlapped accesses (bounded by LLC/DRAM
    #: bandwidth rather than latency).
    issue_gap: int = 26
    #: Per-line issue gap for overlapped accesses that hit in private caches
    #: (L1/L2 sustain much higher throughput than the uncore).
    hit_issue_gap: int = 6
    #: Cost of executing one clflush.
    flush: int = 90
    #: Per-line gap when clflushes are issued back-to-back (they pipeline).
    flush_gap: int = 8
    #: Uniform measurement jitter (+/- cycles) added to timed loads.
    timer_jitter: int = 3
    #: Fixed timing-instrumentation overhead per timed load (rdtsc fences).
    timer_overhead: int = 30

    def __post_init__(self) -> None:
        if not (self.l1_hit < self.l2_hit < self.llc_hit < self.dram):
            raise ConfigurationError("latencies must satisfy L1 < L2 < LLC < DRAM")
        if self.issue_gap < 1:
            raise ConfigurationError("issue_gap must be >= 1")


@dataclass(frozen=True)
class MachineConfig:
    """Full description of a simulated machine.

    The LLC and SF must agree on set count, slice count, and (implicitly)
    slice hash — on real Skylake-SP the SF mirrors the LLC's set mapping, and
    the attack relies on this (Section 3).
    """

    name: str
    cores: int
    clock_ghz: float
    l1: CacheGeometry
    l2: CacheGeometry
    llc: CacheGeometry
    sf: CacheGeometry
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    page_bytes: int = PAGE_BYTES
    #: Physical address bits of the simulated machine.
    phys_bits: int = 34
    #: Replacement policy names per level (see repro.memsys.replacement).
    #: L2/LLC/SF default to LRU: minimal eviction sets empirically behave
    #: LRU-like on Skylake-SP's SF (Yan et al. 2019), and scan-resistant
    #: policies (srrip/qlru, available for ablations) would defeat
    #: single-pass traversal of minimal sets entirely.
    l1_policy: str = "tree_plru"
    l2_policy: str = "lru"
    llc_policy: str = "lru"
    sf_policy: str = "lru"
    #: Probability that a line evicted from the SF is inserted into the LLC
    #: (the undocumented reuse predictor, Section 2.3).  Back-invalidated
    #: lines look dead to a reuse predictor, so the default is low — which
    #: also matches the observed behaviour that SF Prime+Probe reliably
    #: sees the victim's *next* fetch go to DRAM (Yan et al. 2019).
    reuse_predictor_p: float = 0.01
    #: Probability that a clean private line evicted from an L2 is installed
    #: in the LLC (Skylake-SP's LLC acts as a victim cache for the L2s,
    #: gated by a dead-block predictor).
    l2_victim_to_llc_p: float = 0.95
    #: Slice hash family: "linear" (power-of-two slices) or "complex".
    slice_hash: str = "complex"
    #: RNG contract for stochastic draws: "serial" (one shared stream,
    #: consumed in strict access order — the historical contract, pinned
    #: by the existing goldens) or "counter" (event-keyed draws, pure in
    #: ``(seed, stream, event key)`` — order-independent, which legalizes
    #: the vectorized memo-replay tier; see DESIGN.md §2.7).
    #: The two modes produce different — both valid — trial outcomes.
    rng_mode: str = "serial"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError("need at least one core")
        if self.rng_mode not in ("serial", "counter"):
            raise ConfigurationError(
                f"rng_mode must be 'serial' or 'counter', got {self.rng_mode!r}"
            )
        if self.llc.sets != self.sf.sets or self.llc.slices != self.sf.slices:
            raise ConfigurationError(
                "SF must mirror LLC set/slice geometry (Skylake-SP property)"
            )
        if self.sf.ways <= self.llc.ways:
            raise ConfigurationError(
                "SF must have more ways than the LLC (so an SF eviction set "
                "is also an LLC eviction set, Section 3)"
            )
        l2_top = self.l2.offset_bits + self.l2.index_bits
        llc_top = self.llc.offset_bits + self.llc.index_bits
        if l2_top > llc_top:
            raise ConfigurationError(
                "L2 set-index bits must be a subset of the LLC set-index bits "
                "(required by L2-driven candidate filtering, Section 5.1)"
            )
        if not 0.0 <= self.reuse_predictor_p <= 1.0:
            raise ConfigurationError("reuse_predictor_p must be in [0, 1]")
        if not 0.0 <= self.l2_victim_to_llc_p <= 1.0:
            raise ConfigurationError("l2_victim_to_llc_p must be in [0, 1]")
        if self.phys_bits < (self.page_bytes.bit_length() - 1) + 8:
            raise ConfigurationError("phys_bits too small for the page size")

    # -- Derived quantities used throughout the paper --------------------

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz

    def seconds_to_cycles(self, seconds: float) -> int:
        return int(round(seconds * self.clock_hz))

    @property
    def u_l2(self) -> int:
        """L2 cache uncertainty (16 on real Skylake-SP)."""
        return self.l2.uncertainty(self.page_bytes)

    @property
    def u_llc(self) -> int:
        """LLC/SF cache uncertainty (896 on a 28-slice Skylake-SP)."""
        return self.llc.uncertainty(self.page_bytes)

    @property
    def evsets_page_offset(self) -> int:
        """Eviction sets needed in the PageOffset scenario (= U_LLC)."""
        return self.u_llc

    @property
    def evsets_whole_sys(self) -> int:
        """Eviction sets needed in the WholeSys scenario (= 64 x U_LLC)."""
        return self.u_llc * (self.page_bytes // self.llc.line_bytes)

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"{self.name}: {self.cores} cores @ {self.clock_ghz:.1f} GHz, "
            f"L2 {self.l2.sets}x{self.l2.ways}, "
            f"LLC {self.llc.slices} slices x {self.llc.sets} sets x "
            f"{self.llc.ways} ways, SF {self.sf.ways} ways; "
            f"U_L2={self.u_l2}, U_LLC={self.u_llc}, "
            f"PageOffset evsets={self.evsets_page_offset}, "
            f"WholeSys evsets={self.evsets_whole_sys}"
        )


@dataclass(frozen=True)
class NoiseConfig:
    """Background (other-tenant) activity model.

    ``llc_accesses_per_ms_per_set`` is the paper's Figure 2 metric: the rate
    at which background activity touches one LLC set.  Events are Poisson;
    each event inserts a foreign line into the SF or LLC set (split by
    ``sf_fraction``), perturbing replacement state and potentially evicting
    attacker lines.
    """

    name: str
    llc_accesses_per_ms_per_set: float
    #: SF allocation rate relative to the LLC-visible rate: the SF set with
    #: the same index receives this fraction of the rate as private-line
    #: allocations (on top of, not instead of, the LLC insertions).
    sf_fraction: float = 0.8
    #: Rate (events per second) of interrupts/context switches hitting the
    #: attacker core; each one adds a large latency outlier.
    preemption_rate_hz: float = 0.0
    #: Cycles lost to one preemption event.
    preemption_cycles: int = 40_000

    def __post_init__(self) -> None:
        if self.llc_accesses_per_ms_per_set < 0:
            raise ConfigurationError("noise rate must be non-negative")
        if not 0.0 <= self.sf_fraction <= 1.0:
            raise ConfigurationError("sf_fraction must be in [0, 1]")

    def rate_per_cycle(self, clock_ghz: float) -> float:
        """Noise events per cycle per set at the given clock."""
        cycles_per_ms = clock_ghz * 1e6
        return self.llc_accesses_per_ms_per_set / cycles_per_ms

    def scaled(self, factor: float) -> "NoiseConfig":
        """A copy with the access rate multiplied by ``factor``."""
        return replace(
            self,
            name=f"{self.name}*{factor:g}",
            llc_accesses_per_ms_per_set=self.llc_accesses_per_ms_per_set * factor,
        )


# ---------------------------------------------------------------------------
# Machine presets
# ---------------------------------------------------------------------------


def skylake_sp(cores: int = 4) -> MachineConfig:
    """Intel Xeon Platinum 8173M — the dominant Cloud Run CPU (28 slices)."""
    return MachineConfig(
        name="skylake-sp-8173m",
        cores=cores,
        clock_ghz=2.0,
        l1=CacheGeometry("L1D", ways=8, sets=64),
        l2=CacheGeometry("L2", ways=16, sets=1024),
        llc=CacheGeometry("LLC", ways=11, sets=2048, slices=28),
        sf=CacheGeometry("SF", ways=12, sets=2048, slices=28),
    )


def skylake_sp_local(cores: int = 4) -> MachineConfig:
    """Intel Xeon Gold 6152 — the paper's quiescent local machine (22 slices)."""
    cfg = skylake_sp(cores)
    return replace(
        cfg,
        name="skylake-sp-6152",
        llc=CacheGeometry("LLC", ways=11, sets=2048, slices=22),
        sf=CacheGeometry("SF", ways=12, sets=2048, slices=22),
    )


def icelake_sp(cores: int = 4) -> MachineConfig:
    """Intel Xeon Gold 5320 — Ice Lake-SP (26 slices, higher associativity)."""
    return MachineConfig(
        name="icelake-sp-5320",
        cores=cores,
        clock_ghz=2.2,
        l1_policy="lru",  # tree-PLRU needs power-of-two ways; L1D is 12-way
        l1=CacheGeometry("L1D", ways=12, sets=64),
        l2=CacheGeometry("L2", ways=20, sets=1024),
        llc=CacheGeometry("LLC", ways=12, sets=2048, slices=26),
        sf=CacheGeometry("SF", ways=16, sets=2048, slices=26),
    )


def skylake_sp_small(cores: int = 4) -> MachineConfig:
    """Reduced Skylake-SP-like geometry for fast simulation (cloud flavor).

    Preserves: L2 index bits are a strict subset of LLC index bits, U_L2 > 1,
    U_LLC = 8 x slices, SF ways (12) > LLC ways (11), and the Skylake
    associativities, so every algorithmic relationship in the paper holds.
    """
    return MachineConfig(
        name="skylake-sp-small",
        cores=cores,
        clock_ghz=2.0,
        l1=CacheGeometry("L1D", ways=8, sets=64),
        l2=CacheGeometry("L2", ways=16, sets=256),
        llc=CacheGeometry("LLC", ways=11, sets=512, slices=4),
        sf=CacheGeometry("SF", ways=12, sets=512, slices=4),
    )


def skylake_sp_small_local(cores: int = 4) -> MachineConfig:
    """Reduced local machine: like :func:`skylake_sp_small` but 3 slices.

    The paper's local and cloud machines differ in slice count (22 vs. 28);
    mirroring that here also exercises the non-power-of-two slice hash.
    """
    cfg = skylake_sp_small(cores)
    return replace(
        cfg,
        name="skylake-sp-small-local",
        llc=CacheGeometry("LLC", ways=11, sets=512, slices=3),
        sf=CacheGeometry("SF", ways=12, sets=512, slices=3),
    )


def icelake_sp_small(cores: int = 4) -> MachineConfig:
    """Reduced Ice Lake-SP-like geometry (higher associativity than Skylake)."""
    return MachineConfig(
        name="icelake-sp-small",
        cores=cores,
        clock_ghz=2.2,
        l1_policy="lru",  # 12-way L1D (see icelake_sp)
        l1=CacheGeometry("L1D", ways=12, sets=64),
        l2=CacheGeometry("L2", ways=20, sets=256),
        llc=CacheGeometry("LLC", ways=12, sets=512, slices=4),
        sf=CacheGeometry("SF", ways=16, sets=512, slices=4),
    )


def tiny_machine(cores: int = 2) -> MachineConfig:
    """Minimal geometry for unit tests; not representative of real hardware.

    Keeps the one structural requirement single-core SF priming needs:
    L2 ways exceed SF ways (as on every real part modelled here), so a core
    can keep a whole SF set's worth of lines resident privately.
    """
    return MachineConfig(
        name="tiny",
        cores=cores,
        clock_ghz=2.0,
        l1=CacheGeometry("L1D", ways=2, sets=16),
        l2=CacheGeometry("L2", ways=8, sets=64),
        llc=CacheGeometry("LLC", ways=4, sets=128, slices=2),
        sf=CacheGeometry("SF", ways=6, sets=128, slices=2),
        phys_bits=30,
    )


# ---------------------------------------------------------------------------
# Noise presets (rates from the paper's Figure 2 measurements)
# ---------------------------------------------------------------------------


def quiescent_local_noise() -> NoiseConfig:
    """Minimal-activity local machine: 0.29 accesses/ms/set (Section 4.3)."""
    return NoiseConfig(name="quiescent-local", llc_accesses_per_ms_per_set=0.29)


def cloud_run_noise() -> NoiseConfig:
    """Cloud Run: 11.5 accesses/ms/set (Section 4.3) plus rare preemptions."""
    return NoiseConfig(
        name="cloud-run",
        llc_accesses_per_ms_per_set=11.5,
        preemption_rate_hz=100.0,
    )


def cloud_run_quiet_hours_noise() -> NoiseConfig:
    """Cloud Run 3-5 am: the paper found no significant difference."""
    return NoiseConfig(
        name="cloud-run-3-5am",
        llc_accesses_per_ms_per_set=11.1,
        preemption_rate_hz=100.0,
    )


def no_noise() -> NoiseConfig:
    """Perfectly quiescent environment (used by correctness tests)."""
    return NoiseConfig(name="none", llc_accesses_per_ms_per_set=0.0)


def exposure_matched(base: NoiseConfig, cfg: MachineConfig,
                     reference: Optional[MachineConfig] = None,
                     exponent: float = 0.5) -> NoiseConfig:
    """Scale a noise preset so reduced geometries see the paper's exposure.

    The probability that one TestEviction gets disturbed is (noise rate) x
    (test duration), and test duration scales with the candidate-set size
    N = 3*U*W.  A reduced-geometry machine has a much smaller N, so running
    it against the raw per-set rate would understate the cloud's effect.

    A single factor cannot match both regimes at once, because the reduced
    geometry also has a smaller L2 uncertainty and therefore a weaker
    filtering ratio: matching the *unfiltered* tests exactly (factor
    N_ref/N_ours) would make the *filtered* tests several times harsher
    than the paper's.  The default square-root compromise
    ``(N_ref/N_ours) ** 0.5`` matches the filtered-test exposure almost
    exactly while still degrading unfiltered runs substantially — the
    regime every Table 3/4 comparison cares about.  Pass ``exponent=1.0``
    for strict unfiltered matching.  For the full-scale machine the factor
    is 1 either way and the preset is returned unchanged.
    """
    if reference is None:
        reference = skylake_sp()
    ours = cfg.u_llc * cfg.sf.ways
    ref = reference.u_llc * reference.sf.ways
    factor = (ref / ours) ** exponent
    if abs(factor - 1.0) < 1e-9:
        return base
    return base.scaled(factor)


#: Registry of noise presets by name.
NOISE_PRESETS: Dict[str, NoiseConfig] = {
    "local": quiescent_local_noise(),
    "cloud": cloud_run_noise(),
    "cloud-quiet": cloud_run_quiet_hours_noise(),
    "none": no_noise(),
}

#: Registry of machine presets by name.
MACHINE_PRESETS = {
    "skylake": skylake_sp,
    "skylake-local": skylake_sp_local,
    "icelake": icelake_sp,
    "skylake-small": skylake_sp_small,
    "skylake-small-local": skylake_sp_small_local,
    "icelake-small": icelake_sp_small,
    "tiny": tiny_machine,
}
