"""Prime+Probe monitoring strategies (Section 6.1, Table 5, Figure 6).

Monitoring a cache set means alternating *prime* (fill the set with the
attacker's lines) and *probe* (time accesses to those lines; a slow probe
means someone else inserted into the set).  The quality metric is time
resolution: both latencies must be short, and the prime must re-arm the
set quickly after each detection.

Strategies:

* :class:`ParallelProbing` — the paper's contribution: probe all W lines
  with overlapped accesses.  Slightly slower probe than Prime+Scope, but a
  trivially fast prime (a few overlapped store traversals) and no reliance
  on replacement state — it works whatever the policy is.
* :class:`PrimeScopeFlush` (PS-Flush) — probe only the designated eviction
  candidate (EVC); prime by load + clflush + sequential reload of the
  whole eviction set, which is slow (~6k cycles on the paper's hosts).
* :class:`PrimeScopeAlt` (PS-Alt) — probe the EVC; prime by an alternating
  pointer-chase over *two* eviction sets.  Faster than PS-Flush but
  fragile: background accesses perturb the replacement state it depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .._util import mean, stddev
from ..errors import ConfigurationError
from .context import AttackerContext
from .evset.types import EvictionSet
from .traces import AccessTrace

#: Latency samples above this many cycles are interrupt/context-switch
#: outliers and are excluded from latency statistics (Section 6.1).
OUTLIER_CYCLES = 20_000


class MonitorStrategy:
    """Base class: a prime/probe pair bound to one eviction set."""

    name = "base"

    def __init__(self, ctx: AttackerContext, evset: EvictionSet) -> None:
        if len(evset.vas) < 1:
            raise ConfigurationError("empty eviction set")
        self.ctx = ctx
        self.evset = evset
        # Translate once; the prime/probe loops then cross into the memory
        # system through the fused kernels (or the batched Machine APIs on
        # the unfused path) with no per-iteration VA->line work.
        self._rows = ctx.rows(evset.vas)
        self._lines = self._rows.lines
        self.prime_latencies: List[int] = []
        self.probe_latencies: List[int] = []

    # -- Strategy interface -------------------------------------------------

    def prime(self) -> int:
        """Re-arm the monitored set; returns elapsed cycles."""
        raise NotImplementedError

    def probe(self) -> bool:
        """One probe; True if an access to the set was detected."""
        raise NotImplementedError

    # -- Shared helpers ------------------------------------------------------

    def _record_prime(self, cycles: int) -> None:
        self.prime_latencies.append(cycles)

    def _record_probe(self, cycles: int) -> None:
        self.probe_latencies.append(cycles)

    def latency_summary(self) -> "LatencySummary":
        return LatencySummary.from_samples(
            self.name, self.prime_latencies, self.probe_latencies
        )


@dataclass(frozen=True)
class LatencySummary:
    """Mean/stddev prime and probe latencies (Table 5 format)."""

    strategy: str
    prime_mean: float
    prime_std: float
    probe_mean: float
    probe_std: float
    samples: int

    @staticmethod
    def from_samples(name: str, primes: List[int], probes: List[int]) -> "LatencySummary":
        p = [x for x in primes if x <= OUTLIER_CYCLES]
        q = [x for x in probes if x <= OUTLIER_CYCLES]
        return LatencySummary(
            strategy=name,
            prime_mean=mean(p),
            prime_std=stddev(p),
            probe_mean=mean(q),
            probe_std=stddev(q),
            samples=min(len(p), len(q)) if (p and q) else max(len(p), len(q)),
        )


class ParallelProbing(MonitorStrategy):
    """The paper's Parallel Probing (Section 6.1).

    Prime: a few overlapped store traversals of the W-line eviction set
    (stores force the lines private/SF-tracked with no replacement-state
    choreography).  Probe: one overlapped load traversal of all W lines; if
    every line is still a private-cache hit the batch is fast, while a
    single back-invalidated line drags the whole batch up by a DRAM/LLC
    round trip.
    """

    name = "parallel"

    def __init__(
        self,
        ctx: AttackerContext,
        evset: EvictionSet,
        prime_rounds: int = 2,
        llc_scrub_period: int = 128,
    ) -> None:
        super().__init__(ctx, evset)
        self.prime_rounds = prime_rounds
        self.llc_scrub_period = llc_scrub_period
        self._probes_since_scrub = 0
        lat = ctx.machine.cfg.latency
        # All-hit probe cost: worst private hit + per-line gaps + timer.
        w = len(evset.vas)
        self._detect_threshold = (
            lat.timer_overhead + lat.l2_hit + w * lat.hit_issue_gap + lat.llc_hit // 2
        )

    def _llc_scrub(self, kernels) -> None:
        """Evict stale copies from the *LLC* set that mirrors our SF set.

        A victim line whose back-invalidation landed in the LLC (reuse
        predictor) serves the victim from the LLC thereafter — invisible to
        SF priming.  Since an SF eviction set is also an LLC eviction set
        (more ways), periodically flushing our lines and re-loading them
        shared churns the LLC set and evicts any such stale copy; a
        re-prime then takes the lines back private.  This is attacker-local
        work: the scrub is excluded from detection and its re-prime from
        the prime latencies.
        """
        ctx = self.ctx
        if kernels is not None:
            rows = self._rows
            kernels.flush_rows(rows, len(rows))
            kernels.load_sweep(rows, len(rows), shared=True)
            kernels.prime_probe_kernel(
                rows, len(rows), prime_rounds=self.prime_rounds
            )
            return
        machine = ctx.machine
        machine.flush_batch(self._lines)
        machine.access_batch(ctx.main_core, self._lines, shadow_core=ctx.helper_core)
        for _ in range(self.prime_rounds):
            machine.access_batch(
                ctx.main_core, self._lines, write=True, same_shared_set=True
            )

    def prime(self) -> int:
        ctx = self.ctx
        kernels = ctx.kernels()
        if kernels is not None:
            rows = self._rows
            elapsed = kernels.prime_probe_kernel(
                rows, len(rows), prime_rounds=self.prime_rounds
            )
            self._record_prime(elapsed)
            return elapsed
        machine = ctx.machine
        elapsed = 0
        for _ in range(self.prime_rounds):
            elapsed += machine.access_batch(
                ctx.main_core, self._lines, write=True, same_shared_set=True
            )
        self._record_prime(elapsed)
        return elapsed

    def probe(self) -> bool:
        # Periodic maintenance runs in the probe path (a long quiet stretch
        # is exactly when a stale LLC copy may be starving detections).
        # Its cost is not recorded in the prime/probe latency statistics.
        ctx = self.ctx
        kernels = ctx.kernels()
        self._probes_since_scrub += 1
        if self.llc_scrub_period and self._probes_since_scrub >= self.llc_scrub_period:
            self._probes_since_scrub = 0
            self._llc_scrub(kernels)
        if kernels is not None:
            measured = kernels.prime_probe_kernel(
                self._rows, len(self._rows), probe=True
            )
        else:
            measured = ctx.machine.probe_batch(
                ctx.main_core, self._lines, same_shared_set=True
            )
        self._record_probe(measured)
        return measured > self._detect_threshold


class PrimeScopeFlush(MonitorStrategy):
    """PS-Flush: EVC probing with the load+flush+reload prime pattern.

    The sequential reload order makes the first-reloaded line the eviction
    candidate under an LRU-like policy; the probe times only that line.
    """

    name = "ps-flush"

    #: Prime repetitions allowed until the scope line survives priming
    #: (Prime+Scope primes until the pattern leaves a stable state; a
    #: concurrent insertion mid-pattern otherwise evicts the scope line
    #: or strands a foreign entry).
    MAX_PRIME_TRIES = 3

    def prime(self) -> int:
        ctx = self.ctx
        machine = ctx.machine
        lines = self._lines
        kernels = ctx.kernels()
        start = machine.now
        for _ in range(self.MAX_PRIME_TRIES):
            # Load everything, flush everything, then reload sequentially so
            # the replacement order is exactly the reload order (EVC = vas[0]).
            if kernels is not None:
                rows = self._rows
                kernels.load_sweep(rows, len(rows))
                kernels.flush_rows(rows, len(rows))
            else:
                machine.access_batch(ctx.main_core, lines)
                machine.flush_batch(lines)
            machine.access_chase(ctx.main_core, lines)
            # Stability check doubling as the L1 warm touch: if the scope
            # line did not survive the pattern (a concurrent insertion
            # displaced it), the state is dirty — re-prime.
            if ctx.timed_load(self.evset.vas[0]) <= ctx.threshold_private:
                break
        elapsed = machine.now - start
        self._record_prime(elapsed)
        return elapsed

    def probe(self) -> bool:
        measured = self.ctx.timed_load(self.evset.vas[0])
        self._record_probe(measured)
        return measured > self.ctx.threshold_private


class PrimeScopeAlt(MonitorStrategy):
    """PS-Alt: EVC probing primed by alternating chases of two eviction sets.

    Cheaper than PS-Flush (no flushes) but leans even harder on the
    replacement state: the interleaved chase is meant to leave
    ``evset.vas[0]`` as the eviction candidate, and any background
    insertion between prime and the victim's access breaks that promise.
    """

    name = "ps-alt"

    def __init__(
        self,
        ctx: AttackerContext,
        evset: EvictionSet,
        alternate: Optional[EvictionSet] = None,
    ) -> None:
        super().__init__(ctx, evset)
        if alternate is None:
            raise ConfigurationError("PS-Alt needs a second eviction set")
        self.alternate = alternate

    def prime(self) -> int:
        ctx = self.ctx
        start = ctx.machine.now
        # Alternating pointer-chase: a[0], b[0], a[1], b[1], ...  The probed
        # set's lines are inserted oldest-first so vas[0] ends up the EVC.
        a, b = self.evset.vas, self.alternate.vas
        inter: List[int] = []
        for i in range(max(len(a), len(b))):
            if i < len(a):
                inter.append(a[i])
            if i < len(b):
                inter.append(b[i])
        ctx.traverse_chase(inter)
        # Stability check doubling as the L1 warm touch (see
        # PrimeScopeFlush.prime).  Without a flush step this pattern cannot
        # displace a stranded foreign entry — the replacement-state
        # fragility the paper observes for PS-Alt — so one retry is all
        # that can help.
        if ctx.timed_load(a[0]) > ctx.threshold_private:
            ctx.traverse_chase(inter)
            ctx.load(a[0])
        elapsed = ctx.machine.now - start
        self._record_prime(elapsed)
        return elapsed

    def probe(self) -> bool:
        measured = self.ctx.timed_load(self.evset.vas[0])
        self._record_probe(measured)
        return measured > self.ctx.threshold_private


def make_monitor(
    name: str,
    ctx: AttackerContext,
    evset: EvictionSet,
    alternate: Optional[EvictionSet] = None,
) -> MonitorStrategy:
    """Monitor factory: ``parallel``, ``ps-flush``, or ``ps-alt``."""
    if name == "parallel":
        return ParallelProbing(ctx, evset)
    if name == "ps-flush":
        return PrimeScopeFlush(ctx, evset)
    if name == "ps-alt":
        return PrimeScopeAlt(ctx, evset, alternate=alternate)
    raise ConfigurationError(f"unknown monitor strategy {name!r}")


def monitor_set(
    monitor: MonitorStrategy,
    duration_cycles: int,
    max_events: Optional[int] = None,
    loop_overhead_cycles: int = 220,
    refresh_quiet_probes: int = 64,
) -> AccessTrace:
    """Run a prime/probe loop for a time window; returns the access trace.

    The loop primes once, then probes continuously; each detection is
    timestamped and followed by a re-prime.  Victim/noise events interleave
    through the machine's event queue as simulated time advances.

    ``loop_overhead_cycles`` models the attacker loop's own bookkeeping
    (timestamp recording, branch, buffer append) between probes.

    ``refresh_quiet_probes``: after this many probes with no detection the
    set is re-primed anyway.  Without the refresh a victim whose access was
    missed keeps its SF entry, so its *next* access hits privately and the
    channel silently dies — every practical Prime+Probe loop re-primes
    periodically to bound that staleness.

    A :class:`ParallelProbing` window on a machine whose monitor-round
    memo is on runs inside the kernel bundle
    (:meth:`~repro.memsys.vec.VecKernels.probe_window`), which folds quiet
    probes (DESIGN.md §2.7); every other case — PS-Flush, PS-Alt,
    defended caches, :func:`~repro.memsys.kernels_disabled`,
    :func:`~repro.memsys.vec_disabled` — runs the per-round loop below,
    which is the parity reference for that window.
    """
    ctx = monitor.ctx
    machine = ctx.machine
    start = machine.now
    end = start + duration_cycles
    monitor.prime()
    kernels = ctx.kernels()
    if (type(monitor) is ParallelProbing and kernels is not None
            and kernels.memo_on()):
        timestamps = kernels.probe_window(
            monitor, end, max_events, loop_overhead_cycles,
            refresh_quiet_probes,
        )
    else:
        timestamps = []
        quiet = 0
        while machine.now < end:
            if loop_overhead_cycles:
                machine.advance(loop_overhead_cycles)
            if monitor.probe():
                quiet = 0
                timestamps.append(machine.now)
                monitor.prime()
                if max_events is not None and len(timestamps) >= max_events:
                    break
            else:
                quiet += 1
                if refresh_quiet_probes and quiet >= refresh_quiet_probes:
                    quiet = 0
                    monitor.prime()
    return AccessTrace(
        timestamps=timestamps,
        start=start,
        end=machine.now,
        target_va=monitor.evset.target_va,
        probe_latencies=list(monitor.probe_latencies),
        prime_latencies=list(monitor.prime_latencies),
    )
