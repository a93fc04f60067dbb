"""The simulated machine: hierarchy + clock + latency model + events.

:class:`Machine` is the substrate the whole attack runs on.  It owns:

* the :class:`~repro.memsys.hierarchy.CacheHierarchy`,
* a global cycle clock (``now``) at the configured frequency,
* the latency/MLP model that converts hit levels into cycles,
* a priority queue of scheduled events (the victim's accesses, tenant
  bursts), drained as the clock advances,
* the background-noise source and the preemption model.

All attack code manipulates *physical line addresses* (ints); address
spaces provide the VA->PA mapping and are created per tenant via
:meth:`Machine.new_address_space`.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Sequence, Tuple

from .._util import make_rng, poisson, spawn_rng
from ..cloud.noise import BackgroundNoise
from ..config import MachineConfig, NoiseConfig, no_noise
from ..errors import ConfigurationError
from .address import AddressSpace
from .hierarchy import CacheHierarchy, Level


class Machine:
    """A simulated multi-core Intel server host.

    Args:
        cfg: Machine description (geometry, latencies, policies).
        noise: Background-tenant activity; defaults to perfectly quiet.
        seed: Master seed; all internal randomness derives from it.
    """

    def __init__(
        self,
        cfg: MachineConfig,
        noise: Optional[NoiseConfig] = None,
        seed: int = 0,
    ) -> None:
        self.cfg = cfg
        self.noise_cfg = noise if noise is not None else no_noise()
        self._rng = make_rng(("machine", seed))
        self.hierarchy = CacheHierarchy(
            cfg, spawn_rng(self._rng, "hierarchy"), hash_seed=seed
        )
        self.noise = BackgroundNoise(
            self.noise_cfg, cfg.clock_ghz, spawn_rng(self._rng, "noise")
        )
        if self.noise.enabled:
            self.hierarchy.noise_source = self.noise
        self._preempt_rng = spawn_rng(self._rng, "preempt")
        self._jitter_rng = spawn_rng(self._rng, "jitter")
        self._aspace_rng = spawn_rng(self._rng, "aspace")
        self._used_frames: set = set()
        self.now: int = 0
        self._events: List[Tuple[int, int, Callable[[int], None]]] = []
        self._event_seq = 0
        lat = cfg.latency
        self._level_latency = {
            Level.L1: lat.l1_hit,
            Level.L2: lat.l2_hit,
            Level.LLC: lat.llc_hit,
            Level.SF_TRANSFER: lat.llc_hit,
            Level.DRAM: lat.dram,
        }
        preempt_hz = self.noise_cfg.preemption_rate_hz
        self._preempt_per_cycle = preempt_hz / self.clock_hz if preempt_hz else 0.0
        #: Data-plane batch counters (see ``repro.analysis.dataplane_summary``).
        self.batch_calls: int = 0
        self.batch_lines: int = 0

    # -- Basic properties ----------------------------------------------------

    @property
    def clock_hz(self) -> float:
        return self.cfg.clock_ghz * 1e9

    def seconds(self, cycles: Optional[int] = None) -> float:
        """Convert ``cycles`` (default: current time) to seconds."""
        c = self.now if cycles is None else cycles
        return c / self.clock_hz

    def new_address_space(self, va_base: int = None) -> AddressSpace:
        """A fresh address space sharing this machine's physical frames."""
        kwargs = {}
        if va_base is not None:
            kwargs["va_base"] = va_base
        return AddressSpace(
            self.cfg.phys_bits,
            spawn_rng(self._aspace_rng, f"aspace-{len(self._used_frames)}"),
            used_frames=self._used_frames,
            **kwargs,
        )

    # -- Event scheduling ------------------------------------------------------

    def schedule(self, time: int, fn: Callable[[int], None]) -> None:
        """Run ``fn(time)`` when the clock reaches ``time``."""
        if time < self.now:
            time = self.now
        self._event_seq += 1
        heapq.heappush(self._events, (time, self._event_seq, fn))

    def pending_events(self) -> int:
        return len(self._events)

    def _drain_events(self) -> None:
        events = self._events
        while events and events[0][0] <= self.now:
            t, _, fn = heapq.heappop(events)
            fn(t)

    def advance(self, cycles: int) -> None:
        """Advance the clock, running any events that come due.

        Events are executed after the clock reaches their timestamp; within
        one call they run in timestamp order.
        """
        target = self.now + cycles
        events = self._events
        while events and events[0][0] <= target:
            t, _, fn = heapq.heappop(events)
            if t > self.now:
                self.now = t
            fn(t)
        self.now = target

    def run_until(self, time: int) -> None:
        """Advance the clock to an absolute timestamp."""
        if time > self.now:
            self.advance(time - self.now)

    # -- Preemption (interrupts / context switches on the attacker core) ------

    def _preemption_penalty(self, dt: int) -> int:
        if self._preempt_per_cycle <= 0.0 or dt <= 0:
            return 0
        n = poisson(self._preempt_rng, self._preempt_per_cycle * dt)
        return n * self.noise_cfg.preemption_cycles

    # -- Memory operations -------------------------------------------------------

    def access(
        self, core: int, line: int, write: bool = False, advance: bool = True
    ) -> Tuple[Level, int]:
        """One load (or store); returns (hit level, latency).

        ``advance=False`` applies the cache-state effects without moving the
        clock — used for work that overlaps the main thread, like the helper
        thread's shadowing accesses.
        """
        events = self._events
        if events and events[0][0] <= self.now:
            self._drain_events()
        level = self.hierarchy.access(core, line, self.now, write=write)
        latency = self._level_latency[level]
        if advance:
            self.advance(latency)
        return level, latency

    def timed_access(self, core: int, line: int) -> int:
        """A load bracketed by timers, as the attacker would measure it.

        Includes fixed instrumentation overhead, uniform timer jitter, and
        any preemption that lands inside the measurement.
        """
        lat = self.cfg.latency
        events = self._events
        if events and events[0][0] <= self.now:
            self._drain_events()
        level = self.hierarchy.access(core, line, self.now)
        measured = (
            self._level_latency[level]
            + lat.timer_overhead
            + self._jitter_rng.randint(-lat.timer_jitter, lat.timer_jitter)
        )
        measured += self._preemption_penalty(measured)
        self.advance(measured)
        return measured

    def access_batch(
        self,
        core: int,
        lines: Sequence[int],
        write: bool = False,
        advance: bool = True,
        same_shared_set: bool = False,
        shadow_core: Optional[int] = None,
    ) -> int:
        """Overlapped (MLP) traversal of ``lines``; returns elapsed cycles.

        The unfused path's traversal entry point: one Machine call per
        batch, whose lines the hierarchy then accesses one by one
        (:meth:`CacheHierarchy.access_many`).  The fused kernels'
        ``load_sweep`` / ``store_sweep`` / ``prime_probe_kernel`` mirror
        it bit for bit (DESIGN.md §2.3).

        Cost model: the slowest access's full latency plus a per-line issue
        gap (small for private-cache hits, larger for uncore misses).  State
        updates are applied in order; events due at the start are drained
        first and the whole burst is atomic, which is accurate at the
        microsecond scale of one traversal.

        ``shadow_core`` interleaves a concurrent shadow access per line by
        that core (the helper thread making lines shared); only the main
        core's progress is costed.  ``same_shared_set=True`` asserts all
        lines are congruent (an eviction set) so background noise is
        reconciled once per batch — the hot path of every monitoring loop.
        The shadowed variant always reconciles per access, matching the
        per-line semantics it replaced.
        """
        if not lines:
            return 0
        events = self._events
        if events and events[0][0] <= self.now:
            self._drain_events()
        self.batch_calls += 1
        self.batch_lines += len(lines)
        lat = self.cfg.latency
        hier = self.hierarchy
        haccess = hier.access
        now = self.now
        worst = 0
        gaps = 0
        level_lat = self._level_latency
        hit_gap = lat.hit_issue_gap
        miss_gap = lat.issue_gap
        l2 = Level.L2
        if shadow_core is None:
            reconcile_each = True
            if same_shared_set:
                reconcile_each = False
                if hier.noise_source is not None:
                    hier.noise_source.reconcile(
                        hier, hier.shared_set_index(lines[0]), now
                    )
            for level in hier.access_many(
                core, lines, now, write=write, reconcile_each=reconcile_each
            ):
                lt = level_lat[level]
                if lt > worst:
                    worst = lt
                gaps += hit_gap if level <= l2 else miss_gap
        else:
            for line in lines:
                level = haccess(core, line, now)
                haccess(shadow_core, line, now)
                lt = level_lat[level]
                if lt > worst:
                    worst = lt
                gaps += hit_gap if level <= l2 else miss_gap
        elapsed = worst + gaps
        elapsed += self._preemption_penalty(elapsed)
        if advance:
            self.advance(elapsed)
        return elapsed

    def access_parallel(
        self,
        core: int,
        lines: Sequence[int],
        write: bool = False,
        advance: bool = True,
        same_shared_set: bool = False,
    ) -> int:
        """Compatibility alias for :meth:`access_batch` (no shadow core)."""
        return self.access_batch(
            core,
            lines,
            write=write,
            advance=advance,
            same_shared_set=same_shared_set,
        )

    def probe_batch(
        self,
        core: int,
        lines: Sequence[int],
        write: bool = False,
        same_shared_set: bool = False,
    ) -> int:
        """Timed overlapped traversal, as the attacker's probe measures it.

        Returns the traversal's elapsed cycles plus the fixed timer
        overhead — exactly what the monitoring loops previously computed by
        hand around :meth:`access_parallel`.
        """
        elapsed = self.access_batch(
            core, lines, write=write, same_shared_set=same_shared_set
        )
        return elapsed + self.cfg.latency.timer_overhead

    def access_chase(
        self,
        core: int,
        lines: Sequence[int],
        write: bool = False,
        shadow_core: Optional[int] = None,
    ) -> int:
        """Serialized pointer-chase traversal; returns elapsed cycles.

        Each access waits for the previous one (plus address-generation/TLB
        overhead), and scheduled events interleave between accesses — so a
        long chase exposes the target set to the full noise window.

        ``shadow_core`` interleaves a concurrent (zero-cost) shadow access
        per line, turning each line shared.  The shadowed chase is costed as
        the main core's load latency plus the chase overhead per line — the
        overhead overlaps the helper's work, so it is charged but not
        clocked — and ``write`` does not apply (the main access is a plain
        load; making a line shared and exclusive at once is contradictory).
        """
        lat = self.cfg.latency
        total = 0
        if shadow_core is None:
            events = self._events
            for line in lines:
                if events and events[0][0] <= self.now:
                    self._drain_events()
                level = self.hierarchy.access(core, line, self.now, write=write)
                step = self._level_latency[level] + lat.chase_overhead
                step += self._preemption_penalty(step)
                self.advance(step)
                total += step
        else:
            for line in lines:
                _, latency = self.access(core, line)
                self.access(shadow_core, line, advance=False)
                total += latency + lat.chase_overhead
        return total

    def flush(self, line: int) -> int:
        """clflush one line; returns elapsed cycles."""
        self._drain_events()
        self.hierarchy.flush_line(line, self.now)
        cost = self.cfg.latency.flush
        self.advance(cost)
        return cost

    def flush_batch(self, lines: Sequence[int]) -> int:
        """Back-to-back clflushes (they pipeline); returns elapsed cycles."""
        if not lines:
            return 0
        self._drain_events()
        for line in lines:
            self.hierarchy.flush_line(line, self.now)
        lat = self.cfg.latency
        cost = lat.flush + (len(lines) - 1) * lat.flush_gap
        cost += self._preemption_penalty(cost)
        self.advance(cost)
        return cost

    def flush_all_caches(self) -> None:
        """Drop every cached line from every structure (instantaneous).

        Passes the current cycle into each cache's ``flush_all`` so the
        per-set noise-reconciliation clocks are carried forward instead of
        being reset — a reset would make the next access to each set draw a
        Poisson catch-up over the machine's entire elapsed history.
        """
        hier = self.hierarchy
        now = self.now
        for cache in hier.l1:
            cache.flush_all(now)
        for cache in hier.l2:
            cache.flush_all(now)
        hier.sf.flush_all(now)
        hier.llc.flush_all(now)

    # -- Attacker-visible timing helpers -----------------------------------------

    def hit_threshold_private(self) -> int:
        """Latency threshold separating private-cache hits from the uncore."""
        lat = self.cfg.latency
        return lat.timer_overhead + (lat.l2_hit + lat.llc_hit) // 2

    def hit_threshold_llc(self) -> int:
        """Latency threshold separating LLC hits from DRAM."""
        lat = self.cfg.latency
        return lat.timer_overhead + (lat.llc_hit + lat.dram) // 2
