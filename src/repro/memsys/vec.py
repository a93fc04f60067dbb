"""Memo-replay kernels — the vec tier.

:class:`VecKernels` extends :class:`~repro.memsys.kernels.AttackKernels`
with a round-level memoization of ``_monitor_round``, the Prime+Probe hot
loop, and with :meth:`VecKernels.probe_window`, which runs a whole
Parallel Probing window (``core.monitor.monitor_set``) over that memo.  It
is the kernel bundle of every machine
(:meth:`repro.core.context.AttackerContext.kernels`).

A monitor round starts the way the live round does, and runs those steps
live on both paths: drain the machine events that are due, then reconcile
background noise on the congruent set.  The round's remaining work is a
walk over the eviction set.  In the steady state every line hits L1/L2;
that walk draws no randomness and is a pure function of a small,
enumerable state slice:

* the L1 tag/owner/state plane of the touched sets (tree-PLRU bits are
  *read* on evictions, so they are validated raw),
* the L2 tags of the touched sets (stamps are write-only in a hit round:
  recency updates never read existing stamp values),
* the SF tags/owners of the congruent set (write rounds only; probe
  rounds never consult the SF).

A round is recorded once — run live, with the state delta captured only if
the stats deltas prove it was a pure hit walk — and replayed thereafter:
validate the slice, apply the recorded delta, advance the clock.  LRU
stamps are replayed *relative* to the current global stamp counter
(``state[slot] = stamp_now + k``), never as absolute values, because
untouched slots keep drifting absolute stamps between record and replay
while the within-round write order is invariant.

The walk's only neighbours that draw — the reconcile before it and the
preemption penalty after it — run live on both paths, and an event that
is pending but not yet due cannot touch a hit walk (``advance()`` runs it
after the walk on both paths).  So replay consumes every serial RNG
stream exactly as the live round does.

**Folding quiet probes.**  Inside :meth:`VecKernels.probe_window` a read
round whose recorded post-state is itself a recorded pre-state links to
that successor recording, so the next probe needs neither the slice key
nor the planes: it is *folded*.  Its due-event check, reconcile,
preemption draw and clock advance still run live, in order; its plane
writes are owed, and a whole stretch of folded probes is written back
once — the L1 sets take the last round's tags, owners and PLRU bits, the
L2 stamps are rewritten relative to the stamp counter, and counters add
each recording's delta times its fold count.  Owed writes land before
anything can observe the slice: a due event, the first noise insertion
of a reconcile, a live (recording) round, a prime, a scrub, the window's
end, or an exception.

With the memo switched off (:func:`vec_disabled`) a ``VecKernels`` runs
exactly the inherited kernels, and ``monitor_set`` its per-round loop;
the parity suites use that as the live control.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .kernels import AttackKernels
from .policy_tables import TreePLRU8Table

#: Kill switch for the memo-replay path (the parity suites use it to run
#: the same VecKernels object live, proving replay == live bit for bit).
VEC_ENABLED = True


@contextmanager
def vec_disabled():
    """Temporarily run every monitor round live (no memo-replay)."""
    global VEC_ENABLED
    saved = VEC_ENABLED
    VEC_ENABLED = False
    try:
        yield
    finally:
        VEC_ENABLED = saved


def _tuple_getter(idx):
    """An ``itemgetter`` that always returns a tuple (even for one index)."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq, _i=i: (seq[_i],)
    return itemgetter(*idx)


# A recording is a list.  Its first slots hold the recorded post-state of
# the touched L1 sets (tag/owner/state segments, occupancies, the flat tag
# tuple and touched flags), the L2/SF stamp writes relative to the stamp
# counter, the counter deltas, the deterministic elapsed cycles, and (read
# rounds only) the post-state as a slice key.  The last three slots are
# fold scratch: the successor link, the fold count of the current stretch
# and the L2 stamp offset of its last fold.
(_TAGS, _OWNERS, _STATE, _OCC, _POST_T, _TOUCH, _L2W, _SFW, _DELTA, _BASE,
 _POST, _NEXT, _N, _AT) = range(14)

_at = itemgetter(_AT)


def _drop_entries(entries: Dict[tuple, list]) -> None:
    """Forget a shape's recordings together with the links between them."""
    for rec in entries.values():
        rec[_NEXT] = None
    entries.clear()


class _RoundGeometry:
    """Precomputed index planes + recordings for one (vas, count, write).

    ``entries`` maps a pre-state vector (the validated slice, as a tuple
    of tuples) to the recorded round.  Steady-state monitoring cycles
    through a tiny number of distinct pre-states per shape, so the dict
    stays small; it is cleared wholesale if it ever grows past the cap
    (state churn from an unusual workload).
    """

    __slots__ = (
        "entries",
        "l1_sets",
        "l1_tag_ranges",
        "l1_state_ranges",
        "l1_slots",
        "l1_pos_sets",
        "g_l1",
        "g_l1_state",
        "g_l1_touched",
        "l2_slots",
        "g_l2",
        "sf_slots",
        "g_sf",
    )

    def __init__(self, rows, count: int, write: bool, l1, l2, sf) -> None:
        w1 = l1.ways
        l1_sets = sorted(set(rows.l1_sets[:count]))
        self.l1_sets = l1_sets
        self.l1_tag_ranges = [(s * w1, s * w1 + w1) for s in l1_sets]
        self.l1_state_ranges = [(s * 7, s * 7 + 7) for s in l1_sets]
        slots = [s * w1 + w for s in l1_sets for w in range(w1)]
        self.l1_slots = slots
        self.l1_pos_sets = [s for s in l1_sets for _ in range(w1)]
        self.g_l1 = _tuple_getter(slots)
        self.g_l1_state = _tuple_getter(
            [s * 7 + k for s in l1_sets for k in range(7)]
        )
        self.g_l1_touched = _tuple_getter(l1_sets)
        w2 = l2.ways
        l2_slots = [
            s * w2 + w for s in sorted(set(rows.l2_sets[:count]))
            for w in range(w2)
        ]
        self.l2_slots = l2_slots
        # LRU state stride == ways, so state indices coincide with slots
        # and one getter serves tags, owners, and stamps alike.
        self.g_l2 = _tuple_getter(l2_slots)
        if write:
            wsf = sf.ways
            sf_slots = [
                s * wsf + w for s in sorted(set(rows.shared_sets[:count]))
                for w in range(wsf)
            ]
            self.sf_slots = sf_slots
            self.g_sf = _tuple_getter(sf_slots)
        else:
            self.sf_slots = []
            self.g_sf = None
        self.entries: Dict[tuple, list] = {}


class VecKernels(AttackKernels):
    """Fused kernels with memo-replay of monitor rounds.

    Engages only when the touched structures have the shapes the replay
    understands (tree-PLRU8 L1, LRU L2/SF — the default
    microarchitecture); anything else falls back to the inherited live
    kernels, bit for bit.
    """

    #: Bound on distinct (vas, count, write) round shapes kept.
    _VMEMO_CAP = 1024
    #: Bound on recorded pre-states per shape.
    _ENTRY_CAP = 64

    __slots__ = ("_vmemo", "_vec_ok")

    def __init__(self, machine, plane, main_core: int = 0,
                 helper_core: int = 1) -> None:
        super().__init__(machine, plane, main_core, helper_core)
        self._vmemo: Dict[Tuple[Tuple[int, ...], int, bool],
                          _RoundGeometry] = {}
        self._vec_ok: Optional[bool] = None

    def invalidate_memos(self) -> None:
        """Drop every recorded round (address-space change hook)."""
        for geom in self._vmemo.values():
            _drop_entries(geom.entries)
        self._vmemo.clear()

    def _vec_shapes_ok(self) -> bool:
        if not self.engaged():
            return False
        hier = self.hierarchy
        l1 = hier.l1[self.main_core]
        l2 = hier.l2[self.main_core]
        return (
            type(l1._pol) is TreePLRU8Table
            and l1.ways == 8
            and l2._lru is not None
            and hier.sf._lru is not None
        )

    def memo_on(self) -> bool:
        """Whether monitor rounds are memo-replayed: the machine has the
        shapes the replay understands and :func:`vec_disabled` is not in
        force."""
        ok = self._vec_ok
        if ok is None:
            ok = self._vec_ok = self._vec_shapes_ok()
        return ok and VEC_ENABLED

    def _monitor_round(self, rows, count: int, write: bool) -> int:
        if not count or not self.memo_on():
            return super()._monitor_round(rows, count, write)
        # The live round's first steps, live on both paths (the recorded
        # path's repeat of them inside the live round is a no-op).
        m = self.machine
        events = m._events
        if events and events[0][0] <= m.now:
            m._drain_events()
        hier = self.hierarchy
        noise = hier.noise_source
        if noise is not None:
            noise.reconcile(hier, rows.shared_sets[0], m.now)
        geom, pre, rec = self._lookup(rows, count, write)
        if rec is not None:
            return self._replay(geom, rec)
        return self._record(rows, count, write, geom, pre)

    def _lookup(self, rows, count: int, write: bool):
        """``(geometry, pre-state key, recording or None)`` of a round."""
        hier = self.hierarchy
        core = self.main_core
        l1 = hier.l1[core]
        l2 = hier.l2[core]
        sf = hier.sf
        key = (rows.vas, count, write)
        vmemo = self._vmemo
        geom = vmemo.get(key)
        if geom is None:
            if len(vmemo) >= self._VMEMO_CAP:
                self.invalidate_memos()
            geom = _RoundGeometry(rows, count, write, l1, l2, sf)
            vmemo[key] = geom
        g_sf = geom.g_sf
        pre = (
            geom.g_l1(l1._tags),
            geom.g_l1(l1._owners),
            geom.g_l1_state(l1._state),
            geom.g_l1_touched(l1._touched),
            geom.g_l2(l2._tags),
            g_sf(sf._tags) if write else (),
            g_sf(sf._owners) if write else (),
        )
        return geom, pre, geom.entries.get(pre)

    def _record(self, rows, count: int, write: bool, geom, pre) -> int:
        """Run the round live; capture its delta if it was a pure hit walk."""
        m = self.machine
        hier = self.hierarchy
        core = self.main_core
        l1 = hier.l1[core]
        l2 = hier.l2[core]
        sf = hier.sf
        stats = hier.stats
        s0 = (
            stats.accesses, stats.l1_hits, stats.l2_hits, stats.llc_hits,
            stats.sf_transfers, stats.dram_fetches, stats.flushes,
            stats.noise_insertions, stats.sf_back_invalidations,
        )
        p0 = (
            l1.policy_touches, l1.policy_fills, l1.policy_victims,
            l2.policy_touches, sf.policy_touches,
        )
        l2_stamp0 = l2._lru._stamp
        sf_stamp0 = sf._lru._stamp
        l2_state_pre = geom.g_l2(l2._state)
        sf_state_pre = geom.g_sf(sf._state) if write else ()
        ret = super()._monitor_round(rows, count, write)
        d_acc = stats.accesses - s0[0]
        d_h1 = stats.l1_hits - s0[1]
        d_h2 = stats.l2_hits - s0[2]
        # Purity detector: every fallback path in the fused round bumps at
        # least one of these counters (misses, transfers, back-invals...),
        # so "count accesses, all of them L1/L2 hits, nothing else moved"
        # proves the round stayed on the inline hit walk.
        if (
            d_acc != count
            or d_h1 + d_h2 != count
            or stats.llc_hits != s0[3]
            or stats.sf_transfers != s0[4]
            or stats.dram_fetches != s0[5]
            or stats.flushes != s0[6]
            or stats.noise_insertions != s0[7]
            or stats.sf_back_invalidations != s0[8]
        ):
            return ret
        l2_state_post = geom.g_l2(l2._state)
        l2_slots = geom.l2_slots
        l2w = [
            (l2_slots[i], l2_state_post[i] - l2_stamp0)
            for i in range(len(l2_slots))
            if l2_state_post[i] != l2_state_pre[i]
        ]
        if l2._lru._stamp - l2_stamp0 != len(l2w):
            return ret
        if write:
            sf_state_post = geom.g_sf(sf._state)
            sf_slots = geom.sf_slots
            sfw = [
                (sf_slots[i], sf_state_post[i] - sf_stamp0)
                for i in range(len(sf_slots))
                if sf_state_post[i] != sf_state_pre[i]
            ]
            if sf._lru._stamp - sf_stamp0 != len(sfw):
                return ret
        else:
            sfw = []
            if sf._lru._stamp != sf_stamp0:
                return ret
        # Base elapsed of a pure hit round, re-derived from the fused
        # loop's arithmetic (the preemption penalty is drawn live at
        # replay, so only the deterministic part is recorded).
        lat = m.cfg.latency
        worst = 0
        if d_h1:
            worst = lat.l1_hit
        if d_h2 and lat.l2_hit > worst:
            worst = lat.l2_hit
        elapsed_base = worst + count * lat.hit_issue_gap
        d = (
            d_acc, d_h1, d_h2,
            l1.policy_touches - p0[0],
            l1.policy_fills - p0[1],
            l1.policy_victims - p0[2],
            l2.policy_touches - p0[3],
            sf.policy_touches - p0[4],
        )
        post_t = geom.g_l1(l1._tags)
        post_touch = geom.g_l1_touched(l1._touched)
        post = None if write else (
            post_t,
            geom.g_l1(l1._owners),
            geom.g_l1_state(l1._state),
            post_touch,
            geom.g_l2(l2._tags),
            (),
            (),
        )
        entries = geom.entries
        if len(entries) >= self._ENTRY_CAP:
            _drop_entries(entries)
        entries[pre] = [
            tuple(l1._tags[a:b] for a, b in geom.l1_tag_ranges),
            tuple(l1._owners[a:b] for a, b in geom.l1_tag_ranges),
            tuple(l1._state[a:b] for a, b in geom.l1_state_ranges),
            tuple(l1._occ[s] for s in geom.l1_sets),
            post_t, post_touch, tuple(l2w), tuple(sfw), d, elapsed_base,
            post, None, 0, 0,
        ]
        return ret

    def _replay(self, geom, rec) -> int:
        """Apply a recorded pure round: O(touched slots), no per-line work."""
        rec[_N] = 1
        rec[_AT] = 0
        self._land(geom, rec, (rec,))
        sfw = rec[_SFW]
        if sfw:
            sf = self.hierarchy.sf
            lru = sf._lru
            base = lru._stamp
            st = sf._state
            for s, k in sfw:
                st[s] = base + k
            lru._stamp = base + len(sfw)
        m = self.machine
        elapsed = rec[_BASE]
        elapsed += m._preemption_penalty(elapsed)
        m.advance(elapsed)
        return elapsed

    def _land(self, geom, last, folded) -> None:
        """Write rounds whose pre-state the planes hold back to the planes.

        The touched L1 sets take ``last``'s post-state, with the
        ``_where`` index and touched marks diffed against the planes.
        Each recording in ``folded`` adds its fold count times its
        counter deltas and L2 stamp writes, and rewrites its L2 stamps at
        the stamp offset of its last fold.  The fold counts are reset.
        """
        m = self.machine
        hier = self.hierarchy
        core = self.main_core
        l1 = hier.l1[core]
        l2 = hier.l2[core]
        tags = l1._tags
        cur = geom.g_l1(tags)
        post = last[_POST_T]
        if cur != post:
            where = l1._where
            n1 = l1.n_sets
            psets = geom.l1_pos_sets
            slots = geom.l1_slots
            added = []
            for i in range(len(post)):
                a = cur[i]
                b = post[i]
                if a != b:
                    if a is not None:
                        del where[a * n1 + psets[i]]
                    if b is not None:
                        added.append(i)
            for i in added:
                where[post[i] * n1 + psets[i]] = slots[i]
        ranges = geom.l1_tag_ranges
        for (a, b), seg in zip(ranges, last[_TAGS]):
            tags[a:b] = seg
        owners = l1._owners
        for (a, b), seg in zip(ranges, last[_OWNERS]):
            owners[a:b] = seg
        state = l1._state
        for (a, b), seg in zip(geom.l1_state_ranges, last[_STATE]):
            state[a:b] = seg
        occ = l1._occ
        touched = l1._touched
        for s, v, t in zip(geom.l1_sets, last[_OCC], last[_TOUCH]):
            occ[s] = v
            if t and not touched[s]:
                touched[s] = 1
                l1._touched_count += 1
        if len(folded) > 1:
            folded = sorted(folded, key=_at)
        lru = l2._lru
        base = lru._stamp
        st = l2._state
        stats = hier.stats
        rounds = lines = bumps = 0
        for rec in folded:
            at = base + rec[_AT]
            l2w = rec[_L2W]
            for s, k in l2w:
                st[s] = at + k
            n = rec[_N]
            rec[_N] = 0
            d = rec[_DELTA]
            rounds += n
            bumps += n * len(l2w)
            lines += n * d[0]
            stats.accesses += n * d[0]
            stats.l1_hits += n * d[1]
            stats.l2_hits += n * d[2]
            l1.policy_touches += n * d[3]
            l1.policy_fills += n * d[4]
            l1.policy_victims += n * d[5]
            l2.policy_touches += n * d[6]
            hier.sf.policy_touches += n * d[7]
        lru._stamp = base + bumps
        m.batch_calls += rounds
        m.batch_lines += lines

    # -- Parallel Probing window ---------------------------------------------

    def probe_window(self, monitor, end: int, max_events: Optional[int],
                     loop_overhead_cycles: int,
                     refresh_quiet_probes: int) -> List[int]:
        """``core.monitor.monitor_set``'s loop for a primed Parallel
        Probing ``monitor``, with quiet probes folded; returns the
        detection timestamps.

        Bit for bit the per-round loop: the same loop-overhead advance,
        scrub cadence (``monitor._probes_since_scrub`` carries over
        between windows), probe round, detection timestamp and re-prime,
        quiet refresh and ``max_events`` cut-off.  Primes and scrubs run
        through ``monitor.prime`` / ``monitor._llc_scrub`` and probe
        latencies go to ``monitor.probe_latencies``.  Only the memo-on
        path calls this (:meth:`memo_on`).
        """
        m = self.machine
        hier = self.hierarchy
        noise = hier.noise_source
        events = m._events
        rows = monitor._rows
        count = len(rows)
        sidx = rows.shared_sets[0]
        prime = monitor.prime
        probed = monitor.probe_latencies.append
        threshold = monitor._detect_threshold
        scrub_period = monitor.llc_scrub_period
        timer = m.cfg.latency.timer_overhead
        since = monitor._probes_since_scrub
        timestamps: List[int] = []
        quiet = 0
        geom = None
        # The recording whose post-state the slice holds (owed, while the
        # stretch is non-empty), the distinct recordings folded since the
        # last write-back, and how many L2 stamps the stretch has written.
        cursor = None
        stretch: list = []
        bumps = 0

        def land() -> None:
            nonlocal cursor, bumps
            if stretch:
                self._land(geom, cursor, stretch)
                stretch.clear()
                bumps = 0
            cursor = None

        try:
            while m.now < end:
                if loop_overhead_cycles:
                    if events and events[0][0] <= m.now + loop_overhead_cycles:
                        land()
                    m.advance(loop_overhead_cycles)
                since += 1
                if scrub_period and since >= scrub_period:
                    since = 0
                    land()
                    monitor._llc_scrub(self)
                # The probe round (``_monitor_round``, read sweep).
                if events and events[0][0] <= m.now:
                    land()
                    m._drain_events()
                if noise is not None:
                    noise.reconcile(hier, sidx, m.now, land)
                rec = None
                if cursor is not None:
                    rec = cursor[_NEXT]
                    if rec is None:
                        rec = cursor[_NEXT] = geom.entries.get(cursor[_POST])
                if rec is None:
                    land()
                    geom, pre, rec = self._lookup(rows, count, False)
                if rec is None:
                    elapsed = self._record(rows, count, False, geom, pre)
                else:
                    n = rec[_N]
                    if not n:
                        stretch.append(rec)
                    rec[_N] = n + 1
                    rec[_AT] = bumps
                    bumps += len(rec[_L2W])
                    cursor = rec
                    elapsed = rec[_BASE]
                    elapsed += m._preemption_penalty(elapsed)
                    if events and events[0][0] <= m.now + elapsed:
                        land()
                    m.advance(elapsed)
                measured = elapsed + timer
                probed(measured)
                if measured > threshold:
                    quiet = 0
                    timestamps.append(m.now)
                    land()
                    prime()
                    if max_events is not None and len(timestamps) >= max_events:
                        break
                else:
                    quiet += 1
                    if refresh_quiet_probes and quiet >= refresh_quiet_probes:
                        quiet = 0
                        land()
                        prime()
        finally:
            land()
            monitor._probes_since_scrub = since
        return timestamps
