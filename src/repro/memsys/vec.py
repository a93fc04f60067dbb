"""Memo-replay kernels — the vec tier.

:class:`VecKernels` extends :class:`~repro.memsys.kernels.AttackKernels`
with a round-level memoization of ``_monitor_round``, the Prime+Probe hot
loop.  It is the kernel bundle of every machine
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

With the memo switched off (:func:`vec_disabled`) a ``VecKernels`` runs
exactly the inherited kernels; the parity suites use that as the live
control.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import Dict, Optional, Tuple

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


class _RoundGeometry:
    """Precomputed index planes + recordings for one (vas, count, write).

    ``entries`` maps a pre-state vector (the validated slice, as a tuple
    of tuples) to the recorded post-state delta.  Steady-state monitoring
    cycles through a tiny number of distinct pre-states per shape, so the
    dict stays small; it is cleared wholesale if it ever grows past the
    cap (state churn from an unusual workload).
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
        self.entries: Dict[tuple, tuple] = {}


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

    def _monitor_round(self, rows, count: int, write: bool) -> int:
        m = self.machine
        ok = self._vec_ok
        if ok is None:
            ok = self._vec_ok = self._vec_shapes_ok()
        if not ok or not VEC_ENABLED or not count:
            return super()._monitor_round(rows, count, write)
        # The live round's first steps, live on both paths (the recorded
        # path's repeat of them inside the live round is a no-op).
        events = m._events
        if events and events[0][0] <= m.now:
            m._drain_events()
        hier = self.hierarchy
        noise = hier.noise_source
        if noise is not None:
            noise.reconcile(hier, rows.shared_sets[0], m.now)
        core = self.main_core
        l1 = hier.l1[core]
        l2 = hier.l2[core]
        sf = hier.sf
        key = (rows.vas, count, write)
        vmemo = self._vmemo
        geom = vmemo.get(key)
        if geom is None:
            if len(vmemo) >= self._VMEMO_CAP:
                vmemo.clear()
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
        rec = geom.entries.get(pre)
        if rec is not None:
            return self._replay(m, hier, l1, l2, sf, count, geom, rec)
        return self._record(m, rows, count, write, geom, pre, l1, l2, sf)

    def _record(self, m, rows, count: int, write: bool, geom, pre,
                l1, l2, sf) -> int:
        """Run the round live; capture its delta if it was a pure hit walk."""
        hier = self.hierarchy
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
        pre_t = pre[0]
        post_t = geom.g_l1(l1._tags)
        wdel = []
        wadd = []
        n1 = l1.n_sets
        slots = geom.l1_slots
        psets = geom.l1_pos_sets
        for i in range(len(slots)):
            a = pre_t[i]
            b = post_t[i]
            if a != b:
                if a is not None:
                    wdel.append(a * n1 + psets[i])
                if b is not None:
                    wadd.append((b * n1 + psets[i], slots[i]))
        tag_segs = tuple(l1._tags[a:b] for a, b in geom.l1_tag_ranges)
        own_segs = tuple(l1._owners[a:b] for a, b in geom.l1_tag_ranges)
        st_segs = tuple(l1._state[a:b] for a, b in geom.l1_state_ranges)
        occ_post = tuple(l1._occ[s] for s in geom.l1_sets)
        post_touch = geom.g_l1_touched(l1._touched)
        marks = tuple(
            s for s, a, b in zip(geom.l1_sets, pre[3], post_touch)
            if not a and b
        )
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
        entries = geom.entries
        if len(entries) >= self._ENTRY_CAP:
            entries.clear()
        entries[pre] = (
            tag_segs, own_segs, st_segs, occ_post, tuple(wdel), tuple(wadd),
            marks, tuple(l2w), tuple(sfw), d, elapsed_base,
        )
        return ret

    def _replay(self, m, hier, l1, l2, sf, count: int, geom, rec) -> int:
        """Apply a recorded pure round: O(touched slots), no per-line work."""
        m.batch_calls += 1
        m.batch_lines += count
        tags = l1._tags
        owners = l1._owners
        state = l1._state
        ranges = geom.l1_tag_ranges
        for (a, b), seg in zip(ranges, rec[0]):
            tags[a:b] = seg
        for (a, b), seg in zip(ranges, rec[1]):
            owners[a:b] = seg
        for (a, b), seg in zip(geom.l1_state_ranges, rec[2]):
            state[a:b] = seg
        occ = l1._occ
        for s, v in zip(geom.l1_sets, rec[3]):
            occ[s] = v
        where = l1._where
        for k in rec[4]:
            del where[k]
        for k, s in rec[5]:
            where[k] = s
        if rec[6]:
            touched = l1._touched
            for s in rec[6]:
                touched[s] = 1
            l1._touched_count += len(rec[6])
        l2w = rec[7]
        if l2w:
            lru = l2._lru
            base = lru._stamp
            st = l2._state
            for s, k in l2w:
                st[s] = base + k
            lru._stamp = base + len(l2w)
        sfw = rec[8]
        if sfw:
            lru = sf._lru
            base = lru._stamp
            st = sf._state
            for s, k in sfw:
                st[s] = base + k
            lru._stamp = base + len(sfw)
        d = rec[9]
        stats = hier.stats
        stats.accesses += d[0]
        stats.l1_hits += d[1]
        stats.l2_hits += d[2]
        l1.policy_touches += d[3]
        l1.policy_fills += d[4]
        l1.policy_victims += d[5]
        l2.policy_touches += d[6]
        sf.policy_touches += d[7]
        elapsed = rec[10]
        elapsed += m._preemption_penalty(elapsed)
        m.advance(elapsed)
        return elapsed
