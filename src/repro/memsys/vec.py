"""Memo-replay kernels — the vec tier.

:class:`VecKernels` extends :class:`~repro.memsys.kernels.AttackKernels`
with a round-level memoization of ``_monitor_round``, the Prime+Probe hot
loop, and a test-level memoization of ``test_eviction_kernel`` (see the
construction-test section below).  It is the kernel bundle of every
machine (:meth:`repro.core.context.AttackerContext.kernels`).

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
after the walk on both paths).  So replay consumes every RNG stream
exactly as the live round does, under the serial and the counter
contract alike.  The construction-test memo is different: a test draws
in the middle of its state changes, so it needs the counter contract and
engages only on counter-RNG machines.

With both memos switched off (:func:`vec_disabled` plus
:func:`construct_memo_disabled`) a ``VecKernels`` runs exactly the
inherited kernels; the parity suites use that as the live control.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .hierarchy import _NOISE_TAG_BASE
from .kernels import AttackKernels, PlaneRows
from .policy_tables import TreePLRU8Table

#: Kill switch for the memo-replay path (the parity suites use it to run
#: the same VecKernels object live, proving replay == live bit for bit).
VEC_ENABLED = True

#: Kill switch for the construction-test memo (``test_eviction_kernel`` /
#: ``test_many_kernel`` record/replay).  Separate from :data:`VEC_ENABLED`
#: so benches can compare the two layers independently.
CMEMO_ENABLED = True


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


@contextmanager
def construct_memo_disabled():
    """Temporarily run every eviction test live (no construct memo)."""
    global CMEMO_ENABLED
    saved = CMEMO_ENABLED
    CMEMO_ENABLED = False
    try:
        yield
    finally:
        CMEMO_ENABLED = saved


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
    """Fused kernels with memo-replay of monitor rounds and (counter
    contract only) construction tests.

    Engages only when the touched structures have the shapes the replay
    understands (tree-PLRU8 L1, LRU L2/SF — the default
    microarchitecture); anything else falls back to the inherited live
    kernels, bit for bit.
    """

    #: Bound on distinct (vas, count, write) round shapes kept.
    _VMEMO_CAP = 1024
    #: Bound on recorded pre-states per shape.
    _ENTRY_CAP = 64
    #: Bound on distinct construct-test shapes kept.  Sized to hold a
    #: whole construction's test sequence (a few thousand shapes) so a
    #: repeated run — the scenario the memo exists for — still finds
    #: every shape it marked the first time around.
    _CMEMO_CAP = 8192
    #: Bound on recorded pre-states per construct-test shape.
    _CM_ENTRY_CAP = 4
    #: Bound on the state-slice closure (rows across all structures); a
    #: test whose read/write closure is larger runs live, unmemoized.
    _CM_MAX_ROWS = 4096

    __slots__ = ("_vmemo", "_vec_ok", "_cmemo", "_cm_ok")

    def __init__(self, machine, plane, main_core: int = 0,
                 helper_core: int = 1) -> None:
        super().__init__(machine, plane, main_core, helper_core)
        self._vmemo: Dict[Tuple[Tuple[int, ...], int, bool],
                          _RoundGeometry] = {}
        self._vec_ok: Optional[bool] = None
        self._cmemo: Dict[tuple, Optional[dict]] = {}
        self._cm_ok: Optional[bool] = None

    def invalidate_memos(self) -> None:
        """Drop every recorded round and test (address-space change hook)."""
        self._vmemo.clear()
        self._cmemo.clear()

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

    # -- Construction-test memo-replay ----------------------------------------
    #
    # ``test_eviction_kernel`` is the whole construction hot path: one
    # prime + flush + traversal + timed reload per group-testing or
    # binary-search iteration.  Under the counter contract every
    # stochastic draw the test can make is a pure function of state the
    # test reads — noise windows are keyed by (set, clock), reuse and
    # L2-victim draws by per-event counters, and the two serial streams
    # that stay live in every mode (preemption, timer jitter) are part
    # of the captured precondition.  A test whose *entire read closure*
    # matches a recorded precondition therefore replays exactly: same
    # verdict, same machine state after, same clock advance, same RNG
    # positions.  The memo key is (shape, pre-state slice) where shape =
    # (mode, target line, candidate tuple, count, repeats, threshold)
    # and the slice covers the transitive closure of rows the test can
    # touch (see _cm_closure).  Within one fresh construction keys
    # essentially never repeat (the machine state advances test to
    # test); the memo pays when work literally repeats — campaigns
    # restored from a trial-prefix checkpoint (repro.exec.prefix),
    # re-validation passes, and fleet shard replays.

    def _cm_shapes_ok(self) -> bool:
        """Construct memo gate: counter contract + stamp-policy planes.

        The row capture/restore is policy-agnostic over plain state
        planes, but keyed *victim* draws of random-replacement policies
        keep per-set counters inside the policy table; the default
        geometry (tree-PLRU8 L1, LRU L2/SF/LLC) has none.
        """
        hier = self.hierarchy
        if getattr(hier, "crng", None) is None or not self._vec_shapes_ok():
            return False
        noise = hier.noise_source
        if noise is not None and noise.crng is None:
            return False
        if hier.llc._lru is None:
            return False
        for cache in (*hier.l1, *hier.l2, hier.sf, hier.llc):
            if getattr(cache._pol, "_ctr", None) is not None:
                return False
        return True

    def _cm_closure(self, rows: PlaneRows, count: int, tline: int):
        """Transitive read/write closure of one test, as row index sets.

        Returns ``(S1, S2, SS)`` — L1, L2, and shared (SF/LLC) set
        indices — or None when the closure exceeds :data:`_CM_MAX_ROWS`.

        Closure rules (each a "this write can land there" edge):

        * the candidate rows and the target's rows are touched directly;
        * a shared-set row's *resident* real tags can be evicted (SF
          back-invalidation, LLC inclusion victim), which writes their
          private L1/L2 rows on every core;
        * a hot-core L2 row's resident tags can fall victim to a fill,
          and ``_handle_l2_victim`` then touches the victim line's
          shared set (SF disposition, write-back LLC install) — whose
          residents recurse through the first rule.

        Tags *installed during* the test are candidate lines, the
        target, or fresh noise tags — their rows are already in the
        closure (noise tags have no private copies and never
        back-invalidate), so the fixpoint over the initial state covers
        every intermediate state too.
        """
        hier = self.hierarchy
        l1_mask = hier._l1_mask
        l2_mask = hier._l2_mask
        sidx_memo = hier._sidx_memo
        sidx_of = hier.shared_set_index
        sf = hier.sf
        llc = hier.llc
        nb = _NOISE_TAG_BASE
        cores = hier.cfg.cores
        S1 = set(rows.l1_sets[:count])
        S2 = set(rows.l2_sets[:count])
        SS = set(rows.shared_sets[:count])
        S1.add(tline & l1_mask)
        S2.add(tline & l2_mask)
        ts = sidx_memo.get(tline)
        if ts is None:
            ts = sidx_of(tline)
        SS.add(ts)
        new_ss = list(SS)
        new_s2 = list(S2)
        sf_tags = sf._tags
        llc_tags = llc._tags
        sfw = sf.ways
        llcw = llc.ways
        hot_l2 = (hier.l2[self.main_core], hier.l2[self.helper_core])
        max_rows = self._CM_MAX_ROWS
        while new_ss or new_s2:
            if len(SS) * 2 + (len(S2) + len(S1)) * cores > max_rows:
                return None
            nxt_s2: List[int] = []
            for s in new_ss:
                for tags, w in ((sf_tags, sfw), (llc_tags, llcw)):
                    b = s * w
                    for t in tags[b:b + w]:
                        if t is not None and t < nb:
                            S1.add(t & l1_mask)
                            s2 = t & l2_mask
                            if s2 not in S2:
                                S2.add(s2)
                                nxt_s2.append(s2)
            nxt_ss: List[int] = []
            for s in new_s2:
                for c in hot_l2:
                    w = c.ways
                    b = s * w
                    for t in c._tags[b:b + w]:
                        if t is not None and t < nb:
                            ss = sidx_memo.get(t)
                            if ss is None:
                                ss = sidx_of(t)
                            if ss not in SS:
                                SS.add(ss)
                                nxt_ss.append(ss)
            new_ss = nxt_ss
            new_s2 = nxt_s2
        return S1, S2, SS

    def _cm_planes(self, s1, s2, ss):
        """The (cache, rows, is_shared) capture schedule for a closure."""
        hier = self.hierarchy
        return (
            tuple((c, s1, False) for c in hier.l1)
            + tuple((c, s2, False) for c in hier.l2)
            + ((hier.sf, ss, True), (hier.llc, ss, True))
        )

    @staticmethod
    def _cm_cap_rows(planes):
        """Row-state slice over the closure: one tuple per (cache, set).

        Each row entry is (tags, owners, policy-state, occupancy,
        noise clock, touched bit) — everything the data plane keeps per
        set.  All C-level slicing; tuples so the whole capture hashes as
        a memo key.
        """
        out = []
        for cache, rows_, shared in planes:
            w = cache.ways
            ps = cache._pstride
            tags = cache._tags
            owners = cache._owners
            state = cache._state
            occ = cache._occ
            nt = cache._noise_t
            tt = cache._touched
            for s in rows_:
                b = s * w
                sb = s * ps
                out.append((
                    tuple(tags[b:b + w]), tuple(owners[b:b + w]),
                    tuple(state[sb:sb + ps]), occ[s],
                    nt[s] if shared else 0, tt[s],
                ))
        return tuple(out)

    def _cm_scalars(self, ss_sorted, vcands):
        """Non-plane state the test can read: counters, stamps, RNGs.

        Stamps are captured (and replayed) absolute — exactness over
        hit rate: keys only ever repeat when the machine state literally
        repeats (checkpoint restore), where absolutes match anyway.
        """
        m = self.machine
        hier = self.hierarchy
        stamps = []
        for cache in (*hier.l1, *hier.l2, hier.sf, hier.llc):
            lru = cache._lru
            stamps.append(
                (lru._stamp, lru._inv_stamp) if lru is not None else None
            )
        rget = hier._sf_reuse_ctr.get
        vget = hier._l2v_ctr.get
        cores = hier.cfg.cores
        mc = self.main_core
        hc = self.helper_core
        return (
            m.now,
            tuple(stamps),
            tuple(rget(s, 0) for s in ss_sorted),
            tuple(
                (vget(v * cores + mc, 0), vget(v * cores + hc, 0))
                for v in vcands
            ),
            hier._noise_tag_next,
            m._preempt_rng.getstate(),
            m._jitter_rng.getstate(),
            hier._rng.getstate(),
            m.noise._rng.getstate(),
        )

    def _cm_vcands(self, lines, tline: int, s2):
        """Every line an L2-victim draw could be keyed by during the test:
        current hot-core L2 residents of closure rows, plus every line
        the test itself installs (candidates and the target)."""
        hier = self.hierarchy
        nb = _NOISE_TAG_BASE
        cands = set()
        for c in (hier.l2[self.main_core], hier.l2[self.helper_core]):
            w = c.ways
            tags = c._tags
            for s in s2:
                b = s * w
                for t in tags[b:b + w]:
                    if t is not None and t < nb:
                        cands.add(t)
        cands.update(lines)
        cands.add(tline)
        return sorted(cands)

    def test_eviction_kernel(self, mode: str, tline: int, rows, count: int,
                             repeats: int, threshold: int) -> bool:
        ok = self._cm_ok
        if ok is None:
            ok = self._cm_ok = self._cm_shapes_ok()
        m = self.machine
        if not ok or not CMEMO_ENABLED or count <= 2 or m._events:
            return super().test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
        lines = rows.lines[:count]
        if len(set(lines)) != count:
            # Only distinct-line tuples are memoized (the shapes the memo
            # is validated on); a tuple that repeats a line runs live.
            return super().test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
        shape = (mode, tline, rows.vas, count, repeats, threshold)
        cmemo = self._cmemo
        entries = cmemo.get(shape, _CM_UNSEEN)
        if entries is _CM_UNSEEN:
            # First sight of this shape: run live with zero capture cost.
            # A fresh construction's shapes are overwhelmingly unique
            # (the machine state advances test to test), so the memo
            # only starts paying attention once a shape repeats.
            if len(cmemo) >= self._CMEMO_CAP:
                cmemo.clear()
            cmemo[shape] = None
            return super().test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
        closure = self._cm_closure(rows, count, tline)
        if closure is None:
            return super().test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
        s1, s2, ss = closure
        s1 = sorted(s1)
        s2 = sorted(s2)
        ss = sorted(ss)
        planes = self._cm_planes(s1, s2, ss)
        vcands = self._cm_vcands(lines, tline, s2)
        pre = (self._cm_cap_rows(planes), self._cm_scalars(ss, vcands))
        if entries is None:
            entries = {}
            cmemo[shape] = entries
        rec = entries.get(pre)
        if rec is not None:
            return self._cm_replay(planes, rec)
        return self._cm_record(
            mode, tline, rows, count, repeats, threshold,
            planes, ss, vcands, pre, entries)

    def test_many_kernel(self, mode: str, tlines: Sequence[int], rows,
                         count: int, repeats: int,
                         threshold: int) -> List[bool]:
        return [
            self.test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
            for tline in tlines
        ]

    def _cm_record(self, mode, tline, rows, count, repeats, threshold,
                   planes, ss, vcands, pre, entries):
        """Run the test live and capture its exact closure delta."""
        m = self.machine
        hier = self.hierarchy
        stats = hier.stats
        now0 = m.now
        stat_names = type(stats).__slots__
        stats0 = tuple(getattr(stats, n) for n in stat_names)
        pol0 = tuple(
            (c.policy_touches, c.policy_fills, c.policy_victims)
            for c, _, _ in planes
        )
        noise0 = m.noise.events
        bc0 = m.batch_calls
        bl0 = m.batch_lines
        verdict = super().test_eviction_kernel(
            mode, tline, rows, count, repeats, threshold)
        if m._events:
            # The test scheduled machine events; a closures-only replay
            # cannot reproduce the heap.  Keep the live result, record
            # nothing.
            return verdict
        post_rows = self._cm_cap_rows(planes)
        # Sparse row delta: the closure is deliberately conservative, so
        # most closure rows are never actually written by the test.
        # Storing (and replaying) only the rows whose captured state
        # moved makes replay cost proportional to what the test *did*,
        # not to what it *could have* touched.  A row whose capture is
        # unchanged needs no write at all: the replay precondition is
        # that every closure row currently equals its recorded pre.
        pre_rows = pre[0]
        row_delta = []
        rows_it = iter(zip(pre_rows, post_rows))
        for pi, (_cache, rows_, _shared) in enumerate(planes):
            for s in rows_:
                prow, qrow = next(rows_it)
                if prow != qrow:
                    row_delta.append((pi, s, qrow))
        # Sparse counter deltas: only keys whose value moved, so a
        # replay never materializes explicit zero entries the live run
        # would not have.
        rget = hier._sf_reuse_ctr.get
        vget = hier._l2v_ctr.get
        cores = hier.cfg.cores
        mc = self.main_core
        hc = self.helper_core
        pre_scal = pre[1]
        rdelta = tuple(
            (s, v) for s, p, v in zip(
                ss, pre_scal[2], (rget(s, 0) for s in ss))
            if v != p
        )
        vdelta = []
        for v, (pm, ph) in zip(vcands, pre_scal[3]):
            nm = vget(v * cores + mc, 0)
            nh = vget(v * cores + hc, 0)
            if nm != pm:
                vdelta.append((v * cores + mc, nm))
            if nh != ph:
                vdelta.append((v * cores + hc, nh))
        pre_stamps = pre_scal[1]
        stamp_delta = []
        for pi, (cache, _, _) in enumerate(planes):
            lru = cache._lru
            if lru is not None:
                st = (lru._stamp, lru._inv_stamp)
                if st != pre_stamps[pi]:
                    stamp_delta.append((pi, st))
        rec = (
            tuple(row_delta),
            tuple(stamp_delta),
            rdelta,
            tuple(vdelta),
            hier._noise_tag_next,
            m._preempt_rng.getstate(),
            m._jitter_rng.getstate(),
            hier._rng.getstate(),
            m.noise._rng.getstate(),
            tuple(
                getattr(stats, n) - v for n, v in zip(stat_names, stats0)
            ),
            tuple(
                (pi, c.policy_touches - a, c.policy_fills - b,
                 c.policy_victims - d)
                for pi, ((c, _, _), (a, b, d)) in enumerate(zip(planes, pol0))
                if (c.policy_touches, c.policy_fills, c.policy_victims)
                != (a, b, d)
            ),
            m.noise.events - noise0,
            m.batch_calls - bc0,
            m.batch_lines - bl0,
            m.now - now0,
            verdict,
        )
        if len(entries) >= self._CM_ENTRY_CAP:
            entries.clear()
        entries[pre] = rec
        return verdict

    def _cm_replay(self, planes, rec) -> bool:
        """Apply a recorded test delta: O(changed rows), no simulation."""
        m = self.machine
        hier = self.hierarchy
        for pi, s, (ptags, powners, pstate, pocc, pnt, ptt) in rec[0]:
            cache, _, shared = planes[pi]
            w = cache.ways
            ps = cache._pstride
            n_sets = cache.n_sets
            tags = cache._tags
            where = cache._where
            b = s * w
            sb = s * ps
            for t in tags[b:b + w]:
                if t is not None:
                    del where[t * n_sets + s]
            for i, t in enumerate(ptags):
                if t is not None:
                    where[t * n_sets + s] = b + i
            tags[b:b + w] = ptags
            cache._owners[b:b + w] = powners
            cache._state[sb:sb + ps] = pstate
            cache._occ[s] = pocc
            if shared:
                cache._noise_t[s] = pnt
            tt = cache._touched
            if ptt and not tt[s]:
                tt[s] = 1
                cache._touched_count += 1
        for pi, st in rec[1]:
            lru = planes[pi][0]._lru
            lru._stamp, lru._inv_stamp = st
        if rec[2]:
            ctr = hier._sf_reuse_ctr
            for k, v in rec[2]:
                ctr[k] = v
        if rec[3]:
            ctr = hier._l2v_ctr
            for k, v in rec[3]:
                ctr[k] = v
        hier._noise_tag_next = rec[4]
        m._preempt_rng.setstate(rec[5])
        m._jitter_rng.setstate(rec[6])
        hier._rng.setstate(rec[7])
        m.noise._rng.setstate(rec[8])
        stats = hier.stats
        for n, d in zip(type(stats).__slots__, rec[9]):
            if d:
                setattr(stats, n, getattr(stats, n) + d)
        for pi, dt, df, dv in rec[10]:
            cache = planes[pi][0]
            cache.policy_touches += dt
            cache.policy_fills += df
            cache.policy_victims += dv
        m.noise.events += rec[11]
        m.batch_calls += rec[12]
        m.batch_lines += rec[13]
        m.advance(rec[14])
        return rec[15]


#: Sentinel distinguishing "shape never seen" from "seen once, no
#: recordings yet" (None) in ``VecKernels._cmemo``.
_CM_UNSEEN = object()
