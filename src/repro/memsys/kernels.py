"""Fused attack kernels over the flat data plane (DESIGN.md §2.3).

The PR-2 data plane made individual cache operations cheap; what remained
expensive was the Python orchestration *around* them: every
``TestEviction`` crosses the Machine call boundary several times per
candidate (flush, traverse, reload), re-translates the same candidate
pool, and re-hashes the same slice indices thousands of times per trial.
This module fuses those loops:

* :class:`TranslationPlane` — per candidate pool, precompute flat parallel
  tuples of ``va -> (line, l1_set, l2_set, shared_set, slice)`` plus the
  ``_where``-dict keys for every structure, once, and reuse them across
  all group-testing rounds (:class:`PlaneRows`).
* :class:`AttackKernels` — hierarchy-level kernels that walk those arrays
  with the per-line control flow of the unfused path expanded inline:
  ``flush_rows``, ``load_sweep`` / ``store_sweep`` and
  ``traverse_kernel`` (TestEviction's flush + traversal; the tester
  primes and reloads the target through the Machine on both paths), and
  ``prime_probe_kernel`` (one monitor prime or probe: the Parallel
  Probing primes and scrubs, every probe of a window run without the
  monitor-round memo, and the per-round strategy calls; a memo-on
  ``monitor_set`` window folds its quiet probes in
  :meth:`repro.memsys.vec.VecKernels.probe_window` instead).  These
  sweeps are the only code that walks cache hits inline;
  ``CacheHierarchy.access_many``, the unfused path's batch entry point,
  is a plain per-line loop over ``access``.

The RNG-order contract (what keeps trials bit-identical)
--------------------------------------------------------

This is the simulator's one RNG contract (DESIGN.md §2.7).  Every kernel
must consume the machine's RNG streams in exactly the per-access order of
the unfused path it replaces:

* the **hierarchy RNG** is drawn by ``_sf_install`` (reuse predictor) and
  ``_handle_l2_victim`` (victim-to-LLC), in cache-operation order;
* the **noise RNG** is drawn by per-set reconciliation (SF block before
  LLC block, one draw per structure in the common case — the inline
  blocks below mirror ``BackgroundNoise.reconcile`` statement for
  statement, including the ``lam < 0.01`` Bernoulli fast path);
* the **preempt RNG** is drawn once per batch/flush/timed access with a
  positive elapsed time, and the **jitter RNG** once per timed access.

Because clock advances determine reconciliation windows (and therefore
noise draws), kernels also charge exactly the cycles the unfused path
charges.  A kernel may *elide* an operation only when it is provably a
no-op on all state and all RNG streams (e.g. the second reconciliation
of a set at an unchanged ``now``, or a ``remove`` of an absent tag).
The parity gates are ``tests/test_kernel_parity.py`` (fused vs. unfused:
verdicts, stats, clock, and RNG ``getstate()`` across modes and noise
levels) and the golden fingerprints of ``tests/test_dataplane_parity.py``
(which run with kernels engaged); ``repro.memsys._reference`` remains
the oracle underneath both.

When to add a new kernel: only when a profile shows a per-line Python
loop above the Machine boundary, and only with both parity suites
extended first — see DESIGN.md §2.3.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Sequence, Tuple

from .._util import poisson
from ..cloud.noise import BackgroundNoise
from .cache import SetAssociativeCache
from .hierarchy import (
    _NOISE_TAG_BASE,
    NOISE_OWNER,
    SHARED_OWNER,
    CacheHierarchy,
    Level,
)
from .policy_tables import TreePLRU8Table

#: Module-wide kill switch: the rewired call sites fall back to their
#: unfused implementations when False.  The parity suite and the perf
#: benchmark flip it to measure both paths in one process.
KERNELS_ENABLED = True


@contextmanager
def kernels_disabled():
    """Temporarily run every rewired call site on its unfused path."""
    global KERNELS_ENABLED
    saved = KERNELS_ENABLED
    KERNELS_ENABLED = False
    try:
        yield
    finally:
        KERNELS_ENABLED = saved


class PlaneRows:
    """Precomputed address geometry for one candidate tuple.

    Parallel tuples, one entry per VA.  The ``*_keys`` columns are the
    ``_where``-dict keys (``tag * n_sets + set_idx``) for the private
    caches and the shared structures — the kernels' hit tests are a
    single dict probe on a precomputed int.
    """

    __slots__ = (
        "vas",
        "lines",
        "l1_sets",
        "l2_sets",
        "shared_sets",
        "slices",
        "l1_keys",
        "l2_keys",
        "shared_keys",
    )

    def __init__(
        self,
        vas: Tuple[int, ...],
        lines: Tuple[int, ...],
        l1_sets: Tuple[int, ...],
        l2_sets: Tuple[int, ...],
        shared_sets: Tuple[int, ...],
        slices: Tuple[int, ...],
        l1_keys: Tuple[int, ...],
        l2_keys: Tuple[int, ...],
        shared_keys: Tuple[int, ...],
    ) -> None:
        self.vas = vas
        self.lines = lines
        self.l1_sets = l1_sets
        self.l2_sets = l2_sets
        self.shared_sets = shared_sets
        self.slices = slices
        self.l1_keys = l1_keys
        self.l2_keys = l2_keys
        self.shared_keys = shared_keys

    def __len__(self) -> int:
        return len(self.vas)


class TranslationPlane:
    """Pool-level VA -> geometry cache shared by every kernel call.

    Translation (``AddressSpace.translate_line``) and slice hashing are
    pure functions of the established page mapping, so caching them is
    parity-free; :meth:`invalidate` is the hook for address-space
    changes (page remaps), wired to
    ``AttackerContext.invalidate_translations``.
    """

    #: Row-tuple memo bound: group-testing "rest" lists and extension
    #: probes produce unbounded distinct tuples; clearing wholesale is
    #: cheaper than LRU bookkeeping at this size.
    _MEMO_CAP = 512

    __slots__ = ("_hier", "_translate", "_geo", "_memo", "_l1_nsets",
                 "_l2_nsets", "_shared_nsets", "_l1_mask", "_l2_mask",
                 "_sets_per_slice")

    def __init__(self, hierarchy: CacheHierarchy, translate) -> None:
        cfg = hierarchy.cfg
        self._hier = hierarchy
        self._translate = translate  # va -> physical line (pure)
        self._geo: Dict[int, tuple] = {}
        self._memo: Dict[Tuple[int, ...], PlaneRows] = {}
        self._l1_nsets = cfg.l1.sets
        self._l2_nsets = cfg.l2.sets
        self._shared_nsets = cfg.llc.total_sets
        self._l1_mask = hierarchy._l1_mask
        self._l2_mask = hierarchy._l2_mask
        self._sets_per_slice = hierarchy._shared_sets_per_slice

    def _add(self, va: int) -> tuple:
        line = self._translate(va)
        sidx = self._hier.shared_set_index(line)
        s1 = line & self._l1_mask
        s2 = line & self._l2_mask
        rec = (
            line,
            s1,
            s2,
            sidx,
            sidx // self._sets_per_slice,
            line * self._l1_nsets + s1,
            line * self._l2_nsets + s2,
            line * self._shared_nsets + sidx,
        )
        self._geo[va] = rec
        return rec

    def row(self, va: int) -> tuple:
        """(line, l1_set, l2_set, shared_set, slice, l1_key, l2_key, shared_key)."""
        rec = self._geo.get(va)
        if rec is None:
            rec = self._add(va)
        return rec

    def line(self, va: int) -> int:
        return self.row(va)[0]

    def rows(self, vas: Sequence[int]) -> PlaneRows:
        """Geometry columns for a candidate tuple (memoized per tuple).

        Tuples of one or two addresses (Prime+Scope's per-candidate
        traversals, SF extension probes) are built but not memoized —
        they would thrash the memo without ever being reused.
        """
        key = vas if type(vas) is tuple else tuple(vas)
        memo = self._memo
        r = memo.get(key)
        if r is not None:
            return r
        geo = self._geo
        add = self._add
        recs = [geo.get(va) or add(va) for va in key]
        cols = tuple(zip(*recs)) if recs else ((),) * 8
        r = PlaneRows(key, *cols)
        if len(key) > 2:
            if len(memo) >= self._MEMO_CAP:
                memo.clear()
            memo[key] = r
        return r

    def warm(self, vas: Sequence[int]) -> None:
        """Eagerly translate a pool (candidate-set construction time)."""
        geo = self._geo
        add = self._add
        for va in vas:
            if va not in geo:
                add(va)

    def invalidate(self) -> None:
        """Drop every cached translation (address-space change hook)."""
        self._geo.clear()
        self._memo.clear()

    @property
    def cached_addresses(self) -> int:
        return len(self._geo)


class AttackKernels:
    """Fused kernels bound to one machine and attacker core pair.

    Each public method is the batched equivalent of an unfused call
    sequence, named in its docstring; the parity suite runs both and
    diffs the complete observable state.
    """

    __slots__ = ("machine", "hierarchy", "main_core", "helper_core", "plane")

    def __init__(self, machine, plane: TranslationPlane,
                 main_core: int = 0, helper_core: int = 1) -> None:
        self.machine = machine
        self.hierarchy = machine.hierarchy
        self.main_core = main_core
        self.helper_core = helper_core
        self.plane = plane

    def engaged(self) -> bool:
        """Whether every structure the kernels poke is the flat plane.

        Duck-typed stand-ins (the seed reference oracle, defense
        wrappers like ``WayPartitionedCache``, test doubles for the
        noise source) disengage the kernels entirely; the caller then
        runs the Machine batch APIs, which work on any cache type.
        """
        hier = self.hierarchy
        if type(hier) is not CacheHierarchy:
            return False
        flat = SetAssociativeCache
        if type(hier.sf) is not flat or type(hier.llc) is not flat:
            return False
        for cache in hier.l1:
            if type(cache) is not flat:
                return False
        for cache in hier.l2:
            if type(cache) is not flat:
                return False
        noise = hier.noise_source
        return noise is None or type(noise) is BackgroundNoise

    # -- Fused flush ---------------------------------------------------------

    def flush_rows(self, rows: PlaneRows, count: int) -> int:
        """Mirror of ``Machine.flush_batch(rows.lines[:count])``.

        Per line: private invalidations by precomputed key (the common
        case — tag absent — is one dict probe, no call), inline noise
        reconciliation, inline SF then LLC removal.
        """
        m = self.machine
        if not count:
            return 0
        m._drain_events()
        hier = self.hierarchy
        now = m.now
        lines = rows.lines
        l1_sets = rows.l1_sets
        l2_sets = rows.l2_sets
        sidxs = rows.shared_sets
        l1_keys = rows.l1_keys
        l2_keys = rows.l2_keys
        skeys = rows.shared_keys
        # flush_line removes from cores in ascending order, L1 then L2
        # per core.  The caches are independent (disjoint state, no
        # shared counters or RNG), so visiting all L1s then all L2s is
        # unobservable — proven by the parity suite.
        l1_probe = [(c._where, c.remove) for c in hier.l1]
        l2_probe = [(c._where, c.remove) for c in hier.l2]
        sf = hier.sf
        llc = hier.llc
        sf_where = sf._where
        sf_tags = sf._tags
        sf_owners = sf._owners
        sf_occ = sf._occ
        sf_state = sf._state
        sf_lru = sf._lru
        sf_pinv = sf._pt_invalidate
        sf_pstride = sf._pstride
        sf_ways = sf.ways
        llc_where = llc._where
        llc_tags = llc._tags
        llc_owners = llc._owners
        llc_occ = llc._occ
        llc_state = llc._state
        llc_lru = llc._lru
        llc_pinv = llc._pt_invalidate
        llc_pstride = llc._pstride
        llc_ways = llc.ways
        noise = hier.noise_source
        if noise is not None:
            nrng = noise._rng
            nrand = nrng.random
            sf_rate = noise._sf_rate
            llc_rate = noise._llc_rate
            sf_nt = sf._noise_t
            sf_tt = sf._touched
            llc_nt = llc._noise_t
            llc_tt = llc._touched
            sf_cap = 3 * sf_ways
            llc_cap = 3 * llc_ways
            ins_sf = hier.noise_insert_sf
            ins_llc = hier.noise_insert_llc
        for j in range(count):
            line = lines[j]
            k1 = l1_keys[j]
            s1 = l1_sets[j]
            for where, rm in l1_probe:
                if k1 in where:
                    rm(s1, line)
            k2 = l2_keys[j]
            s2 = l2_sets[j]
            for where, rm in l2_probe:
                if k2 in where:
                    rm(s2, line)
            sidx = sidxs[j]
            if noise is not None:
                # Inline BackgroundNoise.reconcile (SF block, LLC block).
                if sf_rate > 0.0:
                    if not sf_tt[sidx]:
                        sf_tt[sidx] = 1
                        sf._touched_count += 1
                    old = sf_nt[sidx]
                    if now > old:
                        sf_nt[sidx] = now
                        lam = sf_rate * (now - old)
                        if lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > sf_cap:
                                n = sf_cap
                            for _ in range(n):
                                ins_sf(sidx)
                            noise.events += n
                if llc_rate > 0.0:
                    if not llc_tt[sidx]:
                        llc_tt[sidx] = 1
                        llc._touched_count += 1
                    old = llc_nt[sidx]
                    if now > old:
                        llc_nt[sidx] = now
                        lam = llc_rate * (now - old)
                        if lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > llc_cap:
                                n = llc_cap
                            for _ in range(n):
                                ins_llc(sidx)
                            noise.events += n
            sk = skeys[j]
            slot = sf_where.get(sk)
            if slot is not None:  # inline SetAssociativeCache.remove
                del sf_where[sk]
                sf_tags[slot] = None
                sf_owners[slot] = 0
                sf_occ[sidx] -= 1
                if sf_lru is not None:
                    sf_lru._inv_stamp = stamp = sf_lru._inv_stamp - 1
                    sf_state[slot] = stamp
                else:
                    sf_pinv(sf_state, sidx * sf_pstride, slot - sidx * sf_ways)
            slot = llc_where.get(sk)
            if slot is not None:
                del llc_where[sk]
                llc_tags[slot] = None
                llc_owners[slot] = 0
                llc_occ[sidx] -= 1
                if llc_lru is not None:
                    llc_lru._inv_stamp = stamp = llc_lru._inv_stamp - 1
                    llc_state[slot] = stamp
                else:
                    llc_pinv(llc_state, sidx * llc_pstride, slot - sidx * llc_ways)
        hier.stats.flushes += count
        lat = m.cfg.latency
        cost = lat.flush + (count - 1) * lat.flush_gap
        cost += m._preemption_penalty(cost)
        m.advance(cost)
        return cost

    # -- Fused traversal sweeps ---------------------------------------------

    def load_sweep(self, rows: PlaneRows, count: int, shared: bool = False) -> int:
        """Mirror of ``Machine.access_batch(main, lines)`` — and, with
        ``shared=True``, of the shadowed form (helper-core access per
        line, main-core progress costed).

        The full read cascade of ``CacheHierarchy.access`` is expanded
        inline, including the post-flush miss path (SF install, private
        fill, DRAM) that dominates construction traversals.  The helper
        access skips its reconciliation: at an unchanged ``now`` the
        second reconcile of the same set draws nothing and moves no
        clock, so eliding it is a proven no-op.
        """
        m = self.machine
        if not count:
            return 0
        events = m._events
        if events and events[0][0] <= m.now:
            m._drain_events()
        m.batch_calls += 1
        m.batch_lines += count
        hier = self.hierarchy
        now = m.now
        core = self.main_core
        stats = hier.stats
        lat = m.cfg.latency
        lat_l1 = lat.l1_hit
        lat_l2 = lat.l2_hit
        lat_llc = lat.llc_hit
        lat_dram = lat.dram
        hit_gap = lat.hit_issue_gap
        miss_gap = lat.issue_gap
        lines = rows.lines
        l1_sets = rows.l1_sets
        l2_sets = rows.l2_sets
        sidxs = rows.shared_sets
        l1_keys = rows.l1_keys
        l2_keys = rows.l2_keys
        skeys = rows.shared_keys
        l1 = hier.l1[core]
        l2 = hier.l2[core]
        l1_where = l1._where
        l1_state = l1._state
        l1_lru = l1._lru
        l1_rrip = l1._rrip
        l1_ptouch = l1._pt_touch
        l1_pstride = l1._pstride
        l1_ways = l1.ways
        l1_insert = l1.insert
        l1_tree8 = type(l1._pol) is TreePLRU8Table
        l1_tags = l1._tags
        l1_owners = l1._owners
        l1_occ = l1._occ
        l1_nsets = l1.n_sets
        l1_pvict = l1._pt_victim
        l1_pfill = l1._pt_fill
        l1_tb = l1._touched
        l2_where = l2._where
        l2_state = l2._state
        l2_lru = l2._lru
        l2_rrip = l2._rrip
        l2_ptouch = l2._pt_touch
        l2_pstride = l2._pstride
        l2_ways = l2.ways
        l2_tags = l2._tags
        l2_owners = l2._owners
        l2_occ = l2._occ
        l2_nsets = l2.n_sets
        l2_pvict = l2._pt_victim
        l2_pfill = l2._pt_fill
        l2_tb = l2._touched
        sf = hier.sf
        llc = hier.llc
        sf_where = sf._where
        sf_owners = sf._owners
        sf_tags = sf._tags
        sf_occ = sf._occ
        sf_state = sf._state
        sf_lru = sf._lru
        sf_rrip = sf._rrip
        sf_ptouch = sf._pt_touch
        sf_pinv = sf._pt_invalidate
        sf_pvict = sf._pt_victim
        sf_pfill = sf._pt_fill
        sf_pstride = sf._pstride
        sf_ways = sf.ways
        sf_nsets = sf.n_sets
        sf_tb = sf._touched
        llc_where = llc._where
        llc_state = llc._state
        llc_lru = llc._lru
        llc_rrip = llc._rrip
        llc_ptouch = llc._pt_touch
        llc_pstride = llc._pstride
        llc_ways = llc.ways
        llc_insert = llc.insert
        llc_tags = llc._tags
        llc_owners = llc._owners
        llc_occ = llc._occ
        llc_nsets = llc.n_sets
        llc_pvict = llc._pt_victim
        llc_pfill = llc._pt_fill
        llc_tb = llc._touched
        hrand = hier._rng.random
        reuse_p = hier.cfg.reuse_predictor_p
        handle_victim = hier._handle_l2_victim
        sidx_get = hier._sidx_memo.get
        shared_set_index = hier.shared_set_index
        l1_mask = hier._l1_mask
        l2_mask = hier._l2_mask
        l1_probe = [(c._where, c.remove) for c in hier.l1]
        l2_probe = [(c._where, c.remove) for c in hier.l2]

        # _invalidate_private_everywhere with the absent-tag probes done
        # by precomputed key; visiting all L1s then all L2s instead of
        # per-core (L1, L2) pairs is unobservable — the caches are
        # independent (same reorder as flush_rows).
        def inv_everywhere(etag):
            s1 = etag & l1_mask
            k1 = etag * l1_nsets + s1
            for w, rm in l1_probe:
                if k1 in w:
                    rm(s1, etag)
            s2 = etag & l2_mask
            k2 = etag * l2_nsets + s2
            for w, rm in l2_probe:
                if k2 in w:
                    rm(s2, etag)

        def inv_private(eowner, etag):  # _invalidate_private, probed
            s1 = etag & l1_mask
            w, rm = l1_probe[eowner]
            if etag * l1_nsets + s1 in w:
                rm(s1, etag)
            s2 = etag & l2_mask
            w, rm = l2_probe[eowner]
            if etag * l2_nsets + s2 in w:
                rm(s2, etag)

        if shared:
            helper = self.helper_core
            h1c = hier.l1[helper]
            h2c = hier.l2[helper]
            h1_where = h1c._where
            h1_state = h1c._state
            h1_lru = h1c._lru
            h1_rrip = h1c._rrip
            h1_ptouch = h1c._pt_touch
            h1_pstride = h1c._pstride
            h1_ways = h1c.ways
            h1_insert = h1c.insert
            h1_tree8 = type(h1c._pol) is TreePLRU8Table
            h1_tags = h1c._tags
            h1_owners = h1c._owners
            h1_occ = h1c._occ
            h1_pvict = h1c._pt_victim
            h1_pfill = h1c._pt_fill
            h1_tb = h1c._touched
            h2_where = h2c._where
            h2_state = h2c._state
            h2_lru = h2c._lru
            h2_rrip = h2c._rrip
            h2_ptouch = h2c._pt_touch
            h2_pstride = h2c._pstride
            h2_ways = h2c.ways
            h2_tags = h2c._tags
            h2_owners = h2c._owners
            h2_occ = h2c._occ
            h2_pvict = h2c._pt_victim
            h2_pfill = h2c._pt_fill
            h2_tb = h2c._touched
        noise = hier.noise_source
        if noise is not None:
            nrng = noise._rng
            nrand = nrng.random
            sf_rate = noise._sf_rate
            llc_rate = noise._llc_rate
            sf_nt = sf._noise_t
            sf_tt = sf._touched
            llc_nt = llc._noise_t
            llc_tt = llc._touched
            sf_cap = 3 * sf_ways
            llc_cap = 3 * llc_ways
            ins_sf = hier.noise_insert_sf
            ins_llc = hier.noise_insert_llc
        hits1 = hits2 = acc = 0
        hh1 = hh2 = 0
        llc_hits = dram = sft = llc_pt = back_inv = 0
        l1f = l1v = l2f = l2v = h1f = h1v = h2f = h2v = 0
        sff = sfv = sf_pt = llcf = llcv = 0
        worst = 0
        gaps = 0
        for j in range(count):
            line = lines[j]
            sidx = sidxs[j]
            if noise is not None:
                # Inline BackgroundNoise.reconcile (see flush_rows).
                if sf_rate > 0.0:
                    if not sf_tt[sidx]:
                        sf_tt[sidx] = 1
                        sf._touched_count += 1
                    old = sf_nt[sidx]
                    if now > old:
                        sf_nt[sidx] = now
                        lam = sf_rate * (now - old)
                        if lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > sf_cap:
                                n = sf_cap
                            for _ in range(n):
                                ins_sf(sidx)
                            noise.events += n
                if llc_rate > 0.0:
                    if not llc_tt[sidx]:
                        llc_tt[sidx] = 1
                        llc._touched_count += 1
                    old = llc_nt[sidx]
                    if now > old:
                        llc_nt[sidx] = now
                        lam = llc_rate * (now - old)
                        if lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > llc_cap:
                                n = llc_cap
                            for _ in range(n):
                                ins_llc(sidx)
                            noise.events += n
            # Main-core read: CacheHierarchy.access inline.
            set_idx = l1_sets[j]
            slot = l1_where.get(l1_keys[j])
            if slot is not None:
                hits1 += 1
                if l1_tree8:
                    base = set_idx * 7
                    way = slot - set_idx * 8
                    b0 = (way >> 2) & 1
                    l1_state[base] = 1 - b0
                    b1 = (way >> 1) & 1
                    node = 1 + b0
                    l1_state[base + node] = 1 - b1
                    l1_state[base + 2 * node + 1 + b1] = 1 - (way & 1)
                elif l1_lru is not None:
                    l1_lru._stamp = stamp = l1_lru._stamp + 1
                    l1_state[slot] = stamp
                elif l1_rrip:
                    l1_state[slot] = 0
                else:
                    l1_ptouch(l1_state, set_idx * l1_pstride, slot - set_idx * l1_ways)
                lt = lat_l1
                gp = hit_gap
            else:
                l2_idx = l2_sets[j]
                slot2 = l2_where.get(l2_keys[j])
                if slot2 is not None:
                    hits2 += 1
                    if l2_lru is not None:
                        l2_lru._stamp = stamp = l2_lru._stamp + 1
                        l2_state[slot2] = stamp
                    elif l2_rrip:
                        l2_state[slot2] = 0
                    else:
                        l2_ptouch(l2_state, l2_idx * l2_pstride, slot2 - l2_idx * l2_ways)
                    l1_insert(set_idx, line, core)
                    lt = lat_l2
                    gp = hit_gap
                else:
                    acc += 1
                    sk = skeys[j]
                    sslot = sf_where.get(sk)
                    if sslot is not None:
                        owner = sf_owners[sslot]
                        if owner == core or owner == NOISE_OWNER:
                            # Retake: sf.insert on a present tag degrades
                            # to a recency touch + owner rewrite.
                            sf_owners[sslot] = core
                            if sf_lru is not None:
                                sf_lru._stamp = stamp = sf_lru._stamp + 1
                                sf_state[sslot] = stamp
                            elif sf_rrip:
                                sf_state[sslot] = 0
                            else:
                                sf_ptouch(sf_state, sidx * sf_pstride,
                                          sslot - sidx * sf_ways)
                            sf_pt += 1
                            dram += 1
                            lt = lat_dram
                        else:
                            # SF transfer: line becomes shared.
                            del sf_where[sk]
                            sf_tags[sslot] = None
                            sf_owners[sslot] = 0
                            sf_occ[sidx] -= 1
                            if sf_lru is not None:
                                sf_lru._inv_stamp = stamp = sf_lru._inv_stamp - 1
                                sf_state[sslot] = stamp
                            else:
                                sf_pinv(sf_state, sidx * sf_pstride,
                                        sslot - sidx * sf_ways)
                            # LLC shared install, insert inline.
                            lslot = llc_where.get(sk)
                            if lslot is not None:
                                llc_owners[lslot] = SHARED_OWNER
                                if llc_lru is not None:
                                    llc_lru._stamp = stamp = llc_lru._stamp + 1
                                    llc_state[lslot] = stamp
                                elif llc_rrip:
                                    llc_state[lslot] = 0
                                else:
                                    llc_ptouch(llc_state, sidx * llc_pstride,
                                               lslot - sidx * llc_ways)
                                llc_pt += 1
                            else:
                                llc_base = sidx * llc_ways
                                if llc_occ[sidx] < llc_ways:
                                    lslot = llc_tags.index(
                                        None, llc_base, llc_base + llc_ways)
                                    wayl = lslot - llc_base
                                    llc_occ[sidx] += 1
                                    etag2 = None
                                else:
                                    if llc_lru is not None:
                                        seg = llc_state[llc_base:llc_base + llc_ways]
                                        wayl = seg.index(min(seg))
                                    else:
                                        wayl = llc_pvict(llc_state,
                                                         sidx * llc_pstride)
                                    llcv += 1
                                    lslot = llc_base + wayl
                                    etag2 = llc_tags[lslot]
                                    del llc_where[etag2 * llc_nsets + sidx]
                                llc_tags[lslot] = line
                                llc_owners[lslot] = SHARED_OWNER
                                llc_where[sk] = lslot
                                if llc_lru is not None:
                                    llc_lru._stamp = stamp = llc_lru._stamp + 1
                                    llc_state[lslot] = stamp
                                else:
                                    llc_pfill(llc_state, sidx * llc_pstride, wayl)
                                llcf += 1
                                if not llc_tb[sidx]:
                                    llc_tb[sidx] = 1
                                    llc._touched_count += 1
                                if etag2 is not None and etag2 < _NOISE_TAG_BASE:
                                    inv_everywhere(etag2)
                            sft += 1
                            lt = lat_llc
                    else:
                        lslot = llc_where.get(sk)
                        if lslot is not None:
                            llc_hits += 1
                            llc_pt += 1
                            if llc_lru is not None:
                                llc_lru._stamp = stamp = llc_lru._stamp + 1
                                llc_state[lslot] = stamp
                            elif llc_rrip:
                                llc_state[lslot] = 0
                            else:
                                llc_ptouch(llc_state, sidx * llc_pstride,
                                           lslot - sidx * llc_ways)
                            lt = lat_llc
                        else:
                            # Miss everywhere: _sf_install, insert inline.
                            sf_base = sidx * sf_ways
                            if sf_occ[sidx] < sf_ways:
                                fslot = sf_tags.index(
                                    None, sf_base, sf_base + sf_ways)
                                wayf = fslot - sf_base
                                sf_occ[sidx] += 1
                                etag = None
                            else:
                                if sf_lru is not None:
                                    seg = sf_state[sf_base:sf_base + sf_ways]
                                    wayf = seg.index(min(seg))
                                else:
                                    wayf = sf_pvict(sf_state, sidx * sf_pstride)
                                sfv += 1
                                fslot = sf_base + wayf
                                etag = sf_tags[fslot]
                                eowner = sf_owners[fslot]
                                del sf_where[etag * sf_nsets + sidx]
                            sf_tags[fslot] = line
                            sf_owners[fslot] = core
                            sf_where[sk] = fslot
                            if sf_lru is not None:
                                sf_lru._stamp = stamp = sf_lru._stamp + 1
                                sf_state[fslot] = stamp
                            else:
                                sf_pfill(sf_state, sidx * sf_pstride, wayf)
                            sff += 1
                            if not sf_tb[sidx]:
                                sf_tb[sidx] = 1
                                sf._touched_count += 1
                            if etag is not None:
                                if eowner >= 0:
                                    inv_private(eowner, etag)
                                    back_inv += 1
                                if hrand() < reuse_p:
                                    ev2 = llc_insert(sidx, etag, SHARED_OWNER)
                                    if ev2 is not None and ev2[0] < _NOISE_TAG_BASE:
                                        inv_everywhere(ev2[0])
                            dram += 1
                            lt = lat_dram
                    # Fill private (L2 then L1), insert + victim
                    # disposition inline; _handle_l2_victim only runs
                    # when its SF-ownership guard would fire.
                    l2_base = l2_idx * l2_ways
                    if l2_occ[l2_idx] < l2_ways:
                        slot2 = l2_tags.index(None, l2_base, l2_base + l2_ways)
                        way2 = slot2 - l2_base
                        l2_occ[l2_idx] += 1
                        vline = None
                    else:
                        if l2_lru is not None:
                            seg = l2_state[l2_base:l2_base + l2_ways]
                            way2 = seg.index(min(seg))
                        else:
                            way2 = l2_pvict(l2_state, l2_idx * l2_pstride)
                        l2v += 1
                        slot2 = l2_base + way2
                        vline = l2_tags[slot2]
                        del l2_where[vline * l2_nsets + l2_idx]
                    l2_tags[slot2] = line
                    l2_owners[slot2] = core
                    l2_where[l2_keys[j]] = slot2
                    if l2_lru is not None:
                        l2_lru._stamp = stamp = l2_lru._stamp + 1
                        l2_state[slot2] = stamp
                    else:
                        l2_pfill(l2_state, l2_idx * l2_pstride, way2)
                    l2f += 1
                    if not l2_tb[l2_idx]:
                        l2_tb[l2_idx] = 1
                        l2._touched_count += 1
                    if vline is not None:
                        vsid = sidx_get(vline)
                        if vsid is None:
                            vsid = shared_set_index(vline)
                        vslot = sf_where.get(vline * sf_nsets + vsid)
                        if vslot is not None and sf_owners[vslot] == core:
                            handle_victim(core, vline, now)
                    # L1 fill (victims are silent).
                    l1_base = set_idx * l1_ways
                    if l1_occ[set_idx] < l1_ways:
                        slot = l1_tags.index(None, l1_base, l1_base + l1_ways)
                        way1 = slot - l1_base
                        l1_occ[set_idx] += 1
                    else:
                        if l1_tree8:
                            sbase = set_idx * 7
                            b0 = l1_state[sbase]
                            node = 1 + b0
                            b1 = l1_state[sbase + node]
                            way1 = ((b0 << 2) | (b1 << 1)
                                    | l1_state[sbase + 2 * node + 1 + b1])
                        elif l1_lru is not None:
                            seg = l1_state[l1_base:l1_base + l1_ways]
                            way1 = seg.index(min(seg))
                        else:
                            way1 = l1_pvict(l1_state, set_idx * l1_pstride)
                        l1v += 1
                        slot = l1_base + way1
                        del l1_where[l1_tags[slot] * l1_nsets + set_idx]
                    l1_tags[slot] = line
                    l1_owners[slot] = core
                    l1_where[l1_keys[j]] = slot
                    if l1_tree8:
                        sbase = set_idx * 7
                        b0 = (way1 >> 2) & 1
                        l1_state[sbase] = 1 - b0
                        b1 = (way1 >> 1) & 1
                        node = 1 + b0
                        l1_state[sbase + node] = 1 - b1
                        l1_state[sbase + 2 * node + 1 + b1] = 1 - (way1 & 1)
                    elif l1_lru is not None:
                        l1_lru._stamp = stamp = l1_lru._stamp + 1
                        l1_state[slot] = stamp
                    else:
                        l1_pfill(l1_state, set_idx * l1_pstride, way1)
                    l1f += 1
                    if not l1_tb[set_idx]:
                        l1_tb[set_idx] = 1
                        l1._touched_count += 1
                    gp = miss_gap
            if lt > worst:
                worst = lt
            gaps += gp
            if not shared:
                continue
            # Helper-core shadow read (reconcile elided: dt == 0).
            slot = h1_where.get(l1_keys[j])
            if slot is not None:
                hh1 += 1
                if h1_tree8:
                    base = set_idx * 7
                    way = slot - set_idx * 8
                    b0 = (way >> 2) & 1
                    h1_state[base] = 1 - b0
                    b1 = (way >> 1) & 1
                    node = 1 + b0
                    h1_state[base + node] = 1 - b1
                    h1_state[base + 2 * node + 1 + b1] = 1 - (way & 1)
                elif h1_lru is not None:
                    h1_lru._stamp = stamp = h1_lru._stamp + 1
                    h1_state[slot] = stamp
                elif h1_rrip:
                    h1_state[slot] = 0
                else:
                    h1_ptouch(h1_state, set_idx * h1_pstride, slot - set_idx * h1_ways)
                continue
            l2_idx = l2_sets[j]
            slot2 = h2_where.get(l2_keys[j])
            if slot2 is not None:
                hh2 += 1
                if h2_lru is not None:
                    h2_lru._stamp = stamp = h2_lru._stamp + 1
                    h2_state[slot2] = stamp
                elif h2_rrip:
                    h2_state[slot2] = 0
                else:
                    h2_ptouch(h2_state, l2_idx * h2_pstride, slot2 - l2_idx * h2_ways)
                h1_insert(set_idx, line, helper)
                continue
            acc += 1
            sk = skeys[j]
            sslot = sf_where.get(sk)
            if sslot is not None:
                owner = sf_owners[sslot]
                if owner == helper or owner == NOISE_OWNER:
                    # Retake (see the main-core cascade).
                    sf_owners[sslot] = helper
                    if sf_lru is not None:
                        sf_lru._stamp = stamp = sf_lru._stamp + 1
                        sf_state[sslot] = stamp
                    elif sf_rrip:
                        sf_state[sslot] = 0
                    else:
                        sf_ptouch(sf_state, sidx * sf_pstride,
                                  sslot - sidx * sf_ways)
                    sf_pt += 1
                    dram += 1
                else:
                    # The main core's private line read by the helper —
                    # the transition that makes eviction-set lines shared.
                    del sf_where[sk]
                    sf_tags[sslot] = None
                    sf_owners[sslot] = 0
                    sf_occ[sidx] -= 1
                    if sf_lru is not None:
                        sf_lru._inv_stamp = stamp = sf_lru._inv_stamp - 1
                        sf_state[sslot] = stamp
                    else:
                        sf_pinv(sf_state, sidx * sf_pstride, sslot - sidx * sf_ways)
                    lslot = llc_where.get(sk)
                    if lslot is not None:
                        llc_owners[lslot] = SHARED_OWNER
                        if llc_lru is not None:
                            llc_lru._stamp = stamp = llc_lru._stamp + 1
                            llc_state[lslot] = stamp
                        elif llc_rrip:
                            llc_state[lslot] = 0
                        else:
                            llc_ptouch(llc_state, sidx * llc_pstride,
                                       lslot - sidx * llc_ways)
                        llc_pt += 1
                    else:
                        llc_base = sidx * llc_ways
                        if llc_occ[sidx] < llc_ways:
                            lslot = llc_tags.index(
                                None, llc_base, llc_base + llc_ways)
                            wayl = lslot - llc_base
                            llc_occ[sidx] += 1
                            etag2 = None
                        else:
                            if llc_lru is not None:
                                seg = llc_state[llc_base:llc_base + llc_ways]
                                wayl = seg.index(min(seg))
                            else:
                                wayl = llc_pvict(llc_state, sidx * llc_pstride)
                            llcv += 1
                            lslot = llc_base + wayl
                            etag2 = llc_tags[lslot]
                            del llc_where[etag2 * llc_nsets + sidx]
                        llc_tags[lslot] = line
                        llc_owners[lslot] = SHARED_OWNER
                        llc_where[sk] = lslot
                        if llc_lru is not None:
                            llc_lru._stamp = stamp = llc_lru._stamp + 1
                            llc_state[lslot] = stamp
                        else:
                            llc_pfill(llc_state, sidx * llc_pstride, wayl)
                        llcf += 1
                        if not llc_tb[sidx]:
                            llc_tb[sidx] = 1
                            llc._touched_count += 1
                        if etag2 is not None and etag2 < _NOISE_TAG_BASE:
                            inv_everywhere(etag2)
                    sft += 1
            else:
                lslot = llc_where.get(sk)
                if lslot is not None:
                    llc_hits += 1
                    llc_pt += 1
                    if llc_lru is not None:
                        llc_lru._stamp = stamp = llc_lru._stamp + 1
                        llc_state[lslot] = stamp
                    elif llc_rrip:
                        llc_state[lslot] = 0
                    else:
                        llc_ptouch(llc_state, sidx * llc_pstride, lslot - sidx * llc_ways)
                else:
                    # Miss everywhere: _sf_install, insert inline.
                    sf_base = sidx * sf_ways
                    if sf_occ[sidx] < sf_ways:
                        fslot = sf_tags.index(None, sf_base, sf_base + sf_ways)
                        wayf = fslot - sf_base
                        sf_occ[sidx] += 1
                        etag = None
                    else:
                        if sf_lru is not None:
                            seg = sf_state[sf_base:sf_base + sf_ways]
                            wayf = seg.index(min(seg))
                        else:
                            wayf = sf_pvict(sf_state, sidx * sf_pstride)
                        sfv += 1
                        fslot = sf_base + wayf
                        etag = sf_tags[fslot]
                        eowner = sf_owners[fslot]
                        del sf_where[etag * sf_nsets + sidx]
                    sf_tags[fslot] = line
                    sf_owners[fslot] = helper
                    sf_where[sk] = fslot
                    if sf_lru is not None:
                        sf_lru._stamp = stamp = sf_lru._stamp + 1
                        sf_state[fslot] = stamp
                    else:
                        sf_pfill(sf_state, sidx * sf_pstride, wayf)
                    sff += 1
                    if not sf_tb[sidx]:
                        sf_tb[sidx] = 1
                        sf._touched_count += 1
                    if etag is not None:
                        if eowner >= 0:
                            inv_private(eowner, etag)
                            back_inv += 1
                        if hrand() < reuse_p:
                            ev2 = llc_insert(sidx, etag, SHARED_OWNER)
                            if ev2 is not None and ev2[0] < _NOISE_TAG_BASE:
                                inv_everywhere(ev2[0])
                    dram += 1
            # Fill the helper's private caches (see the main-core block).
            l2_base = l2_idx * h2_ways
            if h2_occ[l2_idx] < h2_ways:
                slot2 = h2_tags.index(None, l2_base, l2_base + h2_ways)
                way2 = slot2 - l2_base
                h2_occ[l2_idx] += 1
                vline = None
            else:
                if h2_lru is not None:
                    seg = h2_state[l2_base:l2_base + h2_ways]
                    way2 = seg.index(min(seg))
                else:
                    way2 = h2_pvict(h2_state, l2_idx * h2_pstride)
                h2v += 1
                slot2 = l2_base + way2
                vline = h2_tags[slot2]
                del h2_where[vline * l2_nsets + l2_idx]
            h2_tags[slot2] = line
            h2_owners[slot2] = helper
            h2_where[l2_keys[j]] = slot2
            if h2_lru is not None:
                h2_lru._stamp = stamp = h2_lru._stamp + 1
                h2_state[slot2] = stamp
            else:
                h2_pfill(h2_state, l2_idx * h2_pstride, way2)
            h2f += 1
            if not h2_tb[l2_idx]:
                h2_tb[l2_idx] = 1
                h2c._touched_count += 1
            if vline is not None:
                vsid = sidx_get(vline)
                if vsid is None:
                    vsid = shared_set_index(vline)
                vslot = sf_where.get(vline * sf_nsets + vsid)
                if vslot is not None and sf_owners[vslot] == helper:
                    handle_victim(helper, vline, now)
            l1_base = set_idx * h1_ways
            if h1_occ[set_idx] < h1_ways:
                slot = h1_tags.index(None, l1_base, l1_base + h1_ways)
                way1 = slot - l1_base
                h1_occ[set_idx] += 1
            else:
                if h1_tree8:
                    sbase = set_idx * 7
                    b0 = h1_state[sbase]
                    node = 1 + b0
                    b1 = h1_state[sbase + node]
                    way1 = ((b0 << 2) | (b1 << 1)
                            | h1_state[sbase + 2 * node + 1 + b1])
                elif h1_lru is not None:
                    seg = h1_state[l1_base:l1_base + h1_ways]
                    way1 = seg.index(min(seg))
                else:
                    way1 = h1_pvict(h1_state, set_idx * h1_pstride)
                h1v += 1
                slot = l1_base + way1
                del h1_where[h1_tags[slot] * l1_nsets + set_idx]
            h1_tags[slot] = line
            h1_owners[slot] = helper
            h1_where[l1_keys[j]] = slot
            if h1_tree8:
                sbase = set_idx * 7
                b0 = (way1 >> 2) & 1
                h1_state[sbase] = 1 - b0
                b1 = (way1 >> 1) & 1
                node = 1 + b0
                h1_state[sbase + node] = 1 - b1
                h1_state[sbase + 2 * node + 1 + b1] = 1 - (way1 & 1)
            elif h1_lru is not None:
                h1_lru._stamp = stamp = h1_lru._stamp + 1
                h1_state[slot] = stamp
            else:
                h1_pfill(h1_state, set_idx * h1_pstride, way1)
            h1f += 1
            if not h1_tb[set_idx]:
                h1_tb[set_idx] = 1
                h1c._touched_count += 1
        if hits1 or hits2:
            stats.accesses += hits1 + hits2
            stats.l1_hits += hits1
            stats.l2_hits += hits2
            l1.policy_touches += hits1
            l2.policy_touches += hits2
        if shared and (hh1 or hh2):
            stats.accesses += hh1 + hh2
            stats.l1_hits += hh1
            stats.l2_hits += hh2
            h1c.policy_touches += hh1
            h2c.policy_touches += hh2
        if acc:
            stats.accesses += acc
            stats.llc_hits += llc_hits
            stats.dram_fetches += dram
            stats.sf_transfers += sft
            stats.sf_back_invalidations += back_inv
            llc.policy_touches += llc_pt
            llc.policy_fills += llcf
            llc.policy_victims += llcv
            sf.policy_touches += sf_pt
            sf.policy_fills += sff
            sf.policy_victims += sfv
            l1.policy_fills += l1f
            l1.policy_victims += l1v
            l2.policy_fills += l2f
            l2.policy_victims += l2v
            if shared:
                h1c.policy_fills += h1f
                h1c.policy_victims += h1v
                h2c.policy_fills += h2f
                h2c.policy_victims += h2v
        elapsed = worst + gaps
        elapsed += m._preemption_penalty(elapsed)
        m.advance(elapsed)
        return elapsed

    def store_sweep(self, rows: PlaneRows, count: int) -> int:
        """Mirror of ``Machine.access_batch(main, lines, write=True)``.

        Inlines the write-hit fast path (as ``_monitor_round`` does) *and*
        the post-flush miss path — SF absent, LLC absent — which is the
        provably call-equivalent final branch of ``_write`` (its
        ``sf.remove`` is a no-op there).  Every other transition
        (ownership steal, shared->exclusive, stale self-owned entry)
        falls back to ``_write``, whose probes are side-effect-free on
        a miss, so the re-probe is unobservable.
        """
        m = self.machine
        if not count:
            return 0
        events = m._events
        if events and events[0][0] <= m.now:
            m._drain_events()
        m.batch_calls += 1
        m.batch_lines += count
        hier = self.hierarchy
        now = m.now
        core = self.main_core
        stats = hier.stats
        lat = m.cfg.latency
        lat_l1 = lat.l1_hit
        lat_l2 = lat.l2_hit
        lat_dram = lat.dram
        hit_gap = lat.hit_issue_gap
        miss_gap = lat.issue_gap
        level_lat = m._level_latency
        level_l2 = Level.L2
        lines = rows.lines
        l1_sets = rows.l1_sets
        l2_sets = rows.l2_sets
        sidxs = rows.shared_sets
        l1_keys = rows.l1_keys
        l2_keys = rows.l2_keys
        skeys = rows.shared_keys
        l1 = hier.l1[core]
        l2 = hier.l2[core]
        l1_where = l1._where
        l1_state = l1._state
        l1_lru = l1._lru
        l1_rrip = l1._rrip
        l1_ptouch = l1._pt_touch
        l1_pstride = l1._pstride
        l1_ways = l1.ways
        l1_insert = l1.insert
        l1_tree8 = type(l1._pol) is TreePLRU8Table
        l1_tags = l1._tags
        l1_owners = l1._owners
        l1_occ = l1._occ
        l1_nsets = l1.n_sets
        l1_pvict = l1._pt_victim
        l1_pfill = l1._pt_fill
        l1_tb = l1._touched
        l2_where = l2._where
        l2_state = l2._state
        l2_lru = l2._lru
        l2_rrip = l2._rrip
        l2_ptouch = l2._pt_touch
        l2_pstride = l2._pstride
        l2_ways = l2.ways
        l2_tags = l2._tags
        l2_owners = l2._owners
        l2_occ = l2._occ
        l2_nsets = l2.n_sets
        l2_pvict = l2._pt_victim
        l2_pfill = l2._pt_fill
        l2_tb = l2._touched
        sf = hier.sf
        llc = hier.llc
        sf_where = sf._where
        sf_owners = sf._owners
        sf_tags = sf._tags
        sf_occ = sf._occ
        sf_state = sf._state
        sf_lru = sf._lru
        sf_rrip = sf._rrip
        sf_ptouch = sf._pt_touch
        sf_pvict = sf._pt_victim
        sf_pfill = sf._pt_fill
        sf_pstride = sf._pstride
        sf_ways = sf.ways
        sf_nsets = sf.n_sets
        sf_tb = sf._touched
        llc_where = llc._where
        llc_insert = llc.insert
        hrand = hier._rng.random
        reuse_p = hier.cfg.reuse_predictor_p
        handle_victim = hier._handle_l2_victim
        sidx_get = hier._sidx_memo.get
        shared_set_index = hier.shared_set_index
        l1_mask = hier._l1_mask
        l2_mask = hier._l2_mask
        l1_probe = [(c._where, c.remove) for c in hier.l1]
        l2_probe = [(c._where, c.remove) for c in hier.l2]
        wr = hier._write

        def inv_everywhere(etag):  # see load_sweep
            s1 = etag & l1_mask
            k1 = etag * l1_nsets + s1
            for w, rm in l1_probe:
                if k1 in w:
                    rm(s1, etag)
            s2 = etag & l2_mask
            k2 = etag * l2_nsets + s2
            for w, rm in l2_probe:
                if k2 in w:
                    rm(s2, etag)

        def inv_private(eowner, etag):
            s1 = etag & l1_mask
            w, rm = l1_probe[eowner]
            if etag * l1_nsets + s1 in w:
                rm(s1, etag)
            s2 = etag & l2_mask
            w, rm = l2_probe[eowner]
            if etag * l2_nsets + s2 in w:
                rm(s2, etag)
        noise = hier.noise_source
        if noise is not None:
            nrng = noise._rng
            nrand = nrng.random
            sf_rate = noise._sf_rate
            llc_rate = noise._llc_rate
            sf_nt = sf._noise_t
            sf_tt = sf._touched
            llc_nt = llc._noise_t
            llc_tt = llc._touched
            sf_cap = 3 * sf_ways
            llc_cap = 3 * llc.ways
            ins_sf = hier.noise_insert_sf
            ins_llc = hier.noise_insert_llc
        hits1 = hits2 = acc = dram = back_inv = 0
        l1f = l1v = l2f = l2v = sff = sfv = 0
        worst = 0
        gaps = 0
        for j in range(count):
            line = lines[j]
            sidx = sidxs[j]
            if noise is not None:
                # Inline BackgroundNoise.reconcile (see flush_rows).
                if sf_rate > 0.0:
                    if not sf_tt[sidx]:
                        sf_tt[sidx] = 1
                        sf._touched_count += 1
                    old = sf_nt[sidx]
                    if now > old:
                        sf_nt[sidx] = now
                        lam = sf_rate * (now - old)
                        if lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > sf_cap:
                                n = sf_cap
                            for _ in range(n):
                                ins_sf(sidx)
                            noise.events += n
                if llc_rate > 0.0:
                    if not llc_tt[sidx]:
                        llc_tt[sidx] = 1
                        llc._touched_count += 1
                    old = llc_nt[sidx]
                    if now > old:
                        llc_nt[sidx] = now
                        lam = llc_rate * (now - old)
                        if lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > llc_cap:
                                n = llc_cap
                            for _ in range(n):
                                ins_llc(sidx)
                            noise.events += n
            sk = skeys[j]
            sslot = sf_where.get(sk)
            if sslot is None:
                if sk in llc_where:
                    level = wr(core, line, now, reconcile=False)
                    lt = level_lat[level]
                    gp = hit_gap if level <= level_l2 else miss_gap
                else:
                    # _write's final branch: fetch exclusive from DRAM
                    # (the sf.remove there is a no-op — entry absent).
                    # _sf_install + fill private, insert inline (see
                    # load_sweep for the expansion notes).
                    acc += 1
                    sf_base = sidx * sf_ways
                    if sf_occ[sidx] < sf_ways:
                        fslot = sf_tags.index(None, sf_base, sf_base + sf_ways)
                        wayf = fslot - sf_base
                        sf_occ[sidx] += 1
                        etag = None
                    else:
                        if sf_lru is not None:
                            seg = sf_state[sf_base:sf_base + sf_ways]
                            wayf = seg.index(min(seg))
                        else:
                            wayf = sf_pvict(sf_state, sidx * sf_pstride)
                        sfv += 1
                        fslot = sf_base + wayf
                        etag = sf_tags[fslot]
                        eowner = sf_owners[fslot]
                        del sf_where[etag * sf_nsets + sidx]
                    sf_tags[fslot] = line
                    sf_owners[fslot] = core
                    sf_where[sk] = fslot
                    if sf_lru is not None:
                        sf_lru._stamp = stamp = sf_lru._stamp + 1
                        sf_state[fslot] = stamp
                    else:
                        sf_pfill(sf_state, sidx * sf_pstride, wayf)
                    sff += 1
                    if not sf_tb[sidx]:
                        sf_tb[sidx] = 1
                        sf._touched_count += 1
                    if etag is not None:
                        if eowner >= 0:
                            inv_private(eowner, etag)
                            back_inv += 1
                        if hrand() < reuse_p:
                            ev2 = llc_insert(sidx, etag, SHARED_OWNER)
                            if ev2 is not None and ev2[0] < _NOISE_TAG_BASE:
                                inv_everywhere(ev2[0])
                    l2_idx = l2_sets[j]
                    l2_base = l2_idx * l2_ways
                    if l2_occ[l2_idx] < l2_ways:
                        slot2 = l2_tags.index(None, l2_base, l2_base + l2_ways)
                        way2 = slot2 - l2_base
                        l2_occ[l2_idx] += 1
                        vline = None
                    else:
                        if l2_lru is not None:
                            seg = l2_state[l2_base:l2_base + l2_ways]
                            way2 = seg.index(min(seg))
                        else:
                            way2 = l2_pvict(l2_state, l2_idx * l2_pstride)
                        l2v += 1
                        slot2 = l2_base + way2
                        vline = l2_tags[slot2]
                        del l2_where[vline * l2_nsets + l2_idx]
                    l2_tags[slot2] = line
                    l2_owners[slot2] = core
                    l2_where[l2_keys[j]] = slot2
                    if l2_lru is not None:
                        l2_lru._stamp = stamp = l2_lru._stamp + 1
                        l2_state[slot2] = stamp
                    else:
                        l2_pfill(l2_state, l2_idx * l2_pstride, way2)
                    l2f += 1
                    if not l2_tb[l2_idx]:
                        l2_tb[l2_idx] = 1
                        l2._touched_count += 1
                    if vline is not None:
                        vsid = sidx_get(vline)
                        if vsid is None:
                            vsid = shared_set_index(vline)
                        vslot = sf_where.get(vline * sf_nsets + vsid)
                        if vslot is not None and sf_owners[vslot] == core:
                            handle_victim(core, vline, now)
                    set_idx = l1_sets[j]
                    l1_base = set_idx * l1_ways
                    if l1_occ[set_idx] < l1_ways:
                        slot = l1_tags.index(None, l1_base, l1_base + l1_ways)
                        way1 = slot - l1_base
                        l1_occ[set_idx] += 1
                    else:
                        if l1_tree8:
                            sbase = set_idx * 7
                            b0 = l1_state[sbase]
                            node = 1 + b0
                            b1 = l1_state[sbase + node]
                            way1 = ((b0 << 2) | (b1 << 1)
                                    | l1_state[sbase + 2 * node + 1 + b1])
                        elif l1_lru is not None:
                            seg = l1_state[l1_base:l1_base + l1_ways]
                            way1 = seg.index(min(seg))
                        else:
                            way1 = l1_pvict(l1_state, set_idx * l1_pstride)
                        l1v += 1
                        slot = l1_base + way1
                        del l1_where[l1_tags[slot] * l1_nsets + set_idx]
                    l1_tags[slot] = line
                    l1_owners[slot] = core
                    l1_where[l1_keys[j]] = slot
                    if l1_tree8:
                        sbase = set_idx * 7
                        b0 = (way1 >> 2) & 1
                        l1_state[sbase] = 1 - b0
                        b1 = (way1 >> 1) & 1
                        node = 1 + b0
                        l1_state[sbase + node] = 1 - b1
                        l1_state[sbase + 2 * node + 1 + b1] = 1 - (way1 & 1)
                    elif l1_lru is not None:
                        l1_lru._stamp = stamp = l1_lru._stamp + 1
                        l1_state[slot] = stamp
                    else:
                        l1_pfill(l1_state, set_idx * l1_pstride, way1)
                    l1f += 1
                    if not l1_tb[set_idx]:
                        l1_tb[set_idx] = 1
                        l1._touched_count += 1
                    dram += 1
                    lt = lat_dram
                    gp = miss_gap
            elif sf_owners[sslot] == core:
                set_idx = l1_sets[j]
                slot = l1_where.get(l1_keys[j])
                if slot is not None:
                    hits1 += 1
                    if l1_tree8:
                        base = set_idx * 7
                        way = slot - set_idx * 8
                        b0 = (way >> 2) & 1
                        l1_state[base] = 1 - b0
                        b1 = (way >> 1) & 1
                        node = 1 + b0
                        l1_state[base + node] = 1 - b1
                        l1_state[base + 2 * node + 1 + b1] = 1 - (way & 1)
                    elif l1_lru is not None:
                        l1_lru._stamp = stamp = l1_lru._stamp + 1
                        l1_state[slot] = stamp
                    elif l1_rrip:
                        l1_state[slot] = 0
                    else:
                        l1_ptouch(l1_state, set_idx * l1_pstride,
                                  slot - set_idx * l1_ways)
                    lt = lat_l1
                    gp = hit_gap
                else:
                    l2_idx = l2_sets[j]
                    slot2 = l2_where.get(l2_keys[j])
                    if slot2 is None:
                        # Stale self-owned entry: generic path.
                        level = wr(core, line, now, reconcile=False)
                        lt = level_lat[level]
                        gp = hit_gap if level <= level_l2 else miss_gap
                        if lt > worst:
                            worst = lt
                        gaps += gp
                        continue
                    hits2 += 1
                    if l2_lru is not None:
                        l2_lru._stamp = stamp = l2_lru._stamp + 1
                        l2_state[slot2] = stamp
                    elif l2_rrip:
                        l2_state[slot2] = 0
                    else:
                        l2_ptouch(l2_state, l2_idx * l2_pstride,
                                  slot2 - l2_idx * l2_ways)
                    l1_insert(set_idx, line, core)
                    lt = lat_l2
                    gp = hit_gap
                # SF recency refresh == insert(update_owner=False) hit path.
                if sf_lru is not None:
                    sf_lru._stamp = stamp = sf_lru._stamp + 1
                    sf_state[sslot] = stamp
                elif sf_rrip:
                    sf_state[sslot] = 0
                else:
                    sf_ptouch(sf_state, sidx * sf_pstride, sslot - sidx * sf_ways)
            else:
                level = wr(core, line, now, reconcile=False)
                lt = level_lat[level]
                gp = hit_gap if level <= level_l2 else miss_gap
            if lt > worst:
                worst = lt
            gaps += gp
        if hits1 or hits2:
            stats.accesses += hits1 + hits2
            stats.l1_hits += hits1
            stats.l2_hits += hits2
            l1.policy_touches += hits1
            l2.policy_touches += hits2
            sf.policy_touches += hits1 + hits2
        if acc:
            stats.accesses += acc
            stats.dram_fetches += dram
            stats.sf_back_invalidations += back_inv
            sf.policy_fills += sff
            sf.policy_victims += sfv
            l1.policy_fills += l1f
            l1.policy_victims += l1v
            l2.policy_fills += l2f
            l2.policy_victims += l2v
        elapsed = worst + gaps
        elapsed += m._preemption_penalty(elapsed)
        m.advance(elapsed)
        return elapsed

    # -- Monitor kernels -----------------------------------------------------

    def prime_probe_kernel(self, rows: PlaneRows, count: int,
                           prime_rounds: int = 0, probe: bool = False) -> int:
        """Fused monitor rounds over one eviction set (``same_shared_set``).

        ``prime_rounds`` write sweeps mirror
        ``access_batch(main, lines, write=True, same_shared_set=True)``
        per round; ``probe=True`` appends one read sweep mirroring
        ``probe_batch(main, lines, same_shared_set=True)`` (the timer
        overhead is added to the returned measurement, not the clock —
        exactly as ``probe_batch`` does).  Noise is reconciled once per
        round on the congruent set; the steady-state all-hit walk is
        inline, anything else falls back to the generic access.
        """
        total = 0
        for _ in range(prime_rounds):
            total += self._monitor_round(rows, count, True)
        if probe:
            total += self._monitor_round(rows, count, False)
            total += self.machine.cfg.latency.timer_overhead
        return total

    def _monitor_round(self, rows: PlaneRows, count: int, write: bool) -> int:
        m = self.machine
        if not count:
            return 0
        events = m._events
        if events and events[0][0] <= m.now:
            m._drain_events()
        m.batch_calls += 1
        m.batch_lines += count
        hier = self.hierarchy
        now = m.now
        core = self.main_core
        stats = hier.stats
        noise = hier.noise_source
        if noise is not None:
            noise.reconcile(hier, rows.shared_sets[0], now)
        lat = m.cfg.latency
        lat_l1 = lat.l1_hit
        lat_l2 = lat.l2_hit
        hit_gap = lat.hit_issue_gap
        miss_gap = lat.issue_gap
        level_lat = m._level_latency
        level_l2 = Level.L2
        lines = rows.lines
        l1_sets = rows.l1_sets
        l2_sets = rows.l2_sets
        l1_keys = rows.l1_keys
        l2_keys = rows.l2_keys
        l1 = hier.l1[core]
        l2 = hier.l2[core]
        l1_where = l1._where
        l1_state = l1._state
        l1_lru = l1._lru
        l1_rrip = l1._rrip
        l1_ptouch = l1._pt_touch
        l1_pstride = l1._pstride
        l1_ways = l1.ways
        l1_insert = l1.insert
        l1_tree8 = type(l1._pol) is TreePLRU8Table
        l2_where = l2._where
        l2_state = l2._state
        l2_lru = l2._lru
        l2_rrip = l2._rrip
        l2_ptouch = l2._pt_touch
        l2_pstride = l2._pstride
        l2_ways = l2.ways
        hits1 = hits2 = 0
        worst = 0
        gaps = 0
        if write:
            sf = hier.sf
            sidxs = rows.shared_sets
            skeys = rows.shared_keys
            sf_where = sf._where
            sf_owners = sf._owners
            sf_state = sf._state
            sf_lru = sf._lru
            sf_rrip = sf._rrip
            sf_ptouch = sf._pt_touch
            sf_pstride = sf._pstride
            sf_ways = sf.ways
            wr = hier._write
            for j in range(count):
                line = lines[j]
                sidx = sidxs[j]
                sslot = sf_where.get(skeys[j])
                if sslot is None or sf_owners[sslot] != core:
                    level = wr(core, line, now, reconcile=False)
                    lt = level_lat[level]
                    gp = hit_gap if level <= level_l2 else miss_gap
                    if lt > worst:
                        worst = lt
                    gaps += gp
                    continue
                set_idx = l1_sets[j]
                slot = l1_where.get(l1_keys[j])
                if slot is not None:
                    hits1 += 1
                    if l1_tree8:
                        base = set_idx * 7
                        way = slot - set_idx * 8
                        b0 = (way >> 2) & 1
                        l1_state[base] = 1 - b0
                        b1 = (way >> 1) & 1
                        node = 1 + b0
                        l1_state[base + node] = 1 - b1
                        l1_state[base + 2 * node + 1 + b1] = 1 - (way & 1)
                    elif l1_lru is not None:
                        l1_lru._stamp = stamp = l1_lru._stamp + 1
                        l1_state[slot] = stamp
                    elif l1_rrip:
                        l1_state[slot] = 0
                    else:
                        l1_ptouch(l1_state, set_idx * l1_pstride,
                                  slot - set_idx * l1_ways)
                    lt = lat_l1
                else:
                    l2_idx = l2_sets[j]
                    slot2 = l2_where.get(l2_keys[j])
                    if slot2 is None:
                        level = wr(core, line, now, reconcile=False)
                        lt = level_lat[level]
                        gp = hit_gap if level <= level_l2 else miss_gap
                        if lt > worst:
                            worst = lt
                        gaps += gp
                        continue
                    hits2 += 1
                    if l2_lru is not None:
                        l2_lru._stamp = stamp = l2_lru._stamp + 1
                        l2_state[slot2] = stamp
                    elif l2_rrip:
                        l2_state[slot2] = 0
                    else:
                        l2_ptouch(l2_state, l2_idx * l2_pstride,
                                  slot2 - l2_idx * l2_ways)
                    l1_insert(set_idx, line, core)
                    lt = lat_l2
                if sf_lru is not None:
                    sf_lru._stamp = stamp = sf_lru._stamp + 1
                    sf_state[sslot] = stamp
                elif sf_rrip:
                    sf_state[sslot] = 0
                else:
                    sf_ptouch(sf_state, sidx * sf_pstride, sslot - sidx * sf_ways)
                if lt > worst:
                    worst = lt
                gaps += hit_gap
            if hits1 or hits2:
                stats.accesses += hits1 + hits2
                stats.l1_hits += hits1
                stats.l2_hits += hits2
                l1.policy_touches += hits1
                l2.policy_touches += hits2
                hier.sf.policy_touches += hits1 + hits2
        else:
            access = hier.access
            for j in range(count):
                line = lines[j]
                set_idx = l1_sets[j]
                slot = l1_where.get(l1_keys[j])
                if slot is not None:
                    hits1 += 1
                    if l1_tree8:
                        base = set_idx * 7
                        way = slot - set_idx * 8
                        b0 = (way >> 2) & 1
                        l1_state[base] = 1 - b0
                        b1 = (way >> 1) & 1
                        node = 1 + b0
                        l1_state[base + node] = 1 - b1
                        l1_state[base + 2 * node + 1 + b1] = 1 - (way & 1)
                    elif l1_lru is not None:
                        l1_lru._stamp = stamp = l1_lru._stamp + 1
                        l1_state[slot] = stamp
                    elif l1_rrip:
                        l1_state[slot] = 0
                    else:
                        l1_ptouch(l1_state, set_idx * l1_pstride,
                                  slot - set_idx * l1_ways)
                    if lat_l1 > worst:
                        worst = lat_l1
                    gaps += hit_gap
                    continue
                l2_idx = l2_sets[j]
                slot2 = l2_where.get(l2_keys[j])
                if slot2 is not None:
                    hits2 += 1
                    if l2_lru is not None:
                        l2_lru._stamp = stamp = l2_lru._stamp + 1
                        l2_state[slot2] = stamp
                    elif l2_rrip:
                        l2_state[slot2] = 0
                    else:
                        l2_ptouch(l2_state, l2_idx * l2_pstride,
                                  slot2 - l2_idx * l2_ways)
                    l1_insert(set_idx, line, core)
                    if lat_l2 > worst:
                        worst = lat_l2
                    gaps += hit_gap
                    continue
                level = access(core, line, now, reconcile=False)
                lt = level_lat[level]
                if lt > worst:
                    worst = lt
                gaps += hit_gap if level <= level_l2 else miss_gap
            if hits1 or hits2:
                stats.accesses += hits1 + hits2
                stats.l1_hits += hits1
                stats.l2_hits += hits2
                l1.policy_touches += hits1
                l2.policy_touches += hits2
        elapsed = worst + gaps
        elapsed += m._preemption_penalty(elapsed)
        m.advance(elapsed)
        return elapsed

    # -- TestEviction traversal ---------------------------------------------

    def traverse_kernel(self, mode: str, rows: PlaneRows, count: int,
                        repeats: int) -> None:
        """``EvictionTester._traverse_lines`` (parallel form), fused."""
        self.flush_rows(rows, count)
        if mode == "llc":
            for _ in range(repeats):
                self.load_sweep(rows, count, shared=True)
        elif mode == "sf":
            for _ in range(repeats):
                self.store_sweep(rows, count)
        else:
            for _ in range(repeats):
                self.load_sweep(rows, count)
