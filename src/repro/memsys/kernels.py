"""Fused attack kernels over the flat data plane (DESIGN.md §2.3).

The flat data plane makes single cache operations cheap; what remains is
the Python orchestration around them (per-candidate Machine calls,
re-translation, slice re-hashing).  This module fuses those loops:

* :class:`TranslationPlane` — per candidate pool, precompute flat parallel
  tuples of ``va -> (line, l1_set, l2_set, shared_set, slice)`` plus the
  ``_where``-dict keys for every structure, once, and reuse them across
  all group-testing rounds (:class:`PlaneRows`).
* :class:`AttackKernels` — hierarchy-level kernels that walk those arrays
  with the per-line control flow of the unfused path expanded inline:
  ``flush_rows``, ``load_sweep`` / ``store_sweep`` and
  ``traverse_kernel`` (TestEviction's flush + traversal), and
  ``prime_probe_kernel`` (monitor primes and probes; a memo-on
  ``monitor_set`` window folds its quiet probes in
  :meth:`repro.memsys.vec.VecKernels.probe_window` instead).  They are
  the only code that walks cache hits inline;
  ``CacheHierarchy.access_many`` is a plain per-line loop over ``access``.

One cascade description, generated kernels
------------------------------------------

The kernels all walk one mechanism: the non-inclusive private-L1/L2 →
SF/LLC cascade, in which an SF eviction back-invalidates the owner's
private copies.  It is written once, below, as *steps*: per structure
the replacement-policy steps (hit touch, victim, fill, invalidate) in
three policy forms (LRU stamps, the unrolled Tree-PLRU-8 walk, the
generic ``_pt_*`` table call) plus install and remove; per operation
the noise reconcile, the read, the helper-core shadow read, the write
and the flush.  :func:`kernel_source` expands one operation for one
policy tuple, hoisting exactly the locals it uses and folding its
counters once per call; :func:`generated` compiles it on first use,
caches it per ``(operation, policy tuple)`` and registers the text with
:mod:`linecache`, so tracebacks and profiles show real lines.

The RNG-order contract (what keeps trials bit-identical)
--------------------------------------------------------

This is the simulator's one RNG contract (DESIGN.md §2.7).  Every kernel
must consume the machine's RNG streams in exactly the per-access order of
the unfused path it replaces:

* the **hierarchy RNG** is drawn by ``_sf_install`` (reuse predictor) and
  ``_handle_l2_victim`` (victim-to-LLC), in cache-operation order;
* the **noise RNG** is drawn by per-set reconciliation (SF block before
  LLC block, one draw per structure in the common case — the
  ``reconcile`` step mirrors ``BackgroundNoise.reconcile`` statement for
  statement, including the ``lam < 0.01`` Bernoulli fast path);
* the **preempt RNG** is drawn once per batch/flush/timed access with a
  positive elapsed time, and the **jitter RNG** once per timed access.

Because clock advances determine reconciliation windows (and therefore
noise draws), kernels also charge exactly the cycles the unfused path
charges.  A kernel may *elide* an operation only when it is provably a
no-op on all state and all RNG streams (e.g. the second reconciliation
of a set at an unchanged ``now``, or a ``remove`` of an absent tag).
The parity gates are ``tests/test_kernel_parity.py`` (fused vs. unfused,
raw planes included, across modes, noise levels and policies) and the
golden fingerprints of ``tests/test_dataplane_parity.py``.
"""

from __future__ import annotations

import linecache
import re
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

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
from .policy_tables import LRUTable, TreePLRU8Table

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

    __slots__ = ("vas", "lines", "l1_sets", "l2_sets", "shared_sets",
                 "slices", "l1_keys", "l2_keys", "shared_keys")

    def __init__(self, *columns: Tuple[int, ...]) -> None:
        """One tuple per slot, in slot order."""
        for name, column in zip(self.__slots__, columns):
            setattr(self, name, column)

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
        rec = (line, s1, s2, sidx, sidx // self._sets_per_slice,
               line * self._l1_nsets + s1, line * self._l2_nsets + s2,
               line * self._shared_nsets + sidx)
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


# -- The cascade, described once -------------------------------------------
#
# A step is Python source.  Its ``{arg}`` fields are filled from the
# arguments it is called with, and a line ``@step arg ...`` expands
# another step in place, at that line's indentation.  A structure
# argument ``{c}`` is ``l1``/``l2`` (the main core's private caches),
# ``h1``/``h2`` (the helper core's), ``sf`` or ``llc``: the local holding
# that cache, whose planes are the locals ``{c}_where``, ``{c}_tags``...
# (``_FIELDS``).  Locals are hoisted once per call, and only the ones the
# expanded kernel names.

#: LRU touch and fill: the next value of the table's stamp counter.
_LRU_STAMP = """\
{c}_lru._stamp = stamp = {c}_lru._stamp + 1
{c}_state[{slot}] = stamp
"""

#: The replacement-policy steps in each policy form: ``touch`` (a hit on
#: ``{slot}`` of set ``{s}``), ``fill`` (a line installed in ``{slot}``,
#: way ``{way}``), ``victim`` (set ``{way}`` to the way the next fill of
#: the full set starting at slot ``{base}`` evicts) and ``invalidate``.
#: ``table`` calls the cache's policy table, whatever it is.
POLICY_FORMS: Dict[str, Dict[str, str]] = {
    "lru": {
        "touch": _LRU_STAMP,
        "fill": _LRU_STAMP,
        "victim": """\
seg = {c}_state[{base}:{base} + {c}_ways]
{way} = seg.index(min(seg))
""",
        "invalidate": """\
{c}_lru._inv_stamp = stamp = {c}_lru._inv_stamp - 1
{c}_state[{slot}] = stamp
""",
    },
    # Tree-PLRU-8 unrolled: seven node bits per set, from ``{s} * 7``.
    "tree8": {
        "touch": "w = {slot} - {s} * 8\n@tree8_walk {c} {s} w 1-\n",
        "fill": "@tree8_walk {c} {s} {way} 1-\n",
        "victim": """\
t7 = {s} * 7
b0 = {c}_state[t7]
node = 1 + b0
b1 = {c}_state[t7 + node]
{way} = (b0 << 2) | (b1 << 1) | {c}_state[t7 + 2 * node + 1 + b1]
""",
        "invalidate": "w = {slot} - {s} * 8\n@tree8_walk {c} {s} w 0+\n",
    },
    "table": {
        "touch": "{c}_ptouch({c}_state, {s} * {c}_pstride, {slot} - {s} * {c}_ways)\n",
        "fill": "{c}_pfill({c}_state, {s} * {c}_pstride, {way})\n",
        "victim": "{way} = {c}_pvict({c}_state, {s} * {c}_pstride)\n",
        "invalidate": "{c}_pinv({c}_state, {s} * {c}_pstride, {slot} - {s} * {c}_ways)\n",
    },
}

#: Policy step -> (arguments, the counter it bumps: ``{c}_t`` touches,
#: ``{c}_f`` fills, ``{c}_v`` victims, folded into the cache's
#: ``policy_*`` counters once per call).
_POLICY_STEPS = {
    "touch": ("c s slot", "t"),
    "fill": ("c s slot way", "f"),
    "victim": ("c s base way", "v"),
    "invalidate": ("c s slot", None),
}

#: The cascade steps: name -> (arguments, source).
STEPS: Dict[str, Tuple[str, str]] = {
    # The tree walk of a touch/fill (``flip`` "1-": point away from the
    # way) or an invalidate ("0+": point at it).
    "tree8_walk": ("c s way flip", """\
t7 = {s} * 7
b0 = ({way} >> 2) & 1
{c}_state[t7] = {flip}b0
b1 = ({way} >> 1) & 1
node = 1 + b0
{c}_state[t7 + node] = {flip}b1
{c}_state[t7 + 2 * node + 1 + b1] = {flip}({way} & 1)
"""),
    # BackgroundNoise.reconcile of shared set ``sidx`` up to ``now``.
    "reconcile": ("", """\
if noise is not None:
    @reconcile_in sf
    @reconcile_in llc
"""),
    "reconcile_in": ("c", """\
if {c}_rate > 0.0:
    if not {c}_tb[sidx]:
        {c}_tb[sidx] = 1
        {c}._touched_count += 1
    old = {c}_nt[sidx]
    if now > old:
        {c}_nt[sidx] = now
        lam = {c}_rate * (now - old)
        if lam < 0.01:
            n = 1 if nrand() < lam else 0
        else:
            n = poisson(nrng, lam)
        if n:
            if n > {c}_cap:
                n = {c}_cap
            for _ in range(n):
                ins_{c}(sidx)
            noise.events += n
"""),
    # SetAssociativeCache.insert of an absent ``line``: a free way, else
    # the policy's victim, whose tag and owner land in ``victim`` and
    # ``vowner`` (``victim`` is None when nothing was evicted).
    "install": ("c s key owner", """\
base = {s} * {c}_ways
if {c}_occ[{s}] < {c}_ways:
    slot = {c}_tags.index(None, base, base + {c}_ways)
    way = slot - base
    {c}_occ[{s}] += 1
    victim = None
else:
    @victim {c} {s} base way
    slot = base + way
    victim = {c}_tags[slot]
    vowner = {c}_owners[slot]
    del {c}_where[victim * {c}_nsets + {s}]
{c}_tags[slot] = line
{c}_owners[slot] = {owner}
{c}_where[{key}] = slot
@fill {c} {s} slot way
if not {c}_tb[{s}]:
    {c}_tb[{s}] = 1
    {c}._touched_count += 1
"""),
    # SetAssociativeCache.remove of the tag present at ``{slot}``.
    "remove": ("c s key slot", """\
del {c}_where[{key}]
{c}_tags[{slot}] = None
{c}_owners[{slot}] = 0
{c}_occ[{s}] -= 1
@invalidate {c} {s} {slot}
"""),
    # Every core's private copies of ``{tag}`` (keys ``k1``/``k2`` in sets
    # ``s1``/``s2``), probed by key so an absent tag costs no call.  All
    # L1s before all L2s: the caches are independent, so the order
    # flush_line uses (per core, L1 then L2) is unobservable.
    "drop_private": ("tag", """\
for where, rm in l1_probe:
    if k1 in where:
        rm(s1, {tag})
for where, rm in l2_probe:
    if k2 in where:
        rm(s2, {tag})
"""),
    # CacheHierarchy._sf_install of ``line`` for ``{who}``: an evicted SF
    # entry back-invalidates its owner's private copies and goes to the
    # LLC with probability ``reuse_predictor_p``.
    "sf_install": ("who", """\
@install sf sidx sk {who}
if victim is not None:
    if vowner >= 0:
        inv_private(vowner, victim)
        n_binv += 1
    if hrand() < reuse_p:
        ev2 = llc_insert(sidx, victim, SHARED_OWNER)
        if ev2 is not None and ev2[0] < _NOISE_TAG_BASE:
            inv_everywhere(ev2[0])
"""),
    # CacheHierarchy._fill_private, L2 then L1.  _handle_l2_victim runs
    # only when its SF-ownership guard would fire; L1 victims are silent.
    "fill_private": ("p1 p2 who", """\
@install {p2} l2_idx l2_keys[j] {who}
if victim is not None:
    vsid = sidx_get(victim)
    if vsid is None:
        vsid = shared_set_index(victim)
    vslot = sf_where.get(victim * sf_nsets + vsid)
    if vslot is not None and sf_owners[vslot] == {who}:
        handle_victim({who}, victim, now)
@install {p1} set_idx l1_keys[j] {who}
"""),
    # CacheHierarchy.access (a load) of ``line`` by ``{who}`` through its
    # private caches ``{p1}``/``{p2}``; sets the latency ``lt`` and the
    # issue gap ``gp``.  A private miss continues with step ``{miss}``.
    "read": ("p1 p2 who miss", """\
set_idx = l1_sets[j]
slot = {p1}_where.get(l1_keys[j])
if slot is not None:
    @touch {p1} set_idx slot
    lt = lat_l1
    gp = hit_gap
else:
    l2_idx = l2_sets[j]
    slot = {p2}_where.get(l2_keys[j])
    if slot is not None:
        @touch {p2} l2_idx slot
        {p1}_insert(set_idx, line, {who})
        lt = lat_l2
        gp = hit_gap
    else:
        @{miss} {p1} {p2} {who}
"""),
    # The rest of CacheHierarchy.access after a private miss, inline.
    "read_miss": ("p1 p2 who", """\
acc += 1
sk = skeys[j]
sslot = sf_where.get(sk)
if sslot is not None:
    owner = sf_owners[sslot]
    if owner == {who} or owner == NOISE_OWNER:
        # Retake: sf.insert on a present tag, a touch + owner rewrite.
        sf_owners[sslot] = {who}
        @touch sf sidx sslot
        n_dram += 1
        lt = lat_dram
    else:
        # Another core's private line becomes shared.
        @remove sf sidx sk sslot
        slot = llc_where.get(sk)
        if slot is not None:
            llc_owners[slot] = SHARED_OWNER
            @touch llc sidx slot
        else:
            @install llc sidx sk SHARED_OWNER
            if victim is not None and victim < _NOISE_TAG_BASE:
                inv_everywhere(victim)
        n_sft += 1
        lt = lat_llc
else:
    slot = llc_where.get(sk)
    if slot is not None:
        n_llc += 1
        @touch llc sidx slot
        lt = lat_llc
    else:
        @sf_install {who}
        n_dram += 1
        lt = lat_dram
@fill_private {p1} {p2} {who}
gp = miss_gap
"""),
    # CacheHierarchy._write (a store) of ``line`` by the main core: the
    # exclusive hit inline, an absent SF entry through step ``{miss}``,
    # every other transition (ownership steal, stale self-owned entry)
    # through ``_write``, whose probes have no side effects.
    "write": ("miss", """\
sk = skeys[j]
sslot = sf_where.get(sk)
if sslot is None:
    @{miss}
elif sf_owners[sslot] == core:
    set_idx = l1_sets[j]
    slot = l1_where.get(l1_keys[j])
    if slot is not None:
        @touch l1 set_idx slot
        lt = lat_l1
    else:
        l2_idx = l2_sets[j]
        slot = l2_where.get(l2_keys[j])
        if slot is not None:
            @touch l2 l2_idx slot
            l1_insert(set_idx, line, core)
            lt = lat_l2
    if slot is None:
        # Stale self-owned entry.
        @write_call
    else:
        # The SF recency refresh, insert(update_owner=False) on a hit.
        @touch sf sidx sslot
        gp = hit_gap
else:
    @write_call
"""),
    # No SF entry: shared -> exclusive through ``_write``, the miss
    # everywhere (_write's last branch; its sf.remove is a no-op) inline.
    "write_miss": ("", """\
if sk in llc_where:
    @write_call
else:
    acc += 1
    @sf_install core
    l2_idx = l2_sets[j]
    set_idx = l1_sets[j]
    @fill_private l1 l2 core
    n_dram += 1
    lt = lat_dram
    gp = miss_gap
"""),
    # The unfused path, for what the round kernels leave to it.
    "read_call": ("p1 p2 who", """\
level = access({who}, line, now, reconcile=False)
lt = level_lat[level]
gp = hit_gap if level <= level_l2 else miss_gap
"""),
    "write_call": ("", """\
level = wr(core, line, now, reconcile=False)
lt = level_lat[level]
gp = hit_gap if level <= level_l2 else miss_gap
"""),
    # access_batch's cost model: the slowest access plus per-line gaps.
    "cost": ("", """\
if lt > worst:
    worst = lt
gaps += gp
"""),
}

_LINE = "line = lines[j]\nsidx = sidxs[j]\n"
_BATCH = "m.batch_calls += 1\nm.batch_lines += count\n"
#: A round reconciles the first line's set once, as
#: ``access_batch(same_shared_set=True)`` does.
_ROUND = _BATCH + "sidx = sidxs[0]\n@reconcile\n"
_ELAPSED = """\
elapsed = worst + gaps
elapsed += m._preemption_penalty(elapsed)
m.advance(elapsed)
return elapsed
"""

#: The kernels: name -> (per-call head, per-line body, tail).
OPERATIONS: Dict[str, Tuple[str, str, str]] = {
    # Machine.flush_batch: private copies, the set's noise, SF and LLC.
    "flush": ("", """\
line = lines[j]
sidx = sidxs[j]
k1 = l1_keys[j]
s1 = l1_sets[j]
k2 = l2_keys[j]
s2 = l2_sets[j]
@drop_private line
@reconcile
sk = skeys[j]
slot = sf_where.get(sk)
if slot is not None:
    @remove sf sidx sk slot
slot = llc_where.get(sk)
if slot is not None:
    @remove llc sidx sk slot
""", """\
stats.flushes += count
cost = lat.flush + (count - 1) * lat.flush_gap
cost += m._preemption_penalty(cost)
m.advance(cost)
return cost
"""),
    # Machine.access_batch(main, lines).
    "load": (_BATCH, _LINE + "@reconcile\n@read l1 l2 core read_miss\n@cost\n",
             _ELAPSED),
    # ... with shadow_core=helper: the helper reads each line after the
    # main core (its reconcile of the same set at the same ``now`` is a
    # no-op and elided); only the main core's progress is costed.
    "shadow_load": (
        _BATCH,
        _LINE + "@reconcile\n@read l1 l2 core read_miss\n@cost\n"
        "@read h1 h2 helper read_miss\n",
        _ELAPSED,
    ),
    # Machine.access_batch(main, lines, write=True).
    "store": (_BATCH, _LINE + "@reconcile\n@write write_miss\n@cost\n", _ELAPSED),
    # access_batch(main, lines, [write=True,] same_shared_set=True).  A
    # steady-state round is a hit walk: its misses call the unfused path
    # rather than pay the cascade's hoists on every round.
    "probe_round": (_ROUND, "line = lines[j]\n@read l1 l2 core read_call\n@cost\n",
                    _ELAPSED),
    "prime_round": (_ROUND, _LINE + "@write write_call\n@cost\n", _ELAPSED),
}

#: Structure -> the cache object its local holds.
_CACHES = (
    ("l1", "hier.l1[core]"), ("l2", "hier.l2[core]"),
    ("h1", "hier.l1[helper]"), ("h2", "hier.l2[helper]"),
    ("sf", "hier.sf"), ("llc", "hier.llc"),
)
#: Per-structure locals: ``{c}_<name> = {c}.<attribute>``.
_FIELDS = (
    ("where", "_where"), ("tags", "_tags"), ("owners", "_owners"),
    ("occ", "_occ"), ("state", "_state"), ("ways", "ways"),
    ("nsets", "n_sets"), ("tb", "_touched"), ("nt", "_noise_t"),
    ("lru", "_lru"), ("insert", "insert"), ("ptouch", "_pt_touch"),
    ("pfill", "_pt_fill"), ("pvict", "_pt_victim"),
    ("pinv", "_pt_invalidate"), ("pstride", "_pstride"),
)
_CALL = re.compile(r"^( *)@(\w+)(.*)$")
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
_COMMENT = re.compile(r"#.*")


def _expand(src: str, args: Dict[str, str], forms: Dict[str, str]) -> List[str]:
    """``src`` with ``args`` filled in and every ``@step`` line expanded;
    ``forms`` maps each structure to its policy form."""
    out: List[str] = []
    for line in src.format_map(args).splitlines():
        call = _CALL.match(line)
        if call is None:
            out.append(line)
            continue
        indent, name, rest = call.groups()
        argv = rest.split()
        if name in _POLICY_STEPS:
            params, counter = _POLICY_STEPS[name]
            body = POLICY_FORMS[forms[argv[0]]][name]
            if counter:
                out.append(f"{indent}{argv[0]}_{counter} += 1")
        else:
            params, body = STEPS[name]
        sub = _expand(body, dict(zip(params.split(), argv)), forms)
        out.extend(indent + ln for ln in sub)
    return out


def _closure(src: str) -> str:
    return "\n".join(_expand(src, {}, {}))


#: Locals a kernel may hoist, in dependency order; a ``def`` is hoisted
#: as a closure.  The last four exist only with a noise source.
_HOISTS: List[Tuple[str, str]] = [
    ("hier", "self.hierarchy"), ("now", "m.now"),
    ("core", "self.main_core"), ("helper", "self.helper_core"),
    ("stats", "hier.stats"), ("lat", "m.cfg.latency"),
    ("lat_l1", "lat.l1_hit"), ("lat_l2", "lat.l2_hit"),
    ("lat_llc", "lat.llc_hit"), ("lat_dram", "lat.dram"),
    ("hit_gap", "lat.hit_issue_gap"), ("miss_gap", "lat.issue_gap"),
    ("level_lat", "m._level_latency"), ("level_l2", "Level.L2"),
    ("lines", "rows.lines"), ("sidxs", "rows.shared_sets"),
    ("l1_sets", "rows.l1_sets"), ("l2_sets", "rows.l2_sets"),
    ("l1_keys", "rows.l1_keys"), ("l2_keys", "rows.l2_keys"),
    ("skeys", "rows.shared_keys"),
    *_CACHES,
    *[(f"{c}_{name}", f"{c}.{attr}") for c, _ in _CACHES for name, attr in _FIELDS],
    ("access", "hier.access"), ("wr", "hier._write"),
    ("hrand", "hier._rng.random"),
    ("reuse_p", "hier.cfg.reuse_predictor_p"),
    ("handle_victim", "hier._handle_l2_victim"),
    ("sidx_get", "hier._sidx_memo.get"),
    ("shared_set_index", "hier.shared_set_index"),
    ("l1_mask", "hier._l1_mask"), ("l2_mask", "hier._l2_mask"),
    ("l1_probe", "[(c._where, c.remove) for c in hier.l1]"),
    ("l2_probe", "[(c._where, c.remove) for c in hier.l2]"),
    # _invalidate_private_everywhere and _invalidate_private, by key.
    ("inv_everywhere", _closure("""\
def inv_everywhere(tag):
    s1 = tag & l1_mask
    k1 = tag * l1_nsets + s1
    s2 = tag & l2_mask
    k2 = tag * l2_nsets + s2
    @drop_private tag
""")),
    ("inv_private", """\
def inv_private(owner, tag):
    s1 = tag & l1_mask
    where, rm = l1_probe[owner]
    if tag * l1_nsets + s1 in where:
        rm(s1, tag)
    s2 = tag & l2_mask
    where, rm = l2_probe[owner]
    if tag * l2_nsets + s2 in where:
        rm(s2, tag)"""),
    ("noise", "hier.noise_source"),
    ("sf_cap", "3 * sf_ways"), ("llc_cap", "3 * llc_ways"),
    ("ins_sf", "hier.noise_insert_sf"), ("ins_llc", "hier.noise_insert_llc"),
    ("nrng", "noise._rng"), ("nrand", "nrng.random"),
    ("sf_rate", "noise._sf_rate"), ("llc_rate", "noise._llc_rate"),
]
_NOISY = {"nrng", "nrand", "sf_rate", "llc_rate"}

#: Per-call tallies, then the folds that add them to the program's
#: counters once per call: (target, tallies).
_TALLIES = [f"{c}_{k}" for c, _ in _CACHES for k in "tfv"] + [
    "acc", "n_llc", "n_sft", "n_dram", "n_binv", "worst", "gaps"]
_FOLDS = [
    ("stats.accesses", "l1_t l2_t h1_t h2_t acc"),
    ("stats.l1_hits", "l1_t h1_t"),
    ("stats.l2_hits", "l2_t h2_t"),
    ("stats.llc_hits", "n_llc"),
    ("stats.sf_transfers", "n_sft"),
    ("stats.dram_fetches", "n_dram"),
    ("stats.sf_back_invalidations", "n_binv"),
] + [
    (f"{c}.policy_{counter}", f"{c}_{k}")
    for c, _ in _CACHES
    for counter, k in (("touches", "t"), ("fills", "f"), ("victims", "v"))
]


def _hoist(used: set) -> List[str]:
    """Assignments of every hoistable local ``used`` names, directly or
    through another hoist, in dependency order."""
    need = set(used)
    chosen = []
    for name, src in reversed(_HOISTS):
        if name in need:
            chosen.append((name, src))
            need.update(_NAME.findall(src))
    out: List[str] = []
    noisy: List[str] = []
    for name, src in reversed(chosen):
        lines = src.splitlines() if src.startswith("def ") else [f"{name} = {src}"]
        (noisy if name in _NOISY else out).extend(lines)
    if noisy:
        out.append("if noise is not None:")
        out += ["    " + ln for ln in noisy]
    return out


def kernel_source(op: str, forms: Tuple[str, ...]) -> str:
    """Python source of kernel ``op`` for the policy tuple ``forms`` (the
    main core's L1 and L2, the SF, the LLC; see :func:`policy_form`)."""
    fmap = dict(zip(("l1", "l2", "sf", "llc"), forms))
    fmap["h1"], fmap["h2"] = fmap["l1"], fmap["l2"]
    head, body, tail = (_expand(part, {}, fmap) for part in OPERATIONS[op])
    used = set(_NAME.findall(_COMMENT.sub("", "\n".join(head + body + tail))))
    folds: List[str] = []
    for target, terms in _FOLDS:
        terms = [t for t in terms.split() if t in used]
        if terms:
            folds += [f"if {' or '.join(terms)}:",
                      f"    {target} += {' + '.join(terms)}"]
    used.update(_NAME.findall("\n".join(folds)))
    tallies = [t for t in _TALLIES if t in used]
    code = [
        "m = self.machine",
        "events = m._events",
        "if events and events[0][0] <= m.now:",
        "    m._drain_events()",
        *_hoist(used),
        *head,
    ]
    if tallies:
        code.append(" = ".join(tallies) + " = 0")
    code.append("for j in range(count):")
    code += ["    " + ln for ln in body]
    code += folds + tail
    return f"def {op}(self, rows, count):\n" + "".join(
        f"    {ln}\n" for ln in code)


#: Compiled kernels, one per (operation, policy tuple).
_GENERATED: Dict[Tuple[str, Tuple[str, ...]], Callable] = {}


def generated(op: str, forms: Tuple[str, ...]) -> Callable:
    """Kernel ``op`` for ``forms``, compiled on first use.  Its source is
    registered with :mod:`linecache` under the code object's file name,
    so tracebacks and profilers show the generated lines."""
    key = (op, forms)
    fn = _GENERATED.get(key)
    if fn is None:
        src = kernel_source(op, forms)
        filename = f"<repro.memsys.kernels {op} {'/'.join(forms)}>"
        linecache.cache[filename] = (
            len(src), None, src.splitlines(True), filename)
        namespace = dict(
            __name__=__name__, poisson=poisson, Level=Level,
            NOISE_OWNER=NOISE_OWNER, SHARED_OWNER=SHARED_OWNER,
            _NOISE_TAG_BASE=_NOISE_TAG_BASE)
        exec(compile(src, filename, "exec"), namespace)
        fn = _GENERATED[key] = namespace[op]
    return fn


def policy_form(cache: SetAssociativeCache) -> str:
    """The form in which the kernels run ``cache``'s replacement policy."""
    table = type(cache._pol)
    if table is LRUTable:
        return "lru"
    if table is TreePLRU8Table:
        return "tree8"
    return "table"


class AttackKernels:
    """Fused kernels bound to one machine and attacker core pair.

    Each public method is the batched equivalent of an unfused call
    sequence, named in its docstring; the parity suite runs both and
    diffs the complete observable state.  The methods run the kernels
    generated for the machine's policy tuple (:meth:`policy_forms`).
    """

    __slots__ = ("machine", "hierarchy", "main_core", "helper_core", "plane",
                 "_forms", "_ops")

    def __init__(self, machine, plane: TranslationPlane,
                 main_core: int = 0, helper_core: int = 1) -> None:
        self.machine = machine
        self.hierarchy = machine.hierarchy
        self.main_core = main_core
        self.helper_core = helper_core
        self.plane = plane
        self._forms = None
        self._ops: Dict[str, Callable] = {}

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
        for cache in (hier.sf, hier.llc, *hier.l1, *hier.l2):
            if type(cache) is not SetAssociativeCache:
                return False
        noise = hier.noise_source
        return noise is None or type(noise) is BackgroundNoise

    def policy_forms(self) -> Tuple[str, ...]:
        """The policy tuple: the form of the main core's L1 and L2, the
        SF and the LLC (every core's private caches share a policy)."""
        forms = self._forms
        if forms is None:
            hier = self.hierarchy
            core = self.main_core
            forms = self._forms = tuple(
                policy_form(cache)
                for cache in (hier.l1[core], hier.l2[core], hier.sf, hier.llc)
            )
        return forms

    def _run(self, op: str, rows: PlaneRows, count: int) -> int:
        """Kernel ``op`` over the first ``count`` rows (bound on first use)."""
        if not count:
            return 0
        fn = self._ops.get(op)
        if fn is None:
            fn = self._ops[op] = generated(op, self.policy_forms())
        return fn(self, rows, count)

    def flush_rows(self, rows: PlaneRows, count: int) -> int:
        """Mirror of ``Machine.flush_batch(rows.lines[:count])``."""
        return self._run("flush", rows, count)

    def load_sweep(self, rows: PlaneRows, count: int, shared: bool = False) -> int:
        """Mirror of ``Machine.access_batch(main, lines)`` — and, with
        ``shared=True``, of the shadowed form (helper-core access per
        line, main-core progress costed)."""
        return self._run("shadow_load" if shared else "load", rows, count)

    def store_sweep(self, rows: PlaneRows, count: int) -> int:
        """Mirror of ``Machine.access_batch(main, lines, write=True)``."""
        return self._run("store", rows, count)

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
        round, on the first line's set.
        """
        total = 0
        for _ in range(prime_rounds):
            total += self._monitor_round(rows, count, True)
        if probe:
            total += self._monitor_round(rows, count, False)
            total += self.machine.cfg.latency.timer_overhead
        return total

    def _monitor_round(self, rows: PlaneRows, count: int, write: bool) -> int:
        return self._run("prime_round" if write else "probe_round", rows, count)

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
