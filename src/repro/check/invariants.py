"""Structural invariants of the cache hierarchy, checkable after every access.

The data plane (DESIGN.md §2.2) maintains several redundant structures —
the ``_where`` tag index, the per-set occupancy counts, the flat policy
state — whose mutual consistency every optimized tier silently relies on.
This module makes that reliance explicit: :class:`InvariantChecker`
validates, from *pure reads only*, that

* the ``_where`` index and the flat tag/owner planes describe the same
  residency (bijection: every index entry points at its tag's slot, every
  valid tag has exactly one entry, per-set counts match);
* SF/LLC non-inclusive exclusivity holds (no line is simultaneously
  tracked private in the SF and resident shared in the LLC);
* replacement-policy state stays inside its table's legal range (LRU
  stamps within the table's live counters, Tree-PLRU node bits in {0,1},
  RRIP ages in [0, 3], pending random victims in [-1, ways));
* per-set noise-reconciliation clocks never run backwards (they survive
  ``flush_all`` by design — see ``SetAssociativeCache.flush_all``).

Purity matters more than it looks: ``peek_victim`` on a random-policy
cache lazily draws from the shared cache RNG, and the reference cache's
``noise_clock`` materializes the set it asks about.  The checker therefore
reads the underlying planes (``_tags``/``_where``/``_state``/``_noise_t``,
``_sets``) directly and never calls any method with side effects, so a
hooked run is bit-identical to an unhooked one.

:func:`install_invariant_hook` wraps a hierarchy's ``access`` /
``access_many`` / ``flush_line`` entry points as *instance* attributes
(``CacheHierarchy`` has no ``__slots__``), checking after every call.
The fused kernels (§2.3/§2.4) bypass these methods by design; fuzz
replays additionally run an explicit check after every trace operation so
kernel-tier state is validated at operation granularity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ReproError
from ..memsys._reference import ReferenceSetAssociativeCache
from ..memsys.cache import SetAssociativeCache
from ..memsys.policy_tables import (
    LRUTable,
    RandomTable,
    SRRIPTable,
    TreePLRUTable,
)


class InvariantViolation(ReproError):
    """A structural invariant of the hierarchy does not hold."""


def _touched_indices(cache: SetAssociativeCache, deep: bool) -> Iterable[int]:
    """Set indices worth scanning: every set ever inserted into (or all).

    Sound for the shallow scan because ``insert`` marks its set touched
    and every other mutation (``remove``, policy updates) requires a
    prior insert of the same set; an untouched set is structurally in its
    initial state.
    """
    if deep:
        return range(cache.n_sets)
    touched = cache._touched
    return [i for i in range(cache.n_sets) if touched[i]]


def _check_policy_state(
    cache: SetAssociativeCache, name: str, sets: Iterable[int]
) -> None:
    """Per-table legal-range checks on the flat policy-state plane."""
    pol = cache._pol
    state = cache._state
    stride = cache._pstride
    if isinstance(pol, LRUTable):
        lo, hi = pol._inv_stamp, pol._stamp
        for s in sets:
            base = s * stride
            for v in state[base : base + stride]:
                if not (lo <= v <= hi):
                    raise InvariantViolation(
                        f"{name}: LRU stamp {v} in set {s} outside live "
                        f"counter range [{lo}, {hi}]"
                    )
    elif isinstance(pol, TreePLRUTable):
        for s in sets:
            base = s * stride
            for v in state[base : base + stride]:
                if v not in (0, 1):
                    raise InvariantViolation(
                        f"{name}: Tree-PLRU node bit {v} in set {s}"
                    )
    elif isinstance(pol, SRRIPTable):  # covers QLRUTable
        for s in sets:
            base = s * stride
            for v in state[base : base + stride]:
                if not (0 <= v <= 3):
                    raise InvariantViolation(
                        f"{name}: RRPV {v} in set {s} outside [0, 3]"
                    )
    elif isinstance(pol, RandomTable):
        for s in sets:
            v = state[s]
            if not (-1 <= v < cache.ways):
                raise InvariantViolation(
                    f"{name}: pending random victim {v} in set {s} "
                    f"outside [-1, {cache.ways})"
                )


def check_flat_cache(
    cache: SetAssociativeCache, name: str = "", deep: bool = False
) -> None:
    """Validate one flat cache's planes against each other."""
    name = name or cache.name
    n_sets = cache.n_sets
    ways = cache.ways
    tags = cache._tags
    owners = cache._owners
    where = cache._where
    occ = cache._occ
    sets = list(_touched_indices(cache, deep))
    # Index -> plane direction: every _where entry points at its own tag.
    for key, slot in where.items():
        tag, s = divmod(key, n_sets)
        if tags[slot] != tag or slot // ways != s:
            raise InvariantViolation(
                f"{name}: _where[{key}] = {slot} but plane holds "
                f"tag {tags[slot]} in set {slot // ways}"
            )
    # Plane -> index direction, plus occupancy, over touched sets.
    resident = 0
    for s in sets:
        base = s * ways
        live = 0
        for slot in range(base, base + ways):
            tag = tags[slot]
            if tag is None:
                if owners[slot] != 0:
                    raise InvariantViolation(
                        f"{name}: empty slot {slot} (set {s}) has "
                        f"owner {owners[slot]}"
                    )
                continue
            live += 1
            if where.get(tag * n_sets + s) != slot:
                raise InvariantViolation(
                    f"{name}: tag {tag} in slot {slot} (set {s}) "
                    f"missing from _where"
                )
        if occ[s] != live:
            raise InvariantViolation(
                f"{name}: set {s} occupancy {occ[s]} != {live} valid tags"
            )
        resident += live
    # Untouched sets hold nothing, so the touched total is the cache total.
    if len(where) != resident and not deep:
        # Re-derive over all sets before declaring a violation: a deep
        # mismatch means a real inconsistency, a shallow one could only
        # come from an insert that failed to mark its set touched.
        check_flat_cache(cache, name, deep=True)
        raise InvariantViolation(
            f"{name}: {len(where)} _where entries but {resident} valid "
            f"tags in touched sets (insert missed _mark_touched?)"
        )
    if deep and len(where) != resident:
        raise InvariantViolation(
            f"{name}: {len(where)} _where entries but {resident} valid tags"
        )
    _check_policy_state(cache, name, sets)


def check_reference_cache(
    cache: ReferenceSetAssociativeCache, name: str = "", deep: bool = False
) -> None:
    """Validate the seed dict-of-sets oracle's per-set structures."""
    name = name or cache.name
    for s, cset in cache._sets.items():
        if len(cset.tags) != cache.ways or len(cset.owners) != cache.ways:
            raise InvariantViolation(
                f"{name}: set {s} has {len(cset.tags)} ways, "
                f"expected {cache.ways}"
            )
        live = [t for t in cset.tags if t is not None]
        if len(live) != len(set(live)):
            raise InvariantViolation(f"{name}: duplicate tag in set {s}")


def _flat_resident_keys(cache: SetAssociativeCache) -> Set[int]:
    return set(cache._where)


def _reference_resident_keys(cache: ReferenceSetAssociativeCache) -> Set[int]:
    n_sets = cache.n_sets
    return {
        tag * n_sets + s
        for s, cset in cache._sets.items()
        for tag in cset.tags
        if tag is not None
    }


def resident_keys(cache) -> Set[int]:
    """All ``tag * n_sets + set`` keys currently resident in ``cache``.

    Handles the flat plane, the reference oracle, and any duck-typed
    composite exposing the ``parts()`` protocol (way partitioning,
    randomized indexes, soft copies) — for those the union of the inner
    planes' keys is returned, so for index-randomizing wrappers the set
    half of a key is the *internal* set.  A tag resident in more than
    one part is a violation unless the composite declares
    ``allows_cross_part_copies`` (copy-on-access designs legally hold
    one copy per domain).
    """
    if type(cache) is SetAssociativeCache:
        return _flat_resident_keys(cache)
    if isinstance(cache, ReferenceSetAssociativeCache):
        return _reference_resident_keys(cache)
    parts = getattr(cache, "parts", None)
    if callable(parts):
        copies_ok = getattr(cache, "allows_cross_part_copies", False)
        keys: Set[int] = set()
        tags: Set[int] = set()
        for part in parts().values():
            part_keys = resident_keys(part)
            part_tags = {key // part.n_sets for key in part_keys}
            overlap = tags & part_tags
            if overlap and not copies_ok:
                raise InvariantViolation(
                    f"{cache.name}: line resident in two partitions "
                    f"(tags {sorted(overlap)[:4]}...)"
                )
            keys |= part_keys
            tags |= part_tags
        return keys
    return set()


def resident_tags(cache) -> Set[int]:
    """All tags currently resident in ``cache``, however it is indexed.

    The tag of a shared cache is the full line address, so tags — unlike
    ``resident_keys``, whose set half is internal for index-randomizing
    composites — compare meaningfully *between* structures; the SF/LLC
    exclusivity check runs at this level.
    """
    n_sets = cache.n_sets
    return {key // n_sets for key in resident_keys(cache)}


def _cache_clocks(cache) -> Dict[int, int]:
    """Current per-set noise clocks, from pure reads (no materialization)."""
    if type(cache) is SetAssociativeCache:
        noise_t = cache._noise_t
        touched = cache._touched
        return {i: noise_t[i] for i in range(cache.n_sets) if touched[i]}
    if isinstance(cache, ReferenceSetAssociativeCache):
        clocks = {s: cset.noise_t for s, cset in cache._sets.items()}
        for s, t in cache._saved_clocks.items():
            clocks.setdefault(s, t)
        return clocks
    return {}


def _iter_caches(hier) -> List[Tuple[str, object]]:
    """(label, cache) pairs for every structure, composites expanded.

    Any shared cache exposing the ``parts()`` protocol (partitioned,
    randomized, copy-on-access) contributes its inner flat caches under
    ``label[part]`` names, so composite implementations never need
    checker edits.
    """
    out: List[Tuple[str, object]] = []
    for i, cache in enumerate(hier.l1):
        out.append((f"l1[{i}]", cache))
    for i, cache in enumerate(hier.l2):
        out.append((f"l2[{i}]", cache))
    for label, cache in (("llc", hier.llc), ("sf", hier.sf)):
        parts = getattr(cache, "parts", None)
        if callable(parts):
            out.extend(
                (f"{label}[{domain}]", part)
                for domain, part in parts().items()
            )
        else:
            out.append((label, cache))
    return out


class InvariantChecker:
    """Validates a hierarchy's structural invariants; raises on violation.

    Stateful only for the noise-clock monotonicity check (it remembers the
    previous per-set clocks of every structure).  All reads are pure — a
    hooked run stays bit-identical to an unhooked one.
    """

    def __init__(self, hier) -> None:
        self.hier = hier
        self.checks = 0
        self._clocks: Dict[str, Dict[int, int]] = {}

    def check(self, deep: bool = False) -> None:
        self.checks += 1
        hier = self.hier
        for label, cache in _iter_caches(hier):
            if type(cache) is SetAssociativeCache:
                check_flat_cache(cache, label, deep=deep)
            elif isinstance(cache, ReferenceSetAssociativeCache):
                check_reference_cache(cache, label, deep=deep)
            self._check_clocks(label, cache)
        # Composite self-checks (pure reads): any shared cache exposing
        # ``validate()`` — e.g. the randomized wrappers' residency-map /
        # keyed-index consistency — is folded into the violation model.
        for label, cache in (("llc", hier.llc), ("sf", hier.sf)):
            validate = getattr(cache, "validate", None)
            if callable(validate):
                try:
                    validate()
                except ReproError as exc:
                    raise InvariantViolation(f"{label}: {exc}") from exc
        # SF/LLC non-inclusive exclusivity, compared at tag level: the
        # shared-cache tag is the full line address, so tags are the one
        # coordinate that means the same thing whatever index function
        # either structure runs.  Copy-on-access designs legally leave a
        # stale domain copy behind when another domain's copy is evicted
        # to the LLC, so the check stands down for them.
        if not (
            getattr(hier.sf, "allows_cross_part_copies", False)
            or getattr(hier.llc, "allows_cross_part_copies", False)
        ):
            shared = resident_tags(hier.sf) & resident_tags(hier.llc)
            if shared:
                raise InvariantViolation(
                    f"non-inclusive exclusivity violated: tag "
                    f"{sorted(shared)[0]} is both SF-private and "
                    f"LLC-shared ({len(shared)} line(s) total)"
                )

    def _check_clocks(self, label: str, cache) -> None:
        current = _cache_clocks(cache)
        previous = self._clocks.get(label)
        if previous is not None:
            for s, old in previous.items():
                new = current.get(s)
                if new is not None and new < old:
                    raise InvariantViolation(
                        f"{label}: noise clock of set {s} ran backwards "
                        f"({old} -> {new})"
                    )
        self._clocks[label] = current


_HOOKED_METHODS = ("access", "access_many", "flush_line")


def install_invariant_hook(
    hier, checker: Optional[InvariantChecker] = None
) -> InvariantChecker:
    """Check invariants after every ``access``/``access_many``/``flush_line``.

    Wraps the entry points as instance attributes, shadowing the class
    methods; :func:`uninstall_invariant_hook` removes them.  Installing
    twice is rejected rather than silently stacking wrappers.
    """
    if getattr(hier, "_invariant_checker", None) is not None:
        raise ReproError("invariant hook already installed on this hierarchy")
    checker = checker if checker is not None else InvariantChecker(hier)

    def _wrap(method):
        def hooked(*args, **kwargs):
            result = method(*args, **kwargs)
            checker.check()
            return result

        return hooked

    for name in _HOOKED_METHODS:
        setattr(hier, name, _wrap(getattr(hier, name)))
    hier._invariant_checker = checker
    return checker


def uninstall_invariant_hook(hier) -> Optional[InvariantChecker]:
    """Remove the hook's instance attributes; returns its checker."""
    checker = hier.__dict__.pop("_invariant_checker", None)
    for name in _HOOKED_METHODS:
        hier.__dict__.pop(name, None)
    return checker


class invariant_hook:
    """Context manager form: install on entry, uninstall on exit."""

    def __init__(self, hier, checker: Optional[InvariantChecker] = None):
        self._hier = hier
        self._checker = checker

    def __enter__(self) -> InvariantChecker:
        return install_invariant_hook(self._hier, self._checker)

    def __exit__(self, *exc) -> None:
        uninstall_invariant_hook(self._hier)
