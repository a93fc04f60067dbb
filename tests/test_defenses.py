"""Tests for the defense layer: partitioning, randomized indexes, soft
isolation, and the registry that applies them (and that they stop the
attack)."""

from __future__ import annotations

import pytest

from repro._util import make_rng
from repro.config import no_noise, skylake_sp_small, tiny_machine
from repro.core.context import AttackerContext
from repro.core.evset import EvsetConfig, bulk_construct_page_offset
from repro.core.monitor import ParallelProbing, monitor_set
from repro.defenses import (
    DEFENSE_NAMES,
    CeaserCache,
    SkewedCache,
    SoftCopyCache,
    WayPartitionedCache,
    apply_defense,
    apply_soft_copy_partitioning,
    apply_way_partitioning,
    default_defense_spec,
)
from repro.defenses.partition import OTHER_DOMAIN
from repro.errors import ConfigurationError
from repro.memsys.machine import Machine
from repro.memsys.randomize import KeyedSetIndex


def make_partitioned_cache(parts=None):
    parts = parts or {"a": 4, "b": 4, OTHER_DOMAIN: 4}
    domains = {0: "a", 1: "a", 2: "b", 3: "b"}
    return WayPartitionedCache(
        "SF", 64, "lru", make_rng(0), parts,
        lambda owner: domains.get(owner, OTHER_DOMAIN),
    )


class TestWayPartitionedCache:
    def test_total_ways(self):
        cache = make_partitioned_cache()
        assert cache.ways == 12

    def test_requires_other_domain(self):
        with pytest.raises(ConfigurationError):
            make_partitioned_cache({"a": 6, "b": 6})

    def test_insert_lookup_roundtrip(self):
        cache = make_partitioned_cache()
        cache.insert(3, 100, owner=0)
        assert cache.lookup(3, 100)
        assert cache.owner_of(3, 100) == 0

    def test_cross_domain_no_eviction(self):
        """Domain b's insertions never evict domain a's lines."""
        cache = make_partitioned_cache()
        for tag in range(4):
            cache.insert(0, tag, owner=0)  # fill domain a's 4 ways
        for tag in range(100, 130):
            cache.insert(0, tag, owner=2)  # hammer domain b
        assert all(cache.contains(0, t) for t in range(4))

    def test_within_domain_eviction(self):
        cache = make_partitioned_cache()
        for tag in range(6):
            evicted = cache.insert(0, tag, owner=0)
        assert not cache.contains(0, 0)
        assert cache.contains(0, 5)

    def test_move_between_domains(self):
        cache = make_partitioned_cache()
        cache.insert(0, 42, owner=0)
        cache.insert(0, 42, owner=2)  # ownership transfer
        assert cache.owner_of(0, 42) == 2
        assert cache.occupancy(0) == 1

    def test_remove(self):
        cache = make_partitioned_cache()
        cache.insert(1, 7, owner=0)
        assert cache.remove(1, 7)
        assert not cache.contains(1, 7)

    def test_occupancy_aggregates(self):
        cache = make_partitioned_cache()
        cache.insert(2, 1, owner=0)
        cache.insert(2, 2, owner=2)
        cache.insert(2, 3, owner=-1)  # noise -> other
        assert cache.occupancy(2) == 3


class TestApplyPartitioning:
    def test_must_apply_before_traffic(self):
        machine = Machine(tiny_machine(), noise=no_noise(), seed=1)
        space = machine.new_address_space()
        machine.access(0, space.translate_line(space.alloc_page()))
        with pytest.raises(ConfigurationError):
            apply_way_partitioning(
                machine, {0: "att"}, {"att": 3, OTHER_DOMAIN: 3}
            )

    def test_partitioned_hierarchy_functional(self):
        machine = Machine(tiny_machine(cores=3), noise=no_noise(), seed=2)
        apply_way_partitioning(
            machine,
            {0: "att", 1: "att", 2: "vic"},
            {"att": 2, "vic": 2, OTHER_DOMAIN: 2},
        )
        space = machine.new_address_space()
        line = space.translate_line(space.alloc_page())
        machine.access(0, line)
        assert machine.hierarchy.in_sf(line)
        machine.access(2, line)  # cross-core read -> shared
        assert machine.hierarchy.in_llc(line)


class TestKeyedSetIndex:
    def test_rejects_empty_domain(self):
        with pytest.raises(ConfigurationError):
            KeyedSetIndex(0, 1)

    def test_index_in_range(self):
        index = KeyedSetIndex(10, 3)
        for s in range(10):
            for tag in (0, 7, 123456789):
                assert 0 <= index.index_of(s, tag) < 10

    def test_tag_tweak_changes_mapping(self):
        index = KeyedSetIndex(64, 3)
        maps = {
            tag: tuple(index.index_of(s, tag) for s in range(64))
            for tag in (1, 2)
        }
        assert maps[1] != maps[2]

    def test_rekey_advances_epoch(self):
        index = KeyedSetIndex(8, 0)
        assert index.epoch == 0
        assert index.rekey() == 1
        assert index.epoch == 1


class TestCeaserCache:
    def _cache(self, **kw):
        return CeaserCache("SF", 16, 4, "lru", make_rng(1), seed=5, **kw)

    def test_insert_lookup_roundtrip(self):
        cache = self._cache()
        cache.insert(3, 100, owner=2)
        assert cache.lookup(3, 100)
        assert cache.contains(0, 100)  # located by address, not set_idx
        assert cache.owner_of(3, 100) == 2

    def test_external_views_track_inserted_set(self):
        cache = self._cache()
        cache.insert(7, 42)
        assert cache.occupancy(7) == 1
        assert cache.tags_in_set(7) == [42]
        assert cache.peek_victim(7) is None

    def test_remove(self):
        cache = self._cache()
        cache.insert(1, 9)
        assert cache.remove(1, 9)
        assert not cache.contains(1, 9)
        assert cache.occupancy(1) == 0

    def test_flush_all_clears_residency(self):
        cache = self._cache()
        for tag in range(10):
            cache.insert(tag % 16, tag)
        cache.flush_all(now=100)
        assert not cache.resident_tags()
        assert cache.noise_clock(3) == 100

    def test_auto_rekey_by_insert_count(self):
        cache = self._cache(epoch_accesses=8)
        for tag in range(20):
            cache.insert(tag % 16, tag)
        assert cache.epoch >= 2

    def test_validate_catches_stale_residency(self):
        cache = self._cache()
        cache.insert(0, 5)
        cache._ext[77] = 0  # corrupt the wrapper map
        with pytest.raises(ConfigurationError):
            cache.validate()

    def test_snapshot_extra_roundtrip(self):
        """``snapshot_extra`` publishes what ``plane_digest`` folds in
        beyond the inner planes: the residency map and the rekey epochs."""
        cache = self._cache()
        for tag in range(6):
            cache.insert(tag, tag)
        extra = cache.snapshot_extra()
        assert set(extra["ext"]) == cache.resident_tags()
        assert extra["epochs"] == [0]
        invalidated = cache.rekey()
        extra = cache.snapshot_extra()
        assert extra["epochs"] == [1]
        assert set(extra["ext"]) == cache.resident_tags()
        assert cache.resident_tags().isdisjoint(t for t, _ in invalidated)


class TestSkewedCache:
    def _cache(self, ways=4, n_skews=2):
        return SkewedCache(
            "LLC", 16, ways, "lru", make_rng(2), seed=3, n_skews=n_skews
        )

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ConfigurationError):
            self._cache(n_skews=1)
        with pytest.raises(ConfigurationError):
            self._cache(ways=1)

    def test_uneven_ways_split_across_skews(self):
        cache = self._cache(ways=5)
        assert [p.ways for p in cache.parts().values()] == [3, 2]

    def test_insert_hit_stays_in_holding_skew(self):
        cache = self._cache()
        cache.insert(0, 10, owner=1)
        inner, idx = cache._locate(10)
        cache.insert(0, 10, owner=2)  # hit: same skew, owner update
        assert cache._locate(10) == (inner, idx)
        assert cache.owner_of(0, 10) == 2

    def test_rekey_rotates_select_key(self):
        cache = self._cache()
        before = cache._select_key
        cache.rekey()
        assert cache.epoch == 1
        assert cache._select_key != before


class TestSoftCopyApply:
    def test_quota_sum_bounded_by_physical_ways(self):
        machine = Machine(tiny_machine(cores=3), noise=no_noise(), seed=4)
        with pytest.raises(ConfigurationError):
            apply_soft_copy_partitioning(
                machine, {0: "att"}, {"att": 5, OTHER_DOMAIN: 5}
            )

    def test_soft_copy_hierarchy_functional(self):
        machine = Machine(tiny_machine(cores=3), noise=no_noise(), seed=5)
        apply_soft_copy_partitioning(
            machine,
            {0: "att", 1: "att", 2: "vic"},
            {"att": 2, "vic": 2, OTHER_DOMAIN: 2},
            llc_quotas={"att": 1, "vic": 1, OTHER_DOMAIN: 2},
        )
        assert isinstance(machine.hierarchy.sf, SoftCopyCache)
        space = machine.new_address_space()
        line = space.translate_line(space.alloc_page())
        machine.access(0, line)
        assert machine.hierarchy.in_sf(line)


class TestDefenseRegistry:
    def test_default_specs_cover_every_name(self):
        cfg = skylake_sp_small()
        for kind in DEFENSE_NAMES:
            spec = default_defense_spec(cfg, kind, seed=3)
            assert spec["kind"] == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            default_defense_spec(skylake_sp_small(), "ascend")
        machine = Machine(tiny_machine(), noise=no_noise(), seed=0)
        with pytest.raises(ConfigurationError):
            apply_defense(machine, {"kind": "ascend"})

    @pytest.mark.parametrize("kind", ["ceaser", "skew"])
    def test_apply_randomized_swaps_both_shared_caches(self, kind):
        machine = Machine(tiny_machine(cores=3), noise=no_noise(), seed=6)
        apply_defense(
            machine, default_defense_spec(machine.cfg, kind, seed=9)
        )
        cls = CeaserCache if kind == "ceaser" else SkewedCache
        hier = machine.hierarchy
        assert isinstance(hier.sf, cls) and isinstance(hier.llc, cls)
        assert hier.sf.ways == machine.cfg.sf.ways
        assert hier.llc.ways == machine.cfg.llc.ways
        space = machine.new_address_space()
        line = space.translate_line(space.alloc_page())
        machine.access(0, line)
        assert hier.in_sf(line)
        machine.access(2, line)  # cross-core read -> shared
        assert hier.in_llc(line)

    def test_apply_none_is_a_no_op(self):
        machine = Machine(tiny_machine(), noise=no_noise(), seed=7)
        before = type(machine.hierarchy.sf)
        apply_defense(machine, {"kind": "none"})
        apply_defense(machine, None)
        assert type(machine.hierarchy.sf) is before

    def test_apply_requires_pristine_machine(self):
        machine = Machine(tiny_machine(), noise=no_noise(), seed=8)
        space = machine.new_address_space()
        machine.access(0, space.translate_line(space.alloc_page()))
        with pytest.raises(ConfigurationError):
            apply_defense(
                machine, default_defense_spec(machine.cfg, "ceaser")
            )


@pytest.mark.slow
class TestDefenseStopsAttack:
    # Failed from the seed commit until ISSUE 5: the llc-mode traversal
    # makes lines *shared*, so they land in the OTHER domain's ways while
    # the tester sized sets for the static config associativity — BinS
    # returned supersets whose SF extension failed for every target.
    # Fixed by the partition-aware `effective_ways` probe (EvictionTester)
    # plus direct-SF pruning in construct_sf_evset.
    def test_victim_cannot_evict_attacker_lines(self):
        """The core guarantee: Prime+Probe goes blind under partitioning."""
        machine = Machine(skylake_sp_small(), noise=no_noise(), seed=3)
        apply_way_partitioning(
            machine,
            {0: "att", 1: "att", 2: "vic", 3: "vic"},
            {"att": 12, "vic": 4, OTHER_DOMAIN: 4},
        )
        ctx = AttackerContext(machine, seed=1)
        ctx.calibrate()
        bulk = bulk_construct_page_offset(
            ctx, "bins", 0x240, EvsetConfig(budget_ms=100)
        )
        # The attacker can still build eviction sets inside its own ways.
        assert bulk.evsets
        evset = bulk.evsets[0]
        # A victim hammering the same set produces zero detections.
        target_set = ctx.true_set_of(evset.target_va)
        offset = evset.target_va % 4096
        space = machine.new_address_space()
        while True:
            page = space.alloc_page()
            line = space.translate_line(page + offset)
            if machine.hierarchy.shared_set_index(line) == target_set:
                break
        hier = machine.hierarchy
        for i in range(40):
            machine.schedule(
                machine.now + 4_000 + i * 10_000,
                lambda t, l=line: hier.access(2, l, t, write=True),
            )
        trace = monitor_set(ParallelProbing(ctx, evset), 46 * 10_000)
        assert trace.access_count() == 0
