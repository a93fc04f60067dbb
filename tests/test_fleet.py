"""Tests for the fleet campaign service (repro.fleet).

The invariant under test throughout: a sharded, prioritized,
killed-and-resumed fleet run produces results value-identical to a
serial ``run_campaign`` of the same specs.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.cli as cli
import repro.exec.journal as journal_mod
import repro.fleet.scheduler as scheduler_mod
from repro.analysis.streaming import (
    CampaignAggregate,
    StreamingMoments,
    aggregate_values,
)
from repro.exec import ExecPolicy, WorkerPool, run_campaign
from repro.exec import executor as executor_mod
from repro.exec.journal import CampaignJournal
from repro.fleet import (
    Datacenter,
    DatacenterConfig,
    FleetPolicy,
    FleetScheduler,
    FleetStore,
    noise_mc_campaign,
    noise_window_trial,
    order_shards,
    placement_campaign,
    plan_shards,
    quiet_hours_priority,
    run_fleet,
    shard_subcampaign,
)
from repro.fleet.service import build_campaign

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _campaign(trials=100, seed=7):
    return noise_mc_campaign(env="cloud", trials=trials, base_seed=seed)


def sleepy_trial(cfg, seed):
    # Module level: with a timeout, shard trials run in worker processes.
    if seed == cfg["slow_seed"]:
        time.sleep(cfg["sleep_s"])
    return {"seed": seed}


def dying_trial(cfg, seed):
    if seed == cfg["crash_seed"]:
        os._exit(3)
    if seed == cfg["slow_seed"]:
        time.sleep(cfg["sleep_s"])
    return {"seed": seed}


def flaky_trial(cfg, seed):
    if seed % 3 == 0:
        raise RuntimeError("boom")
    return {"seed": seed}


def _serial_values(campaign):
    return run_campaign(campaign, ExecPolicy(jobs=1)).raise_on_failure().values()


def _count_loads(monkeypatch):
    """A list that grows by one per ``json.loads`` call from here on.

    Patches the ``json`` module that ``repro.exec.journal`` (every
    journal-format read) and ``repro.fleet.store`` share.
    """
    calls = []
    loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(journal_mod.json, "loads", counting_loads)
    return calls


class TestSharding:
    def test_plan_is_deterministic_and_covers_campaign(self):
        campaign = _campaign(trials=1000)
        a = plan_shards(campaign, shard_size=128)
        b = plan_shards(campaign, shard_size=128)
        assert a == b
        assert a[0].lo == 0 and a[-1].hi == 1000
        for prev, cur in zip(a, a[1:]):
            assert prev.hi == cur.lo
        assert all(s.fingerprint == campaign.fingerprint() for s in a)
        assert [s.n_trials for s in a] == [128] * 7 + [104]

    def test_different_campaign_different_shard_fingerprints(self):
        a = plan_shards(_campaign(seed=1), shard_size=64)
        b = plan_shards(_campaign(seed=2), shard_size=64)
        assert a[0].fingerprint != b[0].fingerprint

    def test_subcampaign_trials_match_parent_slice(self):
        campaign = _campaign(trials=50)
        shard = plan_shards(campaign, shard_size=16)[2]
        sub = shard_subcampaign(campaign, shard)
        assert len(sub) == shard.n_trials
        assert sub.seeds == campaign.seeds[shard.lo : shard.hi]
        sub_values = _serial_values(sub)
        parent_values = _serial_values(campaign)[shard.lo : shard.hi]
        assert sub_values == parent_values

    def test_order_shards_priority_then_id(self):
        shards = plan_shards(_campaign(trials=100), shard_size=20)
        ordered = order_shards(shards, priority=lambda s: -s.lo)
        assert [s.shard_id for s in ordered] == [4, 3, 2, 1, 0]
        assert [s.shard_id for s in order_shards(shards)] == [0, 1, 2, 3, 4]


class TestStoreAndResume:
    def test_fleet_matches_serial_run_campaign(self, tmp_path, monkeypatch):
        forks = []  # the pool of each forked worker
        fork = executor_mod.WorkerPool._fork

        def counting_fork(pool):
            forks.append(id(pool))
            return fork(pool)

        monkeypatch.setattr(executor_mod.WorkerPool, "_fork", counting_fork)
        campaign = _campaign(trials=300)
        policy = FleetPolicy(
            shard_size=64, max_inflight=3, jobs_per_shard=2, batch=16
        )
        report, store = run_fleet(campaign, tmp_path, policy)
        assert report.complete and report.failed_trials == 0
        # Five shards, but each in-flight slot forks one pool and reuses
        # it; the pools are closed when the run returns.
        assert report.shards_executed == 5
        assert 1 <= len(set(forks)) <= policy.max_inflight
        assert len(forks) == policy.jobs_per_shard * len(set(forks))
        assert multiprocessing.active_children() == []
        fleet_values = [v for _, v in store.iter_values()]
        assert fleet_values == _serial_values(campaign)

    def test_kill_and_resume_equivalence(self, tmp_path):
        campaign = _campaign(trials=400)
        policy = FleetPolicy(shard_size=50, stop_after_shards=2)
        report, store = run_fleet(campaign, tmp_path, policy)
        assert report.drained and not report.complete
        assert 0 < report.completed_trials < 400
        # Resume with a fresh scheduler: only pending shards run.
        report2, store2 = run_fleet(
            campaign, tmp_path, FleetPolicy(shard_size=50)
        )
        assert report2.complete
        assert report2.shards_skipped == 0
        fleet_values = [v for _, v in store2.iter_values()]
        assert fleet_values == _serial_values(campaign)

    def test_sigkill_mid_run_then_resume(self, tmp_path):
        """A real SIGKILL loses at most the unflushed tail; resume completes."""
        code = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.fleet import FleetPolicy, run_fleet\n"
            "from repro.fleet.campaigns import noise_mc_campaign\n"
            "c = noise_mc_campaign(env='cloud', trials=5000, base_seed=3)\n"
            "print('ready', flush=True)\n"
            "run_fleet(c, {root!r}, FleetPolicy(shard_size=100, flush_every=10))\n"
        ).format(src=str(Path(__file__).resolve().parent.parent / "src"),
                 root=str(tmp_path))
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
        ) as proc:
            assert proc.stdout.readline().strip() == "ready"
            time.sleep(0.15)  # let some shards land on disk
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

        campaign = noise_mc_campaign(env="cloud", trials=5000, base_seed=3)
        store = FleetStore(tmp_path, campaign, shard_size=100)
        partial = store.completed_trials()
        assert partial < 5000  # the kill really interrupted it
        report, store = run_fleet(
            campaign, tmp_path, FleetPolicy(shard_size=100)
        )
        assert report.complete
        fleet_values = [v for _, v in store.iter_values()]
        assert fleet_values == _serial_values(campaign)

    def test_compaction_round_trip(self, tmp_path, monkeypatch):
        campaign = _campaign(trials=120)
        _, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=32))
        before = dict(store.iter_completed())
        path = store.compact()
        assert path.exists()
        # Folded segments are gone; records are unchanged.
        assert not any(
            store.segment_path(s).exists() for s in store.shards
        )
        after = dict(store.iter_completed())
        assert after == before
        assert store.completed_trials() == 120
        # A compacted store reads in one pass: each compacted line is
        # parsed once, not once per shard.
        calls = _count_loads(monkeypatch)
        bound = len(campaign) + len(store.shards) + 2
        for read in (lambda: dict(store.iter_completed()) == before,
                     lambda: store.completed_trials() == 120):
            calls.clear()
            assert read()
            assert 0 < len(calls) <= bound
        monkeypatch.undo()
        # Compacting again (nothing new) is a no-op for readers.
        store.compact()
        assert dict(store.iter_completed()) == before

    @pytest.mark.parametrize("damage", ["deleted", "garbage", "stale"])
    def test_compacted_trials_survive_a_lost_index(self, tmp_path, damage):
        """A run directory written by an older store may hold an
        ``index.json`` (a per-shard count cache this store does not
        keep): none, garbage, or one whose counts are wrong.  Nothing
        reads or deletes it; the store counts, reads, resumes and
        compacts to the serial values."""
        campaign = _campaign(trials=40)
        _, store = run_fleet(
            campaign, tmp_path,
            FleetPolicy(shard_size=10, max_inflight=1, stop_after_shards=2),
        )
        store.compact()
        before = dict(store.iter_completed())
        assert len(before) == 20
        index = store.run_dir / "index.json"
        if damage == "garbage":
            index.write_text("{not json")
        elif damage == "stale":  # claims every shard complete
            index.write_text(json.dumps({
                "kind": "fleet-index",
                "fingerprint": store.fingerprint,
                "shard_size": 10,
                "shards": {
                    str(s.shard_id): {"lo": s.lo, "hi": s.hi, "done": 10}
                    for s in store.shards
                },
            }))
        left = index.read_text() if index.exists() else None
        for _ in range(2):
            assert store.completed_trials() == 20
            assert store.pending_shards() == store.shards[2:]
            assert dict(store.iter_completed()) == before
            store.compact()  # compacting again keeps every trial
        report, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=10))
        assert report.complete and report.shards_executed == 2
        store.compact()
        assert store.completed_trials() == 40
        assert store.pending_shards() == []
        assert [v for _, v in store.iter_values()] == _serial_values(campaign)
        assert (index.read_text() if index.exists() else None) == left

    def test_compacted_file_of_another_campaign_is_ignored(self, tmp_path):
        campaign = _campaign(trials=40)
        _, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=10))
        compacted = store.compact()
        lines = compacted.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * 64
        compacted.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert store.completed_trials() == 0
        assert len(store.pending_shards()) == len(store.shards)

    def test_partial_compaction_keeps_live_segments(self, tmp_path):
        campaign = _campaign(trials=200)
        run_fleet(
            campaign, tmp_path,
            FleetPolicy(shard_size=40, stop_after_shards=1),
        )
        store = FleetStore(tmp_path, campaign, shard_size=40)
        done_before = store.completed_trials()
        assert 0 < done_before < 200
        store.compact()
        assert store.completed_trials() == done_before
        report, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=40))
        assert report.complete
        assert [v for _, v in store.iter_values()] == _serial_values(campaign)

    def test_compacted_file_is_a_valid_campaign_journal(self, tmp_path):
        campaign = _campaign(trials=90)
        _, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=30))
        compacted = store.compact()
        journal = CampaignJournal(tmp_path / "journals", campaign)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(compacted, journal.path)
        loaded = journal.load_completed()
        assert len(loaded) == 90
        # A journaled rerun is a pure cache hit: zero trials executed.
        result = run_campaign(campaign, ExecPolicy(jobs=1), journal=journal)
        assert result.metrics.cached == 90
        assert result.metrics.completed == 0
        assert result.values() == _serial_values(campaign)

    def _finished_store(self, tmp_path):
        """A finished, uncompacted 40-trial run of four shards."""
        campaign = _campaign(trials=40)
        report, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=10))
        assert report.complete and len(store.shards) == 4
        return campaign, store

    def test_torn_segment_tail_is_rerun_on_resume(self, tmp_path):
        campaign, store = self._finished_store(tmp_path)
        segment = store.segment_path(store.shards[2])
        raw = segment.read_text()
        segment.write_text(raw[:-20])  # killed mid-append: no newline
        assert store.completed_trials() == 39
        assert store.pending_shards() == [store.shards[2]]
        # The resumed trial must not be glued onto the torn line.
        report, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=10))
        assert report.complete and report.shards_executed == 1
        assert [v for _, v in store.iter_values()] == _serial_values(campaign)

    def test_tampered_segment_header_discards_the_segment(self, tmp_path):
        campaign, store = self._finished_store(tmp_path)
        segment = store.segment_path(store.shards[1])
        lines = segment.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * 64
        segment.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert store.completed_trials() == 30
        assert store.pending_shards() == [store.shards[1]]
        report, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=10))
        assert report.complete and report.shards_executed == 1
        assert [v for _, v in store.iter_values()] == _serial_values(campaign)

    def test_kill_between_compaction_replace_and_unlinks(
        self, tmp_path, monkeypatch
    ):
        campaign, store = self._finished_store(tmp_path)

        class Killed(Exception):
            pass

        def killed(path, *args, **kwargs):
            raise Killed(path)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "unlink", killed)
            with pytest.raises(Killed):
                store.compact()
        # Both copies are on disk; each trial still counts once.
        assert (store.run_dir / store.COMPACTED).exists()
        assert all(store.segment_path(s).exists() for s in store.shards)
        assert store.completed_trials() == 40
        values = list(store.iter_values())
        assert [i for i, _ in values] == list(range(40))
        assert [v for _, v in values] == _serial_values(campaign)
        # A second compaction removes the leftover segments.
        store.compact()
        assert not any(store.segment_path(s).exists() for s in store.shards)
        assert [v for _, v in store.iter_values()] == _serial_values(campaign)

    def test_resume_parses_each_record_once_per_pass(
        self, tmp_path, monkeypatch
    ):
        """A resume plans from one pass and a dispatched shard reads only
        its own segment, never the compacted file's prefix."""
        campaign = _campaign(trials=400)
        _, store = run_fleet(
            campaign, tmp_path,
            FleetPolicy(shard_size=10, max_inflight=1, stop_after_shards=20),
        )
        store.compact()
        assert store.completed_trials() == 200
        calls = _count_loads(monkeypatch)
        report, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=10))
        monkeypatch.undo()
        assert report.complete and report.shards_executed == 20
        assert 0 < len(calls) <= 2 * len(campaign) + 4 * len(store.shards)
        assert [v for _, v in store.iter_values()] == _serial_values(campaign)

    def test_complete_store_run_is_two_passes(self, tmp_path, monkeypatch):
        campaign = _campaign(trials=400)
        _, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=10))
        store.compact()
        calls = _count_loads(monkeypatch)
        report, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=10))
        monkeypatch.undo()
        assert report.complete and report.shards_executed == 0
        assert 0 < len(calls) <= 2 * (len(campaign) + len(store.shards) + 2)

    @pytest.mark.parametrize(
        "kind", ["complete", "resumed", "drained", "failed", "raised"]
    )
    def test_report_counts_what_the_store_holds(
        self, tmp_path, monkeypatch, kind
    ):
        """The report counts from the planning pass and the shard
        outcomes, and still equals a pass over the store."""
        from repro.exec.spec import Campaign

        campaign = _campaign(trials=40)
        policy = FleetPolicy(shard_size=10, max_inflight=1, shard_retries=0)
        if kind == "resumed":  # shard 2 planned with 9 of its 10 trials
            campaign, store = self._finished_store(tmp_path)
            segment = store.segment_path(store.shards[2])
            segment.write_text(segment.read_text()[:-20])
        elif kind == "drained":
            policy = dataclasses.replace(policy, stop_after_shards=2)
        elif kind == "failed":
            campaign = Campaign.build(
                "flaky", flaky_trial, None, trials=40, base_seed=0
            )
        elif kind == "raised":  # shard 1's attempt raises after its trials
            real = scheduler_mod.run_campaign

            def raising(sub, *args, **kwargs):
                result = real(sub, *args, **kwargs)
                if sub.seeds == campaign.seeds[10:20]:
                    raise RuntimeError("attempt raised")
                return result

            monkeypatch.setattr(scheduler_mod, "run_campaign", raising)
        report, store = run_fleet(campaign, tmp_path, policy)
        assert report.completed_trials == store.completed_trials()
        assert report.complete == (kind not in ("drained", "failed"))
        if kind == "raised":  # its trials were durable before it raised
            assert report.shards_failed == 1

    def test_store_rejects_foreign_shard(self, tmp_path):
        campaign = _campaign(trials=60, seed=1)
        other = _campaign(trials=60, seed=2)
        store = FleetStore(tmp_path, campaign, shard_size=30)
        foreign = plan_shards(other, shard_size=30)[0]
        with pytest.raises(ValueError, match="belongs to campaign"):
            store.shard_journal(foreign)


class TestScheduler:
    def test_backpressure_bounds_dispatch_ahead_of_slow_consumer(self, tmp_path):
        campaign = _campaign(trials=600)
        policy = FleetPolicy(shard_size=20, max_inflight=2)
        store = FleetStore(tmp_path, campaign, policy.shard_size)
        store.write_meta()

        def slow_consumer(outcome):
            time.sleep(0.01)

        scheduler = FleetScheduler(
            campaign, store, policy, on_shard=slow_consumer
        )
        report = scheduler.run()
        assert report.complete
        # Dispatch never ran away from the consumer: bounded by the
        # in-flight window, far below the 30 shards a backpressure-free
        # scheduler would race through.
        assert 0 < report.peak_dispatch_ahead <= policy.max_inflight
        assert report.n_shards == 30

    def test_priority_orders_dispatch(self, tmp_path):
        campaign = _campaign(trials=100)
        policy = FleetPolicy(shard_size=20, max_inflight=1)
        store = FleetStore(tmp_path, campaign, policy.shard_size)
        store.write_meta()
        executed = []

        def note(outcome):
            executed.append(outcome.shard.shard_id)

        scheduler = FleetScheduler(
            campaign, store, policy,
            priority=lambda s: -s.lo,  # highest range first
            on_shard=note,
        )
        report = scheduler.run()
        assert report.complete
        assert executed == [4, 3, 2, 1, 0]

    def test_priority_orders_the_whole_plan(self, tmp_path):
        """Priority orders every shard of the run, not a window of them."""
        campaign = _campaign(trials=200)
        policy = FleetPolicy(shard_size=10, max_inflight=1)
        store = FleetStore(tmp_path, campaign, policy.shard_size)
        store.write_meta()
        executed = []
        scheduler = FleetScheduler(
            campaign, store, policy,
            priority=lambda s: -s.lo,
            on_shard=lambda outcome: executed.append(outcome.shard.shard_id),
        )
        report = scheduler.run()
        assert report.complete
        assert executed == list(range(19, -1, -1))

    def test_crashing_trials_retry_then_stand_as_failures(self, tmp_path):
        from repro.exec.spec import Campaign

        def flaky(cfg, seed):
            if seed % 3 == 0:
                raise RuntimeError("boom")
            return {"seed": seed}

        campaign = Campaign.build(
            name="flaky", fn=flaky, config=None, trials=30, base_seed=0
        )
        policy = FleetPolicy(shard_size=10, shard_retries=1,
                             retry_backoff_s=0.0)
        report, store = run_fleet(campaign, tmp_path, policy)
        assert not report.complete
        assert report.shards_failed == 3
        assert report.shard_retries == 3  # each shard retried once
        assert report.failed_trials > 0
        # The successful trials are durable despite the failures.
        ok = dict(store.iter_completed())
        assert all(obj["seed"] % 3 != 0 for obj in ok.values())

    def test_worker_death_fails_only_its_trial(self, tmp_path, monkeypatch):
        from repro.exec.spec import Campaign

        pools = []  # every shard pool of the run

        class RecordingPool(WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(scheduler_mod, "WorkerPool", RecordingPool)
        # Seed 3 kills its worker in shard 0; seed 12 holds the other
        # in-flight slot in shard 1, so the slot whose worker died runs
        # the later shards.
        cfg = {"crash_seed": 3, "slow_seed": 12, "sleep_s": 2.0}
        campaign = Campaign.build(
            "dying", dying_trial, cfg, trials=40,
            seed_mode="arithmetic", base_seed=0,
        )
        policy = FleetPolicy(
            shard_size=8, jobs_per_shard=2, max_inflight=2,
            trial_retries=0, shard_retries=0,
        )
        # Bounded: a pool that misses its worker's death never returns.
        box = {}
        runner = threading.Thread(
            target=lambda: box.update(out=run_fleet(campaign, tmp_path, policy)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "fleet run hung after a worker died"
        report, store = box["out"]
        assert report.shards_executed == 5
        assert report.failed_trials == 1 and report.shards_failed == 1
        # Every other trial is durable and equals the serial value.
        reference = Campaign.build(
            "dying", dying_trial, {"crash_seed": -1, "slow_seed": -1},
            trials=40, seed_mode="arithmetic", base_seed=0,
        )
        expected = dict(enumerate(_serial_values(reference)))
        del expected[3]
        assert dict(store.iter_values()) == expected
        # The dead worker was replaced by one fresh fork for later trials.
        assert max(pool.forks for pool in pools) == policy.jobs_per_shard + 1

    def test_failing_callback_raises_instead_of_hanging(self, tmp_path):
        campaign = _campaign(trials=200)
        policy = FleetPolicy(shard_size=10, max_inflight=2, jobs_per_shard=2)
        store = FleetStore(tmp_path, campaign, policy.shard_size)
        store.write_meta()
        seen = []

        def broken(outcome):
            seen.append(outcome.shard.shard_id)
            raise RuntimeError("callback failed")

        scheduler = FleetScheduler(campaign, store, policy, on_shard=broken)
        box = {}

        def target():
            try:
                scheduler.run()
            except Exception as exc:  # noqa: BLE001 - inspected below
                box["exc"] = exc

        # Bounded: a run that keeps dispatching after its consumer died,
        # or never joins its pools, does not return.
        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "fleet run hung after on_shard raised"
        assert isinstance(box.get("exc"), RuntimeError)
        assert str(box["exc"]) == "callback failed"
        assert len(seen) == 1
        assert multiprocessing.active_children() == []

    def test_timeout_enforced_on_shard_threads(self, tmp_path):
        from repro.exec.spec import Campaign

        campaign = Campaign.build(
            "sleepy", sleepy_trial, {"slow_seed": 3, "sleep_s": 10.0},
            trials=8, seed_mode="arithmetic", base_seed=0,
        )
        policy = FleetPolicy(shard_size=8, timeout_s=0.3, retry_backoff_s=0.0)
        start = time.monotonic()
        report, store = run_fleet(campaign, tmp_path, policy)
        assert time.monotonic() - start < 5.0
        assert report.failed_trials == 1
        assert sorted(obj["seed"] for _, obj in store.iter_completed()) == [
            0, 1, 2, 4, 5, 6, 7,
        ]

    @pytest.mark.parametrize(
        "field", ["shard_retries", "trial_retries", "retry_backoff_s"]
    )
    def test_policy_rejects_negative_retry_settings(self, field):
        # A negative retry count would run a shard zero times and report
        # nothing; a negative backoff would make the retry sleep raise.
        with pytest.raises(ValueError, match=field):
            FleetPolicy(**{field: -1})

    def test_policy_of_another_shard_size_is_rejected(self, tmp_path):
        campaign = _campaign(trials=100)
        store = FleetStore(tmp_path, campaign, shard_size=64)
        with pytest.raises(ValueError, match=r"shard_size 256 .* 64"):
            FleetScheduler(campaign, store, FleetPolicy(shard_size=256))
        # Without a policy, the scheduler takes the store's shard size.
        assert FleetScheduler(campaign, store).policy.shard_size == 64

    def test_drain_before_start_executes_nothing(self, tmp_path):
        campaign = _campaign(trials=100)
        policy = FleetPolicy(shard_size=20)
        store = FleetStore(tmp_path, campaign, policy.shard_size)
        store.write_meta()
        scheduler = FleetScheduler(campaign, store, policy)
        scheduler.request_drain()
        report = scheduler.run()
        assert report.shards_executed == 0
        assert report.completed_trials == 0
        assert report.drained


class TestStreamingAggregates:
    def test_welford_matches_util_stddev(self):
        from repro._util import mean, stddev

        values = [0.5, 1.25, -3.0, 7.5, 2.25, 0.0]
        moments = StreamingMoments()
        for v in values:
            moments.push(v)
        assert moments.mean == pytest.approx(mean(values), abs=1e-12)
        assert moments.std == pytest.approx(stddev(values), abs=1e-12)
        assert (moments.min, moments.max) == (-3.0, 7.5)

    def test_aggregate_handles_bools_and_numbers(self):
        agg = CampaignAggregate()
        agg.push({"hit": True, "ms": 2.0})
        agg.push({"hit": False, "ms": 4.0})
        summary = agg.summary()
        assert summary["trials"] == 2
        assert summary["hit"] == {"count": 1, "rate": 0.5}
        assert summary["ms"]["mean"] == 3.0

    def test_fleet_aggregates_identical_to_serial(self, tmp_path):
        campaign = _campaign(trials=250)
        # Fleet path: shard, drain mid-run, resume, stream the store.
        run_fleet(campaign, tmp_path,
                  FleetPolicy(shard_size=40, stop_after_shards=2))
        _, store = run_fleet(campaign, tmp_path, FleetPolicy(shard_size=40))
        fleet = aggregate_values(v for _, v in store.iter_values())
        serial = aggregate_values(_serial_values(campaign))
        assert fleet == serial  # bit-identical floats, not approx


class TestDatacenter:
    def test_churn_is_reproducible_and_order_independent(self):
        cfg = DatacenterConfig(n_hosts=16)
        a = Datacenter(cfg, seed=5)
        b = Datacenter(cfg, seed=5)
        # Query b in a scrambled order; trajectories must not care.
        for host in (3, 1, 3, 9):
            b.tenants_at(host, 40)
        assert [a.tenants_at(3, h) for h in range(48)] == [
            b.tenants_at(3, h) for h in range(48)
        ]
        assert Datacenter(cfg, seed=6).tenants_at(3, 0) != a.tenants_at(
            3, 0
        ) or Datacenter(cfg, seed=6).tenants_at(3, 24) != a.tenants_at(3, 24)

    def test_placements_reproducible_under_fixed_seed(self):
        cfg = DatacenterConfig(n_hosts=32)
        a = Datacenter(cfg, seed=11).placements(200)
        b = Datacenter(cfg, seed=11).placements(200)
        assert a == b
        c = Datacenter(cfg, seed=12).placements(200)
        assert a != c
        assert all(0 <= p.host_id < 32 for p in a)

    def test_quiet_hours_are_quieter_but_barely(self):
        """The paper's Table 3 shape: 3-5am dips, but only by a few %."""
        dc = Datacenter(DatacenterConfig(n_hosts=64), seed=0)
        quiet = dc.mean_rate_at(3, sample_hosts=64)
        busy = dc.mean_rate_at(13, sample_hosts=64)
        assert quiet < busy
        assert quiet / busy > 0.85  # barely quieter, not idle

    def test_placement_campaign_deterministic_fingerprint(self):
        dc = lambda: Datacenter(DatacenterConfig(n_hosts=16), seed=2)
        a = placement_campaign(dc(), trials=50, base_seed=9)
        b = placement_campaign(dc(), trials=50, base_seed=9)
        assert a.fingerprint() == b.fingerprint()
        assert _serial_values(a) == _serial_values(b)

    def test_quiet_hours_priority_prefers_quiet_shards(self):
        dc = Datacenter(DatacenterConfig(n_hosts=16), seed=2)
        campaign = placement_campaign(
            dc, trials=48, hours=(3, 13), base_seed=9
        )
        # Shard size 1: each shard is one placement, alternating 3am/1pm.
        shards = plan_shards(campaign, shard_size=1)
        priority = quiet_hours_priority(campaign, dc)
        ordered = order_shards(shards, priority)
        first_half_hours = {
            campaign.configs[s.lo].hour for s in ordered[: len(ordered) // 2]
        }
        assert first_half_hours == {3}

    def test_materialize_host_builds_real_faas_host(self):
        dc = Datacenter(DatacenterConfig(n_hosts=8), seed=1)
        placement = dc.place_pair(key=0, hour=3)
        host = dc.materialize_host(placement)
        assert host.machine.noise.cfg == dc.noise_at(
            placement.host_id, placement.hour
        )


class TestServiceCLI:
    def _repro(self, *argv, cwd):
        src = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, cwd=cwd,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )

    def test_submit_drain_resume_verify(self, tmp_path):
        fleet_dir = str(tmp_path / "fleet")
        r = self._repro(
            "fleet", "submit", "--name", "noise-mc", "--trials", "600",
            "--shard-size", "64", "--stop-after-shards", "2",
            "--fleet-dir", fleet_dir, cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert "[drained]" in r.stdout
        r = self._repro("fleet", "resume", "noise-mc",
                        "--fleet-dir", fleet_dir, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "[complete]" in r.stdout
        r = self._repro("fleet", "aggregate", "noise-mc", "--verify-serial",
                        "--fleet-dir", fleet_dir, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "verified: fleet aggregates == serial" in r.stdout

    def test_drain_status_resume_on_a_partly_compacted_store(self, tmp_path):
        """``drain`` compacts a drained run, so ``resume`` and ``aggregate``
        read a partly compacted store; ``status`` prints the store's own
        count, and the finished run directory holds only the records."""
        fleet_dir = tmp_path / "fleet"
        flags = ("--fleet-dir", str(fleet_dir))
        r = self._repro(
            "fleet", "submit", "--name", "noise-mc", "--trials", "600",
            "--shard-size", "64", "--stop-after-shards", "2", *flags,
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert "[drained]" in r.stdout
        r = self._repro("fleet", "drain", "noise-mc", *flags, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "drained noise-mc" in r.stdout
        (run_dir,) = fleet_dir.iterdir()
        assert (run_dir / FleetStore.COMPACTED).exists()
        meta = json.loads((run_dir / FleetStore.META).read_text())
        store = FleetStore(
            fleet_dir, build_campaign(meta["cli"]), meta["shard_size"]
        )
        progress = store.progress()
        done = sum(p.done for p in progress)
        complete = sum(p.complete for p in progress)
        assert 0 < done < 600 and 0 < complete < len(progress)
        r = self._repro("fleet", "status", run_dir.name, *flags, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert f"trials: {done}/600" in lines
        assert f"shards: {complete}/{len(progress)} complete" in lines
        r = self._repro("fleet", "resume", "noise-mc", *flags, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "[complete]" in r.stdout
        r = self._repro("fleet", "aggregate", "noise-mc", "--verify-serial",
                        *flags, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "verified: fleet aggregates == serial" in r.stdout
        assert sorted(p.name for p in run_dir.iterdir()) == [
            FleetStore.COMPACTED, FleetStore.META, FleetStore.SHARD_DIR,
        ]
        assert not list((run_dir / FleetStore.SHARD_DIR).iterdir())

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_drains_gracefully(self, tmp_path, signame):
        """SIGINT/SIGTERM finish the in-flight shards and exit cleanly."""
        fleet_dir = tmp_path / "fleet"
        trials = 200_000  # far more than can finish before the signal
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "submit",
             "--name", "noise-mc", "--trials", str(trials),
             "--fleet-dir", str(fleet_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        try:
            deadline = time.monotonic() + 120
            while not list(fleet_dir.glob("*/shards/*.jsonl")):
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "no segment was written"
                time.sleep(0.01)
            proc.send_signal(getattr(signal, signame))
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        assert "[drained]" in out
        (run_dir,) = fleet_dir.iterdir()
        meta = json.loads((run_dir / FleetStore.META).read_text())
        campaign = build_campaign(meta["cli"])
        store = FleetStore(fleet_dir, campaign, meta["shard_size"])
        durable = dict(store.iter_values())
        assert 0 < len(durable) < trials
        for index, value in durable.items():
            assert value == noise_window_trial(
                campaign.configs[index], campaign.seeds[index]
            )

    def test_resume_and_drain_run_at_the_stores_shard_size(
        self, tmp_path, capsys
    ):
        """A run submitted at ``--shard-size 64`` drains and resumes at
        64, though ``drain`` and ``resume`` take no ``--shard-size``."""
        flags = ["--fleet-dir", str(tmp_path)]
        assert cli.main([
            "fleet", "submit", "--name", "noise-mc", "--trials", "300",
            "--shard-size", "64", "--max-inflight", "1",
            "--stop-after-shards", "1", *flags,
        ]) == 0
        (run_dir,) = tmp_path.iterdir()
        meta = json.loads((run_dir / FleetStore.META).read_text())
        store = FleetStore(tmp_path, build_campaign(meta["cli"]), 64)
        segment = store.segment_path(store.shards[0])
        segment.write_text(segment.read_text()[:-20])  # started, unfinished
        assert cli.main(["fleet", "drain", "noise-mc", *flags]) == 0
        assert "finishing 1 started shards" in capsys.readouterr().out
        assert cli.main(["fleet", "resume", "noise-mc", *flags]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out and "4 shards pending" in out
        assert "[complete]" in out
        assert [v for _, v in store.iter_values()] == _serial_values(
            store.campaign
        )

    def test_submit_reads_a_finished_store_twice_after_its_last_shard(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = _count_loads(monkeypatch)
        real = scheduler_mod.run_campaign

        def shard_then_recount(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.clear()  # count only what comes after the last shard
            return result

        monkeypatch.setattr(scheduler_mod, "run_campaign", shard_then_recount)
        trials, shard_size = 200, 64
        assert cli.main([
            "fleet", "submit", "--name", "noise-mc", "--trials", str(trials),
            "--shard-size", str(shard_size), "--fleet-dir", str(tmp_path),
        ]) == 0
        assert "[complete]" in capsys.readouterr().out
        shards = -(-trials // shard_size)
        # Two passes: compaction parses every segment (its header and its
        # records), then the printed aggregate parses the compacted file.
        assert len(calls) == (trials + shards) + (trials + 1)

    def test_serial_campaign_cli_shares_noise_mc(self, tmp_path):
        r = self._repro(
            "campaign", "--name", "noise-mc", "--trials", "50",
            "--no-journal", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert "noise-mc-cloud" in r.stdout
