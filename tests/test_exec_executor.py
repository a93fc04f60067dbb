"""Tests for repro.exec.executor: parity, timeouts, retries, fallback."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.exec import (
    Campaign,
    ExecPolicy,
    TrialTimeout,
    WorkerPool,
    default_jobs,
    run_campaign,
)
from repro.exec import executor as executor_mod


# Trial functions must live at module level so forked/pickled workers can
# resolve them by reference.

def rng_trial(cfg, seed):
    rng = random.Random(seed)
    return [rng.randrange(cfg["bound"]) for _ in range(cfg["n"])]


def failing_trial(cfg, seed):
    if seed % 2:
        raise ValueError(f"odd seed {seed}")
    return seed * 10


def sleepy_trial(cfg, seed):
    if seed == cfg["slow_seed"]:
        time.sleep(cfg["sleep_s"])
    return seed


def crashing_trial(cfg, seed):
    if seed == cfg["crash_seed"]:
        os._exit(3)
    return seed + 1


def pid_trial(cfg, seed):
    if seed == cfg.get("exit_after_seed"):
        # The worker dies after sending this result: its pool breaks
        # while idle, between two calls.
        threading.Timer(0.2, os._exit, args=(3,)).start()
    return os.getpid()


def crash_or_sleep_trial(cfg, seed):
    if seed == cfg["crash_seed"]:
        os._exit(3)
    time.sleep(cfg["sleep_s"])
    return seed


def reply_then_die_trial(cfg, seed):
    # Seed 1 replies late, then its worker dies while it runs seed 3.
    if seed == 1:
        time.sleep(0.05)
        threading.Timer(0.1, os._exit, args=(3,)).start()
    elif seed == 3:
        time.sleep(0.5)
    return os.getpid()


def echo_trial(cfg, seed):
    return cfg["blob"]


def lambda_trial(cfg, seed):
    if seed == cfg["lambda_seed"]:
        return lambda: seed  # cannot be pickled back to the caller
    return seed


def _campaign(fn, cfg, trials, **kwargs):
    return Campaign.build("exec-test", fn, cfg, trials=trials, **kwargs)


class _Reporter:
    """A progress reporter that runs ``on_update`` on each record."""

    def __init__(self, on_update):
        self.on_update = on_update

    def start(self, *args, **kwargs):
        pass

    def update(self, record):
        self.on_update(record)

    def finish(self, metrics):
        pass


def _bounded(fn, timeout_s=60):
    """``fn()``'s result; fails the test if it has not returned in time."""
    box = {}
    runner = threading.Thread(target=lambda: box.update(out=fn()), daemon=True)
    runner.start()
    runner.join(timeout=timeout_s)
    assert not runner.is_alive(), "run hung"
    return box["out"]


class TestParity:
    @pytest.mark.parametrize("batch", [1, 4])
    def test_parallel_matches_serial_on_fixed_seed(self, batch):
        campaign = _campaign(rng_trial, {"bound": 1000, "n": 32}, trials=9)
        serial = run_campaign(campaign, ExecPolicy(jobs=1))
        parallel = run_campaign(campaign, ExecPolicy(jobs=3, batch=batch))
        assert serial.ok and parallel.ok
        assert serial.values() == parallel.values()
        assert [r.seed for r in serial.records] == [
            r.seed for r in parallel.records
        ]

    def test_records_sorted_by_index(self):
        campaign = _campaign(rng_trial, {"bound": 10, "n": 2}, trials=7)
        result = run_campaign(campaign, ExecPolicy(jobs=4))
        assert [r.index for r in result.records] == list(range(7))

    def test_metrics_reflect_completion(self):
        campaign = _campaign(rng_trial, {"bound": 10, "n": 2}, trials=5)
        result = run_campaign(campaign, ExecPolicy(jobs=2))
        assert result.metrics.total == 5
        assert result.metrics.completed == 5
        assert result.metrics.failed == 0
        assert result.metrics.elapsed_s >= 0.0


class TestFailures:
    @pytest.mark.parametrize(
        "jobs, batch", [(1, 1), (3, 1), (1, 4), (3, 4)],
        ids=["1", "3", "1-batch4", "3-batch4"],
    )
    def test_exceptions_become_failed_records(self, jobs, batch):
        campaign = _campaign(
            failing_trial, {}, trials=6, seed_mode="arithmetic", base_seed=0
        )
        result = run_campaign(campaign, ExecPolicy(jobs=jobs, batch=batch))
        assert not result.ok
        statuses = {r.seed: r.status for r in result.records}
        assert all(
            s == ("failed" if seed % 2 else "ok")
            for seed, s in statuses.items()
        )
        failed = result.failures()
        assert len(failed) == 3
        assert all("odd seed" in r.error for r in failed)
        # Successful trials are still returned, in order.
        assert result.values() == [0, 20, 40]

    def test_unpicklable_value_fails_its_chunk(self):
        campaign = _campaign(
            lambda_trial, {"lambda_seed": 5}, trials=8,
            seed_mode="arithmetic", base_seed=0,
        )
        result = _bounded(
            lambda: run_campaign(campaign, ExecPolicy(jobs=2, batch=2))
        )
        statuses = {r.seed: r.status for r in result.records}
        assert statuses == {
            s: ("failed" if s in (4, 5) else "ok") for s in range(8)
        }
        assert all("pickle" in r.error for r in result.failures())
        assert result.values() == [0, 1, 2, 3, 6, 7]

    def test_raise_on_failure(self):
        campaign = _campaign(
            failing_trial, {}, trials=2, seed_mode="arithmetic", base_seed=1
        )
        result = run_campaign(campaign, ExecPolicy(jobs=1))
        with pytest.raises(ReproError, match="odd seed"):
            result.raise_on_failure()


class TestTimeout:
    @pytest.mark.parametrize(
        "jobs, batch", [(1, 1), (2, 1), (1, 2), (2, 4)],
        ids=["1", "2", "1-batch2", "2-batch4"],
    )
    def test_slow_trial_times_out(self, jobs, batch):
        campaign = _campaign(
            sleepy_trial,
            {"slow_seed": 2, "sleep_s": 5.0},
            trials=3,
            seed_mode="arithmetic",
            base_seed=1,
        )
        start = time.monotonic()
        result = run_campaign(
            campaign, ExecPolicy(jobs=jobs, timeout_s=0.3, batch=batch)
        )
        assert time.monotonic() - start < 4.0
        statuses = {r.seed: r.status for r in result.records}
        assert statuses == {1: "ok", 2: "timeout", 3: "ok"}
        assert result.values() == [1, 3]

    def test_trial_timeout_is_repro_error(self):
        assert issubclass(TrialTimeout, ReproError)


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "batch, owned",
        [
            pytest.param(1, False, id="1"),
            pytest.param(4, False, id="4"),
            pytest.param(1, True, id="1-pool"),
            pytest.param(4, True, id="4-pool"),
        ],
    )
    def test_retry_exhaustion_marks_trial_crashed(self, batch, owned):
        campaign = _campaign(
            crashing_trial,
            {"crash_seed": 12},
            trials=4,
            seed_mode="arithmetic",
            base_seed=10,
        )
        policy = ExecPolicy(jobs=2, max_retries=1, batch=batch)
        with WorkerPool(2) as pool:
            result = run_campaign(campaign, policy, pool=pool if owned else None)
            by_seed = {r.seed: r for r in result.records}
            crashed = by_seed[12]
            assert crashed.status == "crashed"
            assert crashed.attempts == 2  # initial attempt + one retry
            assert "retries exhausted" in crashed.error
            assert [r.seed for r in result.failures()] == [12]
            # The surviving trials -- group-mates of the crasher included --
            # still complete correctly.
            assert result.values() == [11, 12, 14]
            assert result.metrics.pool_restarts >= 1
            assert result.metrics.retried >= 1
            if owned:
                # The pool the crash broke serves the caller's next call.
                again = _campaign(rng_trial, {"bound": 100, "n": 4}, trials=6)
                reused = run_campaign(again, policy, pool=pool)
                assert reused.ok
                assert reused.values() == run_campaign(again).values()

    def test_worker_death_charges_only_the_chunks_it_held(self):
        # Two chunks per worker: seeds 0 and 2 go to one worker, 1 and 3
        # to the other.  Seed 0 kills its worker at once, while the other
        # still runs seed 1 with seed 3 queued behind it.
        campaign = _campaign(
            crash_or_sleep_trial, {"crash_seed": 0, "sleep_s": 0.3},
            trials=4, seed_mode="arithmetic", base_seed=0,
        )
        result = _bounded(
            lambda: run_campaign(campaign, ExecPolicy(jobs=2, max_retries=1))
        )
        by_seed = {r.seed: r for r in result.records}
        assert by_seed[0].status == "crashed" and by_seed[0].attempts == 2
        assert by_seed[2].attempts == 2
        assert by_seed[1].attempts == by_seed[3].attempts == 1
        assert result.values() == [1, 2, 3]

    def test_reply_sent_before_death_is_kept(self):
        stalled = []

        def stall_once(record):
            # The caller sits in its reporter while the other worker
            # replies for seed 1 and dies, so it finds both at once.
            if not stalled:
                stalled.append(record.seed)
                time.sleep(1.0)

        campaign = _campaign(
            reply_then_die_trial, {}, trials=4,
            seed_mode="arithmetic", base_seed=0,
        )
        result = _bounded(lambda: run_campaign(
            campaign, ExecPolicy(jobs=2), reporter=_Reporter(stall_once)
        ))
        assert result.ok
        by_seed = {r.seed: r for r in result.records}
        assert by_seed[1].attempts == 1  # kept, not re-run
        assert by_seed[3].attempts == 2  # held by the dead worker
        assert by_seed[1].value != by_seed[3].value
        assert result.metrics.retried == 1

    def test_zero_retries_gives_up_after_first_crash(self):
        campaign = _campaign(
            crashing_trial,
            {"crash_seed": 20},
            trials=2,
            seed_mode="arithmetic",
            base_seed=20,
        )
        result = run_campaign(campaign, ExecPolicy(jobs=2, max_retries=0))
        crashed = [r for r in result.records if r.status == "crashed"]
        assert len(crashed) == 1
        assert crashed[0].attempts == 1


class TestWorkerPool:
    def test_forks_lazily_and_once_across_calls(self):
        campaign = _campaign(rng_trial, {"bound": 100, "n": 4}, trials=6)
        serial = run_campaign(campaign).values()
        with WorkerPool(2) as pool:
            assert pool.forks == 0
            for batch in (1, 2, 4):
                result = run_campaign(
                    campaign, ExecPolicy(jobs=2, batch=batch), pool=pool
                )
                assert result.values() == serial
        assert pool.forks == 2

    def test_reused_pool_survives_idle_worker_death(self):
        dies = _campaign(
            pid_trial, {"exit_after_seed": 1}, trials=2,
            seed_mode="arithmetic", base_seed=0,
        )
        healthy = _campaign(pid_trial, {}, trials=4)
        with WorkerPool(2) as pool:
            assert run_campaign(dies, ExecPolicy(jobs=2), pool=pool).ok
            time.sleep(1.0)  # a worker exits while the pool is idle
            result = run_campaign(healthy, ExecPolicy(jobs=2), pool=pool)
        assert result.ok
        # Served by a fresh fork, not the in-process serial fallback.
        assert os.getpid() not in result.values()

    def test_non_positive_jobs_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_large_chunks_and_replies_do_not_deadlock(self):
        # A chunk and its reply each overflow a pipe's socket buffer: a
        # chunk sent ahead to a busy worker would block the caller while
        # that worker blocks sending its reply.
        blob = bytes(range(256)) * 1200
        campaign = _campaign(echo_trial, {"blob": blob}, trials=6)
        result = _bounded(lambda: run_campaign(campaign, ExecPolicy(jobs=2)))
        assert result.values() == [blob] * 6

    def test_parallel_run_starts_no_thread(self):
        before = threading.active_count()
        seen = []
        reporter = _Reporter(lambda _: seen.append(threading.active_count()))
        campaign = _campaign(rng_trial, {"bound": 100, "n": 4}, trials=40)
        for batch in (1, 4):
            result = run_campaign(
                campaign, ExecPolicy(jobs=2, batch=batch), reporter=reporter
            )
            assert result.ok
        assert len(seen) == 80 and set(seen) == {before}

    def test_engine_imports_no_process_pool_executor(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "import sys, repro.exec\n"
            "print('concurrent.futures.process' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert out.stdout.strip() == "False"


class TestSerialFallback:
    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        def broken_fork(self):
            raise OSError("no process can be forked")

        monkeypatch.setattr(executor_mod.WorkerPool, "_fork", broken_fork)
        campaign = _campaign(rng_trial, {"bound": 100, "n": 8}, trials=4)
        result = run_campaign(campaign, ExecPolicy(jobs=4))
        assert result.ok
        serial = run_campaign(campaign, ExecPolicy(jobs=1))
        assert result.values() == serial.values()

    def test_single_trial_runs_serially(self):
        campaign = _campaign(rng_trial, {"bound": 100, "n": 8}, trials=1)
        result = run_campaign(campaign, ExecPolicy(jobs=8))
        assert result.ok and len(result.values()) == 1


class TestPolicy:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_jobs_none_resolves_to_default(self):
        assert ExecPolicy(jobs=None).resolved_jobs() == default_jobs()

    def test_non_positive_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExecPolicy(jobs=0).resolved_jobs()
        with pytest.raises(ValueError):
            ExecPolicy(jobs=-1).resolved_jobs()

    def test_non_positive_batch_rejected(self):
        with pytest.raises(ValueError):
            ExecPolicy(batch=0)
