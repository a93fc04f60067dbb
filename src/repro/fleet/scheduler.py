"""The fleet scheduler: campaigns as a long-running service.

One scheduler drives one campaign run to completion (or graceful drain)
over the campaign engine's worker pools, from one wait loop on the
calling thread:

* shards are dispatched in the order ``order_shards`` gives the whole
  plan, so the placement/priority knob orders every shard of the run;
* at most ``max_inflight`` shards execute at once, each on a shard
  thread that runs :func:`repro.exec.run_campaign` against the shard's
  own store segment (so per-trial durability and crash-retry come from
  the engine, unchanged); the run keeps one
  :class:`~repro.exec.WorkerPool` per in-flight shard and hands a free
  one to each shard it dispatches, so it forks and joins its workers
  once, not per shard;
* the loop accounts each finished shard in the run report and the
  progress reporter and calls ``on_shard`` before that shard's pool
  takes another shard, so a slow consumer stalls dispatch (at most
  ``max_inflight`` shards run ahead of it), and an ``on_shard`` that
  raises stops dispatch, waits for the in-flight shards, closes the
  pools and propagates out of :meth:`FleetScheduler.run`;
* a shard whose trials failed retries with exponential backoff
  (``shard_retries`` / ``retry_backoff_s``) on its shard thread before
  its failures stand;
* :meth:`FleetScheduler.request_drain` stops new dispatch, finishes
  in-flight shards, and returns a partial report — the graceful-shutdown
  path (SIGINT/SIGTERM in the CLI).

Everything the scheduler does is restartable: trial results are durable
in the store as shards execute, so a SIGKILL at any point loses at most
each in-flight shard's unflushed tail, and ``resume`` re-plans the same
shards and completes the remainder.

The store is read once per run, to plan it.  The report's
``completed_trials`` is that pass's count with each executed shard's
planned count replaced by its final ``ok + cached`` (recounted from its
segment if its last attempt raised), so it matches the store without a
second pass.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence

from ..exec.executor import ExecPolicy, WorkerPool, run_campaign
from ..exec.spec import Campaign
from .sharding import DEFAULT_SHARD_SIZE, ShardSpec, order_shards, shard_subcampaign
from .store import DEFAULT_FLEET_DIR, FleetStore


@dataclasses.dataclass(frozen=True)
class FleetPolicy:
    """How the fleet runs a campaign (the campaign says *what* runs).

    ``jobs_per_shard`` sizes each in-flight shard's pool, reused across
    shards (CPU fan-out); ``max_inflight`` bounds concurrently executing
    shards (pipeline overlap), so a run keeps up to ``max_inflight *
    jobs_per_shard`` worker processes, and it bounds how many shards run
    ahead of the consumer (backpressure).  ``batch`` is how many of a
    shard's trials go to one of its workers as a single message (see
    :class:`repro.exec.ExecPolicy`).  Shards run on scheduler threads,
    where a ``SIGALRM`` cannot fire, so a ``timeout_s`` runs every
    shard's trials in worker processes even at ``jobs_per_shard=1``.
    ``stop_after_shards`` is an ops/test knob: drain gracefully once
    that many shards finished this run.
    """

    shard_size: int = DEFAULT_SHARD_SIZE
    max_inflight: int = 2
    jobs_per_shard: int = 1
    shard_retries: int = 2
    retry_backoff_s: float = 0.05
    timeout_s: Optional[float] = None
    trial_retries: int = 1
    flush_every: int = 64
    batch: int = 1
    stop_after_shards: Optional[int] = None

    def __post_init__(self) -> None:
        for field in ("shard_size", "max_inflight", "jobs_per_shard",
                      "flush_every", "batch"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        for field in ("shard_retries", "trial_retries", "retry_backoff_s"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")


@dataclasses.dataclass
class ShardOutcome:
    """What one executed shard reports back to the consumer."""

    shard: ShardSpec
    ok: int = 0
    failed: int = 0
    cached: int = 0
    attempts: int = 1
    elapsed_s: float = 0.0
    error: Optional[str] = None
    records: List[object] = dataclasses.field(default_factory=list)

    @property
    def done(self) -> int:
        return self.ok + self.cached


@dataclasses.dataclass
class FleetReport:
    """One scheduler run's outcome (not the campaign's full history)."""

    run_id: str
    fingerprint: str
    total_trials: int
    n_shards: int
    completed_trials: int = 0
    failed_trials: int = 0
    shards_executed: int = 0
    shards_skipped: int = 0
    shards_failed: int = 0
    shard_retries: int = 0
    drained: bool = False
    elapsed_s: float = 0.0
    peak_dispatch_ahead: int = 0

    @property
    def complete(self) -> bool:
        return self.completed_trials >= self.total_trials


class FleetScheduler:
    """Shard scheduler over one campaign and its results store.

    The store planned the shards, so it owns the shard size: a policy
    whose ``shard_size`` differs is a ``ValueError``, and no policy means
    the default one at the store's shard size.
    """

    def __init__(
        self,
        campaign: Campaign,
        store: FleetStore,
        policy: Optional[FleetPolicy] = None,
        priority: Optional[Callable[[ShardSpec], float]] = None,
        reporter: Optional["ProgressReporter"] = None,
        on_shard: Optional[Callable[[ShardOutcome], None]] = None,
    ) -> None:
        policy = policy or FleetPolicy(shard_size=store.shard_size)
        if policy.shard_size != store.shard_size:
            raise ValueError(
                f"policy shard_size {policy.shard_size} differs from the "
                f"store's shard_size {store.shard_size}, which planned "
                "its shards"
            )
        self.campaign = campaign
        self.store = store
        self.policy = policy
        self.priority = priority
        self.reporter = reporter
        self.on_shard = on_shard
        self._drain_requested = False

    def request_drain(self) -> None:
        """Stop dispatching new shards; finish in-flight ones and return.

        Only sets a flag, so a signal handler may call it.
        """
        self._drain_requested = True

    # -- shard execution (runs in a shard thread) --------------------------

    def _run_shard_once(
        self, shard: ShardSpec, workers: WorkerPool
    ) -> ShardOutcome:
        sub = shard_subcampaign(self.campaign, shard)
        journal = self.store.shard_journal(
            shard, flush_every=self.policy.flush_every
        )
        started = time.perf_counter()
        try:
            result = run_campaign(
                sub,
                ExecPolicy(
                    jobs=self.policy.jobs_per_shard,
                    timeout_s=self.policy.timeout_s,
                    max_retries=self.policy.trial_retries,
                    batch=self.policy.batch,
                ),
                journal=journal,
                pool=workers,
            )
        finally:
            journal.close()
        outcome = ShardOutcome(shard=shard, elapsed_s=time.perf_counter() - started)
        for record in result.records:
            if record.cached:
                outcome.cached += 1
            elif record.ok:
                outcome.ok += 1
            else:
                outcome.failed += 1
            outcome.records.append(record)
        return outcome

    def _execute_with_retry(
        self, shard: ShardSpec, workers: WorkerPool
    ) -> ShardOutcome:
        """Run a shard, retrying crashed/failed trials with backoff.

        The store segment persists finished trials across attempts, so a
        retry only re-runs the trials that did not complete.  Every
        attempt runs on the caller's ``workers``.
        """
        for attempt in range(self.policy.shard_retries + 1):
            if attempt:
                time.sleep(self.policy.retry_backoff_s * (2 ** (attempt - 1)))
            try:
                outcome = self._run_shard_once(shard, workers)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                outcome = ShardOutcome(
                    shard=shard, error=f"{type(exc).__name__}: {exc}"
                )
            outcome.attempts = attempt + 1
            if outcome.error is None and outcome.failed == 0:
                break
        return outcome

    # -- the service loop --------------------------------------------------

    def run(self, shards: Optional[Sequence[ShardSpec]] = None) -> FleetReport:
        """Drive incomplete shards to completion (or drain) and report.

        One pass over the store plans the run: the shards it finds
        incomplete, all of them or those in ``shards`` (a complete shard
        there is skipped).
        """
        policy = self.policy
        started_at = time.perf_counter()
        progress = self.store.progress()
        wanted = None if shards is None else set(shards)
        planned = {
            shard: p.done for shard, p in zip(self.store.shards, progress)
            if not p.complete and (wanted is None or shard in wanted)
        }
        plan = order_shards(list(planned), self.priority)

        report = FleetReport(
            run_id=self.store.run_id,
            fingerprint=self.store.fingerprint,
            total_trials=len(self.campaign),
            n_shards=len(self.store.shards),
            completed_trials=sum(p.done for p in progress),
        )
        if self.reporter is not None:
            self.reporter.start(
                f"fleet:{self.campaign.name}",
                total=len(self.campaign),
                cached=report.completed_trials,
            )

        # One worker pool per in-flight shard, forked on its first
        # parallel shard: concurrent shards never share workers, so one
        # shard's crash cannot touch another's trials.
        pools = [
            WorkerPool(policy.jobs_per_shard)
            for _ in range(min(policy.max_inflight, len(plan)))
        ]
        free = list(pools)
        running: Dict[Future, WorkerPool] = {}
        dispatched = 0
        try:
            # Shards run on threads even one at a time: a trial timeout
            # off the main thread moves the trials into worker processes.
            with ThreadPoolExecutor(
                max_workers=max(1, len(pools)), thread_name_prefix="fleet-shard"
            ) as threads:
                while True:
                    while (free and dispatched < len(plan)
                           and not self._drain_requested):
                        workers = free.pop()
                        future = threads.submit(
                            self._execute_with_retry, plan[dispatched], workers
                        )
                        running[future] = workers
                        dispatched += 1
                        report.peak_dispatch_ahead = max(
                            report.peak_dispatch_ahead, len(running)
                        )
                    if not running:
                        break
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in finished:
                        outcome = future.result()
                        self._account(outcome, report, planned[outcome.shard])
                        if self.on_shard is not None:
                            self.on_shard(outcome)
                        if (
                            policy.stop_after_shards is not None
                            and report.shards_executed >= policy.stop_after_shards
                        ):
                            self.request_drain()
                        free.append(running.pop(future))
        finally:
            for workers in pools:
                workers.close()

        report.shards_skipped = len(plan) - dispatched
        report.drained = self._drain_requested and not report.complete
        report.elapsed_s = time.perf_counter() - started_at
        if self.reporter is not None:
            self.reporter.finish(self.reporter.snapshot())
        return report

    def _account(
        self, outcome: ShardOutcome, report: FleetReport, planned_done: int
    ) -> None:
        done = outcome.done
        if outcome.error is not None:
            done = self.store.segment_trials(outcome.shard)
        report.completed_trials += done - planned_done
        report.shards_executed += 1
        report.shard_retries += outcome.attempts - 1
        if outcome.error is not None or outcome.failed:
            report.shards_failed += 1
        report.failed_trials += outcome.failed
        if self.reporter is not None:
            for record in outcome.records:
                if not record.cached:
                    self.reporter.update(record)
        outcome.records = []  # the store holds them; keep RSS constant


def run_fleet(
    campaign: Campaign,
    root=DEFAULT_FLEET_DIR,
    policy: Optional[FleetPolicy] = None,
    priority: Optional[Callable[[ShardSpec], float]] = None,
    reporter: Optional["ProgressReporter"] = None,
    meta: Optional[Dict] = None,
) -> "tuple[FleetReport, FleetStore]":
    """Shard, schedule, and run one campaign.

    Creates (or reopens) the campaign's fleet store under ``root``,
    persists run metadata, and drives every pending shard.  Safe to call
    repeatedly: finished work is never redone.
    """
    policy = policy or FleetPolicy()
    store = FleetStore(root, campaign, policy.shard_size)
    store.write_meta(meta)
    scheduler = FleetScheduler(
        campaign, store, policy, priority=priority, reporter=reporter
    )
    return scheduler.run(), store
