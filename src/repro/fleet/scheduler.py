"""The asyncio fleet scheduler: campaigns as a long-running service.

One scheduler drives one campaign run to completion (or graceful drain)
over the existing process-pool executor:

* shards flow through a **bounded priority queue** (``queue_depth``) —
  the placement/priority knob reorders within the buffered window and
  the bound keeps planning memory constant;
* ``max_inflight`` worker tasks execute shards in a thread pool, each
  shard running :func:`repro.exec.run_campaign` against its own store
  segment (so per-trial durability and crash-retry come from the
  engine, unchanged); each worker task owns one
  :class:`~repro.exec.WorkerPool` and reuses its processes for every
  shard it runs, so a run forks and joins them once, not per shard;
* finished-shard summaries pass through a **bounded results queue** to
  the consumer, which accounts them in the run report and the progress
  reporter — a slow consumer therefore stalls dispatch instead of
  piling results in memory (per-shard backpressure), and an
  ``on_shard`` callback that raises stops dispatch, closes the pools and
  propagates out of :meth:`FleetScheduler.run`;
* a shard whose workers crashed retries with exponential backoff
  (``shard_retries`` / ``retry_backoff_s``) before its failures stand;
* :meth:`FleetScheduler.request_drain` stops new dispatch, finishes
  in-flight shards, flushes, and returns a partial report — the
  graceful-shutdown path (SIGINT/SIGTERM in the CLI).

Everything the scheduler does is restartable: trial results are durable
in the store as shards execute, so a SIGKILL at any point loses at most
each in-flight shard's unflushed tail, and ``resume`` re-plans the same
shards and completes the remainder.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Union

from ..exec.executor import ExecPolicy, WorkerPool, run_campaign
from ..exec.spec import Campaign
from .sharding import DEFAULT_SHARD_SIZE, ShardSpec, order_shards, shard_subcampaign
from .store import DEFAULT_FLEET_DIR, FleetStore


@dataclasses.dataclass(frozen=True)
class FleetPolicy:
    """How the fleet runs a campaign (the campaign says *what* runs).

    ``jobs_per_shard`` sizes each shard thread's pool, reused across its
    shards (CPU fan-out); ``max_inflight`` bounds concurrently executing
    shards (pipeline overlap), so a run keeps up to ``max_inflight *
    jobs_per_shard`` worker processes; ``queue_depth`` /
    ``result_buffer`` bound the dispatch and results queues
    (backpressure).  ``batch`` is how many of a shard's
    trials go to one of its workers as a single pool task (see
    :class:`repro.exec.ExecPolicy`).  Shards run on scheduler threads,
    where a ``SIGALRM`` cannot fire, so a ``timeout_s`` runs every
    shard's trials in worker processes even at ``jobs_per_shard=1``.
    ``stop_after_shards`` is an ops/test knob: drain gracefully once
    that many shards finished this run.
    """

    shard_size: int = DEFAULT_SHARD_SIZE
    max_inflight: int = 2
    jobs_per_shard: int = 1
    queue_depth: int = 8
    result_buffer: int = 4
    shard_retries: int = 2
    retry_backoff_s: float = 0.05
    timeout_s: Optional[float] = None
    trial_retries: int = 1
    flush_every: int = 64
    batch: int = 1
    stop_after_shards: Optional[int] = None

    def __post_init__(self) -> None:
        for field in ("shard_size", "max_inflight", "jobs_per_shard",
                      "queue_depth", "result_buffer", "flush_every", "batch"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")


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
    """Async shard scheduler over one campaign and its results store."""

    def __init__(
        self,
        campaign: Campaign,
        store: FleetStore,
        policy: Optional[FleetPolicy] = None,
        priority: Optional[Callable[[ShardSpec], float]] = None,
        reporter: Optional["ProgressReporter"] = None,
        on_shard: Optional[
            Callable[[ShardOutcome], Union[None, Awaitable[None]]]
        ] = None,
    ) -> None:
        self.campaign = campaign
        self.store = store
        self.policy = policy or FleetPolicy()
        self.priority = priority
        self.reporter = reporter
        self.on_shard = on_shard
        self._drain_requested = False
        self._drain_event: Optional[asyncio.Event] = None
        # Backpressure instrumentation: shards started minus shards whose
        # results the consumer has fully processed, and its peak.
        self._started = 0
        self._consumed = 0
        self._peak_ahead = 0

    # -- external control --------------------------------------------------

    def request_drain(self) -> None:
        """Stop dispatching new shards; finish in-flight ones and return."""
        self._drain_requested = True
        if self._drain_event is not None:
            self._drain_event.set()

    @property
    def draining(self) -> bool:
        return self._drain_requested

    # -- shard execution (runs in a worker thread) -------------------------

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

    async def _execute_with_retry(
        self, shard: ShardSpec, threads, workers: WorkerPool
    ) -> ShardOutcome:
        """Run a shard, retrying crashed/failed trials with backoff.

        The store segment persists finished trials across attempts, so a
        retry only re-runs the trials that did not complete.  Every
        attempt runs on the caller's ``workers``.
        """
        loop = asyncio.get_running_loop()
        outcome: Optional[ShardOutcome] = None
        for attempt in range(self.policy.shard_retries + 1):
            if attempt:
                await asyncio.sleep(
                    self.policy.retry_backoff_s * (2 ** (attempt - 1))
                )
            try:
                outcome = await loop.run_in_executor(
                    threads, self._run_shard_once, shard, workers
                )
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                outcome = ShardOutcome(
                    shard=shard, error=f"{type(exc).__name__}: {exc}"
                )
            outcome.attempts = attempt + 1
            if outcome.error is None and outcome.failed == 0:
                break
        return outcome

    # -- the service loop --------------------------------------------------

    async def run(
        self, shards: Optional[Sequence[ShardSpec]] = None
    ) -> FleetReport:
        """Drive pending shards to completion (or drain) and report."""
        policy = self.policy
        started_at = time.perf_counter()
        if shards is None:
            shards = self.store.pending_shards()
        plan = order_shards(shards, self.priority)
        already_done = self.store.completed_trials()

        report = FleetReport(
            run_id=self.store.run_id,
            fingerprint=self.store.fingerprint,
            total_trials=len(self.campaign),
            n_shards=len(self.store.shards),
        )
        if self.reporter is not None:
            self.reporter.start(
                f"fleet:{self.campaign.name}",
                total=len(self.campaign),
                cached=already_done,
            )

        self._drain_event = asyncio.Event()
        if self._drain_requested:
            self._drain_event.set()
        queue: asyncio.PriorityQueue = asyncio.PriorityQueue(
            maxsize=policy.queue_depth
        )
        results: asyncio.Queue = asyncio.Queue(maxsize=policy.result_buffer)
        n_workers = min(policy.max_inflight, max(1, len(plan)))

        async def feeder() -> None:
            rank = {s.shard_id: i for i, s in enumerate(plan)}
            for shard in sorted(plan, key=lambda s: s.shard_id):
                if self._drain_event.is_set():
                    break
                await queue.put((rank[shard.shard_id], shard.shard_id, shard))
            for _ in range(n_workers):
                await queue.put((len(plan), -1, None))

        async def worker(workers: WorkerPool) -> None:
            while True:
                _, _, shard = await queue.get()
                if shard is None:
                    break
                if self._drain_event.is_set():
                    report.shards_skipped += 1
                    continue
                self._started += 1
                self._peak_ahead = max(
                    self._peak_ahead, self._started - self._consumed
                )
                outcome = await self._execute_with_retry(
                    shard, threads, workers
                )
                await results.put(outcome)

        async def consumer() -> None:
            while True:
                outcome = await results.get()
                if outcome is None:
                    break
                self._account(outcome, report)
                if self.on_shard is not None:
                    maybe = self.on_shard(outcome)
                    if asyncio.iscoroutine(maybe):
                        await maybe
                self._consumed += 1
                if (
                    policy.stop_after_shards is not None
                    and report.shards_executed >= policy.stop_after_shards
                ):
                    self.request_drain()

        # One process pool per worker task, forked on its first parallel
        # shard: concurrent shards never share workers, so one shard's
        # crash cannot break another's trials.
        pools = [WorkerPool(policy.jobs_per_shard) for _ in range(n_workers)]
        try:
            with ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix="fleet-shard"
            ) as threads:
                feeder_task = asyncio.create_task(feeder())
                worker_tasks = [
                    asyncio.create_task(worker(workers)) for workers in pools
                ]
                consumer_task = asyncio.create_task(consumer())
                producers = asyncio.gather(feeder_task, *worker_tasks)
                await asyncio.wait(
                    (producers, consumer_task),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if consumer_task.done():
                    # The consumer stops early only by raising (an
                    # ``on_shard`` callback): its workers would block on
                    # the full results queue forever, so stop dispatch and
                    # re-raise.
                    producers.cancel()
                    await asyncio.gather(producers, return_exceptions=True)
                    consumer_task.result()
                await producers
                await results.put(None)
                await consumer_task
        finally:
            for workers in pools:
                workers.close()

        report.completed_trials = self.store.completed_trials()
        report.drained = self._drain_requested and not report.complete
        report.elapsed_s = time.perf_counter() - started_at
        report.peak_dispatch_ahead = self._peak_ahead
        if self.reporter is not None:
            self.reporter.finish(self.reporter.snapshot())
        return report

    def _account(self, outcome: ShardOutcome, report: FleetReport) -> None:
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
    """Synchronous front door: shard, schedule, and run one campaign.

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
    report = asyncio.run(scheduler.run())
    return report, store
