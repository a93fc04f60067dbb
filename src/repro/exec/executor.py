"""Shared-nothing campaign execution: process-pool fan-out, serial parity.

The engine's contract is *determinism*: a trial's outcome is a pure
function of its ``(fn, config, seed)`` spec, so the executor may run
trials in any order on any number of workers and still produce results
identical to a serial loop.  Everything here is plumbing in service of
that contract:

* ``jobs > 1`` fans trials out over a ``ProcessPoolExecutor`` (fork
  context where available, so trial functions defined in scripts and
  benchmark modules pickle by reference).  A pool task is a chunk of
  ``batch`` specs that the worker runs one after another.
* The executor comes from a :class:`WorkerPool`, which forks its workers
  on first use and keeps them across calls: a caller that runs many
  campaigns back to back (the fleet scheduler) passes its own pool and
  pays the fork once; otherwise ``run_campaign`` makes a private pool
  and closes it before returning.
* Per-trial timeouts are enforced *inside* the worker with ``SIGALRM``,
  so a runaway trial is cut off without killing its worker.  The alarm
  needs a main thread, so a caller off the main thread that sets a
  timeout always runs its trials in worker processes.
* A worker process dying (OOM, segfault, ``os._exit``) breaks the pool;
  the engine discards it, forks a fresh one and resubmits the unfinished
  trials, bounding resubmissions per trial by ``max_retries`` before
  recording the trial as ``crashed``.
* ``jobs == 1`` — or a pool that cannot be created at all (restricted
  sandboxes) — degrades to an in-process serial loop over the same specs.

Results are returned sorted by trial index and, when a
:class:`~repro.exec.journal.CampaignJournal` is supplied, appended to the
journal as they finish so a killed campaign resumes where it stopped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.progress import CampaignMetrics
from ..errors import ReproError
from .journal import CampaignJournal
from .spec import Campaign, TrialSpec


class TrialTimeout(ReproError):
    """Raised inside a worker when a trial exceeds its time budget."""


@dataclasses.dataclass(frozen=True)
class ExecPolicy:
    """How to run a campaign (not *what* to run — that's the Campaign).

    ``jobs=None`` means one worker per available core; it decides whether
    a run goes to worker processes at all, and sizes the private pool
    ``run_campaign`` forks when the caller passes no :class:`WorkerPool`
    (a caller's pool keeps its own size).  ``timeout_s`` is the
    per-trial budget (None = unlimited).  ``max_retries`` bounds how
    many times a trial may be resubmitted after worker crashes.
    ``batch`` is how many trials go to a worker as one pool task; the
    task runs them one after another, amortizing submit/pickle overhead
    across its trials.  Results are identical for any value, and the
    in-process serial path ignores it.
    """

    jobs: Optional[int] = 1
    timeout_s: Optional[float] = None
    max_retries: int = 1
    batch: int = 1

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")

    def resolved_jobs(self) -> int:
        if self.jobs is None:
            return default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        return self.jobs


def default_jobs() -> int:
    """Worker count for ``jobs=None``: the cores this process may use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclasses.dataclass(frozen=True)
class TrialResult:
    """One trial's outcome as the engine records it."""

    index: int
    seed: int
    status: str  # "ok" | "failed" | "timeout" | "crashed"
    value: object = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    attempts: int = 1
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """All trial records of one campaign run, in trial-index order."""

    name: str
    fingerprint: str
    records: Tuple[TrialResult, ...]
    metrics: CampaignMetrics

    def values(self) -> List[object]:
        """Successful results in campaign order — worker-count invariant."""
        return [r.value for r in self.records if r.ok]

    def failures(self) -> List[TrialResult]:
        return [r for r in self.records if not r.ok]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def raise_on_failure(self) -> "CampaignResult":
        """Propagate the first failure like a serial loop would have."""
        for rec in self.records:
            if not rec.ok:
                raise ReproError(
                    f"campaign {self.name!r} trial {rec.index} "
                    f"(seed {rec.seed}) {rec.status}: {rec.error}"
                )
        return self


@contextlib.contextmanager
def _trial_alarm(timeout_s: Optional[float]):
    """Raise :class:`TrialTimeout` after ``timeout_s`` wall seconds.

    Uses ``SIGALRM``; silently a no-op off the main thread or on
    platforms without ``setitimer`` (the trial then just runs to
    completion).  :func:`run_campaign` therefore sends timed trials of
    a caller off the main thread to worker processes.
    """
    usable = (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise TrialTimeout(f"trial exceeded {timeout_s:g}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _failed_record(spec: TrialSpec, exc: BaseException) -> TrialResult:
    return TrialResult(
        index=spec.index,
        seed=spec.seed,
        status="failed",
        error=f"{type(exc).__name__}: {exc}",
    )


def _execute_spec(spec: TrialSpec, timeout_s: Optional[float]) -> TrialResult:
    """Run one trial in this process, mapping outcomes to a record."""
    start = time.perf_counter()
    try:
        with _trial_alarm(timeout_s):
            value = spec.fn(spec.config, spec.seed)
        status, error = "ok", None
    except TrialTimeout as exc:
        value, status, error = None, "timeout", str(exc)
    except Exception as exc:  # noqa: BLE001 - the record carries the error
        value, status, error = None, "failed", f"{type(exc).__name__}: {exc}"
    return TrialResult(
        index=spec.index,
        seed=spec.seed,
        status=status,
        value=value,
        error=error,
        elapsed_s=time.perf_counter() - start,
    )


def _pool_worker(
    specs: List[TrialSpec], timeout_s: Optional[float]
) -> List[TrialResult]:
    """Top-level pool entry point (must be picklable by reference)."""
    return [_execute_spec(spec, timeout_s) for spec in specs]


def _mp_context():
    """Prefer fork so benchmark-module trial functions resolve in workers."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None


class WorkerPool:
    """Worker processes that outlive one :func:`run_campaign` call.

    Forking a pool and joining it costs milliseconds, which is as much as
    a whole shard of microsecond trials.  A caller that runs campaigns
    back to back hands the same pool to each call: the workers are
    forked lazily on the first :meth:`get` and reused until
    :meth:`close`.  A pool broken by a dying worker is dropped with
    :meth:`discard`, and the next :meth:`get` forks a fresh one.  One
    pool serves one caller at a time; concurrent callers each own one,
    so a crash in one cannot break another's trials.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._executor: Optional[ProcessPoolExecutor] = None

    def get(self) -> ProcessPoolExecutor:
        """The live executor, forking one if there is none."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_mp_context()
            )
        return self._executor

    def discard(self, executor: ProcessPoolExecutor) -> None:
        """Shut ``executor`` down and forget it; :meth:`get` forks anew.

        Waits for the executor's running tasks, like leaving its ``with``.
        """
        if self._executor is executor:
            self._executor = None
        executor.shutdown(wait=True)

    def close(self) -> None:
        if self._executor is not None:
            self.discard(self._executor)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Held across every ``submit``: a fork-context executor forks all its
#: workers inside its first one.  Shard threads fork concurrently, and a
#: child forked while another thread is between creating a worker and
#: closing the parent's copy of that worker's exit pipe keeps the pipe
#: open.  The other pool then never sees its worker die while the child
#: lives, and a pool reused across shards lives until the run ends.
_FORK_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    # A worker is forked with the lock held; let it fork pools of its own.
    os.register_at_fork(after_in_child=_FORK_LOCK._at_fork_reinit)


#: Sentinel: an isolated final attempt's own pool died — the trial is
#: definitively the crasher, not collateral of a pool-mate.
_CRASHED = object()


class _ParallelRun:
    """One parallel drain of a set of specs, with crash recovery.

    The dispatch unit is a *group* of up to ``policy.batch`` specs, one
    pool task each.  Crash retry bookkeeping is per group — a worker
    death re-runs the whole group, which is sound because trials are
    pure functions of their specs.
    """

    def __init__(
        self,
        policy: ExecPolicy,
        emit: Callable[[TrialResult, Optional[int]], None],
    ):
        self.policy = policy
        self.emit = emit
        self.restarts = 0
        self.retried = 0

    def _submit(self, executor, group: List[TrialSpec]):
        with _FORK_LOCK:
            return executor.submit(_pool_worker, group, self.policy.timeout_s)

    def _final_attempt(self, spec: TrialSpec):
        """Re-run one out-of-retries trial alone in a one-worker pool.

        A broken shared pool cannot say *which* trial killed the worker:
        every in-flight future reports ``BrokenProcessPool``, and a
        group's own task dies with its worst trial, so the culprit and
        its innocent pool- and group-mates are indistinguishable.
        Condemning on that evidence alone marks healthy trials crashed.
        Because trials are pure functions of their specs, the final
        charged attempt can instead be re-executed in isolation, where a
        breakage convicts this trial and this trial only.  Returns the
        trial's record, ``_CRASHED`` if the isolated pool died too, or
        ``None`` if no pool could be made (caller falls back to the
        historical verdict).
        """
        try:
            pool = ProcessPoolExecutor(max_workers=1, mp_context=_mp_context())
        except (OSError, ValueError, PermissionError):
            return None
        try:
            with pool:
                return self._submit(pool, [spec]).result()[0]
        except (BrokenProcessPool, OSError, RuntimeError):
            return _CRASHED
        except Exception as exc:  # noqa: BLE001 - worker-raised, pool healthy
            return _failed_record(spec, exc)

    def _round(self, workers: WorkerPool, executor, pending, attempts):
        """Submit every pending group to ``executor`` and collect results.

        Returns ``None`` if not one group could be submitted, else whether
        a worker died.  A broken executor is discarded before returning,
        after every result that landed before the breakage was emitted.
        """
        futures = {}
        try:
            for key, group in pending.items():
                futures[self._submit(executor, group)] = key
                attempts[key] += 1
                if attempts[key] > 1:
                    self.retried += len(group)
        except (OSError, RuntimeError, BrokenProcessPool):
            if not futures:
                return None
            broken = True
        else:
            broken = False
        not_done = set(futures)
        while not_done and not broken:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                key = futures[future]
                try:
                    records = future.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                except Exception as exc:  # noqa: BLE001
                    records = [_failed_record(spec, exc) for spec in pending[key]]
                for record in records:
                    self.emit(record, attempts[key])
                pending.pop(key)
        if broken:
            # Let any still-healthy workers finish, then harvest every
            # result that landed before the breakage so it is not
            # re-executed after the restart.
            workers.discard(executor)
            for future, key in futures.items():
                if key not in pending or not future.done():
                    continue
                try:
                    records = future.result()
                except Exception:  # noqa: BLE001
                    continue
                for record in records:
                    self.emit(record, attempts[key])
                pending.pop(key)
        return broken

    def run(self, specs: List[TrialSpec], workers: WorkerPool) -> List[TrialSpec]:
        """Execute specs on ``workers``; returns the specs left over if
        no worker process could be made, for the caller to run serially.
        """
        batch = self.policy.batch
        groups = [specs[i : i + batch] for i in range(0, len(specs), batch)]
        pending: Dict[int, List[TrialSpec]] = {g[0].index: g for g in groups}
        attempts: Dict[int, int] = {key: 0 for key in pending}
        reforked = False
        while pending:
            try:
                executor = workers.get()
            except (OSError, ValueError, PermissionError):
                return [s for g in pending.values() for s in g]
            try:
                broken = self._round(workers, executor, pending, attempts)
            except BaseException:
                workers.discard(executor)
                raise
            if broken is None:
                # Nothing could be submitted: either no worker can be
                # spawned here, or a reused pool lost a worker while
                # idle.  One fresh fork tells the two apart.
                workers.discard(executor)
                if reforked:
                    return [s for g in pending.values() for s in g]
                reforked = True
                continue
            if broken:
                self.restarts += 1
                for key, group in list(pending.items()):
                    if attempts[key] <= self.policy.max_retries:
                        continue  # gets another shared round
                    for spec in group:
                        record = self._final_attempt(spec)
                        if record is _CRASHED:
                            self.restarts += 1
                        if record is _CRASHED or record is None:
                            record = TrialResult(
                                index=spec.index,
                                seed=spec.seed,
                                status="crashed",
                                error=(
                                    "worker process died; retries "
                                    f"exhausted after {attempts[key]} "
                                    "attempts"
                                ),
                                attempts=attempts[key],
                            )
                        self.emit(record, attempts[key])
                    pending.pop(key)
        return []


def run_campaign(
    campaign: Campaign,
    policy: Optional[ExecPolicy] = None,
    journal: Optional[CampaignJournal] = None,
    reporter: Optional["ProgressReporter"] = None,
    pool: Optional[WorkerPool] = None,
) -> CampaignResult:
    """Execute ``campaign`` under ``policy`` and return ordered results.

    With a journal, previously finished trials are served from disk
    (``cached=True`` records) and fresh ones are appended as they
    complete.  With a reporter, progress lines stream while running.
    With a ``pool``, trials that go to worker processes run on its
    workers, which stay up for the caller's next call; without one, a
    private pool is forked and closed before returning.
    """
    from .progress import ProgressReporter  # local: avoid import cycle

    policy = policy or ExecPolicy()
    specs = campaign.trials()
    fingerprint = journal.fingerprint if journal else campaign.fingerprint()

    records: Dict[int, TrialResult] = {}
    if journal is not None:
        for index, obj in journal.load_completed().items():
            records[index] = TrialResult(
                index=index,
                seed=obj["seed"],
                status="ok",
                value=obj["value"],
                elapsed_s=obj.get("elapsed_s", 0.0),
                attempts=obj.get("attempts", 1),
                cached=True,
            )
    cached = len(records)
    pending = [s for s in specs if s.index not in records]

    if reporter is None:
        reporter = ProgressReporter(enabled=False)
    reporter.start(campaign.name, total=len(specs), cached=cached)

    started = time.perf_counter()
    attempts_seen: Dict[int, int] = {}

    def emit(record: TrialResult, known_attempts: Optional[int] = None) -> None:
        if known_attempts is not None and record.attempts != known_attempts:
            record = dataclasses.replace(record, attempts=known_attempts)
        records[record.index] = record
        if journal is not None:
            journal.append(record)
        reporter.update(record)

    # SIGALRM only fires on the main thread, so a caller off it (a fleet
    # shard runs on a scheduler thread) honours a timeout only by running
    # its trials on the main threads of worker processes.
    timed_off_main = (
        policy.timeout_s is not None
        and threading.current_thread() is not threading.main_thread()
    )
    restarts = retried = 0
    leftover = pending
    if pending and (
        timed_off_main or (policy.resolved_jobs() > 1 and len(pending) > 1)
    ):
        run = _ParallelRun(policy, emit)
        workers = pool
        if pool is None:
            groups = -(-len(pending) // policy.batch)
            workers = WorkerPool(min(policy.resolved_jobs(), groups))
        try:
            leftover = run.run(pending, workers)
        finally:
            if pool is None:
                workers.close()
        restarts, retried = run.restarts, run.retried

    # Serial path: jobs == 1, a single pending trial, or pool unavailable.
    for spec in leftover:
        emit(_execute_spec(spec, policy.timeout_s))

    elapsed = time.perf_counter() - started
    ordered = tuple(records[i] for i in sorted(records))
    executed = [r for r in ordered if not r.cached]
    metrics = CampaignMetrics(
        total=len(specs),
        completed=len(executed),
        cached=cached,
        failed=sum(1 for r in ordered if not r.ok),
        retried=retried,
        pool_restarts=restarts,
        elapsed_s=elapsed,
    )
    reporter.finish(metrics)
    return CampaignResult(
        name=campaign.name,
        fingerprint=fingerprint,
        records=ordered,
        metrics=metrics,
    )
