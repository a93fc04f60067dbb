"""Shared-nothing campaign execution: forked workers, serial parity.

The engine's contract is *determinism*: a trial's outcome is a pure
function of its ``(fn, config, seed)`` spec, so the executor may run
trials in any order on any number of workers and still produce results
identical to a serial loop.  Everything here is plumbing in service of
that contract:

* ``jobs > 1`` fans trials out over forked worker processes (fork
  context where available, so trial functions defined in scripts and
  benchmark modules pickle by reference).  Each worker owns one duplex
  pipe; a message on it is a chunk of ``batch`` specs, which the worker
  runs one after another before replying with their records.
* The caller keeps two chunks in flight per worker and waits on the
  pipes and the workers' exit sentinels with
  :func:`multiprocessing.connection.wait`, on its own thread: no
  executor, no helper thread, no future.
* The workers come from a :class:`WorkerPool`, which forks them on first
  use and keeps them across calls: a caller that runs many campaigns
  back to back (the fleet scheduler) passes its own pool and pays the
  fork once; otherwise ``run_campaign`` makes a private pool and closes
  it before returning.
* Per-trial timeouts are enforced *inside* the worker with ``SIGALRM``,
  so a runaway trial is cut off without killing its worker.  The alarm
  needs a main thread, so a caller off the main thread that sets a
  timeout always runs its trials in worker processes.
* A worker process dying (OOM, segfault, ``os._exit``) charges one
  attempt to the chunks it held, and only to those; the engine forks a
  fresh worker in its place and resends them, bounding attempts per
  chunk by ``max_retries`` before each of their trials gets a final
  attempt alone and, if that worker dies too, is recorded ``crashed``.
* ``jobs == 1`` — or no worker process can be forked at all (restricted
  sandboxes) — degrades to an in-process serial loop over the same specs.

Results are returned sorted by trial index and, when a
:class:`~repro.exec.journal.CampaignJournal` is supplied, appended to the
journal as they finish so a killed campaign resumes where it stopped.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, Optional, Set, Tuple

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
    ``batch`` is how many trials go to a worker as one message; the
    worker runs them one after another, amortizing send/pickle overhead
    across its trials.  Results are identical for any value, and the
    in-process serial path ignores it.
    """

    jobs: Optional[int] = 1
    timeout_s: Optional[float] = None
    max_retries: int = 1
    batch: int = 1

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")

    def resolved_jobs(self) -> int:
        return default_jobs() if self.jobs is None else self.jobs


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


def _mp_context():
    """Prefer fork so benchmark-module trial functions resolve in workers."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


_dumps = ForkingPickler.dumps
_loads = ForkingPickler.loads


def _decode(payload, specs: List[TrialSpec]) -> List[TrialResult]:
    """A chunk's records from a worker's reply, or ``failed`` records."""
    try:
        return _loads(payload)
    except Exception as exc:  # noqa: BLE001 - a value that will not unpickle
        return [_failed_record(spec, exc) for spec in specs]


#: The caller's end of every live worker's pipe, across all pools.  A
#: forked worker closes its copies, so each end is open only in the
#: caller: closing it (or the caller dying) is the worker's EOF.
_PARENT_ENDS: Set[Connection] = set()


@atexit.register
def _close_parent_ends() -> None:
    # Runs before multiprocessing joins its non-daemonic children at exit,
    # so the workers of a pool left open see EOF and exit.
    for end in list(_PARENT_ENDS):
        end.close()


def _worker_main(conn: Connection) -> None:
    """A worker's loop: run each chunk its pipe delivers, reply with records.

    A chunk is ``(specs, timeout_s)``; the reply is the list of its
    records, in the order the chunks came.  A record that will not
    pickle turns its chunk into ``failed`` records.  The loop ends at
    EOF, or when a reply finds the caller's end closed.
    """
    for end in _PARENT_ENDS:
        end.close()
    _PARENT_ENDS.clear()
    try:
        while True:
            specs, timeout_s = conn.recv()
            records = [_execute_spec(spec, timeout_s) for spec in specs]
            try:
                reply = _dumps(records)
            except Exception as exc:  # noqa: BLE001 - an unpicklable value
                reply = _dumps([_failed_record(spec, exc) for spec in specs])
            conn.send_bytes(reply)
    except (EOFError, OSError):
        pass


class _Worker:
    """One forked worker: its process, the caller's end of its pipe, and
    the keys of the chunks it holds (sent, no reply yet), oldest first."""

    __slots__ = ("process", "conn", "held")

    def __init__(self, process, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.held: List[int] = []


#: Held across every fork (and every close of a caller's end, see
#: ``_stop``).  Shard threads fork concurrently, and a child forked while
#: another thread is between creating a worker's pipe or exit sentinel
#: and closing the parent's copy of the child's end keeps that end open:
#: the other pool then never sees its worker die while the child lives,
#: and a pool reused across shards lives until the run ends.
_FORK_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    # A worker is forked with the lock held; let it fork pools of its own.
    os.register_at_fork(after_in_child=_FORK_LOCK._at_fork_reinit)


class WorkerPool:
    """Worker processes that outlive one :func:`run_campaign` call.

    Forking workers and joining them costs milliseconds, which is as much
    as a whole shard of microsecond trials.  A caller that runs campaigns
    back to back hands the same pool to each call: :meth:`start` forks
    ``jobs`` workers on first use, and they are reused until
    :meth:`close`.  A worker that dies is reaped and a fresh one forked
    in its place, whether it died mid-run or while the pool sat idle.
    ``forks`` counts the worker processes the pool has forked.  One pool
    serves one caller at a time; concurrent callers each own one, so a
    crash in one cannot touch another's trials.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.forks = 0
        self._workers: List[_Worker] = []

    def start(self) -> List[_Worker]:
        """The live workers, forking fresh ones up to ``jobs``.

        Returns the pool's own list, which :meth:`bury` edits.  Raises
        ``OSError`` if no worker is alive and none can be forked.
        """
        for worker in [w for w in self._workers if not w.process.is_alive()]:
            self.bury(worker)
        while len(self._workers) < self.jobs:
            try:
                self._workers.append(self._fork())
            except OSError:
                if not self._workers:
                    raise
                break
        return self._workers

    def _fork(self) -> _Worker:
        """Fork one worker with a duplex pipe: the pool's one fork point."""
        ctx = _mp_context()
        with _FORK_LOCK:
            conn, child_conn = ctx.Pipe()
            try:
                process = ctx.Process(
                    target=_worker_main, args=(child_conn,),
                    name="repro-exec-worker",
                )
                _PARENT_ENDS.add(conn)
                process.start()
            except BaseException:
                _PARENT_ENDS.discard(conn)
                conn.close()
                raise
            finally:
                child_conn.close()
        self.forks += 1
        return _Worker(process, conn)

    def bury(self, worker: _Worker) -> None:
        """Drop a dead worker from the pool: close its pipe, reap it."""
        self._workers.remove(worker)
        _stop([worker])

    def close(self) -> None:
        """Stop every worker; each exits once its chunk in hand is done."""
        workers, self._workers = self._workers, []
        _stop(workers)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _stop(workers: List[_Worker]) -> None:
    """EOF ends each worker's loop; then reap the processes."""
    # Under the lock: a child forked between the two steps would keep an
    # end open that it no longer knows to close, and its worker no EOF.
    with _FORK_LOCK:
        for worker in workers:
            _PARENT_ENDS.discard(worker.conn)
            worker.conn.close()
    for worker in workers:
        worker.process.join()
        worker.process.close()


#: Chunks a worker holds at once: the one it runs and one queued in its
#: pipe, so it starts the next without waiting on the caller.
_CHUNKS_PER_WORKER = 2

#: The largest chunk sent to a worker that already holds one.  Two fit in
#: a pipe's socket buffer, so that send never blocks.  A larger chunk
#: waits for an idle worker, which is reading: sent to a busy one, it
#: could block the caller while that worker blocks sending a reply.
_AHEAD_BYTES = 64 * 1024

#: Sentinel: an isolated final attempt's own worker died — the trial is
#: definitively the crasher, not collateral of a chunk-mate.
_CRASHED = object()


class _ParallelRun:
    """One parallel drain of a set of specs, with crash recovery.

    The dispatch unit is a *chunk* of up to ``policy.batch`` specs, keyed
    by its first trial index, sent to a worker as one message.  Each
    worker holds up to ``_CHUNKS_PER_WORKER`` chunks, and the caller
    waits on every worker's pipe and exit sentinel at once.  A chunk is
    charged an attempt when it is sent; a worker's death sends the
    chunks it held back to the queue (or to their final attempts), which
    is sound because trials are pure functions of their specs.
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

    def run(self, specs: List[TrialSpec], pool: WorkerPool) -> List[TrialSpec]:
        """Execute specs on ``pool``; returns the specs left over if no
        worker process could be made, for the caller to run serially.
        """
        batch = self.policy.batch
        self.chunks: Dict[int, List[TrialSpec]] = {
            specs[i].index: specs[i : i + batch]
            for i in range(0, len(specs), batch)
        }
        self.queue = collections.deque(self.chunks)
        self.attempts: Dict[int, int] = dict.fromkeys(self.chunks, 0)
        self.pickled: Dict[int, bytes] = {}
        try:
            workers = pool.start()
        except OSError:
            return specs
        try:
            while self.chunks:
                self._top_up(workers)
                handles = [w.conn for w in workers]
                handles += [w.process.sentinel for w in workers]
                ready = set(wait(handles))
                dead = []
                for worker in workers:
                    if worker.conn in ready:
                        if not self._receive(worker):
                            dead.append(worker)
                    elif worker.process.sentinel in ready:
                        # It exited: keep every reply it sent first.
                        while worker.conn.poll() and self._receive(worker):
                            pass
                        dead.append(worker)
                for worker in dead:
                    self._lose(pool, worker)
                if dead and self.chunks:
                    try:
                        workers = pool.start()  # fresh forks in their place
                    except OSError:
                        return [s for c in self.chunks.values() for s in c]
        except BaseException:
            pool.close()  # its workers may hold chunks nobody will collect
            raise
        return []

    def _top_up(self, workers: List[_Worker]) -> None:
        """Send queued chunks until every worker holds its share; the
        first pass gives each worker one, so a short run spreads out."""
        for depth in range(1, _CHUNKS_PER_WORKER + 1):
            for worker in workers:
                if self.queue and len(worker.held) < depth:
                    self._send(worker)

    def _send(self, worker: _Worker) -> None:
        key = self.queue[0]
        chunk = self.chunks[key]
        try:
            payload = self.pickled.pop(key, None) or _dumps(
                (chunk, self.policy.timeout_s)
            )
        except Exception as exc:  # noqa: BLE001 - an unpicklable spec
            self.queue.popleft()
            self.attempts[key] += 1
            self._finish(key, [_failed_record(spec, exc) for spec in chunk])
            return
        if worker.held and len(payload) > _AHEAD_BYTES:
            self.pickled[key] = payload  # for the next idle worker
            return
        self.queue.popleft()
        self.attempts[key] += 1
        if self.attempts[key] > 1:
            self.retried += len(chunk)
        worker.held.append(key)
        try:
            worker.conn.send_bytes(payload)
        except OSError:
            pass  # it died: its sentinel reports it, and the chunk with it

    def _receive(self, worker: _Worker) -> bool:
        """Emit the worker's next reply; False at EOF (it died)."""
        try:
            payload = worker.conn.recv_bytes()
        except (EOFError, OSError):
            return False
        key = worker.held.pop(0)
        self._finish(key, _decode(payload, self.chunks[key]))
        return True

    def _finish(self, key: int, records: List[TrialResult]) -> None:
        for record in records:
            self.emit(record, self.attempts[key])
        del self.chunks[key]

    def _lose(self, pool: WorkerPool, worker: _Worker) -> None:
        """Reap a dead worker: the chunks it held, each already charged an
        attempt, go back to the queue front while retries remain, and to
        their final attempts once they do not."""
        pool.bury(worker)
        self.restarts += 1
        for key in reversed(worker.held):
            if self.attempts[key] <= self.policy.max_retries:
                self.queue.appendleft(key)
        for key in worker.held:
            if self.attempts[key] > self.policy.max_retries:
                self._final_attempts(key)

    def _final_attempts(self, key: int) -> None:
        records = []
        for spec in self.chunks[key]:
            record = self._final_attempt(spec)
            if record is _CRASHED:
                self.restarts += 1
            if record is _CRASHED or record is None:
                record = TrialResult(
                    index=spec.index,
                    seed=spec.seed,
                    status="crashed",
                    error=(
                        "worker process died; retries exhausted after "
                        f"{self.attempts[key]} attempts"
                    ),
                    attempts=self.attempts[key],
                )
            records.append(record)
        self._finish(key, records)

    def _final_attempt(self, spec: TrialSpec):
        """Re-run one out-of-retries trial alone on a one-worker pool.

        A dead worker cannot say *which* of its trials killed it: a chunk
        dies with its worst trial, and the chunk queued behind it dies
        too, so the culprit and its innocent chunk-mates are
        indistinguishable.  Condemning on that evidence alone marks
        healthy trials crashed.  Because trials are pure functions of
        their specs, the final charged attempt can instead be re-executed
        in isolation, where a death convicts this trial and this trial
        only.  Returns the trial's record, ``_CRASHED`` if the isolated
        worker died too, or ``None`` if no worker could be forked (the
        caller falls back to the historical verdict).
        """
        solo = WorkerPool(1)
        try:
            (worker,) = solo.start()
        except OSError:
            return None
        try:
            try:
                payload = _dumps(([spec], self.policy.timeout_s))
            except Exception as exc:  # noqa: BLE001 - an unpicklable spec
                return _failed_record(spec, exc)
            worker.conn.send_bytes(payload)
            wait([worker.conn, worker.process.sentinel])
            if not worker.conn.poll():
                return _CRASHED
            return _decode(worker.conn.recv_bytes(), [spec])[0]
        except (EOFError, OSError):
            return _CRASHED
        finally:
            solo.close()


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
            chunks = -(-len(pending) // policy.batch)
            workers = WorkerPool(min(policy.resolved_jobs(), chunks))
        try:
            leftover = run.run(pending, workers)
        finally:
            if pool is None:
                workers.close()
        restarts, retried = run.restarts, run.retried

    # Serial path: jobs == 1, a single pending trial, or no worker forked.
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
