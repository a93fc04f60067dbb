"""The benchmark's workloads: seeded inputs, one trial at a time, checked.

Each workload runs the program through a public entry point.  Each one
exercises one mechanism and bypasses another, so a change can show its
gain on one workload and no change on the others (README.md gives the
reasons for each choice):

* ``scanner-train`` — Section 7.2's offline phase on an undefended
  ``cloud-raw`` pair: bulk construction, then PSD/SVM training and
  held-out accuracy on labelled monitoring windows
  (:func:`repro.defenses.matrix.defense_trial`, defense ``none``, stages
  construct + monitor).  The only workload that monitors.
* ``defended-bulk`` — the same PageOffset BinS bulk construction on a
  ``way-partition`` machine (:func:`repro.defenses.matrix.defense_trial`,
  construct only), where every accelerated memsys tier disengages.
* ``fleet-dispatch`` — microsecond ``noise-mc`` trials through
  :func:`repro.fleet.run_fleet` into a fresh store with 2 worker
  processes and ``batch=16``, ending with the streaming aggregate.

Program modules are imported inside methods, so this registry loads
without the program on the path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Tuple

from .trace import patched

#: Scratch space in the checkout for run records and fleet stores.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclasses.dataclass
class Outcome:
    """One trial's result, checked against the simulator's ground truth.

    ``values`` are seeded and deterministic; they are folded into the
    run's outcome digest, so tracing or a pure-speed change that moves any
    of them shows.  ``units`` is how many program trials the outcome
    covers (a fleet round holds thousands).
    """

    valid: bool
    values: Dict[str, Any]
    units: int = 1
    error: str = ""


#: ``with clock():`` marks the program call a trial times; the harness
#: records its wall seconds (and, when tracing, opens the ``trial`` span
#: around it).  Ground-truth checks stay outside it.
Clock = Callable[[], ContextManager[None]]


@contextlib.contextmanager
def _captured(owner, attr: str, sink: list):
    """Record ``(first argument, result)`` of every call to ``owner.attr``."""

    def factory(fn):
        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((args[0], result))
            return result

        return capture

    with patched([(owner, attr, factory)]):
        yield sink


def check_evsets(ctx, bulk) -> Tuple[int, int]:
    """(valid, total) eviction sets of a bulk result.

    A set counts only if every VA shares its target's true set.
    """
    valid = 0
    for evset in bulk.evsets:
        want = ctx.true_set_of(evset.target_va)
        if all(ctx.true_set_of(va) == want for va in evset.vas):
            valid += 1
    return valid, len(bulk.evsets)


def _bulk_outcome(ctx, bulk, values: Dict[str, Any]) -> Outcome:
    valid, total = check_evsets(ctx, bulk)
    values = dict(
        values,
        evsets=total,
        checked_valid=valid,
        evset_sim_ms=bulk.elapsed_cycles / (ctx.machine.cfg.clock_ghz * 1e6),
    )
    ok = total > 0 and valid == total
    error = "" if ok else f"{total - valid} of {total} eviction sets invalid"
    return Outcome(valid=ok, values=values, error=error)


class Workload:
    """Seeded set-up plus one checked trial at a time."""

    name = ""
    #: Cold set-ups per run; the median is reported.
    setup_reps = 5

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def trial(self, state: Any, seed: int, clock: Clock) -> Outcome:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Remove whatever :meth:`setup` left in the checkout."""


class _DefenseWorkload(Workload):
    """A ``defense_trial`` whose bulk construction is checked."""

    env = "cloud"
    defense = "none"
    stages: Tuple[str, ...] = ("construct",)

    def setup(self, seed: int):
        from repro.defenses import matrix

        matrix.defended_env(self.env, seed, self.defense)
        return matrix.DefenseTrialConfig(
            env=self.env, defense=self.defense, stages=self.stages
        )

    def trial(self, cfg, seed: int, clock: Clock) -> Outcome:
        from repro.defenses import matrix

        with _captured(matrix, "bulk_construct_page_offset", []) as sink:
            with clock():
                sample = matrix.defense_trial(cfg, seed)
        (ctx, bulk), = sink
        outcome = _bulk_outcome(ctx, bulk, dataclasses.asdict(sample))
        if sample.error:
            outcome.valid = False
            outcome.error = sample.error
        elif "monitor" in self.stages and not (
            sample.target_covered and 0.0 <= sample.monitor_accuracy <= 1.0
        ):
            outcome.valid = False
            outcome.error = "monitor stage produced no accuracy"
        return outcome


class DefendedBulk(_DefenseWorkload):
    name = "defended-bulk"
    defense = "way-partition"


class ScannerTrain(_DefenseWorkload):
    name = "scanner-train"
    env = "cloud-raw"
    stages = ("construct", "monitor")


class FleetDispatch(Workload):
    name = "fleet-dispatch"
    #: Trials per fleet round; a round is one fresh-store campaign.
    round_trials = 4000
    #: Every n-th trial of a round is recomputed in-process and compared.
    spot_check_every = 97

    @staticmethod
    def _policy():
        from repro.fleet import FleetPolicy

        return FleetPolicy(
            shard_size=500, max_inflight=1, jobs_per_shard=2, batch=16
        )

    def _campaign(self, seed: int):
        from repro.fleet import noise_mc_campaign

        return noise_mc_campaign(
            env="cloud",
            trials=self.round_trials,
            base_seed=seed,
            name="perfbench-noise-mc",
        )

    def setup(self, seed: int) -> Path:
        """Build a round's campaign and its empty store, then drop it."""
        from repro.fleet import FleetStore

        root = SCRATCH / f"fleet-{os.getpid()}"
        store = FleetStore(
            root / "setup", self._campaign(seed), self._policy().shard_size
        )
        store.write_meta()
        shutil.rmtree(root / "setup")
        return root

    def teardown(self, root: Path) -> None:
        shutil.rmtree(root, ignore_errors=True)

    def trial(self, root: Path, seed: int, clock: Clock) -> Outcome:
        import repro.fleet as fleet
        from repro.analysis import streaming

        where = root / f"round-{seed}"
        try:
            with clock():
                campaign = self._campaign(seed)
                report, store = fleet.run_fleet(campaign, where, self._policy())
                summary = streaming.aggregate_values(
                    v for _, v in store.iter_values()
                )
            return self._check(campaign, report, store, summary)
        finally:
            shutil.rmtree(where, ignore_errors=True)

    def _check(self, campaign, report, store, summary) -> Outcome:
        from repro.fleet import noise_window_trial

        values = dict(store.iter_values())
        n = self.round_trials
        error = ""
        if not report.complete or report.failed_trials:
            error = (
                f"fleet round incomplete: {report.completed_trials}/{n}, "
                f"{report.failed_trials} failed"
            )
        elif summary.get("trials") != n or len(values) != n:
            error = f"aggregate covers {summary.get('trials')} of {n} trials"
        else:
            for i in range(0, n, self.spot_check_every):
                want = noise_window_trial(campaign.configs[i], campaign.seeds[i])
                if values[i] != want:
                    error = f"trial {i} stored {values[i]!r}, expected {want!r}"
                    break
        return Outcome(
            valid=not error, values={"aggregate": summary}, units=n, error=error
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (ScannerTrain(), DefendedBulk(), FleetDispatch())
}