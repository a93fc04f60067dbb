"""Which public functions the traced run wraps, and the per-layer metrics.

Layer names follow the program's modules:

* ``memsys.kernel`` — the context's kernel bundle (``AttackKernels`` and
  its lane/vec subclasses) plus the ``Machine`` batch APIs; a kernel that
  calls another kernel counts once.
* ``env.build`` — machine build and attacker calibration.
* ``evset.*`` — bulk construction (``core.evset.bulk``): candidate pools,
  L2 filtering, SF pruning, and the group/dedup loop around them.
* ``monitor.window`` — ``core.monitor.monitor_set`` as the scanner calls it.
* ``scan.train_collect`` — labelled training collection (``core.scanner``).
* ``dsp.featurize`` / ``ml.fit`` / ``ml.predict`` — the PSD features and
  the SVM.
* ``fleet.run`` / ``fleet.shard`` / ``fleet.aggregate`` — the fleet
  scheduler, one shard's ``exec.run_campaign``, and the streaming
  aggregate.  Trial bodies run in worker processes; their time comes
  from the engine's per-trial records.

Self times are reported as shares of the traced trials' wall time, so
they add up to 100% with ``trace.unattributed_pct`` (time inside a trial
that no wrapped call covers).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from .trace import Patch, Tracer

KERNEL_METHODS = (
    "flush_rows",
    "load_sweep",
    "store_sweep",
    "prime_probe_kernel",
    "traverse_kernel",
    "test_eviction_kernel",
    "test_many_kernel",
)
MACHINE_BATCH_METHODS = (
    "access_batch",
    "access_parallel",
    "probe_batch",
    "access_chase",
    "flush_batch",
)

#: Per-layer self-time shares: metric name -> span names.
SHARES = {
    "memsys.kernel_pct": ("memsys.kernel",),
    "env.build_pct": ("env.build",),
    "evset.bulk_pct": ("evset.bulk",),
    "evset.candidates_pct": ("evset.candidates",),
    "evset.filter_pct": ("evset.filter",),
    "evset.prune_pct": ("evset.prune",),
    "monitor.window_pct": ("monitor.window",),
    "scan.train_collect_pct": ("scan.train_collect",),
    "dsp.featurize_pct": ("dsp.featurize",),
    "ml.fit_pct": ("ml.fit",),
    "ml.predict_pct": ("ml.predict",),
    "fleet.aggregate_pct": ("fleet.aggregate",),
}


class Probe:
    """Program objects the traced trials touched."""

    def __init__(self) -> None:
        self.machines: List[object] = []
        self.peak_dispatch_ahead = 0


def layer_patches(tracer: Tracer, probe: Probe) -> List[Patch]:
    """Every wrapper the traced run installs (see the module docstring)."""
    import repro.fleet as fleet
    from repro.analysis import streaming
    from repro.core import scanner
    from repro.core.evset import bulk
    from repro.defenses import matrix
    from repro.fleet import scheduler
    from repro.memsys.kernels import AttackKernels
    from repro.memsys.lanes import LaneKernels
    from repro.memsys.machine import Machine
    from repro.memsys.vec import VecKernels

    def timed(name, after=None, flat_prefix=None):
        return lambda fn: tracer.wrap(name, fn, after, flat_prefix)

    def built(tracer, args, result):
        probe.machines.append(result[0])

    def pruned(tracer, args, outcome):
        tracer.count("evset.tests", outcome.stats.tests)

    def window(tracer, args, trace):
        ghz = args[0].ctx.machine.cfg.clock_ghz
        tracer.count("monitor.sim_us", (trace.end - trace.start) / (ghz * 1e3))

    def shard(tracer, args, result):
        for record in result.records:
            tracer.count("exec.trials")
            tracer.count("exec.retries", record.attempts - 1)
            tracer.count("exec.trial_body_s", record.elapsed_s)

    def fleet_run(tracer, args, result):
        report, _store = result
        tracer.count("fleet.shards", report.shards_executed)
        probe.peak_dispatch_ahead = max(
            probe.peak_dispatch_ahead, report.peak_dispatch_ahead
        )

    def engaged(fn):
        def counted(self):
            verdict = fn(self)
            tracer.count("memsys.engaged_calls")
            if verdict:
                tracer.count("memsys.engaged_true")
            return verdict

        return counted

    kernel = timed("memsys.kernel", flat_prefix="memsys.")
    patches: List[Patch] = [
        (cls, name, kernel)
        for cls in (AttackKernels, LaneKernels, VecKernels)
        for name in KERNEL_METHODS
        if name in vars(cls)
    ]
    patches += [(Machine, name, kernel) for name in MACHINE_BATCH_METHODS]
    patches += [
        (AttackKernels, "engaged", engaged),
        (matrix, "defended_env", timed("env.build", built)),
        (matrix, "bulk_construct_page_offset", timed("evset.bulk")),
        (bulk, "build_candidate_set", timed("evset.candidates")),
        (bulk, "build_l2_eviction_set", timed("evset.filter")),
        (bulk, "filter_candidates", timed("evset.filter")),
        (bulk, "construct_sf_evset", timed("evset.prune", pruned)),
        (scanner, "monitor_set", timed("monitor.window", window)),
        (matrix, "collect_labeled_traces", timed("scan.train_collect")),
        (scanner.TargetSetClassifier, "featurize", timed("dsp.featurize")),
        (scanner.TargetSetClassifier, "fit", timed("ml.fit")),
        (scanner.TargetSetClassifier, "predict", timed("ml.predict")),
        (fleet, "run_fleet", timed("fleet.run", fleet_run)),
        (scheduler, "run_campaign", timed("fleet.shard", shard)),
        (streaming, "aggregate_values", timed("fleet.aggregate")),
    ]
    return patches


def pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    probe: Probe,
    traced_wall: Sequence[float],
    plain_wall: Sequence[float],
    outcomes: Sequence[Dict],
) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    ``traced_wall`` / ``plain_wall`` are the program wall times of the
    same trials with tracing on and off; ``outcomes`` their checked
    outcome values.  Counts are per trial.
    """
    from repro.analysis import dataplane_summary

    wall = sum(traced_wall)
    n = max(1, len(traced_wall))
    self_s, total_s, counts = tracer.self_s, tracer.total_s, tracer.counts
    out = {
        name: pct(sum(self_s.get(s, 0.0) for s in spans), wall)
        for name, spans in SHARES.items()
    }
    # Shard threads and worker processes do not nest under the caller's
    # span stack: split the fleet call by subtraction instead.
    body = counts.get("exec.trial_body_s", 0.0)
    shard_s = total_s.get("fleet.shard", 0.0)
    out["fleet.run_pct"] = pct(total_s.get("fleet.run", 0.0) - shard_s, wall)
    out["fleet.shard_pct"] = pct(shard_s - body, wall)
    out["exec.trial_body_pct"] = pct(body, wall)
    fleet_wall = total_s.get("fleet.run", 0.0)
    out["exec.dispatch_pct"] = pct(fleet_wall - body, wall) if fleet_wall else 0.0
    attributed = sum(out[k] for k in out if k != "exec.dispatch_pct")
    out["trace.unattributed_pct"] = 100.0 - attributed if wall else 0.0
    # Inclusive stage shares (children counted), to say which stage
    # dominates; the self shares above say which layer inside it does.
    out["stage.construct_pct"] = pct(total_s.get("evset.bulk", 0.0), wall)
    out["stage.monitor_pct"] = pct(total_s.get("monitor.window", 0.0), wall)

    plane = {"batch_lines": 0.0, "llc_policy_fills": 0.0, "sf_policy_victims": 0.0}
    sim_cycles = 0
    for machine in probe.machines:
        summary = dataplane_summary(machine)
        for key in plane:
            plane[key] += summary[key]
        sim_cycles += machine.now
    out.update({
        "memsys.kernel_calls": tracer.calls.get("memsys.kernel", 0) / n,
        "memsys.batch_lines": plane["batch_lines"] / n,
        "memsys.llc_fills": plane["llc_policy_fills"] / n,
        "memsys.sf_victims": plane["sf_policy_victims"] / n,
        "memsys.sim_cycles_per_s": ratio(sim_cycles, sum(plain_wall)),
        "memsys.accel_engaged": ratio(
            counts.get("memsys.engaged_true", 0.0),
            counts.get("memsys.engaged_calls", 0.0),
        ),
        "evset.tests": counts.get("evset.tests", 0.0) / n,
        "evset.valid_frac": ratio(
            sum(o.get("checked_valid", 0) for o in outcomes),
            sum(o.get("evsets", 0) for o in outcomes),
        ),
        "monitor.windows": tracer.calls.get("monitor.window", 0) / n,
        "monitor.sim_us": counts.get("monitor.sim_us", 0.0) / n,
        "ml.predict_calls": tracer.calls.get("ml.predict", 0) / n,
        "exec.trials": counts.get("exec.trials", 0.0),
        "exec.retries": counts.get("exec.retries", 0.0),
        "fleet.shards": counts.get("fleet.shards", 0.0),
        "fleet.peak_dispatch_ahead": float(probe.peak_dispatch_ahead),
        "trace.overhead_pct": pct(
            statistics.median(traced_wall) - statistics.median(plain_wall),
            statistics.median(plain_wall),
        ),
        "outcome.evset_sim_ms": _median_of(outcomes, "evset_sim_ms"),
        "outcome.monitor_accuracy": _median_of(outcomes, "monitor_accuracy"),
    })
    return out


def _median_of(outcomes: Sequence[Dict], key: str) -> float:
    values = [o[key] for o in outcomes if key in o]
    return statistics.median(values) if values else 0.0
