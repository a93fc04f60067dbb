"""Run one workload for a fixed time and turn its trials into metrics.

An untraced run (``trace=False``) reports the end-to-end metrics:

* ``trials_per_s`` — program trials completed per second of program
  wall time, set-up and ground-truth checks excluded (the record keeps
  every trial's wall time);
* ``setup_s`` — median wall time of the workload's cold set-ups, each
  in a fresh interpreter (start Python, import the program, build the
  workload's state);
* ``peak_rss_mb`` — peak resident memory of this process or, if larger,
  of any worker process it waited for.

A traced run alternates each trial untraced and traced on the same seed,
asserts their outcome digests are equal, and reports the per-layer
metrics of :mod:`perfbench.layers`.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .layers import Probe, layer_metrics, layer_patches
from .trace import Tracer, patched
from .workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent


def metric_units() -> Dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def trial_seed(seed: int, index: int) -> int:
    """The program seed of trial ``index`` of a run seeded ``seed``."""
    return seed * 1000 + index


def import_program() -> None:
    """Import every program module a workload calls."""
    import repro.analysis  # noqa: F401
    import repro.check.digest  # noqa: F401
    import repro.defenses.matrix  # noqa: F401
    import repro.fleet  # noqa: F401


_SETUP_SCRIPT = """
import sys
sys.path[:0] = {paths!r}
from perfbench import harness
from perfbench.workloads import WORKLOADS
harness.import_program()
workload = WORKLOADS[{name!r}]
workload.teardown(workload.setup({seed!r}))
"""


def setup_seconds(name: str, seed: int, reps: int) -> List[float]:
    """Wall seconds of ``reps`` cold set-ups, each in a fresh interpreter.

    A set-up is what a user pays before the first trial: start Python,
    import the program, and build the workload's state.
    """
    script = _SETUP_SCRIPT.format(
        paths=[str(ROOT / "src"), str(ROOT)], name=name, seed=seed
    )
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time up to
        # the next 50 ms.
        subprocess.run([sys.executable, "-c", script], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_stamp() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class _Trials:
    """Wall times and outcomes of one run's trials."""

    def __init__(self) -> None:
        self.seeds: List[int] = []
        self.wall: List[float] = []
        self.outcomes: List[Outcome] = []

    @contextlib.contextmanager
    def clock(self, tracer: Optional[Tracer] = None) -> Iterator[None]:
        start = time.perf_counter()
        try:
            if tracer is None:
                yield
            else:
                with tracer.span("trial"):
                    yield
        finally:
            self.wall.append(time.perf_counter() - start)

    def run(
        self, workload, state, seed: int, tracer: Optional[Tracer] = None
    ) -> Outcome:
        # Collect the previous trial's garbage outside the timed call, so
        # neither its collection cost nor its memory lands on this trial.
        gc.collect()
        outcome = workload.trial(state, seed, lambda: self.clock(tracer))
        self.seeds.append(seed)
        self.outcomes.append(outcome)
        return outcome

    @property
    def units(self) -> int:
        return sum(o.units for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.units for o in self.outcomes if not o.valid)

    def errors(self) -> List[str]:
        return [f"seed {s}: {o.error}" for s, o in zip(self.seeds, self.outcomes)
                if not o.valid]


def run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict, Dict]:
    """Run workload ``name``; return (result object, run record)."""
    from repro.check.digest import obj_digest

    workload = WORKLOADS[name]
    started_unix = time.time()
    setup_times = [] if trace else setup_seconds(name, seed, workload.setup_reps)
    state = workload.setup(seed)
    plain = _Trials()
    traced = _Trials()
    tracer = Tracer()
    probe = Probe()
    errors: List[str] = []
    deadline = time.perf_counter() + seconds
    index = 0
    try:
        while index == 0 or time.perf_counter() < deadline:
            s = trial_seed(seed, index)
            index += 1
            if not trace:
                plain.run(workload, state, s)
                continue
            # Alternate which side runs first, so warm-up lands on both.
            if index % 2:
                first = plain.run(workload, state, s)
            with patched(layer_patches(tracer, probe)):
                second = traced.run(workload, state, s, tracer)
            if not index % 2:
                first = plain.run(workload, state, s)
            if obj_digest(first.values) != obj_digest(second.values):
                errors.append(f"seed {s}: traced outcome differs from untraced")
    finally:
        workload.teardown(state)
    errors += plain.errors() + traced.errors()

    if trace:
        metrics = layer_metrics(
            tracer, probe, traced.wall, plain.wall,
            [o.values for o in plain.outcomes],
        )
    else:
        metrics = {
            "trials_per_s": plain.units / sum(plain.wall),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
    units = metric_units()
    attempted = plain.units + traced.units
    failed = plain.failed + traced.failed
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "host": host_stamp(),
        "started_unix": started_unix,
        "trial_seeds": plain.seeds,
        "trial_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
        "setup_s_reps": setup_times,
        "outcome_digest": obj_digest([o.values for o in plain.outcomes]),
        "errors": errors,
        "metrics": metrics,
    }
    return result, record

