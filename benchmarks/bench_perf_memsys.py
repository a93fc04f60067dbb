"""Simulator throughput — reference vs. flat plane vs. kernels vs. lanes.

Not a paper artifact: this benchmark tracks the performance of the
simulator itself across its four generations of hot path:

* **reference** — the seed dict-of-sets cache preserved in
  :mod:`repro.memsys._reference`, swapped into the hierarchy, driven with
  per-line access semantics;
* **batched** — the flat array-backed
  :class:`repro.memsys.cache.SetAssociativeCache` (DESIGN.md §2.2) with
  the ``same_shared_set`` batched Machine APIs, fused kernels disabled
  (:func:`repro.memsys.kernels_disabled`);
* **kernels** — the same flat plane driven through the fused attack
  kernels and the translation plane (DESIGN.md §2.3), lanes disabled
  (:func:`repro.memsys.lanes_disabled`);
* **lanes** — the plan-specialized lane kernels (DESIGN.md §2.4), the
  default path when NumPy is available;
* **vec** — the memo-replay vectorized lane path (DESIGN.md §2.7),
  legal only under the event-keyed RNG contract (``rng_mode="counter"``):
  monitor rounds whose pre-state was seen before replay as slice
  assignments instead of re-simulating, bit-identical to the lanes path
  on the same counter-mode machine (asserted in-bench by digest);
* **batch** — chunked dispatch (DESIGN.md §2.6), measured at the
  campaign level: microsecond trials sent to the pool one per task vs.
  16 per task.

All serial-mode paths run the same workloads and — because the kernels
and lanes are bit-identical by construction — must produce the same
eviction sets; the sanity asserts at the bottom enforce that.  The vec
stage runs under the counter contract, so its outcomes are compared
against a counter-mode lanes control machine instead.  Perf smokes gate
CI: the fused path must not regress below the batched one on the
monitor loop, the lane path must not regress below the plain kernels on
constructions/sec, and the vec path must deliver >= 1.5x lanes
accesses/sec.

``--stages`` selects a comma-separated subset (``ref``/``reference``,
``batched``, ``kernels``, ``lanes``, ``vec``, ``batch``) so CI quick
runs can gate only the stages they care about; cross-stage asserts and
history updates apply only to what was measured.  Every history entry
records ``quick``, ``host`` and ``python`` so appended entries stay
interpretable across machines.

Workloads:

* accesses/sec through the Prime+Probe monitor hot loop (prime + probe
  traversals of a ways-sized SF-congruent eviction set, interleaved
  best-of-N against host noise),
* SF eviction-set constructions/sec (BinS with candidate filtering) —
  the workload the lane plane targets (flush + post-flush sweeps),
* one end-to-end trial (bulk construction + Parallel Probing monitor),
* a cProfile breakdown (top-10 by cumulative time) of lane-path
  eviction-set construction, so the next optimization round starts from
  data.

Results, speedups, the profile, and the data-plane counters
(:func:`repro.analysis.dataplane_summary`) are written to
``BENCH_perf.json``, along with an append-only ``history`` array (one
entry per PR, stage name -> evsets/s, accesses/s, trial seconds) so the
perf trajectory survives reruns instead of being overwritten.

Run directly (``--quick`` shrinks every workload for CI smoke runs)::

    PYTHONPATH=src python benchmarks/bench_perf_memsys.py [--quick]

or through the harness: ``pytest benchmarks/bench_perf_memsys.py``.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import math
import os
import platform
import pstats
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":  # allow `python benchmarks/bench_perf_memsys.py`
    sys.path.insert(0, str(Path(__file__).parent))

from _common import Table, make_env, print_header
from repro.analysis import dataplane_summary
from repro.check.digest import machine_digest
from repro.config import cloud_run_noise, skylake_sp_small
from repro.core.evset import (
    EvsetConfig,
    build_candidate_set,
    bulk_construct_page_offset,
    construct_sf_evset,
)
from repro.core.monitor import ParallelProbing, monitor_set
from repro.memsys import (
    HAVE_NUMPY,
    AttackKernels,
    LaneKernels,
    TranslationPlane,
    VecKernels,
    kernels_disabled,
    lanes_disabled,
)
from repro.memsys._reference import ReferenceSetAssociativeCache
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.machine import Machine

PAGE_OFFSET = 0x2C0

#: The four serial-mode hot-path generations, oldest first.
STAGES = ("reference", "batched", "kernels", "lanes")

#: Everything ``--stages`` can select (the serial paths plus the
#: counter-mode vec path, campaign-level chunked dispatch, and the
#: checkpoint + construct-memo repeat-trial stage).
ALL_COMPONENTS = STAGES + ("vec", "batch", "construct")

_STAGE_ALIASES = {"ref": "reference"}


def resolve_stages(names) -> set:
    """Canonical component set from a ``--stages`` selection (None = all)."""
    if names is None:
        return set(ALL_COMPONENTS)
    sel = set()
    for name in names:
        canon = _STAGE_ALIASES.get(name.strip(), name.strip())
        if canon not in ALL_COMPONENTS:
            raise SystemExit(
                f"unknown stage {name!r}; choose from "
                f"{', '.join(ALL_COMPONENTS)} (ref = reference)"
            )
        sel.add(canon)
    return sel


@contextmanager
def _cache_impl(cache_cls):
    """Build machines with ``cache_cls`` as the hierarchy's cache class."""
    import repro.memsys.hierarchy as hmod

    original = hmod.SetAssociativeCache
    hmod.SetAssociativeCache = cache_cls
    try:
        yield
    finally:
        hmod.SetAssociativeCache = original


def _path_guard(path: str):
    """Pin one hot-path generation for the duration of a workload."""
    if path in ("reference", "batched"):
        return kernels_disabled()
    if path == "kernels":
        return lanes_disabled()
    return nullcontext()  # lanes: the default resolution


# --- Monitor hot loop -------------------------------------------------------


def _accesses_setup(cache_cls, rng_mode: str = "serial"):
    """Machine plus a ways-sized SF-congruent eviction set (monitor shape).

    The measured workload is the Prime+Probe monitor hot loop: one prime
    (write traversal) followed by several probe traversals of a ways-sized
    eviction set, all lines congruent in the shared SF/LLC set.  This is
    where an attack trial spends nearly all of its simulated accesses.
    """
    from collections import defaultdict

    cfg = skylake_sp_small()
    if rng_mode != "serial":
        cfg = dataclasses.replace(cfg, rng_mode=rng_mode)
    with _cache_impl(cache_cls):
        machine = Machine(cfg, noise=cloud_run_noise(), seed=21)
    space = machine.new_address_space()
    lines = [space.translate_line(p) for p in space.alloc_pages(400)]
    groups = defaultdict(list)
    for line in lines:
        groups[machine.hierarchy.shared_set_index(line)].append(line)
    want = machine.cfg.sf.ways
    evset = next(g for g in groups.values() if len(g) >= want)[:want]
    return machine, evset


def _accesses_round(machine, evset, batched: bool, reps: int) -> float:
    """One timed round of the monitor loop; returns accesses/sec.

    ``batched=False`` runs the traversal with the seed's semantics — every
    access reconciles background noise individually — while ``batched=True``
    uses the ``same_shared_set`` batched APIs (one reconciliation per
    traversal): the flat-plane-vs-reference contrast.
    """
    count = 0
    t0 = perf_counter()
    for _ in range(reps):
        machine.access_batch(0, evset, write=True, same_shared_set=batched)
        for _ in range(4):
            machine.probe_batch(0, evset, same_shared_set=batched)
        count += 5 * len(evset)
    return count / (perf_counter() - t0)


def _accesses_round_kernels(machine, kernels, rows, reps: int) -> float:
    """The same monitor round through the fused kernels (DESIGN.md §2.3)."""
    count = 0
    n = len(rows.lines)
    t0 = perf_counter()
    for _ in range(reps):
        kernels.prime_probe_kernel(rows, n, prime_rounds=1)
        for _ in range(4):
            kernels.prime_probe_kernel(rows, n, probe=True)
        count += 5 * n
    return count / (perf_counter() - t0)


def _kernels_runner(kernel_cls, rng_mode: str = "serial"):
    """(machine, evset, round-closure) for one kernel-bundle stage."""
    machine, evset = _accesses_setup(SetAssociativeCache, rng_mode)
    # The monitor loop works on raw lines, so the plane's translate is the
    # identity — the kernels see the same geometry the Machine would.
    plane = TranslationPlane(machine.hierarchy, lambda line: line)
    kernels = kernel_cls(machine, plane)
    assert kernels.engaged()
    rows = plane.rows(evset)

    def runner(reps):
        return _accesses_round_kernels(machine, kernels, rows, reps)

    return machine, evset, runner


def _bench_accesses(quick: bool, hot, want_vec: bool):
    """Monitor-loop throughput, selected hot paths, interleaved best-of-N.

    Shared/burst-throttled hosts swing throughput by 2x over minutes;
    interleaving the implementations round-robin and taking each side's
    best round keeps the ratios honest under that noise.  The lane bundle
    inherits the monitor kernels unchanged (resident-line walks have
    nothing provably dead), so its column doubles as an overhead check.

    ``want_vec`` adds two counter-mode machines: the vec path under
    measurement and a lanes control running the identical workload; their
    machine digests must match at the end (replay parity, asserted here
    so the perf number can never outrun correctness).
    """
    rounds = 2 if quick else 4
    reps = 40 if quick else 300
    runners = {}
    machines = {}
    evsets = {}
    for stage in hot:
        if stage in ("reference", "batched"):
            machine, evset = _accesses_setup(_stage_cache_cls(stage))
            machines[stage], evsets[stage] = machine, evset
            batched = stage == "batched"
            runners[stage] = (
                lambda reps, m=machine, e=evset, b=batched:
                _accesses_round(m, e, b, reps)
            )
        else:
            kcls = AttackKernels if stage == "kernels" else LaneKernels
            machines[stage], evsets[stage], runners[stage] = (
                _kernels_runner(kcls)
            )
    if want_vec:
        for name, kcls in (("lanes_counter", LaneKernels),
                           ("vec", VecKernels)):
            machines[name], evsets[name], runners[name] = (
                _kernels_runner(kcls, rng_mode="counter")
            )
    assert len({tuple(e) for e in evsets.values()}) <= 1, (
        "parity violation: address maps differ"
    )
    best = dict.fromkeys(runners, 0.0)
    for _ in range(rounds):
        for name, runner in runners.items():
            best[name] = max(best[name], runner(reps))
    if want_vec:
        assert (machine_digest(machines["vec"])
                == machine_digest(machines["lanes_counter"])), (
            "parity violation: vec replay diverged from counter-mode lanes"
        )
    return best, machines


# --- Construction workloads -------------------------------------------------


def _stage_cache_cls(stage: str):
    return (
        ReferenceSetAssociativeCache if stage == "reference"
        else SetAssociativeCache
    )


def _bench_evsets(quick: bool, hot):
    """SF eviction-set constructions/sec (BinS, filtered candidates).

    All selected stages get their own deterministic environment (same seed,
    so the same candidate pool and targets), and the trials run
    *interleaved* round-robin across stages: on burst-throttled hosts a
    sequential per-stage run can attribute a 30% host-wide slowdown to
    whichever stage ran last, which is exactly the noise the lane-vs-
    kernel perf gate must not be subject to.
    """
    trials = 2 if quick else 6
    envs = {}
    for stage in hot:
        with _cache_impl(_stage_cache_cls(stage)):
            machine, ctx = make_env("cloud", seed=13)
        with _path_guard(stage):
            cand = build_candidate_set(ctx, PAGE_OFFSET)
            targets = [cand.vas.pop() for _ in range(trials)]
        envs[stage] = [ctx, cand, targets, 0.0, 0]  # elapsed_s, successes
    for i in range(trials):
        for stage in hot:
            env = envs[stage]
            ctx, cand, targets = env[0], env[1], env[2]
            with _path_guard(stage):
                t0 = perf_counter()
                outcome = construct_sf_evset(
                    ctx, "bins", targets[i], list(cand.vas)
                )
                env[3] += perf_counter() - t0
            env[4] += bool(outcome.success)
    return {
        stage: (trials / env[3], env[4]) for stage, env in envs.items()
    }


def _bench_trial(cache_cls, budget_ms: int, path: str):
    """One end-to-end trial: bulk construction + a monitoring window."""
    with _cache_impl(cache_cls):
        machine, ctx = make_env("cloud", seed=7)
    with _path_guard(path):
        t0 = perf_counter()
        bulk = bulk_construct_page_offset(
            ctx, "bins", PAGE_OFFSET, EvsetConfig(budget_ms=budget_ms)
        )
        if bulk.evsets:
            monitor_set(
                ParallelProbing(ctx, bulk.evsets[0]), duration_cycles=400_000
            )
        elapsed = perf_counter() - t0
    return elapsed, len(bulk.evsets), machine


def _measure(quick: bool, path: str, ev_results):
    budget_ms = 20 if quick else 100
    ev_rate, successes = ev_results[path]
    trial_s, n_evsets, trial_machine = _bench_trial(
        _stage_cache_cls(path), budget_ms, path
    )
    return {
        "evsets_per_sec": ev_rate,
        "evset_successes": successes,
        "trial_seconds": trial_s,
        "trial_evsets": n_evsets,
    }, trial_machine


# --- Chunked dispatch -------------------------------------------------------


def _bench_batch(quick: bool):
    """Chunked dispatch (DESIGN.md §2.6): campaign-level throughput.

    Microsecond trials (the ``noise-mc`` shape) through
    ``run_campaign(jobs=4)``: with ``batch=16`` a whole chunk is one pool
    task, amortizing submit/pickle/result IPC across its trials.  Values
    are byte-compared between the two dispatch modes: chunking must not
    buy a single bit of divergence.
    """
    from repro.exec import ExecPolicy, run_campaign
    from repro.fleet.campaigns import NoiseWindowConfig, noise_mc_campaign

    batch = 16
    # Enough trials that per-task dispatch cost dominates the constant
    # pool fork/teardown both modes share — too few dilutes the contrast.
    n_micro = 8_000 if quick else 40_000
    micro = noise_mc_campaign(
        NoiseWindowConfig(rate_per_ms=6.0), trials=n_micro, base_seed=3
    )

    def _micro_rate(policy):
        t0 = perf_counter()
        result = run_campaign(micro, policy)
        rate = n_micro / (perf_counter() - t0)
        assert result.ok
        return rate, [record.value for record in result.records]

    best = {1: 0.0, batch: 0.0}
    values = {}
    for _ in range(2):  # interleaved best-of-2 against host noise
        for b in (1, batch):
            rate, vals = _micro_rate(ExecPolicy(jobs=4, batch=b))
            best[b] = max(best[b], rate)
            values.setdefault(b, vals)
    assert values[1] == values[batch], (
        "parity violation: batched dispatch changed campaign values"
    )
    return {
        "batch": batch,
        "dispatch_trials_per_sec_serial": best[1],
        "dispatch_trials_per_sec_batch": best[batch],
        "dispatch_speedup": best[batch] / best[1],
    }


# --- Construct stage: checkpoint restore + construct memo-replay ------------


def _bench_construct(quick: bool):
    """Repeat-trial construction throughput (DESIGN.md §2.8), rng=counter.

    The workload is the *repeat trial*: the same ``(env, seed, offset)``
    construction spec run again and again, as fleet retries, resumed
    shards, and measurement loops do.  Two implementations of that trial
    are contrasted:

    * **live** — the PR-8 baseline: build a fresh machine, calibrate,
      allocate the candidate pool, and simulate every eviction test
      (construct memo disabled,
      :func:`repro.memsys.construct_memo_disabled`).
    * **memo** — the PR-9 path: lease the content-addressed trial
      prefix (:mod:`repro.exec.prefix` — an O(touched rows) checkpoint
      restore instead of re-simulation) and run the construction
      through the counter-mode construct memo (DESIGN.md §2.8): after
      one lease that marks shapes and one that records plane deltas,
      every later lease replays ~all of the construction's eviction
      tests as slice assignments.

    Parity is asserted in-bench and per-iteration: every trial, either
    mode, must reproduce the identical construction outcome digest
    *and* the identical end-of-trial machine digest as the live
    control — the speedup can never outrun correctness.  Live/memo
    iterations are interleaved best-of so burst-throttled hosts cannot
    skew the ratio.
    """
    from repro.check.digest import obj_digest
    from repro.exec.prefix import TrialPrefixStore
    from repro.memsys import construct_memo_disabled

    iters = 2 if quick else 3
    seed = 13
    saved_rng = os.environ.get("REPRO_RNG")
    os.environ["REPRO_RNG"] = "counter"
    try:
        store = TrialPrefixStore()

        def live_trial():
            """PR-8 shape: fresh environment + live construction."""
            with construct_memo_disabled():
                t0 = perf_counter()
                machine, ctx = make_env("cloud", seed=seed)
                cand = build_candidate_set(ctx, PAGE_OFFSET)
                target = cand.vas.pop()
                outcome = construct_sf_evset(ctx, "bins", target, cand.vas)
                elapsed = perf_counter() - t0
            assert outcome.success
            return (
                elapsed,
                obj_digest(sorted(outcome.evset.vas)),
                machine_digest(machine),
            )

        def memo_trial():
            """PR-9 shape: prefix restore + memo-replay construction."""
            t0 = perf_counter()
            machine, ctx, target, vas, _hit = store.lease(
                "cloud", seed, PAGE_OFFSET
            )
            outcome = construct_sf_evset(ctx, "bins", target, vas)
            elapsed = perf_counter() - t0
            assert outcome.success
            return (
                elapsed,
                obj_digest(sorted(outcome.evset.vas)),
                machine_digest(machine),
            )

        # Control + warm-up.  The live control pins the expected outcome
        # and machine digests; the two untimed memo trials build the
        # prefix entry, mark the memo shapes, and record the plane
        # deltas (replays start on the third lease of the same prefix).
        _, control_out, control_mach = live_trial()
        for _ in range(2):
            _, out_d, mach_d = memo_trial()
            assert (out_d, mach_d) == (control_out, control_mach), (
                "parity violation: memo warm-up diverged from live control"
            )

        best = {"live": 0.0, "memo": 0.0}
        trials = {"live": live_trial, "memo": memo_trial}
        for _ in range(iters):
            for mode, trial in trials.items():
                elapsed, out_d, mach_d = trial()
                assert (out_d, mach_d) == (control_out, control_mach), (
                    f"parity violation: {mode} iteration diverged"
                )
                best[mode] = max(best[mode], 1.0 / elapsed)
    finally:
        if saved_rng is None:
            del os.environ["REPRO_RNG"]
        else:
            os.environ["REPRO_RNG"] = saved_rng

    return {
        "rng_mode": "counter",
        "evsets_per_sec_live": best["live"],
        "evsets_per_sec_memo": best["memo"],
        "memo_speedup": best["memo"] / best["live"],
        "prefix": store.stats(),
        "outcome_digest": control_out,
        "machine_digest_matched": True,
    }


# --- Profile stage ----------------------------------------------------------


def _profile_construction(quick: bool):
    """cProfile top-10 (cumulative) of lane-path eviction-set construction.

    The Amdahl accounting that motivated the kernel and lane layers:
    after each optimization round, the next bottleneck is whatever tops
    this list.  Profiles the default resolution — the lane plane when
    NumPy is available, the plain kernels otherwise.
    """
    with _cache_impl(SetAssociativeCache):
        machine, ctx = make_env("cloud", seed=13)
    cand = build_candidate_set(ctx, PAGE_OFFSET)
    targets = [cand.vas.pop() for _ in range(1 if quick else 3)]
    profiler = cProfile.Profile()
    profiler.enable()
    for target in targets:
        construct_sf_evset(ctx, "bins", target, list(cand.vas))
    profiler.disable()
    stats = pstats.Stats(profiler)
    total = getattr(stats, "total_tt", 0.0)
    rows = []
    entries = sorted(stats.stats.items(), key=lambda kv: -kv[1][3])
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in entries:
        name = f"{Path(filename).name}:{lineno}({func})"
        if func.startswith("<") and "lambda" not in func:
            continue  # interpreter plumbing (<module>, <built-in ...>)
        rows.append(
            {
                "function": name,
                "ncalls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
        if len(rows) == 10:
            break
    return {
        "path": "lanes" if HAVE_NUMPY else "kernels",
        "total_time_s": round(total, 4),
        "top10_cumulative": rows,
    }


# --- History ----------------------------------------------------------------


def _load_history(out_path: str) -> list:
    """The append-only per-PR perf trajectory from a previous run.

    Older payloads predate the ``history`` array; their stored stage
    metrics are backfilled as the PR that introduced each stage, so the
    trajectory starts complete.
    """
    try:
        old = json.loads(Path(out_path).read_text())
    except (OSError, ValueError):
        return []
    history = old.get("history")
    if history:
        return list(history)
    keys = ("evsets_per_sec", "accesses_per_sec", "trial_seconds")

    def stage(metrics):
        return {k: metrics[k] for k in keys if k in metrics}

    backfill = []
    if "before" in old and "after" in old:
        backfill.append(
            {
                "pr": "PR 2",
                "stages": {
                    "reference": stage(old["before"]),
                    "batched": stage(old["after"]),
                },
            }
        )
    if "kernels" in old:
        backfill.append(
            {"pr": "PR 3", "stages": {"kernels": stage(old["kernels"])}}
        )
    return backfill


# --- Driver -----------------------------------------------------------------


def _update_history(history: list, pr: str, stages_payload: dict,
                    quick: bool) -> list:
    """Replace ``pr``'s history entry with this run's numbers.

    A --quick smoke run must never displace a full-run entry: CI runs
    quick mode on every push, while full numbers come from deliberate
    local runs.  Quick entries only fill the slot when nothing better
    exists; full runs always replace whatever is there for this PR.
    Every entry records the run mode and host so appended history stays
    interpretable across machines (satellite of PR 8).
    """
    prior = [e for e in history if e.get("pr") == pr]
    if quick and any(not e.get("quick") for e in prior):
        return history
    history = [e for e in history if e.get("pr") != pr]
    history.append(
        {
            "pr": pr,
            "quick": quick,
            "host": platform.node(),
            "python": platform.python_version(),
            "stages": stages_payload,
        }
    )
    return history


def run_perf(
    quick: bool = False,
    out_path: str = "BENCH_perf.json",
    stages=None,
) -> dict:
    sel = resolve_stages(stages)
    hot = [s for s in STAGES if s in sel]
    want_vec = "vec" in sel and HAVE_NUMPY
    want_batch = "batch" in sel
    want_construct = "construct" in sel and HAVE_NUMPY
    print_header(
        "Simulator throughput: reference vs. flat plane vs. kernels vs. "
        "lanes vs. vec",
        "Infrastructure benchmark (DESIGN.md 2.2-2.7), not a paper artifact.",
    )
    best_acc, acc_machines = (
        _bench_accesses(quick, hot, want_vec) if (hot or want_vec)
        else ({}, {})
    )
    ev_results = _bench_evsets(quick, hot) if hot else {}
    results = {}
    trial_machine = None
    for stage in hot:
        results[stage], machine = _measure(quick, stage, ev_results)
        results[stage]["accesses_per_sec"] = best_acc[stage]
        if stage == "lanes":
            trial_machine = machine

    vec_results = None
    if want_vec:
        vec_results = {
            "rng_mode": "counter",
            "accesses_per_sec": best_acc["vec"],
            "counter_lanes_accesses_per_sec": best_acc["lanes_counter"],
            "speedup_vs_counter_lanes": (
                best_acc["vec"] / best_acc["lanes_counter"]
            ),
        }
        if "lanes" in results:
            vec_results["speedup_vs_lanes"] = (
                best_acc["vec"] / results["lanes"]["accesses_per_sec"]
            )

    def ratio(new, old):
        return {
            "accesses_per_sec": new["accesses_per_sec"] / old["accesses_per_sec"],
            "evsets_per_sec": new["evsets_per_sec"] / old["evsets_per_sec"],
            "trial_seconds": old["trial_seconds"] / new["trial_seconds"],
        }

    full_serial = all(s in results for s in STAGES)
    speedup = kernel_speedup = lane_speedup = None
    if full_serial:
        speedup = ratio(results["batched"], results["reference"])
        kernel_speedup = ratio(results["kernels"], results["batched"])
        lane_speedup = ratio(results["lanes"], results["kernels"])

    names = hot + (["vec"] if want_vec else [])
    if names:
        table = Table(
            "Simulator throughput (same host, same workloads)",
            ["Metric"] + [n.capitalize() for n in names],
        )

        def _row(label, key, fmt):
            cells = []
            for n in names:
                src = vec_results if n == "vec" else results.get(n)
                value = (src or {}).get(key)
                cells.append(fmt.format(value) if value is not None else "-")
            table.add_row(label, *cells)

        _row("accesses/sec", "accesses_per_sec", "{:,.0f}")
        _row("evset constructions/sec", "evsets_per_sec", "{:.2f}")
        _row("end-to-end trial (s)", "trial_seconds", "{:.2f}")
        table.print()
        if want_vec:
            base = vec_results.get(
                "speedup_vs_lanes", vec_results["speedup_vs_counter_lanes"]
            )
            print(
                f"vec (rng=counter): {best_acc['vec']:,.0f} accesses/sec "
                f"= {base:.2f}x lanes"
            )

    batch_results = None
    if want_batch:
        batch_results = _bench_batch(quick)
        btable = Table(
            "Chunked dispatch (campaign-level, batch=16)",
            ["Workload", "batch=1", "batch=16", "Ratio"],
        )
        btable.add_row(
            "micro-trial dispatch (trials/s, jobs=4)",
            f"{batch_results['dispatch_trials_per_sec_serial']:,.0f}",
            f"{batch_results['dispatch_trials_per_sec_batch']:,.0f}",
            f"{batch_results['dispatch_speedup']:.2f}x",
        )
        btable.print()

    construct_results = None
    if want_construct:
        construct_results = _bench_construct(quick)
        ctable = Table(
            "Checkpoint + construct memo-replay (repeat trials, rng=counter)",
            ["Workload", "live", "memo", "Speedup"],
        )
        ctable.add_row(
            "repeated construction (evsets/s)",
            f"{construct_results['evsets_per_sec_live']:.3f}",
            f"{construct_results['evsets_per_sec_memo']:.3f}",
            f"{construct_results['memo_speedup']:.2f}x",
        )
        ctable.print()
        print(
            "prefix store: "
            f"{construct_results['prefix']['hits']} restored, "
            f"{construct_results['prefix']['misses']} built"
        )

    profile = _profile_construction(quick) if full_serial else None
    acc_machine = acc_machines.get("batched")
    dataplane = None
    if acc_machine is not None and trial_machine is not None:
        dataplane = {
            "access_workload": dataplane_summary(acc_machine),
            "trial_workload": dataplane_summary(trial_machine),
        }
    keys = ("evsets_per_sec", "accesses_per_sec", "trial_seconds")
    history = _load_history(out_path)
    if full_serial:
        history = _update_history(
            history,
            "PR 4",
            {s: {k: results[s][k] for k in keys} for s in STAGES},
            quick,
        )
    if batch_results is not None:
        serial_batch = batch_results  # serial RNG contract only
        history = _update_history(
            history, "PR 7", {"batch": serial_batch}, quick
        )
    if want_vec:
        pr8 = {}
        if want_vec:
            pr8["vec"] = vec_results
        history = _update_history(history, "PR 8", pr8, quick)
    if construct_results is not None:
        history = _update_history(
            history, "PR 9", {"construct": construct_results}, quick
        )

    try:
        old_payload = json.loads(Path(out_path).read_text())
    except (OSError, ValueError):
        old_payload = {}
    payload = {
        "quick": quick,
        "stages_run": sorted(sel),
        "profile": profile if profile is not None
        else old_payload.get("profile"),
        "dataplane": dataplane if dataplane is not None
        else old_payload.get("dataplane"),
        "history": history,
    }
    if full_serial:
        payload.update(
            {
                "before": results["reference"],
                "after": results["batched"],
                "kernels": results["kernels"],
                "lanes": results["lanes"],
                "speedup": speedup,
                "kernel_speedup": kernel_speedup,
                "lane_speedup": lane_speedup,
            }
        )
    else:
        for key in ("before", "after", "kernels", "lanes", "speedup",
                    "kernel_speedup", "lane_speedup"):
            if key in old_payload:
                payload[key] = old_payload[key]
    if vec_results is not None:
        payload["vec"] = vec_results
    elif "vec" in old_payload:
        payload["vec"] = old_payload["vec"]
    if batch_results is not None:
        payload["batch"] = batch_results
    elif "batch" in old_payload:
        payload["batch"] = old_payload["batch"]
    if construct_results is not None:
        payload["construct"] = construct_results
    elif "construct" in old_payload:
        payload["construct"] = old_payload["construct"]
    Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {out_path}")

    # Sanity checks.  Cross-implementation speedups carry no threshold
    # (CI runners are too noisy), but all measured serial-mode paths
    # must agree on every *outcome* — the kernels and lanes are
    # bit-identical by contract.  (The vec stage runs under the counter
    # contract; its parity is asserted against the counter-mode lanes
    # control inside _bench_accesses.)
    for metrics in results.values():
        assert metrics["accesses_per_sec"] > 0
        assert math.isfinite(metrics["trial_seconds"])
    if results:
        succ = {m["evset_successes"] for m in results.values()}
        assert len(succ) == 1, (
            "parity violation: all serial paths must construct the same "
            "eviction sets"
        )
        assert len({m["trial_evsets"] for m in results.values()}) == 1
    # Kernel perf smoke: with interleaved best-of-N the fused monitor loop
    # must not fall behind the batched one (0.9 absorbs residual jitter).
    if "kernels" in results and "batched" in results:
        assert (results["kernels"]["accesses_per_sec"]
                >= 0.9 * results["batched"]["accesses_per_sec"]), (
            f"fused kernels slower than batched path on the monitor loop: "
            f"{results['kernels']['accesses_per_sec']:,.0f} vs "
            f"{results['batched']['accesses_per_sec']:,.0f} accesses/sec"
        )
    # Lane perf smoke: the specialized sweeps must not fall behind the
    # plain kernels on the construction workload they target.
    if HAVE_NUMPY and "lanes" in results and "kernels" in results:
        assert (results["lanes"]["evsets_per_sec"]
                >= 1.0 * results["kernels"]["evsets_per_sec"]), (
            f"lane plane slower than plain kernels on constructions: "
            f"{results['lanes']['evsets_per_sec']:.2f} vs "
            f"{results['kernels']['evsets_per_sec']:.2f} evsets/sec"
        )
    # Vec perf gate (PR 8): memo-replay must deliver >= 1.5x lanes on the
    # monitor loop even in quick mode (full runs measure ~2.5x; 1.5
    # absorbs cold-memo and CI noise).
    if vec_results is not None:
        vec_base = vec_results.get(
            "speedup_vs_lanes", vec_results["speedup_vs_counter_lanes"]
        )
        assert vec_base >= 1.5, (
            f"vec stage below 1.5x lanes accesses/sec: {vec_base:.2f}x"
        )
    # Batch perf smoke: chunked dispatch must beat per-trial dispatch on
    # micro-trial campaign throughput (measured ~6x at batch=16; 1.5
    # absorbs CI noise).
    if batch_results is not None:
        assert batch_results["dispatch_speedup"] >= 1.5, (
            f"batched dispatch below 1.5x per-trial dispatch: "
            f"{batch_results['dispatch_speedup']:.2f}x"
        )
    # Construct perf gate (PR 9): the checkpoint + construct-memo repeat
    # path must beat the PR-8 counter-mode lanes baseline on repeated
    # constructions.  Full runs measure ~2.4x; quick mode still pays a
    # partially cold memo, so CI gates at 1.3x and full runs at 1.8x.
    if construct_results is not None:
        floor = 1.3 if quick else 1.8
        assert construct_results["memo_speedup"] >= floor, (
            f"construct stage below {floor}x lanes baseline: "
            f"{construct_results['memo_speedup']:.2f}x"
        )
    out = {}
    if full_serial:
        out.update(
            {
                "accesses_speedup": speedup["accesses_per_sec"],
                "evsets_speedup": speedup["evsets_per_sec"],
                "trial_speedup": speedup["trial_seconds"],
                "kernel_evsets_speedup": kernel_speedup["evsets_per_sec"],
                "lane_evsets_speedup": lane_speedup["evsets_per_sec"],
                "lane_trial_speedup": lane_speedup["trial_seconds"],
                "lane_evsets_per_sec": results["lanes"]["evsets_per_sec"],
            }
        )
    if vec_results is not None:
        out["vec_accesses_per_sec"] = vec_results["accesses_per_sec"]
        out["vec_speedup"] = vec_results.get(
            "speedup_vs_lanes", vec_results["speedup_vs_counter_lanes"]
        )
    if construct_results is not None:
        out["construct_memo_speedup"] = construct_results["memo_speedup"]
        out["construct_evsets_per_sec"] = (
            construct_results["evsets_per_sec_memo"]
        )
    if batch_results is not None:
        out["batch_dispatch_speedup"] = batch_results["dispatch_speedup"]
    return out


def bench_perf_memsys(run_once):
    run_once(run_perf, quick=True)


if __name__ == "__main__":
    args = sys.argv[1:]
    quick = "--quick" in args
    stage_arg = None
    if "--stages" in args:
        idx = args.index("--stages")
        if idx + 1 >= len(args):
            raise SystemExit("--stages needs a comma-separated list")
        stage_arg = args[idx + 1].split(",")
    run_perf(quick=quick, stages=stage_arg)
