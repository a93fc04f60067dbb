"""Simulator throughput — reference vs. flat plane vs. kernels vs. vec.

Not a paper artifact: this benchmark tracks the performance of the
simulator itself across its three generations of hot path:

* **reference** — the seed dict-of-sets cache preserved in
  :mod:`repro.memsys._reference`, swapped into the hierarchy, driven with
  per-line access semantics;
* **batched** — the flat array-backed
  :class:`repro.memsys.cache.SetAssociativeCache` (DESIGN.md §2.2) with
  the ``same_shared_set`` batched Machine APIs, fused kernels disabled
  (:func:`repro.memsys.kernels_disabled`);
* **kernels** — the same flat plane driven through the fused attack
  kernels and the translation plane (DESIGN.md §2.3);
* **vec** — the memo-replay kernels (DESIGN.md §2.7), the default path:
  monitor rounds whose pre-state was seen before replay as slice
  assignments instead of re-simulating, bit-identical to the plain
  kernels on the same machine.  Measured against a live
  ``AttackKernels`` control machine (parity asserted in-bench by
  digest);
* **batch** — chunked dispatch (DESIGN.md §2.6), measured at the
  campaign level: microsecond trials sent to the workers one per
  message vs. 16 per message.

The reference, batched and kernels paths run the same workloads and —
because the kernels are bit-identical by construction — must produce the
same eviction sets; the sanity asserts at the bottom enforce that.  The
vec stage's outcome is compared against its own kernels control machine
instead.  Perf smokes gate CI: the fused path must not regress below the
batched one on the monitor loop, and the vec path must deliver >= 1.5x
its kernels control's accesses/sec.

``--stages`` selects a comma-separated subset (``ref``/``reference``,
``batched``, ``kernels``, ``vec``, ``batch``) so CI quick
runs can gate only the stages they care about; cross-stage asserts,
history updates and the written fields cover only what was measured
(nothing but ``history`` is carried over from a previous
``BENCH_perf.json``).  Every history entry records ``quick``, ``host``
and ``python`` so appended entries stay interpretable across machines.

Workloads:

* accesses/sec through the Prime+Probe monitor hot loop (prime + probe
  traversals of a ways-sized SF-congruent eviction set, interleaved
  best-of-N against host noise),
* SF eviction-set constructions/sec (BinS with candidate filtering),
* one end-to-end trial (bulk construction + Parallel Probing monitor),
* a cProfile breakdown (top-10 by cumulative time) of kernel-path
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
import json
import math
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
    AttackKernels,
    TranslationPlane,
    VecKernels,
    kernels_disabled,
)
from repro.memsys._reference import ReferenceSetAssociativeCache
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.machine import Machine

PAGE_OFFSET = 0x2C0

#: The three hot-path generations measured side by side, oldest first.
STAGES = ("reference", "batched", "kernels")

#: Everything ``--stages`` can select (the three paths plus the vec
#: path and campaign-level chunked dispatch).
ALL_COMPONENTS = STAGES + ("vec", "batch")

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
    return nullcontext()  # kernels: the default resolution


# --- Monitor hot loop -------------------------------------------------------


def _accesses_setup(cache_cls):
    """Machine plus a ways-sized SF-congruent eviction set (monitor shape).

    The measured workload is the Prime+Probe monitor hot loop: one prime
    (write traversal) followed by several probe traversals of a ways-sized
    eviction set, all lines congruent in the shared SF/LLC set.  This is
    where an attack trial spends nearly all of its simulated accesses.
    """
    from collections import defaultdict

    with _cache_impl(cache_cls):
        machine = Machine(skylake_sp_small(), noise=cloud_run_noise(), seed=21)
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


def _kernels_runner(kernel_cls):
    """(machine, evset, round-closure) for one kernel-bundle stage."""
    machine, evset = _accesses_setup(SetAssociativeCache)
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
    best round keeps the ratios honest under that noise.

    ``want_vec`` adds two machines: the vec path under measurement and a
    plain-kernels control running the identical workload; their machine
    digests must match at the end (replay parity, asserted here so the
    perf number can never outrun correctness).
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
            machines[stage], evsets[stage], runners[stage] = (
                _kernels_runner(AttackKernels)
            )
    if want_vec:
        for name, kcls in (("vec_control", AttackKernels), ("vec", VecKernels)):
            machines[name], evsets[name], runners[name] = _kernels_runner(kcls)
    assert len({tuple(e) for e in evsets.values()}) <= 1, (
        "parity violation: address maps differ"
    )
    best = dict.fromkeys(runners, 0.0)
    for _ in range(rounds):
        for name, runner in runners.items():
            best[name] = max(best[name], runner(reps))
    if want_vec:
        assert (machine_digest(machines["vec"])
                == machine_digest(machines["vec_control"])), (
            "parity violation: vec replay diverged from its kernels control"
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
    whichever stage ran last, which is exactly the noise the cross-stage
    comparisons must not be subject to.
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
    ``run_campaign(jobs=4)``: with ``batch=16`` a whole chunk is one
    message to a worker, amortizing send/pickle/result IPC across its
    trials.  Values
    are byte-compared between the two dispatch modes: chunking must not
    buy a single bit of divergence.
    """
    from repro.exec import ExecPolicy, run_campaign
    from repro.fleet.campaigns import NoiseWindowConfig, noise_mc_campaign

    batch = 16
    # Enough trials that per-message dispatch cost dominates the constant
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


# --- Profile stage ----------------------------------------------------------


def _profile_construction(quick: bool):
    """cProfile top-10 (cumulative) of kernel-path eviction-set construction.

    The Amdahl accounting that motivated the kernel layer: after each
    optimization round, the next bottleneck is whatever tops this list.
    Profiles the default resolution (the fused kernels).
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
        "path": "kernels",
        "total_time_s": round(total, 4),
        "top10_cumulative": rows,
    }


# --- History ----------------------------------------------------------------


def _load_history(out_path: str) -> list:
    """The append-only per-PR perf trajectory from a previous run."""
    try:
        old = json.loads(Path(out_path).read_text())
    except (OSError, ValueError):
        return []
    return list(old.get("history") or [])


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
    want_vec = "vec" in sel
    want_batch = "batch" in sel
    print_header(
        "Simulator throughput: reference vs. flat plane vs. kernels vs. vec",
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
        if stage == "kernels":
            trial_machine = machine

    vec_results = None
    if want_vec:
        vec_results = {
            "accesses_per_sec": best_acc["vec"],
            "serial_kernels_accesses_per_sec": best_acc["vec_control"],
            "speedup_vs_serial_kernels": (
                best_acc["vec"] / best_acc["vec_control"]
            ),
        }

    def ratio(new, old):
        return {
            "accesses_per_sec": new["accesses_per_sec"] / old["accesses_per_sec"],
            "evsets_per_sec": new["evsets_per_sec"] / old["evsets_per_sec"],
            "trial_seconds": old["trial_seconds"] / new["trial_seconds"],
        }

    full_serial = all(s in results for s in STAGES)
    speedup = kernel_speedup = None
    if full_serial:
        speedup = ratio(results["batched"], results["reference"])
        kernel_speedup = ratio(results["kernels"], results["batched"])

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
            print(
                f"vec: {best_acc['vec']:,.0f} accesses/sec = "
                f"{vec_results['speedup_vs_serial_kernels']:.2f}x its live "
                f"kernels control"
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
        history = _update_history(
            history, "PR 7", {"batch": batch_results}, quick
        )
    if vec_results is not None:
        history = _update_history(history, "PR 8", {"vec": vec_results}, quick)

    # Only what this run measured: a field carried over from an earlier
    # run (another host, another code version) would be read as if it
    # were measured beside this run's numbers.
    payload = {"quick": quick, "stages_run": sorted(sel), "history": history}
    if profile is not None:
        payload["profile"] = profile
    if dataplane is not None:
        payload["dataplane"] = dataplane
    if full_serial:
        payload.update(
            {
                "before": results["reference"],
                "after": results["batched"],
                "kernels": results["kernels"],
                "speedup": speedup,
                "kernel_speedup": kernel_speedup,
            }
        )
    if vec_results is not None:
        payload["vec"] = vec_results
    if batch_results is not None:
        payload["batch"] = batch_results
    Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {out_path}")

    # Sanity checks.  Cross-implementation speedups carry no threshold
    # (CI runners are too noisy), but all measured paths must agree on
    # every *outcome* — the kernels are bit-identical by contract.  (The
    # vec stage's parity is asserted against its kernels control machine
    # inside _bench_accesses.)
    for metrics in results.values():
        assert metrics["accesses_per_sec"] > 0
        assert math.isfinite(metrics["trial_seconds"])
    if results:
        succ = {m["evset_successes"] for m in results.values()}
        assert len(succ) == 1, (
            "parity violation: all paths must construct the same "
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
    # Vec perf gate: memo-replay must deliver >= 1.5x its live kernels
    # control on the monitor loop even in quick mode (quick runs measure
    # ~3x; 1.5 absorbs cold-memo and CI noise).
    if vec_results is not None:
        vec_base = vec_results["speedup_vs_serial_kernels"]
        assert vec_base >= 1.5, (
            f"vec stage below 1.5x kernels accesses/sec: {vec_base:.2f}x"
        )
    # Batch perf smoke: chunked dispatch must beat per-trial dispatch on
    # micro-trial campaign throughput (2.3x at batch=16 in a quick run on
    # a 2-vCPU host; 1.5 absorbs CI noise).
    if batch_results is not None:
        assert batch_results["dispatch_speedup"] >= 1.5, (
            f"batched dispatch below 1.5x per-trial dispatch: "
            f"{batch_results['dispatch_speedup']:.2f}x"
        )
    out = {}
    if full_serial:
        out.update(
            {
                "accesses_speedup": speedup["accesses_per_sec"],
                "evsets_speedup": speedup["evsets_per_sec"],
                "trial_speedup": speedup["trial_seconds"],
                "kernel_evsets_speedup": kernel_speedup["evsets_per_sec"],
            }
        )
    if vec_results is not None:
        out["vec_accesses_per_sec"] = vec_results["accesses_per_sec"]
        out["vec_speedup"] = vec_results["speedup_vs_serial_kernels"]
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
