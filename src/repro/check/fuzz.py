"""Differential trace fuzzing across the three execution tiers.

The repository stacks three execution tiers that all promise bit-identical
trials: the seed *reference* simulator (``repro.memsys._reference``), the
flat *batched* data plane (§2.2), and the fused *kernels* (§2.3; the
memo-replay ``VecKernels`` bundle, §2.7).
The parity suites pin a handful of hand-picked scenarios; this module
*searches* for divergence instead:

1. :func:`generate_trace` derives, from one seed, an attack-shaped
   operation schedule (calibrate, candidate building, ``TestEviction``
   batteries, prime+probe monitoring, cross-core victim stores, flushes,
   address-space churn, defense setup (way partition / randomized index /
   soft copy, with epoch-rekey ops), mid-trace machine digests) over a
   small machine.
2. :func:`run_trace` replays the trace on one tier — the tier guards are
   the product ones (``kernels_disabled()`` / the reference-cache class
   swap) — recording every op's observable result plus the final machine
   digest, with the invariant checker (:mod:`repro.check.invariants`)
   validating state after every hierarchy call and every op.
3. :func:`run_tiers` diffs the two optimized tiers against the
   reference records with :func:`repro.check.digest.diff_keys`, and the
   kernels tier's raw cache planes (:func:`repro.check.digest.
   plane_digest`, replacement state included) against the batched
   tier's: the two share the flat plane, the reference does not.

:func:`fuzz_trial` is the picklable ``(config, seed)`` unit that
:func:`fuzz_campaign` fans out through :mod:`repro.exec` (``--jobs``).
Diverging traces are shrunk (:mod:`repro.check.shrink`) and written as
replayable JSON artifacts (:func:`write_artifact` / :func:`replay_artifact`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..config import MACHINE_PRESETS, NOISE_PRESETS
from ..core.context import AttackerContext
from ..core.evset.candidates import build_candidate_set
from ..core.evset.primitives import EvictionTester
from ..core.evset.types import EvictionSet
from ..core.monitor import ParallelProbing, monitor_set
from ..defenses import DEFENSE_NAMES, apply_defense, apply_way_partitioning
from ..defenses.partition import OTHER_DOMAIN
from ..errors import ReproError
from ..exec import Campaign, arithmetic_seeds
from ..memsys import kernels_disabled
from ..memsys.machine import Machine
from .digest import diff_keys, machine_digest, obj_digest, plane_digest
from .invariants import InvariantChecker, InvariantViolation, invariant_hook

#: The three execution tiers, in oracle order (index 0 is the reference).
TIERS = ("reference", "batched", "kernels")

#: The trace grammar: every op :func:`run_trace` replays.
OPS = (
    "calibrate", "pool", "candidates", "test", "test_many", "probe",
    "chase", "flush", "flush_all", "churn", "advance", "victim", "monitor",
    "digest", "rekey",
)

#: Where the CLI drops shrunk diverging-trace artifacts.
DEFAULT_ARTIFACT_DIR = Path(".repro") / "fuzz"

_PAGE_OFFSETS = (0x000, 0x140, 0x240, 0x2C0, 0x380)


@dataclasses.dataclass(frozen=True)
class FuzzConfig:
    """Picklable knobs for one fuzz trial (trace shape, not content).

    ``noise`` and ``defense`` accept ``"mix"`` to let each trace draw
    its own setting from the trace seed — the default, so one campaign
    covers quiet, noisy, defended, and undefended machines.  ``defense``
    is any :data:`repro.defenses.registry.DEFENSE_NAMES` entry (``"none"``
    is an undefended machine) or ``"mix"``.
    """

    machine: str = "tiny"
    noise: str = "mix"  # "none" | "cloud-quiet" | "cloud" | "local" | "mix"
    n_ops: int = 10
    check_invariants: bool = True
    defense: str = "mix"  # DEFENSE_NAMES entry | "mix"


# --- Trace generation -------------------------------------------------------


def generate_trace(cfg: FuzzConfig, seed: int) -> Dict[str, Any]:
    """A seeded, attack-shaped operation schedule (a JSON-able dict).

    Deterministic in ``(cfg, seed)`` and independent of the machine RNGs,
    so a trace can be regenerated from its seed or carried verbatim in a
    shrunk artifact.
    """
    rng = random.Random(f"repro.check.fuzz:{cfg.machine}:{seed}")
    noise = cfg.noise
    if noise == "mix":
        noise = rng.choice(("none", "none", "cloud-quiet", "cloud"))
    # Defense axis: mix mode draws any defense (half the traces stay
    # undefended).
    defense_kind = cfg.defense
    if defense_kind == "mix":
        defense_kind = rng.choice(
            ("none",) * (len(DEFENSE_NAMES) - 1) + DEFENSE_NAMES[1:]
        )
    partition = None
    defense = None
    if defense_kind == "way-partition":
        # Emitted under the legacy "partition" trace key (not "defense")
        # so pre-axis artifacts and replays keep working unchanged.
        machine_cfg = MACHINE_PRESETS[cfg.machine]()
        att_sf = rng.randint(2, max(2, machine_cfg.sf.ways - 2))
        att_llc = rng.randint(1, max(1, machine_cfg.llc.ways - 1))
        partition = {
            "core_domains": [[c, "att"] for c in range(machine_cfg.cores)],
            "sf": {"att": att_sf, OTHER_DOMAIN: machine_cfg.sf.ways - att_sf},
            "llc": {
                "att": att_llc,
                OTHER_DOMAIN: machine_cfg.llc.ways - att_llc,
            },
        }
    elif defense_kind == "soft-copy":
        machine_cfg = MACHINE_PRESETS[cfg.machine]()
        att_sf = rng.randint(1, machine_cfg.sf.ways - 1)
        oth_sf = rng.randint(1, machine_cfg.sf.ways - att_sf)
        att_llc = rng.randint(1, machine_cfg.llc.ways - 1)
        oth_llc = rng.randint(1, machine_cfg.llc.ways - att_llc)
        defense = {
            "kind": "soft-copy",
            "core_domains": [[c, "att"] for c in range(machine_cfg.cores)],
            "sf": {"att": att_sf, OTHER_DOMAIN: oth_sf},
            "llc": {"att": att_llc, OTHER_DOMAIN: oth_llc},
        }
    elif defense_kind in ("ceaser", "skew"):
        defense = {
            "kind": defense_kind,
            "seed": rng.randrange(1 << 31),
            # Mostly manual-rekey machines (the explicit rekey op covers
            # epoch turns); sometimes aggressive auto-rekey mid-access.
            "epoch_accesses": rng.choice((0, 0, 64, 256)),
        }
        if defense_kind == "skew":
            defense["n_skews"] = 2
    ops: List[List[Any]] = [["calibrate"]]
    pools: List[int] = []  # symbolic pool sizes, mirrored by the replayer

    def _pool_pick() -> int:
        return rng.randrange(len(pools))

    ops.append(["pool", rng.choice(_PAGE_OFFSETS), rng.randint(8, 20)])
    pools.append(ops[-1][2])
    choices = (
        "pool candidates test test test_many probe probe chase flush "
        "flush_all churn advance victim monitor digest"
    ).split()
    if defense_kind in ("ceaser", "skew"):
        choices += ["rekey", "rekey"]
    for _ in range(max(1, cfg.n_ops)):
        kind = rng.choice(choices)
        if kind == "pool":
            n = rng.randint(6, 20)
            ops.append(["pool", rng.choice(_PAGE_OFFSETS), n])
            pools.append(n)
        elif kind == "candidates":
            size = rng.randint(10, 28)
            ops.append(["candidates", rng.choice(_PAGE_OFFSETS), size])
            pools.append(size)
        elif kind == "test":
            i = _pool_pick()
            if pools[i] < 3:
                continue
            ops.append([
                "test",
                rng.choice(("llc", "sf", "l2")),
                int(rng.random() < 0.8),  # parallel
                rng.choice((1, 1, 2)),  # repeats
                i,
                rng.randrange(pools[i]),  # target index
                rng.randint(2, pools[i] - 1),  # candidate prefix
            ])
        elif kind == "test_many":
            i = _pool_pick()
            if pools[i] < 4:
                continue
            k = rng.randint(1, 3)
            ops.append([
                "test_many",
                rng.choice(("llc", "sf", "l2")),
                i,
                k,
                rng.randint(2, pools[i] - k),
            ])
        elif kind == "probe":
            i = _pool_pick()
            ops.append([
                "probe", i, rng.randint(1, pools[i]), int(rng.random() < 0.3)
            ])
        elif kind == "chase":
            i = _pool_pick()
            ops.append([
                "chase",
                i,
                rng.randint(1, min(12, pools[i])),
                int(rng.random() < 0.5),  # shadow (shared) chase
            ])
        elif kind == "flush":
            i = _pool_pick()
            ops.append(["flush", i, rng.randint(1, pools[i])])
        elif kind == "flush_all":
            ops.append(["flush_all"])
        elif kind == "churn":
            ops.append(["churn"])
        elif kind == "advance":
            ops.append(["advance", rng.randint(1_000, 60_000)])
        elif kind == "victim":
            i = _pool_pick()
            ops.append([
                "victim",
                i,
                rng.randrange(pools[i]),
                rng.randint(2, 6),  # stores
                rng.randint(4_000, 15_000),  # interval
            ])
        elif kind == "monitor":
            i = _pool_pick()
            if pools[i] < 4:
                continue
            ops.append([
                "monitor",
                i,
                rng.randint(3, pools[i] - 1),
                rng.randint(20_000, 60_000),
            ])
        elif kind in ("digest", "rekey"):
            ops.append([kind])
    return {
        "machine": cfg.machine,
        "noise": noise,
        "seed": rng.randrange(1 << 31),
        "ctx_seed": rng.randrange(1 << 31),
        "partition": partition,
        "defense": defense,
        "ops": ops,
    }


# --- Tier guards ------------------------------------------------------------


@contextlib.contextmanager
def _reference_cache_swap():
    """Build machines on the seed dict-of-sets cache (oracle tier)."""
    import repro.memsys.hierarchy as hmod
    from repro.memsys._reference import ReferenceSetAssociativeCache

    original = hmod.SetAssociativeCache
    hmod.SetAssociativeCache = ReferenceSetAssociativeCache
    try:
        yield
    finally:
        hmod.SetAssociativeCache = original


def _tier_guard(tier: str):
    """The product guard routing execution down one tier.

    ``reference`` needs no runtime guard — the kernels disengage on the
    duck-typed oracle caches by themselves, which is part of what the
    fuzzer validates.  ``kernels`` is the default resolution
    (:meth:`~repro.core.context.AttackerContext.kernels`).
    """
    if tier not in TIERS:
        raise ReproError(f"unknown execution tier {tier!r}; choose from {TIERS}")
    if tier == "batched":
        return kernels_disabled()
    return contextlib.nullcontext()


def _build_machine(trace: Dict[str, Any], tier: str) -> Machine:
    cfg = MACHINE_PRESETS[trace["machine"]]()
    noise = NOISE_PRESETS[trace["noise"]]
    builder = (
        _reference_cache_swap()
        if tier == "reference"
        else contextlib.nullcontext()
    )
    with builder:
        machine = Machine(cfg, noise=noise, seed=trace["seed"])
    # Defense setup happens after the reference-swap block on purpose:
    # composite defense caches always wrap flat inner planes, on every
    # tier (matching the pre-axis way-partition behavior) — the tiers
    # still differ in the private-cache type and the code paths taken.
    defense = trace.get("defense")
    partition = trace.get("partition")
    if defense:
        apply_defense(machine, defense)
    elif partition:
        apply_way_partitioning(
            machine,
            {core: domain for core, domain in partition["core_domains"]},
            dict(partition["sf"]),
            dict(partition["llc"]),
        )
    return machine


# --- Trace replay -----------------------------------------------------------


def _run_op(
    machine: Machine, ctx: AttackerContext, pools: List[List[int]], op: List
) -> Any:
    kind = op[0]
    hier = machine.hierarchy
    if kind == "calibrate":
        ctx.calibrate()
        return [ctx.threshold_private, ctx.threshold_llc]
    if kind == "pool":
        _, offset, n_pages = op
        pools.append([page + offset for page in ctx.alloc_pages(n_pages)])
        return len(pools[-1])
    if kind == "candidates":
        _, offset, size = op
        cand = build_candidate_set(ctx, offset, size=size)
        pools.append(list(cand.vas))
        return len(cand.vas)
    if kind == "test":
        _, mode, parallel, repeats, i, target_j, n = op
        # Pools filled by build_candidate_set can come back a different
        # size than the generator assumed; clamp indices so the trace
        # stays replayable (identically on every tier).
        pool = pools[i]
        tester = EvictionTester(
            ctx, mode=mode, parallel=bool(parallel), repeats=repeats
        )
        target = pool[target_j % len(pool)]
        vas = [va for va in pool if va != target]
        return tester.test(target, vas, min(n, len(vas)))
    if kind == "test_many":
        _, mode, i, k, n = op
        pool = pools[i]
        k = min(k, len(pool) - 1)
        tester = EvictionTester(ctx, mode=mode, parallel=True)
        return tester.test_many(pool[:k], pool[k:], min(n, len(pool) - k))
    if kind == "probe":
        _, i, n, write = op
        lines = ctx.lines(pools[i][:n])
        # The batch's elapsed cycles.
        return machine.access_batch(ctx.main_core, lines, write=bool(write))
    if kind == "chase":
        _, i, n, shared = op
        lines = ctx.lines(pools[i][:n])
        shadow = ctx.helper_core if shared else None
        machine.access_chase(ctx.main_core, lines, shadow_core=shadow)
        return machine.now
    if kind == "flush":
        _, i, n = op
        ctx.flush_batch(pools[i], n)
        return machine.now
    if kind == "flush_all":
        machine.flush_all_caches()
        return machine.now
    if kind == "churn":
        ctx.invalidate_translations()
        return len(pools)
    if kind == "advance":
        machine.advance(op[1])
        return machine.now
    if kind == "victim":
        _, i, j, count, interval = op
        line = ctx.line(pools[i][j])
        core = machine.cfg.cores - 1
        start = machine.now + 1_000
        for idx in range(count):
            machine.schedule(
                start + idx * interval,
                lambda t, ln=line: hier.access(core, ln, t, write=True),
            )
        machine.run_until(start + count * interval + 1_000)
        return machine.now
    if kind == "digest":
        # The machine digest mid-trace, so a tier whose state drifted
        # diverges right here, not ops later.
        return obj_digest(machine_digest(machine))
    if kind == "rekey":
        # Epoch turn on every randomized shared cache (duck-probed, so a
        # shrunk trace that lost its defense replays as a no-op marker).
        # Invalidation counts are part of the record: a tier whose
        # residency drifted by rekey time diverges right here.
        counts = []
        for cache in (hier.sf, hier.llc):
            rekey = getattr(cache, "rekey", None)
            counts.append(len(rekey()) if callable(rekey) else -1)
        return f"rekey:{counts[0]}/{counts[1]}"
    if kind == "monitor":
        _, i, n, duration = op
        pool = pools[i]
        n = min(n, len(pool) - 1)
        evset = EvictionSet(kind="sf", vas=pool[:n], target_va=pool[n])
        trace = monitor_set(ParallelProbing(ctx, evset), duration)
        return obj_digest([
            trace.timestamps,
            trace.start,
            trace.end,
            trace.probe_latencies,
            trace.prime_latencies,
        ])


def run_trace(
    trace: Dict[str, Any], tier: str, check_invariants: bool = True
) -> Dict[str, Any]:
    """Replay ``trace`` on one tier; returns records + final digest.

    Op-level exceptions are recorded as ``["err", type, message]`` rows
    (they must be identical across tiers — a one-tier-only failure shows
    up as a divergence); an :class:`InvariantViolation` aborts the replay
    since the state can no longer be trusted.  An op outside the grammar
    (:data:`OPS`) raises :class:`ReproError` before a machine is built:
    recorded as an op failure it would be equal on every tier, so the
    verdict would pass a trace that replays nothing.
    """
    unknown = sorted({op[0] for op in trace["ops"]} - set(OPS))
    if unknown:
        raise ReproError(
            f"unknown fuzz op(s) {', '.join(map(repr, unknown))}; "
            f"the grammar has {', '.join(OPS)}"
        )
    with _tier_guard(tier):
        machine = _build_machine(trace, tier)
        ctx = AttackerContext(machine, seed=trace["ctx_seed"])
        pools: List[List[int]] = []
        records: List[Any] = []
        violation: Optional[str] = None
        checker = InvariantChecker(machine.hierarchy)
        hook = (
            invariant_hook(machine.hierarchy, checker)
            if check_invariants
            else contextlib.nullcontext()
        )
        with hook:
            for op in trace["ops"]:
                try:
                    records.append(_run_op(machine, ctx, pools, op))
                except InvariantViolation as exc:
                    violation = str(exc)
                    break
                except Exception as exc:  # noqa: BLE001 — recorded and diffed
                    # Op failures (budget errors, calibration failures on
                    # awkward partitions, ...) must be *identical* across
                    # tiers; recording them makes a one-tier-only failure
                    # show up as an ordinary divergence.
                    records.append(["err", type(exc).__name__, str(exc)])
                if check_invariants:
                    try:
                        checker.check()
                    except InvariantViolation as exc:
                        violation = str(exc)
                        break
        if violation is None and check_invariants:
            try:
                checker.check(deep=True)
            except InvariantViolation as exc:
                violation = str(exc)
    return {
        "tier": tier,
        "records": records,
        "digest": machine_digest(machine),
        "planes": plane_digest(machine),
        "violation": violation,
        "checks": checker.checks,
    }


def run_tiers(
    trace: Dict[str, Any], check_invariants: bool = True
) -> Dict[str, Any]:
    """Replay on all three tiers and diff everything against the reference.

    The kernels tier must also leave the batched tier's raw planes
    (``"planes"``): :func:`machine_digest` cannot see replacement state
    such as PLRU bits and LRU stamps, and the reference oracle keeps none
    in a comparable form.
    """
    runs = {
        tier: run_trace(trace, tier, check_invariants=check_invariants)
        for tier in TIERS
    }
    reference = runs[TIERS[0]]
    oracle = {"records": reference["records"], "digest": reference["digest"]}
    diffs: Dict[str, List[str]] = {}
    for tier in TIERS[1:]:
        delta = diff_keys(
            oracle, {"records": runs[tier]["records"], "digest": runs[tier]["digest"]}
        )
        if tier == "kernels" and runs[tier]["planes"] != runs["batched"]["planes"]:
            delta.append("planes")
        if delta:
            diffs[tier] = delta[:8]
    violations = {
        tier: run["violation"]
        for tier, run in runs.items()
        if run["violation"] is not None
    }
    return {
        "ops": len(trace["ops"]),
        "checks": reference["checks"],
        "divergent": sorted(diffs),
        "diffs": diffs,
        "violations": violations,
        "ok": not diffs and not violations,
    }


def fuzz_trial(cfg: FuzzConfig, seed: int) -> Dict[str, Any]:
    """One picklable fuzz unit: generate, replay on all tiers, diff."""
    result = run_tiers(
        generate_trace(cfg, seed), check_invariants=cfg.check_invariants
    )
    result["seed"] = seed
    return result


def fuzz_campaign(
    cfg: FuzzConfig, seeds: int, base_seed: int = 0
) -> Campaign:
    """``seeds`` fuzz trials over the fixed range ``base_seed..+seeds-1``.

    Arithmetic seeding keeps the CI smoke range pinned: the same
    invocation always fuzzes the same traces (and resumes from its
    journal when interrupted).
    """
    return Campaign(
        name=f"fuzz-{cfg.machine}",
        fn=fuzz_trial,
        configs=tuple(cfg for _ in range(seeds)),
        seeds=arithmetic_seeds(base_seed, seeds),
    )


# --- Artifacts --------------------------------------------------------------


def write_artifact(
    path: Path, trace: Dict[str, Any], result: Dict[str, Any]
) -> Path:
    """Write a replayable diverging-trace artifact (JSON)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"version": 1, "trace": trace, "result": result}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load an artifact; returns ``(trace, recorded_result)``."""
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != 1 or "trace" not in payload:
        raise ReproError(f"{path}: not a fuzz trace artifact")
    return payload["trace"], payload.get("result", {})


def replay_artifact(path: Path, check_invariants: bool = True) -> Dict[str, Any]:
    """Re-run an artifact's trace across all tiers (fresh verdict).

    Artifacts written before the simulator had a single RNG contract
    record the contract they were captured under as ``"rng"``.  A
    ``"counter"`` trace drew its noise from event-keyed streams that no
    longer exist, so replaying it on today's serial machines could not
    reproduce the recorded divergence; it is refused.  Serial traces and
    traces without the key replay as before.
    """
    trace, _ = load_artifact(path)
    contract = trace.get("rng", "serial")
    if contract != "serial":
        raise ReproError(
            f"{path}: artifact was captured under the {contract!r} RNG "
            "contract, which this version no longer simulates; only "
            "serial-contract artifacts replay"
        )
    return run_tiers(trace, check_invariants=check_invariants)
