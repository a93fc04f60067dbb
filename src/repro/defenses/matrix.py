"""The defense-evaluation matrix: every attack stage against every defense.

The paper's §7 argues mitigations qualitatively; this campaign makes the
repro a defense *benchmark*.  One trial pits the full attack pipeline
against one defended machine and reports, per stage:

* **construct** — bulk SingleSet construction at the victim's page
  offset: how many eviction sets come out valid, and whether the
  victim's set is among the covered ones.  Randomized indexes break the
  page-offset → set contract the algorithms rely on, so this is where
  CEASER-style defenses bite first.
* **monitor** — the paper's scanner stage: train the PSD-feature SVM on
  ground-truth-labeled traces, then score it on a held-out batch.
  Reported as held-out accuracy (1.0 = the paper's near-perfect
  separation; 0.5 ≈ coin flip).
* **recover** — the end-to-end ECDSA attack
  (:func:`repro.core.pipeline.run_end_to_end`): nonce-bit recovery and
  bit-error rates under the defense.

Stages degrade honestly rather than crash: when a defense defeats an
earlier stage (no valid eviction set covers the target), later stages
score zero and the sample records why in ``error``.  Trials follow the
engine contract ``fn(config, seed) -> dataclass`` so the campaign runs
identically through ``python -m repro campaign defense-matrix``, the
parallel engine, and the sharded :mod:`repro.fleet` service.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from .._util import mean
from ..config import MACHINE_PRESETS, NOISE_PRESETS, exposure_matched
from ..core.context import AttackerContext
from ..core.evset import EvsetConfig, bulk_construct_page_offset
from ..core.pipeline import AttackConfig, run_end_to_end
from ..core.scanner import (
    ScannerConfig,
    TargetSetClassifier,
    collect_labeled_traces,
)
from ..errors import ReproError
from .registry import DEFENSE_NAMES, apply_defense, default_defense_spec

#: Stage names in pipeline order.
STAGES = ("construct", "monitor", "recover")


@dataclasses.dataclass(frozen=True)
class DefenseTrialConfig:
    """One defended attack trial's parameters.

    ``env`` is an :data:`~repro.envs.EnvLike` (benchmark name or
    :class:`~repro.envs.EnvSpec`); the defense is applied to the fresh
    machine *before* attacker calibration, exactly as a deployed
    mitigation would precede the attacker's arrival.  ``stages`` is a
    prefix-closed subset of :data:`STAGES` (monitor needs construct's
    eviction sets; recover needs monitor's classifier).
    """

    env: object = "cloud"
    defense: str = "none"
    defense_seed: int = 0
    algorithm: str = "bins"
    budget_ms: float = 100.0
    #: Overall simulated budget for the bulk construction stage.  An
    #: effective defense makes every per-set construction exhaust its
    #: ``budget_ms``; the overall deadline keeps such trials bounded
    #: instead of 30x more expensive than undefended ones.
    bulk_budget_ms: float = 500.0
    stages: Tuple[str, ...] = STAGES
    n_traces: int = 2
    scan_timeout_s: float = 1.0
    #: Cap on eviction sets fed to the scanner's labeled collection.
    monitor_sets: int = 6


@dataclasses.dataclass
class DefenseTrialSample:
    """One (defense, seed) cell of the matrix."""

    defense: str
    n_evsets: int = 0
    valid_evsets: int = 0
    construct_rate: float = 0.0
    construct_timed_out: bool = False
    target_covered: bool = False
    monitor_accuracy: float = 0.0
    monitor_fnr: float = 0.0
    monitor_fpr: float = 0.0
    target_identified: bool = False
    recovered_fraction: float = 0.0
    bit_error_rate: float = 0.0
    error: str = ""


def defended_env(
    env, seed: int, defense: str, defense_seed: int = 0
):
    """Machine + calibrated context with ``defense`` applied pre-attack.

    Mirrors :func:`repro.envs.make_env` (same presets, same seeding
    conventions) but inserts :func:`~repro.defenses.apply_defense`
    between machine construction and attacker calibration —
    :func:`make_env` calibrates before returning, which would trip the
    defenses' pristine-machine guard.
    """
    from ..envs import ENVIRONMENTS, EnvSpec
    from ..memsys.machine import Machine

    if isinstance(env, EnvSpec):
        cfg = MACHINE_PRESETS[env.machine]()
        noise = NOISE_PRESETS[env.noise]
        if env.exposure_matched:
            noise = exposure_matched(noise, cfg)
        ctx_seed = seed + 1
    else:
        cfg_factory, noise_factory, matched = ENVIRONMENTS[env]
        cfg = cfg_factory()
        noise = noise_factory()
        if matched:
            noise = exposure_matched(noise, cfg)
        ctx_seed = seed * 7 + 1
    machine = Machine(cfg, noise=noise, seed=seed)
    apply_defense(machine, default_defense_spec(cfg, defense, seed=defense_seed))
    ctx = AttackerContext(machine, seed=ctx_seed)
    ctx.calibrate()
    return machine, ctx


def defense_trial(cfg: DefenseTrialConfig, seed: int) -> DefenseTrialSample:
    """Run the staged attack pipeline against one defended machine."""
    from ..victim import EcdsaVictim, VictimConfig

    sample = DefenseTrialSample(defense=cfg.defense)
    machine, ctx = defended_env(cfg.env, seed, cfg.defense, cfg.defense_seed)
    victim_core = min(2, machine.cfg.cores - 1)
    victim = EcdsaVictim(
        machine, core=victim_core, cfg=VictimConfig(), seed=seed + 100
    )
    if "construct" not in cfg.stages:
        return sample

    # -- Stage 1: bulk construction at the victim's page offset -------------
    deadline = machine.now + int(
        cfg.bulk_budget_ms * machine.cfg.clock_ghz * 1e6
    )
    try:
        bulk = bulk_construct_page_offset(
            ctx,
            cfg.algorithm,
            victim.layout.target_page_offset,
            EvsetConfig(budget_ms=cfg.budget_ms),
            deadline=deadline,
        )
    except ReproError as exc:
        sample.error = f"construct: {exc}"
        return sample
    sample.construct_timed_out = bulk.timed_out
    sample.n_evsets = len(bulk.evsets)
    valid, _covered = bulk.coverage(ctx)
    sample.valid_evsets = valid
    sample.construct_rate = valid / max(1, len(bulk.evsets))
    target_set = machine.hierarchy.shared_set_index(victim.layout.monitored_line)
    target_evsets = [
        e for e in bulk.evsets if ctx.true_set_of(e.target_va) == target_set
    ]
    sample.target_covered = bool(target_evsets)
    if "monitor" not in cfg.stages:
        return sample
    if not target_evsets:
        sample.error = "monitor: no eviction set covers the target set"
        return sample

    # -- Stage 2: scanner accuracy on held-out labeled traces ---------------
    scfg = ScannerConfig()
    scan_evsets = (target_evsets[:1] + [
        e for e in bulk.evsets if e not in target_evsets
    ])[: max(2, cfg.monitor_sets)]
    victim.run_continuously(machine.now + 1000)
    # Balance the classes: one target evset among several decoys starves
    # the positive class unless the target set is oversampled.
    reps = max(2, len(scan_evsets) - 1)
    try:
        traces, labels = collect_labeled_traces(
            ctx, scan_evsets, target_set, scfg, per_set=2,
            positive_reps=2 * reps,
        )
        classifier = TargetSetClassifier(machine.clock_hz, scfg).fit(
            traces, labels
        )
        held_out = collect_labeled_traces(
            ctx, scan_evsets, target_set, scfg, per_set=1,
            positive_reps=reps,
        )
        report = classifier.validate(*held_out)
    except ReproError as exc:
        sample.error = f"monitor: {exc}"
        return sample
    sample.monitor_accuracy = report.accuracy
    sample.monitor_fnr = report.false_negative_rate
    sample.monitor_fpr = report.false_positive_rate
    if "recover" not in cfg.stages:
        return sample

    # -- Stage 3: end-to-end key recovery -----------------------------------
    try:
        attack = run_end_to_end(
            ctx,
            victim,
            classifier,
            AttackConfig(
                algorithm=cfg.algorithm,
                evset=EvsetConfig(budget_ms=cfg.budget_ms),
                n_traces=cfg.n_traces,
                scan_timeout_s=cfg.scan_timeout_s,
            ),
            evsets=bulk.evsets,
        )
    except ReproError as exc:
        sample.error = f"recover: {exc}"
        return sample
    sample.target_identified = attack.target_identified
    sample.recovered_fraction = attack.mean_recovered_fraction
    sample.bit_error_rate = attack.mean_bit_error_rate
    return sample


def defense_matrix_campaign(
    env="cloud",
    defenses: Optional[Sequence[str]] = None,
    trials_per_defense: int = 2,
    algorithm: str = "bins",
    budget_ms: float = 100.0,
    bulk_budget_ms: float = 500.0,
    stages: Sequence[str] = STAGES,
    base_seed: int = 1000,
    n_traces: int = 2,
    name: Optional[str] = None,
):
    """The full matrix: ``defenses`` × ``trials_per_defense`` seeds.

    Seeding gives trial ``i`` of every defense the same machine seed
    (``base_seed + i``), so per-defense columns are paired comparisons on
    identical undefended machines.
    """
    from ..exec.campaigns import grid_campaign
    from ..exec.spec import dataclass_codec

    if defenses is None:
        defenses = DEFENSE_NAMES
    for defense in defenses:
        if defense not in DEFENSE_NAMES:
            raise ValueError(f"unknown defense {defense!r}")
    grid = []
    for defense in defenses:
        cfg = DefenseTrialConfig(
            env=env,
            defense=defense,
            algorithm=algorithm,
            budget_ms=budget_ms,
            bulk_budget_ms=bulk_budget_ms,
            stages=tuple(stages),
            n_traces=n_traces,
        )
        for i in range(trials_per_defense):
            grid.append((cfg, base_seed + i))
    env_tag = env if isinstance(env, str) else env.machine
    return grid_campaign(
        defense_trial,
        grid,
        name=name or f"defense-matrix-{env_tag}",
        codec=dataclass_codec(DefenseTrialSample),
    )


def summarize_defense_samples(
    samples: Sequence[DefenseTrialSample],
) -> List[Dict[str, object]]:
    """Per-defense aggregate rows (insertion order of first appearance)."""
    by_defense: Dict[str, List[DefenseTrialSample]] = {}
    for sample in samples:
        by_defense.setdefault(sample.defense, []).append(sample)
    rows: List[Dict[str, object]] = []
    for defense, group in by_defense.items():
        n = max(1, len(group))
        rows.append({
            "defense": defense,
            "trials": len(group),
            "construct_rate": mean([s.construct_rate for s in group]),
            "target_covered": sum(s.target_covered for s in group) / n,
            "monitor_accuracy": mean([s.monitor_accuracy for s in group]),
            "identified": sum(s.target_identified for s in group) / n,
            "recovered": mean([s.recovered_fraction for s in group]),
            "ber": mean([s.bit_error_rate for s in group]),
            "errors": sum(1 for s in group if s.error),
        })
    return rows
