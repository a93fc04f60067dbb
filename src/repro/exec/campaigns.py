"""Reusable paper campaigns: the trial functions behind the Monte-Carlo
tables.

Every table and figure in the reproduction is a campaign of independent
seeded trials; this module holds the picklable trial functions and the
campaign builders for the common ones, so the benchmark harness, the
tests, and ``python -m repro campaign`` all run the *same* code path.

Trial functions follow the engine contract ``fn(config, seed) -> result``
with a picklable config and a JSON-codable (or codec-equipped) result.
Seeding reproduces the pre-engine benchmark convention (trial ``i`` gets
``base_seed + i``) so results are byte-identical to the historical serial
loops.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from .._util import mean, median, stddev
from ..core.evset import (
    EvsetConfig,
    build_candidate_set,
    bulk_construct_page_offset,
    bulk_construct_whole_sys,
    construct_sf_evset,
)
from ..envs import EnvLike, make_env
from .spec import Campaign, arithmetic_seeds, dataclass_codec

#: Default page offset used when a campaign needs an arbitrary one.
PAGE_OFFSET = 0x240


@dataclasses.dataclass
class ConstructionSample:
    """One eviction-set construction trial's outcome."""

    success: bool
    valid: bool
    elapsed_ms: float
    tests: int
    backtracks: int
    traversed: int


@dataclasses.dataclass(frozen=True)
class ConstructionTrialConfig:
    """Config of one SingleSet SF construction trial.

    ``filtered=True`` prepends the paper's L2-driven candidate filtering
    pass (Section 5.3) to the construction, as Table 4 does.
    """

    env: EnvLike = "cloud"
    algorithm: str = "bins"
    evset_cfg: EvsetConfig = dataclasses.field(default_factory=EvsetConfig)
    page_offset: int = PAGE_OFFSET
    filtered: bool = False


def construction_trial(
    cfg: ConstructionTrialConfig, seed: int
) -> ConstructionSample:
    """One SingleSet SF construction on a fresh machine.

    Byte-for-byte the trial body of the historical serial loops in
    ``benchmarks/_common.run_single_set_trials`` (unfiltered) and Table
    4's filtered variant, so engine-run campaigns reproduce their values.
    """
    machine, ctx = make_env(cfg.env, seed=seed)
    vas = build_candidate_set(ctx, cfg.page_offset).vas
    target = vas.pop()
    if cfg.filtered:
        from ..core.evset.filtering import build_l2_eviction_set, filter_candidates

        start = machine.now
        try:
            l2e = build_l2_eviction_set(ctx, target, cfg.evset_cfg)
            filtered = filter_candidates(ctx, l2e, vas)
            outcome = construct_sf_evset(
                ctx, cfg.algorithm, target, filtered, cfg.evset_cfg
            )
            success = outcome.success
            valid = False
            if success:
                sets = {ctx.true_set_of(v) for v in outcome.evset.vas}
                valid = len(sets) == 1 and ctx.true_set_of(target) in sets
        except Exception:
            success = valid = False
        elapsed_ms = (machine.now - start) / (machine.cfg.clock_ghz * 1e6)
        return ConstructionSample(success, valid, elapsed_ms, 0, 0, 0)
    outcome = construct_sf_evset(
        ctx, cfg.algorithm, target, vas, cfg.evset_cfg
    )
    valid = False
    if outcome.success:
        sets = {ctx.true_set_of(v) for v in outcome.evset.vas}
        valid = len(sets) == 1 and ctx.true_set_of(target) in sets
    return ConstructionSample(
        success=outcome.success,
        valid=valid,
        elapsed_ms=outcome.elapsed_ms(machine.cfg.clock_ghz),
        tests=outcome.stats.tests,
        backtracks=outcome.stats.backtracks,
        traversed=outcome.stats.traversed_addresses,
    )


def construction_campaign(
    env: EnvLike = "cloud",
    algorithm: str = "bins",
    trials: int = 4,
    evset_cfg: Optional[EvsetConfig] = None,
    base_seed: int = 1000,
    page_offset: int = PAGE_OFFSET,
    filtered: bool = False,
    name: Optional[str] = None,
) -> Campaign:
    """Repeated SingleSet SF constructions, fresh machine per trial."""
    cfg = ConstructionTrialConfig(
        env=env,
        algorithm=algorithm,
        evset_cfg=evset_cfg if evset_cfg is not None else EvsetConfig(),
        page_offset=page_offset,
        filtered=filtered,
    )
    env_tag = env if isinstance(env, str) else env.noise
    return Campaign(
        name=name or f"construction-{env_tag}-{algorithm}",
        fn=construction_trial,
        configs=tuple(cfg for _ in range(trials)),
        seeds=arithmetic_seeds(base_seed, trials),
        codec=dataclass_codec(ConstructionSample),
    )


def summarize_construction_samples(
    samples: Sequence[ConstructionSample],
) -> Dict[str, float]:
    """success rate + avg/std/median time of construction samples."""
    times = [s.elapsed_ms for s in samples]
    return {
        "succ": sum(1 for s in samples if s.valid) / max(1, len(samples)),
        "avg_ms": mean(times),
        "std_ms": stddev(times),
        "med_ms": median(times),
    }


@dataclasses.dataclass(frozen=True)
class BulkTrialConfig:
    """Config of one bulk (PageOffset / WholeSys) construction run."""

    env: EnvLike = "cloud"
    algorithm: str = "bins"
    scenario: str = "page-offset"  # or "whole-sys"
    page_offset: int = PAGE_OFFSET
    offsets: Optional[Tuple[int, ...]] = None
    evset_cfg: EvsetConfig = dataclasses.field(
        default_factory=lambda: EvsetConfig(budget_ms=100.0)
    )


def bulk_trial(cfg: BulkTrialConfig, seed: int) -> Dict[str, float]:
    """One bulk construction run; returns its success rate and sim time."""
    machine, ctx = make_env(cfg.env, seed=seed)
    if cfg.scenario == "page-offset":
        result = bulk_construct_page_offset(
            ctx, cfg.algorithm, cfg.page_offset, cfg.evset_cfg
        )
    elif cfg.scenario == "whole-sys":
        result = bulk_construct_whole_sys(
            ctx,
            cfg.algorithm,
            cfg.evset_cfg,
            offsets=list(cfg.offsets) if cfg.offsets is not None else None,
        )
    else:
        raise ValueError(f"unknown bulk scenario {cfg.scenario!r}")
    return {
        "rate": result.success_rate(ctx),
        "seconds": result.elapsed_seconds(machine.cfg.clock_ghz),
    }


def bulk_campaign(
    runs: Sequence[Tuple[BulkTrialConfig, int]], name: str = "bulk"
) -> Campaign:
    """A campaign over heterogeneous (config, seed) bulk runs.

    Used by the Table 4 harness to fan its (env, algo) grid out as
    independent trials.
    """
    configs = tuple(cfg for cfg, _ in runs)
    seeds = tuple(seed for _, seed in runs)
    return Campaign(name=name, fn=bulk_trial, configs=configs, seeds=seeds)


def grid_campaign(
    fn,
    grid: Sequence[Tuple[object, int]],
    name: str = "grid",
    codec=None,
) -> Campaign:
    """A campaign over an explicit (config, seed) list for any trial fn."""
    from .spec import IDENTITY_CODEC

    return Campaign(
        name=name,
        fn=fn,
        configs=tuple(cfg for cfg, _ in grid),
        seeds=tuple(seed for _, seed in grid),
        codec=codec if codec is not None else IDENTITY_CODEC,
    )


#: Named campaign builders for ``python -m repro campaign --name ...``.
#: Each maps parsed CLI args to a Campaign.
def _cli_construction(args) -> Campaign:
    return construction_campaign(
        env=args.campaign_env,
        algorithm=args.algo,
        trials=args.trials,
        evset_cfg=EvsetConfig(budget_ms=args.budget_ms),
        base_seed=args.seed,
        page_offset=args.page_offset,
        filtered=args.filtered,
    )


def _cli_bulk_page_offset(args) -> Campaign:
    cfg = BulkTrialConfig(
        env=args.campaign_env,
        algorithm=args.algo,
        scenario="page-offset",
        page_offset=args.page_offset,
        evset_cfg=EvsetConfig(budget_ms=args.budget_ms),
    )
    runs = [(cfg, args.seed + i) for i in range(args.trials)]
    return bulk_campaign(runs, name=f"bulk-pageoffset-{args.campaign_env}-{args.algo}")


def _cli_noise_mc(args) -> Campaign:
    # Lazy: repro.fleet imports repro.exec, so the dependency must point
    # that way.  Serial `campaign --name noise-mc` is the parity oracle
    # for the fleet's sharded runs of the same campaign.
    from ..fleet.campaigns import _cli_noise_mc as build

    return build(args)


def _cli_defense_matrix(args) -> Campaign:
    # Lazy: repro.defenses.matrix pulls in the whole attack pipeline.
    from ..defenses.matrix import STAGES, defense_matrix_campaign

    defenses = getattr(args, "defenses", None)
    stages = getattr(args, "stages", None)
    return defense_matrix_campaign(
        env=args.campaign_env,
        defenses=tuple(defenses.split(",")) if defenses else None,
        trials_per_defense=args.trials,
        algorithm=args.algo,
        budget_ms=args.budget_ms,
        bulk_budget_ms=getattr(args, "bulk_budget_ms", 500.0),
        stages=tuple(stages.split(",")) if stages else STAGES,
        base_seed=args.seed,
    )


CLI_CAMPAIGNS = {
    "construction": _cli_construction,
    "bulk-pageoffset": _cli_bulk_page_offset,
    "noise-mc": _cli_noise_mc,
    "defense-matrix": _cli_defense_matrix,
}
