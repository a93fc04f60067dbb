"""Command-line interface: quick experiments without writing a script.

Usage (also via ``python -m repro``):

    python -m repro machines                 # list machine presets
    python -m repro noise                    # list noise presets
    python -m repro evset --algo bins --env cloud --trials 8 --jobs 4
    python -m repro monitor --duration-us 500 --env cloud
    python -m repro attack --traces 3
    python -m repro campaign --name construction --campaign-env cloud \\
        --algo bins --trials 16 --jobs 4 --journal-dir .repro/journals

Each subcommand builds a fresh simulated environment, runs the stage, and
prints a short report.  Seeds default to 0 and make runs reproducible;
``--jobs N`` fans seeded trials out over N worker processes through
:mod:`repro.exec` without changing any result.  ``campaign`` runs a named
trial campaign with journaling: rerunning the same campaign resumes from
its journal instead of recomputing finished trials.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import Table, format_progress, format_seconds
from .config import (
    MACHINE_PRESETS,
    NOISE_PRESETS,
    exposure_matched,
)
from .core.context import AttackerContext
from .core.evset import EvsetConfig, bulk_construct_page_offset
from .core.evset.driver import algorithm_names
from .core.monitor import ParallelProbing, monitor_set
from .core.pipeline import AttackConfig, run_end_to_end
from .core.scanner import ScannerConfig, TargetSetClassifier, collect_labeled_traces
from .envs import EnvSpec, environment_names
from .errors import ReproError
from .exec import (
    CampaignJournal,
    ConstructionSample,
    ExecPolicy,
    ProgressReporter,
    construction_campaign,
    default_jobs,
    run_campaign,
    summarize_construction_samples,
)
from .exec.campaigns import CLI_CAMPAIGNS
from .exec.journal import DEFAULT_JOURNAL_DIR
from .fleet.store import DEFAULT_FLEET_DIR
from .memsys.machine import Machine
from .victim import EcdsaVictim, VictimConfig


def _build_env(args):
    cfg = MACHINE_PRESETS[args.machine]()
    noise = NOISE_PRESETS[args.env]
    if args.exposure_matched:
        noise = exposure_matched(noise, cfg)
    machine = Machine(cfg, noise=noise, seed=args.seed)
    ctx = AttackerContext(machine, seed=args.seed + 1)
    ctx.calibrate()
    return machine, ctx


def cmd_machines(args) -> int:
    table = Table("Machine presets", ["Name", "Description"])
    for name, factory in MACHINE_PRESETS.items():
        table.add_row(name, factory().describe())
    table.print()
    return 0


def cmd_noise(args) -> int:
    table = Table(
        "Noise presets", ["Name", "LLC accesses/ms/set", "SF fraction"]
    )
    for name, preset in NOISE_PRESETS.items():
        table.add_row(
            name, f"{preset.llc_accesses_per_ms_per_set:g}",
            f"{preset.sf_fraction:g}",
        )
    table.print()
    return 0


def _resolve_jobs(args) -> int:
    return default_jobs() if args.jobs == 0 else args.jobs


def _checked(args, build):
    """``build()``'s policy; a flag value the policy rejects (its
    ``ValueError``) is a usage error, reported as argparse reports a bad
    choice: a usage line, the message, exit status 2."""
    try:
        return build()
    except ValueError as exc:
        args.parser.error(str(exc))


def cmd_evset(args) -> int:
    table = Table(
        f"SF eviction-set construction ({args.algo}, {args.env})",
        ["Trial", "Success", "Valid", "Sim time", "TestEvictions"],
    )
    campaign = construction_campaign(
        env=EnvSpec(
            machine=args.machine,
            noise=args.env,
            exposure_matched=args.exposure_matched,
        ),
        algorithm=args.algo,
        trials=args.trials,
        evset_cfg=EvsetConfig(budget_ms=args.budget_ms),
        base_seed=args.seed,
        page_offset=args.page_offset,
    )
    policy = _checked(args, lambda: ExecPolicy(jobs=_resolve_jobs(args)))
    result = run_campaign(campaign, policy).raise_on_failure()
    successes = 0
    for trial, sample in enumerate(result.values()):
        valid = "-"
        if sample.success:
            successes += sample.valid
            valid = "yes" if sample.valid else "NO"
        table.add_row(
            trial, "yes" if sample.success else "no", valid,
            format_seconds(sample.elapsed_ms / 1e3),
            sample.tests,
        )
    table.print()
    print(f"valid: {successes}/{args.trials}")
    return 0 if successes else 1


def cmd_monitor(args) -> int:
    machine, ctx = _build_env(args)
    bulk = bulk_construct_page_offset(
        ctx, "bins", args.page_offset, EvsetConfig(budget_ms=100)
    )
    evset = bulk.evsets[0]
    duration = int(args.duration_us * machine.cfg.clock_ghz * 1e3)
    trace = monitor_set(ParallelProbing(ctx, evset), duration)
    print(
        f"monitored one SF set for {args.duration_us:g} us: "
        f"{trace.access_count()} background accesses detected "
        f"({trace.access_count() / (duration / (machine.cfg.clock_ghz * 1e6)):.1f}"
        " per ms)"
    )
    return 0


def cmd_attack(args) -> int:
    machine, ctx = _build_env(args)
    victim = EcdsaVictim(machine, core=2, cfg=VictimConfig(), seed=args.seed + 7)
    scfg = ScannerConfig()
    bulk = bulk_construct_page_offset(
        ctx, "bins", victim.layout.target_page_offset, EvsetConfig(budget_ms=100)
    )
    target_set = machine.hierarchy.shared_set_index(victim.layout.monitored_line)
    victim.run_continuously(machine.now + 1000)
    traces, labels = collect_labeled_traces(ctx, bulk.evsets, target_set, scfg, 2)
    classifier = TargetSetClassifier(machine.clock_hz, scfg).fit(traces, labels)
    report = run_end_to_end(
        ctx, victim, classifier,
        AttackConfig(n_traces=args.traces, scan_timeout_s=1.0),
        evsets=bulk.evsets,
    )
    ghz = machine.cfg.clock_ghz
    print(f"target identified: {report.target_identified}")
    for i, s in enumerate(report.scores):
        print(f"  signing {i}: {s.n_recovered}/{s.n_true_bits} bits "
              f"({s.recovered_fraction:.0%}), BER {s.bit_error_rate:.1%}")
    print(f"median recovered: {report.median_recovered_fraction:.0%}; "
          f"attack time {format_seconds(report.total_seconds(ghz))} (sim)")
    return 0 if report.target_identified else 1


def cmd_campaign(args) -> int:
    if getattr(args, "positional_name", None):
        args.name = args.positional_name
    policy = _checked(args, lambda: ExecPolicy(
        jobs=_resolve_jobs(args),
        timeout_s=args.timeout_s,
        max_retries=args.retries,
        batch=args.batch,
    ))
    campaign = CLI_CAMPAIGNS[args.name](args)
    journal = None
    if not args.no_journal:
        journal = CampaignJournal(args.journal_dir, campaign)
    reporter = ProgressReporter(enabled=args.progress)
    result = run_campaign(campaign, policy, journal=journal, reporter=reporter)

    print(f"campaign: {campaign.name}")
    print(f"fingerprint: {result.fingerprint}")
    if journal is not None:
        print(f"journal: {journal.path}")
    print(format_progress(result.metrics, label=campaign.name))
    values = result.values()
    from .defenses.matrix import DefenseTrialSample, summarize_defense_samples

    if values and isinstance(values[0], DefenseTrialSample):
        table = Table(
            "Defense matrix",
            ["Defense", "Trials", "Constr", "Covered", "Monitor",
             "Identified", "Recovered", "BER", "Errors"],
        )
        for row in summarize_defense_samples(values):
            table.add_row(
                row["defense"],
                row["trials"],
                f"{row['construct_rate'] * 100:.0f}%",
                f"{row['target_covered'] * 100:.0f}%",
                f"{row['monitor_accuracy'] * 100:.0f}%",
                f"{row['identified'] * 100:.0f}%",
                f"{row['recovered'] * 100:.0f}%",
                f"{row['ber'] * 100:.1f}%",
                row["errors"],
            )
        table.print()
    elif values and isinstance(values[0], ConstructionSample):
        summary = summarize_construction_samples(values)
        table = Table(
            "Construction campaign summary",
            ["Trials", "Success", "Avg ms", "Std ms", "Med ms"],
        )
        table.add_row(
            len(values),
            f"{summary['succ'] * 100:.0f}%",
            f"{summary['avg_ms']:.2f}",
            f"{summary['std_ms']:.2f}",
            f"{summary['med_ms']:.2f}",
        )
        table.print()
    elif values and isinstance(values[0], dict):
        keys = sorted(values[0])
        table = Table("Campaign results", ["Trial"] + keys)
        for i, value in enumerate(values):
            table.add_row(i, *(f"{value.get(k)}" for k in keys))
        table.print()
    for failure in result.failures():
        print(
            f"trial {failure.index} (seed {failure.seed}) "
            f"{failure.status}: {failure.error}"
        )
    return 0 if result.ok else 1


#: The fleet verbs that run shards; only they take the scheduling flags.
FLEET_SHARD_VERBS = ("submit", "resume", "drain")


def cmd_fleet(args) -> int:
    """Fleet service verbs (sharded, resumable campaign runs)."""
    # lazy: keep base CLI light
    from .fleet.service import FLEET_VERBS, policy_from_args

    if args.verb in FLEET_SHARD_VERBS:
        args.policy = _checked(args, lambda: policy_from_args(args))
    return FLEET_VERBS[args.verb](args)


def cmd_fuzz(args) -> int:
    """Differential fuzz across the three execution tiers (repro.check)."""
    from .check import (
        DEFAULT_ARTIFACT_DIR,
        MUTATIONS,
        FuzzConfig,
        fuzz_campaign,
        generate_trace,
        replay_artifact,
        run_selftest,
        run_tiers,
        shrink_trace,
        write_artifact,
    )

    artifact_dir = (
        Path(args.artifact_dir) if args.artifact_dir else DEFAULT_ARTIFACT_DIR
    )
    if args.replay:
        try:
            result = replay_artifact(args.replay)
        except (OSError, ReproError) as exc:
            print(f"cannot replay {args.replay}: {exc}")
            return 2
        print(f"replayed {args.replay}: {'ok' if result['ok'] else 'FAILING'}")
        if result["divergent"]:
            print(f"  divergent tiers: {', '.join(result['divergent'])}")
            for tier, delta in result["diffs"].items():
                print(f"  {tier}: {', '.join(delta)}")
        for tier, message in result["violations"].items():
            print(f"  {tier}: invariant violation: {message}")
        return 0 if result["ok"] else 1

    cfg = FuzzConfig(
        machine=args.machine,
        noise=args.noise,
        n_ops=args.ops,
        defense=args.defense,
    )
    if args.self_test:
        status = 0
        for mutation in MUTATIONS:
            summary = run_selftest(
                dataclasses.replace(cfg, noise="none", defense="none"),
                artifact_dir=artifact_dir,
                mutation=mutation,
            )
            if not summary["caught"]:
                print(
                    f"SELF-TEST FAILED: injected {mutation} mutation "
                    f"not detected in {summary['seeds_tried']} seeds"
                )
                status = 1
                continue
            print(
                f"self-test: injected {mutation} mutation caught at seed "
                f"{summary['seed']} (tiers {', '.join(summary['divergent'])}); "
                f"trace shrunk {summary['ops_before']} -> "
                f"{summary['ops_after']} ops; clean after unpatch: "
                f"{summary['clean_after_unpatch']}"
            )
            print(f"artifact: {summary['artifact']}")
            if not (summary["shrunk_still_fails"]
                    and summary["clean_after_unpatch"]):
                status = 1
        return status

    campaign = fuzz_campaign(cfg, args.seeds, base_seed=args.seed)
    policy = _checked(args, lambda: ExecPolicy(
        jobs=_resolve_jobs(args), timeout_s=args.timeout_s
    ))
    reporter = ProgressReporter(enabled=args.progress)
    result = run_campaign(campaign, policy, reporter=reporter)
    print(format_progress(result.metrics, label=campaign.name))
    failing = [r for r in result.values() if not r["ok"]]
    crashed = result.failures()
    divergences = sum(1 for r in failing if r["divergent"])
    violations = sum(1 for r in failing if r["violations"])
    checks = sum(r["checks"] for r in result.values())
    print(
        f"fuzz: {len(result.records)} traces on {args.machine} "
        f"({checks} invariant checks): "
        f"{divergences} tier divergences, {violations} invariant violations"
    )
    for record in crashed:
        print(f"trial {record.index} (seed {record.seed}) "
              f"{record.status}: {record.error}")
    for failure in failing:
        seed = failure["seed"]
        print(f"seed {seed}: divergent={failure['divergent']} "
              f"violations={sorted(failure['violations'])}")
        trace = generate_trace(cfg, seed)
        shrunk = shrink_trace(trace, lambda t: not run_tiers(t)["ok"])
        artifact = write_artifact(
            artifact_dir / f"diverge-seed{seed}.json",
            shrunk,
            {"kind": "fuzz-divergence", "seed": seed,
             "result": run_tiers(shrunk)},
        )
        print(f"  shrunk to {len(shrunk['ops'])} ops -> {artifact}")
    return 0 if not failing and not crashed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LLC/SF Prime+Probe attack reproduction (simulated)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--machine", default="skylake-small",
                       choices=sorted(MACHINE_PRESETS))
        p.add_argument("--env", default="cloud", choices=sorted(NOISE_PRESETS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--page-offset", type=lambda s: int(s, 0), default=0x240)
        p.add_argument(
            "--exposure-matched", action="store_true",
            help="scale the noise rate to match full-scale per-test exposure",
        )
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for trial fan-out (0 = all cores); "
            "results are identical for any value",
        )
        p.set_defaults(parser=p)

    sub.add_parser("machines", help="list machine presets").set_defaults(
        fn=cmd_machines
    )
    sub.add_parser("noise", help="list noise presets").set_defaults(fn=cmd_noise)

    p = sub.add_parser("evset", help="construct SF eviction sets")
    common(p)
    p.add_argument("--algo", default="bins", choices=algorithm_names())
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--budget-ms", type=float, default=1000.0)
    p.set_defaults(fn=cmd_evset)

    p = sub.add_parser("monitor", help="monitor one SF set for noise")
    common(p)
    p.add_argument("--duration-us", type=float, default=500.0)
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser("attack", help="run the end-to-end ECDSA attack")
    common(p)
    p.add_argument("--traces", type=int, default=3)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser(
        "campaign",
        help="run a named trial campaign on the parallel engine "
        "(journaled, resumable)",
    )
    p.add_argument("positional_name", nargs="?", default=None,
                   metavar="NAME", choices=sorted(CLI_CAMPAIGNS),
                   help="campaign name (equivalent to --name)")
    p.add_argument("--name", default="construction",
                   choices=sorted(CLI_CAMPAIGNS))
    p.add_argument("--campaign-env", default="cloud",
                   choices=environment_names(),
                   help="named benchmark environment for the trials")
    p.add_argument("--algo", default="bins", choices=algorithm_names())
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--budget-ms", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=1000,
                   help="base seed of the campaign's trial seed stream")
    p.add_argument("--page-offset", type=lambda s: int(s, 0), default=0x240)
    p.add_argument("--filtered", action="store_true",
                   help="enable L2-driven candidate filtering (Table 4)")
    p.add_argument("--defenses", default=None,
                   help="defense-matrix: comma-separated defense names "
                   "(default: all of none,way-partition,ceaser,skew,"
                   "soft-copy)")
    p.add_argument("--stages", default=None,
                   help="defense-matrix: comma-separated pipeline stages "
                   "(prefix of construct,monitor,recover)")
    p.add_argument("--bulk-budget-ms", type=float, default=500.0,
                   help="defense-matrix: overall simulated deadline for "
                   "the bulk-construction stage (bounds trials whose "
                   "defense defeats construction)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = all cores)")
    p.add_argument("--timeout-s", type=float, default=None,
                   help="per-trial wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="resubmissions allowed after worker crashes")
    p.add_argument("--batch", type=int, default=1,
                   help="trials per pool task with --jobs > 1 (default 1); "
                   "results are identical for any value")
    p.add_argument("--journal-dir", default=str(DEFAULT_JOURNAL_DIR),
                   help="JSONL journal directory (reruns resume from it)")
    p.add_argument("--no-journal", action="store_true",
                   help="disable the result journal for this run")
    p.add_argument("--progress", action="store_true",
                   help="stream live progress (trials/s, ETA) to stderr")
    p.set_defaults(fn=cmd_campaign, parser=p)

    p = sub.add_parser(
        "fleet",
        help="sharded, resumable campaign service "
        "(submit / status / resume / drain / aggregate)",
    )
    fleet_sub = p.add_subparsers(dest="verb", required=True)

    def fleet_verb(verb, help_text):
        fp = fleet_sub.add_parser(verb, help=help_text)
        fp.add_argument("--fleet-dir", default=str(DEFAULT_FLEET_DIR),
                        help="root directory for fleet run state")
        fp.set_defaults(fn=cmd_fleet, parser=fp)
        if verb not in FLEET_SHARD_VERBS:
            return fp
        fp.add_argument("--max-inflight", type=int, default=2,
                        help="shards executing concurrently")
        fp.add_argument("--jobs-per-shard", type=int, default=1,
                        help="worker processes per in-flight shard, reused "
                        "across shards (0 invalid)")
        fp.add_argument("--shard-retries", type=int, default=2,
                        help="retries (with backoff) for a crashed shard")
        fp.add_argument("--timeout-s", type=float, default=None,
                        help="per-trial wall-clock timeout in seconds")
        fp.add_argument("--batch", type=int, default=1,
                        help="trials per pool task inside each shard with "
                        "--jobs-per-shard > 1 (default 1)")
        fp.add_argument("--flush-every", type=int, default=64,
                        help="trials per durable segment flush")
        fp.add_argument("--stop-after-shards", type=int, default=None,
                        help="drain gracefully after N shards (ops/test knob)")
        fp.add_argument("--progress", action="store_true",
                        help="stream live progress (trials/s, ETA) to stderr")
        return fp

    fp = fleet_verb("submit", "run a named campaign sharded")
    fp.add_argument("--name", default="noise-mc",
                    help="campaign to run (exec campaigns + fleet campaigns)")
    fp.add_argument("--shard-size", type=int, default=256,
                    help="trials per shard (the dispatch/resume unit)")
    fp.add_argument("--campaign-env", default="cloud",
                    help="named environment / noise preset for the trials")
    fp.add_argument("--algo", default="bins", choices=algorithm_names())
    fp.add_argument("--trials", type=int, default=100_000)
    fp.add_argument("--budget-ms", type=float, default=1000.0)
    fp.add_argument("--seed", type=int, default=1000,
                    help="base seed of the campaign's trial seed stream")
    fp.add_argument("--page-offset", type=lambda s: int(s, 0), default=0x240)
    fp.add_argument("--filtered", action="store_true")
    fp.add_argument("--window-ms", type=float, default=0.5,
                    help="noise-mc exposure window per trial")
    fp.add_argument("--hosts", type=int, default=256,
                    help="dc-placement: simulated datacenter size")
    fp.add_argument("--dc-seed", type=int, default=0,
                    help="dc-placement: datacenter churn/placement seed")

    # resume and drain run the shards planned at submit: no --shard-size.
    for verb, help_text in (
        ("resume", "finish a run's pending shards"),
        ("drain", "finish only started shards, then compact"),
        ("status", "show run progress from disk"),
        ("aggregate", "stream a run's store into aggregates"),
    ):
        fp = fleet_verb(verb, help_text)
        fp.add_argument("run", nargs="?" if verb == "status" else None,
                        default=None if verb == "status" else argparse.SUPPRESS,
                        help="run id (directory name or unique prefix)")
        if verb == "status":
            fp.add_argument("--verbose", action="store_true",
                            help="list complete shards too")
        if verb == "aggregate":
            fp.add_argument("--verify-serial", action="store_true",
                            help="re-run the campaign serially and require "
                            "value-identical aggregates")

    p = sub.add_parser(
        "fuzz",
        help="differential-fuzz the three execution tiers "
        "(reference/batched/kernels) with invariant checking",
    )
    p.add_argument("--seeds", type=int, default=50,
                   help="number of traces (seed range is base..base+N-1)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed of the fixed fuzz seed range")
    p.add_argument("--machine", default="tiny",
                   choices=sorted(MACHINE_PRESETS))
    p.add_argument("--noise", default="mix",
                   choices=sorted(NOISE_PRESETS) + ["mix"],
                   help="noise preset, or 'mix' to draw per trace")
    p.add_argument("--defense", default="mix",
                   choices=["mix", "none", "way-partition", "ceaser",
                            "skew", "soft-copy"],
                   help="pin the trace grammar's defense axis to one "
                   "defense (default: draw per trace)")
    p.add_argument("--ops", type=int, default=10,
                   help="operations drawn per trace (plus setup)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = all cores)")
    p.add_argument("--timeout-s", type=float, default=None,
                   help="per-trace wall-clock timeout in seconds")
    p.add_argument("--artifact-dir", default=None,
                   help="where to write shrunk diverging-trace artifacts "
                   "(default .repro/fuzz)")
    p.add_argument("--self-test", action="store_true",
                   help="inject each self-test mutation (data plane, "
                   "kernel description) and prove the harness catches it")
    p.add_argument("--replay", default=None, metavar="ARTIFACT",
                   help="re-run a saved trace artifact across all tiers")
    p.add_argument("--progress", action="store_true",
                   help="stream live progress (trials/s, ETA) to stderr")
    p.set_defaults(fn=cmd_fuzz, parser=p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
