"""Fleet service verbs: submit / status / resume / drain / aggregate.

``python -m repro fleet`` fronts this module.  A *run* is a directory
under the fleet root (one per campaign fingerprint, see
:mod:`repro.fleet.store`); its ``meta.json`` records the CLI spec that
built the campaign, so ``resume`` and ``aggregate`` can rebuild the
exact campaign — and verify its fingerprint — with no other state.

Verbs:

* ``submit``  — build the named campaign, plan shards, run the scheduler
  until complete (or drained via SIGINT/SIGTERM/``--stop-after-shards``).
* ``resume``  — rebuild a run's campaign from its ``meta.json`` and
  drive the remaining shards; a no-op for complete runs.
* ``status``  — list runs (or one run's per-shard progress) from disk.
* ``drain``   — finish only the shards that already started (partial
  segments), then compact: the "finish what you began, start nothing
  new" shutdown for a run that will not continue.
* ``aggregate`` — stream the store into constant-memory aggregates;
  ``--verify-serial`` re-runs the campaign serially in-process and
  asserts value-identical aggregates (the fleet's parity oracle).
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Optional

from ..analysis.streaming import aggregate_values
from ..exec.campaigns import CLI_CAMPAIGNS
from ..exec.executor import ExecPolicy, run_campaign
from ..exec.progress import ProgressReporter
from ..exec.spec import Campaign
from .campaigns import FLEET_CAMPAIGNS, quiet_hours_priority
from .datacenter import Datacenter, DatacenterConfig
from .scheduler import FleetPolicy, FleetReport, FleetScheduler
from .sharding import DEFAULT_SHARD_SIZE
from .store import FleetStore

#: Everything submittable to the fleet: the generic CLI campaigns plus
#: the fleet-native (cheap Monte-Carlo / placement) ones.
SUBMITTABLE = {**CLI_CAMPAIGNS, **FLEET_CAMPAIGNS}

#: The CLI args a campaign builder may consume; persisted to meta.json
#: so resume/aggregate can rebuild the campaign bit-identically.
_SPEC_FIELDS = (
    "campaign_env",
    "algo",
    "trials",
    "budget_ms",
    "seed",
    "page_offset",
    "filtered",
    "window_ms",
    "hosts",
    "dc_seed",
)

_SPEC_DEFAULTS = {
    "campaign_env": "cloud",
    "algo": "bins",
    "trials": 8,
    "budget_ms": 1000.0,
    "seed": 1000,
    "page_offset": 0x240,
    "filtered": False,
    "window_ms": 0.5,
    "hosts": 256,
    "dc_seed": 0,
}


def cli_spec(name: str, args) -> Dict:
    """The JSON-codable rebuild spec of a CLI-submitted campaign."""
    spec = {"campaign": name}
    for field in _SPEC_FIELDS:
        spec[field] = getattr(args, field, _SPEC_DEFAULTS[field])
    return spec


def build_campaign(spec: Dict) -> Campaign:
    """Rebuild a campaign from its spec (same path submit used)."""
    name = spec["campaign"]
    if name not in SUBMITTABLE:
        raise ValueError(f"unknown fleet campaign {name!r}")
    ns = SimpleNamespace(**{**_SPEC_DEFAULTS, **{
        k: v for k, v in spec.items() if k != "campaign"
    }})
    return SUBMITTABLE[name](ns)


def policy_from_args(args) -> FleetPolicy:
    """The policy the scheduling flags ask for.

    Only ``submit`` plans shards, so only it takes ``--shard-size``;
    ``resume`` and ``drain`` run the shards their store planned, at the
    store's shard size (:func:`_drive`).
    """
    return FleetPolicy(
        shard_size=getattr(args, "shard_size", DEFAULT_SHARD_SIZE),
        max_inflight=args.max_inflight,
        jobs_per_shard=args.jobs_per_shard,
        shard_retries=args.shard_retries,
        timeout_s=args.timeout_s,
        flush_every=args.flush_every,
        batch=args.batch,
        stop_after_shards=args.stop_after_shards,
    )


def _priority_for(spec: Dict, campaign: Campaign):
    """Quiet-hours-first dispatch for placement campaigns, else FIFO."""
    if spec.get("campaign") != "dc-placement":
        return None
    datacenter = Datacenter(
        DatacenterConfig(n_hosts=spec.get("hosts", 256)),
        seed=spec.get("dc_seed", 0),
    )
    return quiet_hours_priority(campaign, datacenter)


def _print_report(report: FleetReport, store: FleetStore) -> None:
    state = (
        "complete" if report.complete
        else ("drained" if report.drained else "incomplete")
    )
    print(f"run: {store.run_id} [{state}]")
    print(f"fingerprint: {store.fingerprint}")
    print(
        f"trials: {report.completed_trials}/{report.total_trials} done "
        f"({report.failed_trials} failed) | shards: "
        f"{report.shards_executed} executed, {report.shards_skipped} skipped, "
        f"{report.shards_failed} with failures, "
        f"{report.shard_retries} retried | {report.elapsed_s:.2f}s wall"
    )


def _drive(store: FleetStore, spec: Dict, args, shards=None) -> int:
    """Common submit/resume/drain body: schedule ``args.policy`` at the
    store's shard size, run, compact when complete."""
    store.write_meta({"cli": spec})
    reporter = ProgressReporter(enabled=args.progress)
    scheduler = FleetScheduler(
        store.campaign,
        store,
        dataclasses.replace(args.policy, shard_size=store.shard_size),
        priority=_priority_for(spec, store.campaign),
        reporter=reporter,
    )
    # SIGINT/SIGTERM drain gracefully: in-flight shards finish and flush.
    previous = {
        signum: signal.signal(
            signum, lambda _signum, _frame: scheduler.request_drain()
        )
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        report = scheduler.run(shards)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    _print_report(report, store)
    if report.complete:
        path = store.compact()
        print(f"compacted: {path}")
        summary = aggregate_values(v for _, v in store.iter_values())
        print("aggregates: " + json.dumps(summary, sort_keys=True))
    if report.failed_trials or report.shards_failed:
        return 1
    return 0


# -- verbs -------------------------------------------------------------------


def cmd_submit(args) -> int:
    if args.name not in SUBMITTABLE:
        print(f"unknown campaign {args.name!r}; "
              f"choose from {sorted(SUBMITTABLE)}", file=sys.stderr)
        return 2
    spec = cli_spec(args.name, args)
    store = FleetStore(args.fleet_dir, build_campaign(spec), args.shard_size)
    return _drive(store, spec, args)


def _find_run_dir(root: Path, run: str) -> Optional[Path]:
    root = Path(root)
    direct = root / run
    if direct.is_dir():
        return direct
    matches = sorted(
        p for p in root.glob("*") if p.is_dir() and p.name.startswith(run)
    )
    return matches[0] if len(matches) == 1 else None


def _load_meta(run_dir: Path) -> Optional[Dict]:
    path = run_dir / FleetStore.META
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _reopen(args) -> Optional[tuple]:
    """(campaign, spec, store) for an existing run directory, or None."""
    run_dir = _find_run_dir(Path(args.fleet_dir), args.run)
    if run_dir is None:
        print(f"no unique run matching {args.run!r} under {args.fleet_dir}",
              file=sys.stderr)
        return None
    meta = _load_meta(run_dir)
    if not meta or "cli" not in meta:
        print(f"{run_dir} has no rebuildable meta.json", file=sys.stderr)
        return None
    campaign = build_campaign(meta["cli"])
    store = FleetStore(args.fleet_dir, campaign, meta["shard_size"])
    if store.fingerprint != meta["fingerprint"]:
        print(
            f"fingerprint mismatch: meta says {meta['fingerprint'][:16]}, "
            f"rebuilt campaign is {store.fingerprint[:16]} "
            "(code version changed?)",
            file=sys.stderr,
        )
        return None
    return campaign, meta, store


def cmd_resume(args) -> int:
    reopened = _reopen(args)
    if reopened is None:
        return 2
    _, meta, store = reopened
    pending = store.pending_shards()
    if not pending:
        print(f"run {store.run_id} already complete")
        return 0
    print(f"resuming {store.run_id}: {len(pending)} shards pending")
    return _drive(store, meta["cli"], args)


def cmd_drain(args) -> int:
    """Finish started-but-incomplete shards only, then compact."""
    reopened = _reopen(args)
    if reopened is None:
        return 2
    campaign, meta, store = reopened
    started = [
        s for s in store.pending_shards() if store.segment_path(s).exists()
    ]
    if started:
        print(f"draining {store.run_id}: finishing {len(started)} "
              "started shards")
        code = _drive(store, meta["cli"], args, shards=started)
        if code:
            return code
    path = store.compact()
    done = store.completed_trials()
    print(f"drained {store.run_id}: {done}/{len(campaign)} trials durable, "
          f"compacted to {path}")
    return 0


def cmd_status(args) -> int:
    root = Path(args.fleet_dir)
    if args.run:
        reopened = _reopen(args)
        if reopened is None:
            return 2
        campaign, meta, store = reopened
        progress = store.progress()
        done = sum(p.done for p in progress)
        complete = sum(1 for p in progress if p.complete)
        print(f"run: {store.run_id}")
        print(f"fingerprint: {store.fingerprint}")
        print(f"trials: {done}/{len(campaign)}")
        print(f"shards: {complete}/{len(progress)} complete")
        for p in progress:
            if args.verbose or not p.complete:
                print(f"  shard {p.shard_id:6d} [{p.lo}:{p.hi}) "
                      f"{p.done}/{p.total}"
                      f"{' complete' if p.complete else ''}")
        return 0
    runs = sorted(p for p in root.glob("*") if p.is_dir())
    if not runs:
        print(f"no fleet runs under {root}")
        return 0
    for run_dir in runs:
        meta = _load_meta(run_dir)
        if not meta:
            print(f"{run_dir.name}: (no meta)")
            continue
        print(
            f"{run_dir.name}: campaign={meta.get('name')} "
            f"trials={meta.get('n_trials')} shards={meta.get('n_shards')} "
            f"shard_size={meta.get('shard_size')}"
        )
    return 0


def cmd_aggregate(args) -> int:
    reopened = _reopen(args)
    if reopened is None:
        return 2
    campaign, meta, store = reopened
    fleet_summary = aggregate_values(v for _, v in store.iter_values())
    print(json.dumps(fleet_summary, sort_keys=True))
    if not args.verify_serial:
        return 0
    # The acceptance oracle: a serial run_campaign over the same specs
    # must fold to bit-identical aggregates.
    serial = run_campaign(campaign, ExecPolicy(jobs=1)).raise_on_failure()
    serial_summary = aggregate_values(serial.values())
    if serial_summary != fleet_summary:
        print("MISMATCH: fleet aggregates differ from serial run_campaign",
              file=sys.stderr)
        print("serial: " + json.dumps(serial_summary, sort_keys=True),
              file=sys.stderr)
        return 1
    print(f"verified: fleet aggregates == serial run_campaign "
          f"({fleet_summary['trials']} trials)")
    return 0


FLEET_VERBS = {
    "submit": cmd_submit,
    "status": cmd_status,
    "resume": cmd_resume,
    "drain": cmd_drain,
    "aggregate": cmd_aggregate,
}
