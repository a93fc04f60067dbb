"""repro.fleet — sharded, resumable, datacenter-scale campaign service.

Turns one-shot :func:`repro.exec.run_campaign` invocations into a
service that survives restarts and scales to hundreds of thousands of
trials:

* :mod:`repro.fleet.sharding` — deterministic contiguous trial-range
  shards keyed by the campaign fingerprint (the dispatch/resume unit);
* :mod:`repro.fleet.scheduler` — one synchronous wait loop that
  dispatches shards in priority order to at most ``max_inflight`` shard
  threads, with per-shard backpressure, crash retry with backoff, and
  graceful drain;
* :mod:`repro.fleet.store` — append-only per-shard JSONL segments plus a
  compacted, journal-compatible index; constant-memory streaming reads;
* :mod:`repro.fleet.datacenter` — a simulated datacenter of
  :mod:`repro.cloud.faas` hosts with tenant churn and diurnal noise,
  making placement a first-class scheduling knob;
* :mod:`repro.fleet.campaigns` — fleet-native cheap Monte-Carlo and
  placement-swept campaigns;
* :mod:`repro.fleet.service` — the ``python -m repro fleet`` verbs
  (submit / status / resume / drain / aggregate).

The invariant the whole package defends: a sharded, prioritized,
killed-and-resumed fleet run folds to aggregates *value-identical* to a
serial ``run_campaign`` of the same specs.
"""

from .campaigns import (
    FLEET_CAMPAIGNS,
    NoiseWindowConfig,
    NoiseWindowSample,
    noise_mc_campaign,
    noise_window_trial,
    placement_campaign,
    quiet_hours_priority,
)
from .datacenter import (
    DEFAULT_DIURNAL,
    QUIET_HOURS,
    Datacenter,
    DatacenterConfig,
    Placement,
)
from .scheduler import (
    FleetPolicy,
    FleetReport,
    FleetScheduler,
    ShardOutcome,
    run_fleet,
)
from .sharding import (
    DEFAULT_SHARD_SIZE,
    ShardSpec,
    order_shards,
    plan_shards,
    shard_subcampaign,
)
from .store import DEFAULT_FLEET_DIR, FleetStore, ShardJournal, ShardProgress

__all__ = [
    "DEFAULT_DIURNAL",
    "DEFAULT_FLEET_DIR",
    "DEFAULT_SHARD_SIZE",
    "Datacenter",
    "DatacenterConfig",
    "FLEET_CAMPAIGNS",
    "FleetPolicy",
    "FleetReport",
    "FleetScheduler",
    "FleetStore",
    "NoiseWindowConfig",
    "NoiseWindowSample",
    "Placement",
    "QUIET_HOURS",
    "ShardJournal",
    "ShardOutcome",
    "ShardProgress",
    "ShardSpec",
    "noise_mc_campaign",
    "noise_window_trial",
    "order_shards",
    "placement_campaign",
    "plan_shards",
    "quiet_hours_priority",
    "run_fleet",
    "shard_subcampaign",
]
