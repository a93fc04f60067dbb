"""repro.exec — the deterministic parallel campaign engine.

Every result in this reproduction is a Monte-Carlo campaign of
independent seeded trials.  This package turns such a campaign into a
first-class object and executes it over all available cores while
staying bit-identical to serial execution:

* :mod:`repro.exec.spec` — :class:`TrialSpec` / :class:`Campaign`:
  picklable ``(fn, config, seed)`` units with deterministic per-campaign
  seed streams and a content fingerprint.
* :mod:`repro.exec.executor` — :func:`run_campaign` on forked workers,
  one pipe each, with per-trial timeouts, bounded crash retry, and a
  serial fallback; a :class:`WorkerPool` keeps the workers up across
  calls.
* :mod:`repro.exec.journal` — a JSONL result journal keyed by the
  campaign fingerprint; reruns resume and repeat invocations are cache
  hits.
* :mod:`repro.exec.progress` — live trials/sec, ETA, and failure-count
  reporting (metrics surface in :mod:`repro.analysis`).
* :mod:`repro.exec.campaigns` — the paper's trial functions (eviction-set
  construction, bulk scenarios) packaged as reusable campaigns.

Minimal use::

    from repro.exec import Campaign, ExecPolicy, run_campaign

    campaign = Campaign.build("demo", my_trial_fn, my_config, trials=100)
    result = run_campaign(campaign, ExecPolicy(jobs=8))
    values = result.values()         # identical for any worker count
"""

from .campaigns import (
    BulkTrialConfig,
    ConstructionSample,
    ConstructionTrialConfig,
    bulk_campaign,
    bulk_trial,
    construction_campaign,
    construction_trial,
    grid_campaign,
    summarize_construction_samples,
)
from .executor import (
    CampaignResult,
    ExecPolicy,
    TrialResult,
    TrialTimeout,
    WorkerPool,
    default_jobs,
    run_campaign,
)
from .journal import DEFAULT_JOURNAL_DIR, CampaignJournal
from .progress import ProgressReporter
from .spec import (
    Campaign,
    ResultCodec,
    TrialSpec,
    arithmetic_seeds,
    dataclass_codec,
    seed_stream,
)

__all__ = [
    "BulkTrialConfig",
    "Campaign",
    "CampaignJournal",
    "CampaignResult",
    "ConstructionSample",
    "ConstructionTrialConfig",
    "DEFAULT_JOURNAL_DIR",
    "ExecPolicy",
    "ProgressReporter",
    "ResultCodec",
    "TrialResult",
    "TrialSpec",
    "TrialTimeout",
    "WorkerPool",
    "arithmetic_seeds",
    "bulk_campaign",
    "bulk_trial",
    "construction_campaign",
    "construction_trial",
    "dataclass_codec",
    "default_jobs",
    "grid_campaign",
    "run_campaign",
    "seed_stream",
    "summarize_construction_samples",
]
