"""Batch-vs-serial parity for chunked dispatch (DESIGN.md §2.6).

``ExecPolicy.batch`` sends that many trials to one pool task, which runs
them one after another.  A trial's result must not depend on which chunk
it landed in or which worker ran it: a pooled, chunked campaign returns
exactly the serial values, in trial order.
"""

from __future__ import annotations

import pytest

from repro.exec import ExecPolicy, run_campaign
from repro.fleet.campaigns import NoiseWindowConfig, noise_mc_campaign


def _noise_campaign(trials=48):
    return noise_mc_campaign(
        NoiseWindowConfig(rate_per_ms=6.0), trials=trials, base_seed=11
    )


@pytest.mark.slow
def test_run_campaign_pool_batch_matches_serial():
    serial = run_campaign(_noise_campaign(), ExecPolicy(jobs=1))
    pooled = run_campaign(_noise_campaign(), ExecPolicy(jobs=2, batch=8))
    assert [r.value for r in pooled.records] == [r.value for r in serial.records]
    assert all(r.ok for r in pooled.records)
