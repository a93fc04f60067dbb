"""repro — reproduction of "Last-Level Cache Side-Channel Attacks Are
Feasible in the Modern Public Cloud" (Zhao, Morrison, Fletcher, Torrellas;
ASPLOS 2024) on a simulated Intel server memory hierarchy.

Top-level layout:

* :mod:`repro.config` — machine / latency / noise presets.
* :mod:`repro.memsys` — the simulated Skylake-SP-style hierarchy.
* :mod:`repro.cloud` — tenant noise and the FaaS platform model.
* :mod:`repro.crypto` — GF(2^m) / binary-curve ECDSA (the victim's math).
* :mod:`repro.victim` — the vulnerable signing service and its leak.
* :mod:`repro.core` — the paper's attack: eviction sets, monitoring,
  PSD scanning, nonce extraction, end-to-end pipeline.
* :mod:`repro.dsp`, :mod:`repro.ml` — signal-processing and ML substrates.
* :mod:`repro.analysis` — statistics and result formatting.

Quick start (see examples/quickstart.py)::

    from repro.config import skylake_sp_small, cloud_run_noise, exposure_matched
    from repro.memsys import Machine
    from repro.core import AttackerContext
    from repro.core.evset import build_candidate_set, construct_sf_evset

    cfg = skylake_sp_small()
    machine = Machine(cfg, noise=exposure_matched(cloud_run_noise(), cfg), seed=1)
    ctx = AttackerContext(machine)
    ctx.calibrate()
    candidates = build_candidate_set(ctx, page_offset=0x240)
    target = candidates.vas.pop()
    outcome = construct_sf_evset(ctx, "bins", target, candidates.vas)
"""

__version__ = "1.1.0"

from . import config
from .errors import ReproError

__all__ = ["ReproError", "config", "__version__"]
