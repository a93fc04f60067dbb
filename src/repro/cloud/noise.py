"""Background-tenant noise with lazy per-set reconciliation.

Other tenants' accesses to a given LLC/SF set form (approximately) a Poisson
process; the paper measures its rate directly (Figure 2: 11.5 accesses per
millisecond per set on Cloud Run).  Simulating every tenant access would
make simulated time expensive regardless of attacker activity, so instead
each shared cache set records when noise was last reconciled; when real
traffic next touches the set at time ``t`` we draw
``Poisson(rate * (t - last))`` foreign insertions and apply them.

This preserves the property every result in Sections 4-6 hinges on: the
probability that a set survives undisturbed decays exponentially with the
*duration* of the operation touching it (TestEviction, prime, probe).
"""

from __future__ import annotations

import random

from .._util import poisson
from ..config import NoiseConfig


class BackgroundNoise:
    """Poisson noise source attached to a hierarchy (see DESIGN.md).

    Split between SF insertions (foreign private lines) and LLC insertions
    (foreign shared lines) by ``NoiseConfig.sf_fraction``.
    """

    def __init__(self, cfg: NoiseConfig, clock_ghz: float, rng: random.Random):
        self.cfg = cfg
        rate = cfg.rate_per_cycle(clock_ghz)
        # The configured rate is the LLC-visible access rate (what Figure 2
        # measures by Prime+Probe on an LLC set); the SF set with the same
        # index sees sf_fraction of that rate in private-line allocations.
        self._llc_rate = rate
        self._sf_rate = rate * cfg.sf_fraction
        self._rng = rng
        #: Total noise events injected (across all sets).
        self.events = 0

    @property
    def enabled(self) -> bool:
        return self._sf_rate > 0.0 or self._llc_rate > 0.0

    def _draw(self, rng: random.Random, lam: float) -> int:
        """Poisson draw with a cheap small-mean fast path.

        Reconciliation runs on *every* access, so the common case (tiny
        elapsed window, lam << 1) must cost one uniform draw.  P(N >= 2)
        is lam^2/2 — negligible below the threshold.
        """
        if lam < 0.01:
            return 1 if rng.random() < lam else 0
        return poisson(rng, lam)

    def reconcile(self, hier, sidx: int, now: int, before_insert=None) -> None:
        """Apply pending noise to shared set ``sidx`` up to time ``now``.

        Insertion counts are capped at three times the set's associativity:
        beyond that the set is fully foreign and older events cannot change
        the outcome, so simulating them would be pure waste.

        The SF block runs before the LLC block and each block draws from the
        shared RNG in a fixed order; every batched caller reconciles through
        this same routine, so batched and per-access reconciliation consume
        the RNG identically (bit-identical trials).

        This runs on *every* access, so the common case — a few elapsed
        cycles, no event — is inlined: one ``exchange_noise_clock`` call and
        one uniform draw per structure (the ``_draw`` small-mean fast path,
        kept in sync with that method).

        ``before_insert``, if given, is called once, just before the first
        noise insertion: a caller holding plane writes it has not landed
        yet (the folded monitor probes, DESIGN.md §2.7) writes them there.
        """
        rng = self._rng
        if self._sf_rate > 0.0:
            sf = hier.sf
            dt = now - sf.exchange_noise_clock(sidx, now)
            if dt > 0:
                lam = self._sf_rate * dt
                if lam < 0.01:
                    n = 1 if rng.random() < lam else 0
                else:
                    n = poisson(rng, lam)
                if n:
                    if before_insert is not None:
                        before_insert()
                        before_insert = None
                    cap = 3 * sf.ways
                    if n > cap:
                        n = cap
                    for _ in range(n):
                        hier.noise_insert_sf(sidx)
                    self.events += n
        if self._llc_rate > 0.0:
            llc = hier.llc
            dt = now - llc.exchange_noise_clock(sidx, now)
            if dt > 0:
                lam = self._llc_rate * dt
                if lam < 0.01:
                    n = 1 if rng.random() < lam else 0
                else:
                    n = poisson(rng, lam)
                if n:
                    if before_insert is not None:
                        before_insert()
                    cap = 3 * llc.ways
                    if n > cap:
                        n = cap
                    for _ in range(n):
                        hier.noise_insert_llc(sidx)
                    self.events += n

    def expected_events(self, cycles: int) -> float:
        """Expected number of noise events per set over ``cycles``."""
        return (self._sf_rate + self._llc_rate) * cycles
