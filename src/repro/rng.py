"""Event-keyed (counter-based) RNG for order-independent stochastic draws.

The serial-order contract (DESIGN.md §2.7) draws every stochastic event —
noise Poisson arrivals, SF reuse-predictor insertions, L2-victim
write-backs, random-policy victims — from one shared serial stream in
strict access order.  That makes the draws *positional*: any execution
tier that reorders work (vectorized sweeps, memo replay) would consume
the stream in a different order and break bit-parity.

This module implements the alternative contract (DESIGN.md §2.7): every
draw is a pure function of *what* event it is, not *when* it is drawn::

    u = U01( mix(seed, stream_id, k1, k2, i) )

where ``stream_id`` names the draw site (one of the ``S_*`` constants),
``(k1, k2)`` address the event (e.g. ``(set_index, old_noise_clock)``
for a noise reconciliation window, ``(set_index, event_counter)`` for a
reuse draw), and ``i`` indexes multiple uniforms inside one event (a
Knuth Poisson loop).  Draws with the same key give the same value no
matter which tier draws them, in which order, or how many times — which
is exactly what legalizes vectorized execution and memo replay.

The mixer is SplitMix64 (Steele et al., "Fast splittable pseudorandom
number generators"), a 64-bit finalizer with full avalanche; it is not
cryptographic, which matches ``random.Random`` on the serial side.
"""

from __future__ import annotations

import math
import os
from typing import Optional

from ._util import make_rng

_MASK = (1 << 64) - 1

#: Stream identifiers — one per draw site class.  Never renumber: keyed
#: goldens (``tests/test_counter_parity.py``) pin the mapping.
S_NOISE_SF = 1      #: SF noise window, keyed (sidx, old_clock)
S_NOISE_LLC = 2     #: LLC noise window, keyed (sidx, old_clock)
S_SF_REUSE = 3      #: SF-victim reuse-predictor draw, keyed (sidx, counter)
S_L2_VICTIM = 4     #: L2-victim write-back draw, keyed (core, vline, counter)
S_VICTIM = 5        #: random-policy victim, keyed (cache_id, set_idx, counter)

#: Valid ``MachineConfig.rng_mode`` values.
RNG_MODES = ("serial", "counter")


def resolve_rng_mode(explicit: Optional[str] = None) -> str:
    """The RNG mode to use: explicit argument, else ``REPRO_RNG``, else serial."""
    mode = explicit if explicit else os.environ.get("REPRO_RNG", "serial")
    if mode not in RNG_MODES:
        raise ValueError(f"unknown rng mode {mode!r}; choose from {RNG_MODES}")
    return mode


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit lane."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class CounterRng:
    """Keyed uniform/Poisson source for one trial (one machine seed).

    The 64-bit master key is derived from the machine seed through the
    same ``make_rng`` canonicalization the serial streams use, so the
    two modes share a seeding story but never a stream.
    """

    __slots__ = ("seed", "_key", "_h1")

    #: Knuth's product-of-uniforms loop is O(lam); beyond this mean a
    #: normal approximation is indistinguishable for the cache model
    #: (same switch point as ``repro._util.poisson``).
    _NORMAL_CUTOFF = 64.0

    def __init__(self, seed) -> None:
        self.seed = seed
        self._key = make_rng(("counter-rng", seed)).getrandbits(64)
        self._h1 = {}

    # -- Scalar draws ------------------------------------------------------

    def u01(self, stream: int, k1: int, k2: int, i: int) -> float:
        """Uniform in (0, 1) for event ``(stream, k1, k2)``, index ``i``.

        Never returns exactly 0.0 or 1.0 (log-safe).

        The ``(stream, k1)`` half of the key is mixed once and memoized:
        draw sites address events by a fixed ``k1`` (a set index, a cache
        id) and a varying ``k2``/``i``, so the common case pays two
        finalizer rounds instead of four.  Values are identical either
        way — the cache is a strength reduction, not a contract change.
        """
        h1 = self._h1.get((stream, k1))
        if h1 is None:
            cache = self._h1
            if len(cache) >= 1 << 15:
                cache.clear()
            h1 = cache[(stream, k1)] = _mix64(self._key ^ _mix64(
                (stream * 0x9E3779B97F4A7C15 + k1) & _MASK))
        # Inlined _mix64(h1 + _mix64(k2 * C + i)) — the hot two rounds.
        z = (k2 * 0xD1342543DE82EF95 + i) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        h = (h1 + (z ^ (z >> 31))) & _MASK
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
        h ^= h >> 31
        return ((h >> 11) + 0.5) * (2.0 ** -53)

    def randrange(self, stream: int, k1: int, k2: int, i: int, n: int) -> int:
        """Keyed uniform integer in ``[0, n)``."""
        return int(self.u01(stream, k1, k2, i) * n)

    def noise_poisson(self, stream: int, sidx: int, old: int, lam: float) -> int:
        """Poisson draw for one noise window, keyed ``(stream, sidx, old)``.

        Replicates the serial draw's shape (``BackgroundNoise._draw``):
        a one-uniform Bernoulli below 0.01, Knuth's loop up to the
        normal cutoff, then a Box-Muller normal approximation clamped
        at zero.  Each uniform in the event is addressed by its index,
        so the draw is pure in the key.
        """
        if lam <= 0.0:
            return 0
        u01 = self.u01
        if lam < 0.01:
            return 1 if u01(stream, sidx, old, 0) < lam else 0
        if lam > self._NORMAL_CUTOFF:
            u1 = u01(stream, sidx, old, 0)
            u2 = u01(stream, sidx, old, 1)
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            n = int(round(lam + math.sqrt(lam) * z))
            return n if n > 0 else 0
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= u01(stream, sidx, old, k)
            if p <= threshold:
                return k
            k += 1
