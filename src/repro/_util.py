"""Internal utilities: deterministic RNG helpers and distributions.

All stochastic components in the simulator draw from a ``random.Random``
instance that is threaded through explicitly (never module-global state), so
every experiment is reproducible from its seed.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Sequence, TypeVar

T = TypeVar("T")


def make_rng(seed) -> random.Random:
    """Create a deterministic RNG from ``seed`` (int, str, tuple, or None)."""
    if seed is None or isinstance(seed, (int, float, str, bytes, bytearray)):
        return random.Random(seed)
    return random.Random(repr(seed))


def spawn_rng(rng: random.Random, tag: str) -> random.Random:
    """Derive an independent child RNG from ``rng``, labelled by ``tag``.

    Uses a draw from the parent combined with the tag so that child streams
    do not collide and adding a new child does not perturb existing ones
    drawn with different tags.
    """
    return random.Random(f"{rng.getrandbits(64)}:{tag}")


#: ``exp(-lam)`` memo for :func:`poisson`.  Noise reconciliation calls it
#: hundreds of thousands of times per trial with rates that are fixed per
#: config and elapsed windows that are sums of quantized latencies, so the
#: distinct-``lam`` population is small; bounded by a wholesale clear so a
#: pathological caller cannot grow it without limit.
_EXP_NEG: dict = {}
_EXP_NEG_CAP = 4096


def poisson(rng: random.Random, lam: float) -> int:
    """Draw from a Poisson distribution with mean ``lam``.

    Uses Knuth's multiplication method for small means and a normal
    approximation for large ones (lam > 64), which is more than accurate
    enough for background-noise event counts.  The inversion threshold
    ``exp(-lam)`` is memoized per distinct rate; the draw sequence itself
    is untouched, so the RNG stream is consumed draw-for-draw identically
    (pinned by ``tests/test_noise_draw.py``).
    """
    if lam <= 0.0:
        return 0
    if lam > 64.0:
        # Normal approximation with continuity correction.
        value = rng.gauss(lam, math.sqrt(lam))
        return max(0, int(round(value)))
    threshold = _EXP_NEG.get(lam)
    if threshold is None:
        if len(_EXP_NEG) >= _EXP_NEG_CAP:
            _EXP_NEG.clear()
        _EXP_NEG[lam] = threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def exponential(rng: random.Random, rate: float) -> float:
    """Draw an exponential inter-arrival time for a Poisson process."""
    if rate <= 0.0:
        return math.inf
    return rng.expovariate(rate)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    """Median; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def chunked(items: Sequence[T], n_chunks: int) -> List[List[T]]:
    """Split ``items`` into ``n_chunks`` contiguous groups of near-equal size.

    The first ``len(items) % n_chunks`` groups get one extra element.  Groups
    may be empty if there are fewer items than chunks.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    base, extra = divmod(len(items), n_chunks)
    groups: List[List[T]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        groups.append(list(items[start : start + size]))
        start += size
    return groups
