"""Keyed (randomized) set-index functions for defense caches.

CEASER-style designs (Qureshi, MICRO'18) replace a cache's physical set
index with the output of a keyed low-latency block cipher over the line
address, and periodically *rekey* so an attacker can never accumulate a
stable congruence map.  Skewed variants (CEASER-S, Scatter-Cache) give
each way group its own index function, so two lines that collide in one
skew almost never collide in another.

This module holds the index math those defenses
(:mod:`repro.defenses.randomized`) plug into the shared caches:

* :class:`KeyedSetIndex` — a per-epoch keyed permutation of the set-index
  domain, *tweaked by the line tag*: for every ``(epoch, tag)`` the map
  ``set_idx -> index_of(set_idx, tag)`` is a bijection on
  ``[0, n_sets)`` (a balanced Feistel network with cycle-walking), and
  for a fixed set index, distinct tags land in unrelated sets — which is
  what breaks congruence-based eviction-set construction.
* :func:`keyed_choice` — a keyed deterministic selector (used for skew
  selection), a pure function of ``(key, tag)``, so all execution tiers
  agree without consuming any shared RNG stream.

Everything here is deterministic in ``(seed, epoch)`` and free of
``random.Random`` draws at index time, mirroring
:mod:`repro.memsys.slice_hash` (whose seeded masks stand in for the
undocumented per-SKU hardware constants).  The mixer is the SplitMix64
finalizer (Steele et al., "Fast splittable pseudorandom number
generators"): full 64-bit avalanche, not cryptographic.
"""

from __future__ import annotations

from .._util import make_rng
from ..errors import ConfigurationError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TAG_C = 0xD1342543DE82EF95


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit lane."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_master_key(label: str, seed: int) -> int:
    """64-bit master key from a seed, via the shared ``make_rng`` story."""
    return make_rng(("keyed-set-index", label, seed)).getrandbits(64)


def epoch_key(master: int, epoch: int) -> int:
    """The epoch's working key: a fresh avalanche of master and epoch."""
    return _mix64(master ^ _mix64((epoch * _GOLDEN) & _MASK))


def keyed_choice(key: int, tag: int, n: int) -> int:
    """Keyed deterministic pick in ``[0, n)`` — pure in ``(key, tag)``."""
    if n <= 1:
        return 0
    return _mix64(key ^ ((tag * _TAG_C) & _MASK)) % n


class KeyedSetIndex:
    """A tag-tweaked keyed permutation of the set-index domain.

    ``index_of(set_idx, tag)`` runs a balanced Feistel network (keyed by
    the current epoch key, tweaked by ``tag``) over the smallest even-bit
    domain covering ``n_sets`` and cycle-walks back into ``[0, n_sets)``.
    Properties the Hypothesis suite pins:

    * bijective per ``(epoch, tag)`` — no two set indices collide, so a
      rekey or remap never changes a cache's capacity balance;
    * epoch-sensitive — :meth:`rekey` draws a new working key, and a line
      whose image moved must be relocated or dropped by the caller.
    """

    __slots__ = ("n_sets", "epoch", "_master", "_key", "_hbits", "_hmask")

    #: Feistel rounds; 4 suffice for full avalanche with a strong F.
    ROUNDS = 4

    def __init__(self, n_sets: int, seed: int, label: str = "") -> None:
        if n_sets < 1:
            raise ConfigurationError("KeyedSetIndex needs at least one set")
        self.n_sets = n_sets
        self.epoch = 0
        self._master = derive_master_key(label, seed)
        self._key = epoch_key(self._master, 0)
        # Balanced halves: domain = 2^(2*hbits) >= n_sets.
        bits = max(2, (n_sets - 1).bit_length())
        self._hbits = (bits + 1) // 2
        self._hmask = (1 << self._hbits) - 1

    def rekey(self) -> int:
        """Advance to the next epoch key; returns the new epoch number."""
        self.epoch += 1
        self._key = epoch_key(self._master, self.epoch)
        return self.epoch

    def _permute(self, value: int, tweak: int) -> int:
        left = value >> self._hbits
        right = value & self._hmask
        key = self._key
        for rnd in range(self.ROUNDS):
            f = _mix64(
                key
                ^ ((tweak * _TAG_C) & _MASK)
                ^ ((right * _GOLDEN) & _MASK)
                ^ rnd
            ) & self._hmask
            left, right = right, left ^ f
        return (left << self._hbits) | right

    def index_of(self, set_idx: int, tag: int) -> int:
        """The keyed internal index for ``(set_idx, tag)`` this epoch."""
        n = self.n_sets
        if n == 1:
            return 0
        value = self._permute(set_idx % n, tag)
        # Cycle-walk: a permutation of the covering power-of-two domain
        # restricted to [0, n) by iteration is itself a bijection on it.
        while value >= n:
            value = self._permute(value, tag)
        return value
