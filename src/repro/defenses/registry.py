"""The pluggable defense registry: named, JSON-able specs -> machines.

Every defense the matrix evaluates is described by a *spec* — a plain
JSON-able dict with a ``"kind"`` drawn from :data:`DEFENSE_NAMES` plus
kind-specific parameters — so the fuzz trace grammar, the campaign
samples, and the fleet shards can all carry defenses by value:

* ``{"kind": "none"}`` — the undefended baseline;
* ``{"kind": "way-partition", "core_domains": [[core, dom], ...],
  "sf": {dom: ways}, "llc": {dom: ways}}`` — hardware way partitioning
  (:func:`~repro.defenses.partition.apply_way_partitioning`);
* ``{"kind": "ceaser", "seed": s, "epoch_accesses": n}`` — keyed
  epoch-rekeyed index (:class:`~repro.defenses.randomized.CeaserCache`);
* ``{"kind": "skew", "seed": s, "n_skews": k, "epoch_accesses": n}`` —
  skewed associativity (:class:`~repro.defenses.randomized.SkewedCache`);
* ``{"kind": "soft-copy", "core_domains": ..., "sf": {dom: quota},
  "llc": {dom: quota}}`` — copy-on-access soft isolation
  (:func:`~repro.defenses.software.apply_soft_copy_partitioning`).

``core_domains`` is a list of pairs (not a dict) so the spec survives a
JSON round-trip with integer core ids intact.

:func:`apply_defense` swaps a freshly built machine's shared caches per
the spec (before any traffic).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..memsys.machine import Machine
from .partition import OTHER_DOMAIN, apply_way_partitioning
from .randomized import CeaserCache, SkewedCache
from .software import apply_soft_copy_partitioning

#: Every defense the matrix sweeps, in report order.
DEFENSE_NAMES: Tuple[str, ...] = (
    "none", "way-partition", "ceaser", "skew", "soft-copy",
)

#: Inserts per automatic rekey epoch for the randomized defaults.  Large
#: enough that a single probe round survives an epoch, small enough that
#: eviction-set construction (thousands of inserts) spans several.
DEFAULT_EPOCH_ACCESSES = 4096


def _default_split(ways: int) -> Dict[str, int]:
    """Attacker/victim/other way budgets summing to ``ways`` (each >= 1)."""
    if ways < 3:
        raise ConfigurationError(
            f"need >= 3 ways to carve att/vic/{OTHER_DOMAIN} from {ways}"
        )
    att = max(1, ways // 2)
    vic = max(1, (ways - att) // 2)
    return {"att": att, "vic": vic, OTHER_DOMAIN: ways - att - vic}


def default_defense_spec(cfg, kind: str, seed: int = 0) -> Dict[str, Any]:
    """The matrix's canonical spec for ``kind`` on a machine config.

    Domain assignment puts the first half of the cores in ``att`` and the
    rest in ``vic`` (matching the campaign's attacker-on-low-cores,
    victim-on-high-cores convention); way budgets split each shared
    cache's associativity att/vic/other.
    """
    if kind not in DEFENSE_NAMES:
        raise ConfigurationError(
            f"unknown defense {kind!r} (have {', '.join(DEFENSE_NAMES)})"
        )
    if kind == "none":
        return {"kind": "none"}
    if kind in ("way-partition", "soft-copy"):
        half = max(1, cfg.cores // 2)
        return {
            "kind": kind,
            "core_domains": [
                [c, "att" if c < half else "vic"] for c in range(cfg.cores)
            ],
            "sf": _default_split(cfg.sf.ways),
            "llc": _default_split(cfg.llc.ways),
        }
    spec: Dict[str, Any] = {
        "kind": kind,
        "seed": seed,
        "epoch_accesses": DEFAULT_EPOCH_ACCESSES,
    }
    if kind == "skew":
        spec["n_skews"] = 2
    return spec


def apply_defense(machine: Machine, spec: Optional[Dict[str, Any]]) -> None:
    """Install the defense described by ``spec`` on a fresh machine.

    Must run before any shared-cache traffic (the swapped caches start
    empty); raises :class:`ConfigurationError` otherwise.  A ``None``
    spec or ``{"kind": "none"}`` leaves the machine undefended.
    """
    if spec is None:
        return
    kind = spec["kind"]
    if kind == "none":
        return
    hier = machine.hierarchy
    if kind == "way-partition":
        apply_way_partitioning(
            machine,
            core_domains=dict(spec["core_domains"]),
            sf_partitions=dict(spec["sf"]),
            llc_partitions=dict(spec["llc"]),
        )
    elif kind == "soft-copy":
        apply_soft_copy_partitioning(
            machine,
            core_domains=dict(spec["core_domains"]),
            sf_quotas=dict(spec["sf"]),
            llc_quotas=dict(spec["llc"]),
        )
    elif kind in ("ceaser", "skew"):
        if hier.sf.touched_sets or hier.llc.touched_sets:
            raise ConfigurationError(
                "apply the defense before any shared-cache traffic"
            )
        cfg = machine.cfg
        seed = spec.get("seed", 0)
        epoch_accesses = spec.get("epoch_accesses", 0)
        kwargs: Dict[str, Any] = {"epoch_accesses": epoch_accesses}
        cls = CeaserCache
        if kind == "skew":
            cls = SkewedCache
            kwargs["n_skews"] = spec.get("n_skews", 2)
        rng = hier._rng
        hier.sf = cls(
            "SF", cfg.llc.total_sets, cfg.sf.ways, cfg.sf_policy, rng,
            seed=seed, **kwargs,
        )
        hier.llc = cls(
            "LLC", cfg.llc.total_sets, cfg.llc.ways, cfg.llc_policy, rng,
            seed=seed, **kwargs,
        )
    else:
        raise ConfigurationError(
            f"unknown defense {kind!r} (have {', '.join(DEFENSE_NAMES)})"
        )
