"""Trial and campaign abstractions for the deterministic execution engine.

A *trial* is one independent seeded unit of work: a picklable callable
applied to a picklable config with an explicit seed.  A *campaign* is an
ordered list of trials whose seeds come from a deterministic per-campaign
stream, so the result of trial ``i`` depends only on ``(fn, config, seed)``
— never on worker count, scheduling order, or which process ran it.  That
is the property that lets :mod:`repro.exec.executor` fan a campaign out
over worker processes while staying bit-identical to serial execution.

Campaigns also carry a *fingerprint* — a hash of name, configs, seeds, and
code version — which keys the on-disk result journal
(:mod:`repro.exec.journal`): rerunning the same campaign resumes from its
journal, and any change to the inputs lands in a fresh one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def arithmetic_seeds(base_seed: int, n: int, stride: int = 1) -> Tuple[int, ...]:
    """``base_seed, base_seed + stride, ...`` — the historical convention.

    The benchmark harness has always seeded trial ``i`` with
    ``base_seed + i``; campaigns that must reproduce pre-engine results
    byte-for-byte use this stream.
    """
    return tuple(base_seed + i * stride for i in range(n))


def seed_stream(base_seed: int, n: int, tag: str = "") -> Tuple[int, ...]:
    """``n`` well-separated 63-bit seeds derived from ``(base_seed, tag)``.

    Hashed derivation (unlike :func:`arithmetic_seeds`) keeps per-trial RNG
    streams statistically independent even when callers use adjacent base
    seeds, and adding trials never perturbs earlier ones.
    """
    seeds = []
    for i in range(n):
        digest = hashlib.sha256(
            f"repro.exec:{base_seed}:{tag}:{i}".encode()
        ).digest()
        seeds.append(int.from_bytes(digest[:8], "big") >> 1)
    return tuple(seeds)


class ResultCodec:
    """Round-trips trial results through JSON for the journal.

    The identity codec journals anything :func:`json.dumps` accepts;
    campaigns whose trials return richer objects supply a codec (see
    :func:`dataclass_codec`).
    """

    def encode(self, value: Any) -> Any:
        return value

    def decode(self, obj: Any) -> Any:
        return obj


IDENTITY_CODEC = ResultCodec()


class _DataclassCodec(ResultCodec):
    def __init__(self, cls) -> None:
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"{cls!r} is not a dataclass")
        self._cls = cls
        self._names = tuple(f.name for f in dataclasses.fields(cls))

    def encode(self, value: Any) -> Any:
        # Equal to dataclasses.asdict for a flat dataclass, at a tenth of
        # the cost (asdict re-reads the fields and deep-copies each value).
        return {name: getattr(value, name) for name in self._names}

    def decode(self, obj: Any) -> Any:
        return self._cls(**obj)


def dataclass_codec(cls) -> ResultCodec:
    """A codec that journals instances of a flat dataclass ``cls``."""
    return _DataclassCodec(cls)


def stable_repr(obj: Any) -> str:
    """A deterministic textual form of a config for fingerprinting.

    Dataclasses render as sorted field maps, dicts sort their keys, and
    containers recurse; the result is stable across processes and runs
    (no memory addresses, no hash randomization).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: stable_repr(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        body = ",".join(f"{k}={v}" for k, v in sorted(fields.items()))
        return f"{type(obj).__name__}({body})"
    if isinstance(obj, dict):
        body = ",".join(
            f"{stable_repr(k)}:{stable_repr(v)}" for k, v in sorted(obj.items())
        )
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        body = ",".join(stable_repr(v) for v in obj)
        return ("[" if isinstance(obj, list) else "(") + body + (
            "]" if isinstance(obj, list) else ")"
        )
    if isinstance(obj, (str, int, bool, float, bytes)) or obj is None:
        return repr(obj)
    if callable(obj):
        return f"{getattr(obj, '__module__', '?')}.{getattr(obj, '__qualname__', repr(obj))}"
    return repr(obj)


def code_version() -> str:
    """The code identity baked into fingerprints (package version)."""
    from repro import __version__

    return __version__


@dataclasses.dataclass(frozen=True)
class TrialSpec:
    """One schedulable unit: ``fn(config, seed)`` at position ``index``."""

    fn: Callable[[Any, int], Any]
    config: Any
    seed: int
    index: int


@dataclasses.dataclass(frozen=True)
class Campaign:
    """An ordered set of seeded trials over one trial function.

    ``configs`` holds one config per trial; ``seeds`` must be the same
    length.  ``codec`` round-trips results through the JSONL journal.
    """

    name: str
    fn: Callable[[Any, int], Any]
    configs: Tuple[Any, ...]
    seeds: Tuple[int, ...]
    codec: ResultCodec = IDENTITY_CODEC

    def __post_init__(self) -> None:
        if len(self.configs) != len(self.seeds):
            raise ValueError(
                f"campaign {self.name!r}: {len(self.configs)} configs "
                f"vs {len(self.seeds)} seeds"
            )

    @classmethod
    def build(
        cls,
        name: str,
        fn: Callable[[Any, int], Any],
        config: Any,
        trials: int,
        base_seed: int = 0,
        seed_mode: str = "hashed",
        codec: ResultCodec = IDENTITY_CODEC,
    ) -> "Campaign":
        """A homogeneous campaign: ``trials`` runs of one config.

        ``seed_mode`` picks the stream: ``"hashed"`` (independent streams,
        the default for new campaigns) or ``"arithmetic"`` (``base_seed + i``,
        reproducing the pre-engine benchmark convention).
        """
        if seed_mode == "hashed":
            seeds = seed_stream(base_seed, trials, tag=name)
        elif seed_mode == "arithmetic":
            seeds = arithmetic_seeds(base_seed, trials)
        else:
            raise ValueError(f"unknown seed_mode {seed_mode!r}")
        return cls(
            name=name,
            fn=fn,
            configs=tuple(config for _ in range(trials)),
            seeds=seeds,
            codec=codec,
        )

    def __len__(self) -> int:
        return len(self.configs)

    def trials(self) -> List[TrialSpec]:
        """The trial list, in campaign order (= result order)."""
        return [
            TrialSpec(fn=self.fn, config=cfg, seed=seed, index=i)
            for i, (cfg, seed) in enumerate(zip(self.configs, self.seeds))
        ]

    def fingerprint(self, version: Optional[str] = None) -> str:
        """Hash of (name, trial fn, configs, seeds, code version).

        Keys the result journal: equal fingerprints mean the journal's
        records are valid for this campaign.
        """
        # Campaign.build repeats one config object; render each object once.
        rendered: Dict[int, str] = {}
        configs = []
        for config in self.configs:
            text = rendered.get(id(config))
            if text is None:
                text = rendered[id(config)] = stable_repr(config)
            configs.append(text)
        payload: Dict[str, Any] = {
            "name": self.name,
            "fn": stable_repr(self.fn),
            "configs": configs,
            "seeds": list(self.seeds),
            "code_version": version if version is not None else code_version(),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
