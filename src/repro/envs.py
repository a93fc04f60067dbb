"""Named simulation environments shared by benchmarks, campaigns, and the CLI.

Every experiment in the harness needs the same three-step setup: pick a
machine geometry, pick a background-noise process (optionally exposure
matched to the full-scale geometry), and build a calibrated
:class:`~repro.core.context.AttackerContext` on top.  This module is the
single home for that setup so the benchmark files, the campaign trial
functions in :mod:`repro.exec`, and ``python -m repro`` all build
bit-identical environments from the same names and seeds.

Two naming schemes coexist:

* The *benchmark environments* (``ENVIRONMENTS``: ``local``, ``cloud``,
  ``cloud-quiet``, ``cloud-raw``, ``local-raw``) — the paper's evaluation
  settings, with the historical seeding convention (context seed
  ``seed * 7 + 1``).
* :class:`EnvSpec` — an explicit (machine preset, noise preset,
  exposure-matched) triple matching the CLI's flags, with the CLI's
  seeding convention (context seed ``seed + 1``).

Both are picklable, so campaign trials can carry them into worker
processes.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

from .config import (
    MACHINE_PRESETS,
    MachineConfig,
    NOISE_PRESETS,
    NoiseConfig,
    cloud_run_noise,
    cloud_run_quiet_hours_noise,
    exposure_matched,
    icelake_sp_small,
    quiescent_local_noise,
    skylake_sp_small,
    skylake_sp_small_local,
)
from .core.context import AttackerContext
from .memsys.machine import Machine
from .victim import EcdsaVictim, VictimConfig


def cloud_machine_cfg() -> MachineConfig:
    """The scaled stand-in for the Cloud Run Xeon Platinum 8173M."""
    return skylake_sp_small()


def local_machine_cfg() -> MachineConfig:
    """The scaled stand-in for the local Xeon Gold 6152 (fewer slices)."""
    return skylake_sp_small_local()


def icelake_machine_cfg() -> MachineConfig:
    """The scaled stand-in for the Ice Lake Xeon Gold 5320."""
    return icelake_sp_small()


#: Environment name -> (machine config factory, noise factory, matched?).
#: "Matched" environments scale the noise rate so per-TestEviction exposure
#: corresponds to the paper's full-scale machines (see
#: repro.config.exposure_matched).
ENVIRONMENTS = {
    "local": (local_machine_cfg, quiescent_local_noise, True),
    "cloud": (cloud_machine_cfg, cloud_run_noise, True),
    "cloud-quiet": (cloud_machine_cfg, cloud_run_quiet_hours_noise, True),
    # Raw (unscaled) rates: correct for monitoring-side experiments whose
    # exposure windows don't shrink with the geometry.
    "cloud-raw": (cloud_machine_cfg, cloud_run_noise, False),
    "local-raw": (local_machine_cfg, quiescent_local_noise, False),
}


@dataclasses.dataclass(frozen=True)
class EnvSpec:
    """An explicit environment: machine preset + noise preset + matching.

    Mirrors the CLI's ``--machine`` / ``--env`` / ``--exposure-matched``
    flags; campaign trials carry an ``EnvSpec`` when they were launched
    from the CLI rather than from a named benchmark environment.
    """

    machine: str = "skylake-small"
    noise: str = "cloud"
    exposure_matched: bool = False

    def build(self, seed: int) -> Tuple[Machine, AttackerContext]:
        cfg = MACHINE_PRESETS[self.machine]()
        noise = NOISE_PRESETS[self.noise]
        if self.exposure_matched:
            noise = exposure_matched(noise, cfg)
        return make_custom_env(cfg, noise=noise, seed=seed, ctx_seed=seed + 1)


#: Anything that names an environment: a benchmark name or an EnvSpec.
EnvLike = Union[str, EnvSpec]


def make_custom_env(
    cfg: MachineConfig,
    noise: Optional[NoiseConfig] = None,
    seed: int = 0,
    ctx_seed: Optional[int] = None,
) -> Tuple[Machine, AttackerContext]:
    """Machine + calibrated attacker context from explicit configs.

    The one place that performs the machine/context/calibrate dance; the
    named-environment helpers and the ad-hoc benchmark setups (replacement
    sweeps, associativity studies) all route through here.
    """
    machine = Machine(cfg, noise=noise, seed=seed)
    ctx = AttackerContext(
        machine, seed=(seed + 1) if ctx_seed is None else ctx_seed
    )
    ctx.calibrate()
    return machine, ctx


def make_env(env: EnvLike, seed: int) -> Tuple[Machine, AttackerContext]:
    """A machine + calibrated attacker context for a named environment."""
    if isinstance(env, EnvSpec):
        return env.build(seed)
    cfg_factory, noise_factory, matched = ENVIRONMENTS[env]
    cfg = cfg_factory()
    noise = noise_factory()
    if matched:
        noise = exposure_matched(noise, cfg)
    return make_custom_env(cfg, noise=noise, seed=seed, ctx_seed=seed * 7 + 1)


def make_victim_env(
    env: EnvLike, seed: int, victim_cfg: Optional[VictimConfig] = None
) -> Tuple[Machine, AttackerContext, EcdsaVictim]:
    """Environment plus a victim container pinned to core 2."""
    machine, ctx = make_env(env, seed)
    victim = EcdsaVictim(
        machine, core=2, cfg=victim_cfg or VictimConfig(), seed=seed + 100
    )
    return machine, ctx, victim


def environment_names() -> Tuple[str, ...]:
    """The named benchmark environments, for CLI choices."""
    return tuple(sorted(ENVIRONMENTS))
