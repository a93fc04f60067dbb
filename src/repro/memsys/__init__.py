"""Simulated Intel-server memory system.

This subpackage is the hardware substrate of the reproduction: a
cycle-accounted model of a Skylake-SP-like cache hierarchy with private
L1/L2 caches, a sliced non-inclusive LLC, and a Snoop Filter (SF) that
tracks private lines, plus paging, slice hashing, replacement policies,
and a latency/MLP model.

The public entry point is :class:`repro.memsys.machine.Machine`.
"""

from .address import AddressSpace, line_address, page_offset
from .cache import SetAssociativeCache
from .hierarchy import CacheHierarchy, Level, NOISE_OWNER
from .kernels import AttackKernels, PlaneRows, TranslationPlane, kernels_disabled
from .lanes import HAVE_NUMPY, LaneKernels, lanes_disabled
from .machine import Machine
from .replacement import make_policy
from .slice_hash import ComplexSliceHash, LinearSliceHash, make_slice_hash
from .snapshot import MachineCheckpoint, checkpoint, checkpoint_key, restore
from .vec import VecKernels, construct_memo_disabled, vec_disabled

__all__ = [
    "AddressSpace",
    "AttackKernels",
    "CacheHierarchy",
    "ComplexSliceHash",
    "HAVE_NUMPY",
    "LaneKernels",
    "Level",
    "LinearSliceHash",
    "Machine",
    "MachineCheckpoint",
    "NOISE_OWNER",
    "PlaneRows",
    "SetAssociativeCache",
    "TranslationPlane",
    "VecKernels",
    "checkpoint",
    "checkpoint_key",
    "construct_memo_disabled",
    "kernels_disabled",
    "restore",
    "lanes_disabled",
    "vec_disabled",
    "line_address",
    "make_policy",
    "make_slice_hash",
    "page_offset",
]
