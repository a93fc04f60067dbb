"""Import stub: the perf harness (``perfbench/layers.py``) imports
``LaneKernels`` from here.  That import is the only reason this module
exists; nothing in the program instantiates the class, and it adds no
methods of its own (DESIGN.md §2.4).
"""

from .kernels import AttackKernels


class LaneKernels(AttackKernels):
    """Never instantiated; see the module docstring."""
