"""The attacker's runtime context.

Bundles everything the attack code needs: the attacker container's address
space on the shared machine, its two pinned cores (main + helper thread, as
deployed in Section 4.2), VA->line translation memoization, latency
thresholds calibrated from timed loads, single-line operations, the
pointer-chase traversal, and the machine's fused-kernel bundle
(:meth:`AttackerContext.kernels`) that the higher levels traverse with.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .._util import make_rng, median, spawn_rng
from ..config import LINE_BYTES, LINES_PER_PAGE, PAGE_BYTES
from ..errors import ConfigurationError
from ..memsys import kernels as kernelmod
from ..memsys.kernels import PlaneRows, TranslationPlane
from ..memsys.machine import Machine
from ..memsys.vec import VecKernels


class AttackerContext:
    """Attacker-side view of a simulated machine.

    Args:
        machine: The shared host.
        main_core / helper_core: The attacker's two pinned cores.  The
            helper thread shadows the main thread's accesses to turn lines
            shared (S state -> LLC resident), as in the paper.
        seed: Seed for attacker-local randomness (address shuffling).
    """

    def __init__(
        self,
        machine: Machine,
        main_core: int = 0,
        helper_core: int = 1,
        seed: int = 0,
    ) -> None:
        if main_core == helper_core:
            raise ConfigurationError("main and helper must be different cores")
        for core in (main_core, helper_core):
            if not 0 <= core < machine.cfg.cores:
                raise ConfigurationError(f"core {core} out of range")
        self.machine = machine
        self.main_core = main_core
        self.helper_core = helper_core
        self.rng = make_rng(("attacker", seed))
        self.aspace = machine.new_address_space(va_base=0x20_0000_0000)
        self._lines: Dict[int, int] = {}
        self._lines_memo: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._plane = TranslationPlane(machine.hierarchy, self.line)
        self._kernels: Optional[VecKernels] = None
        self._pool: List[int] = []  # unused mapped pages
        # Thresholds start from the architectural defaults; calibrate()
        # replaces them with measured values.
        self.threshold_private = machine.hit_threshold_private()
        self.threshold_llc = machine.hit_threshold_llc()

    # -- Memory management -----------------------------------------------------

    def alloc_pages(self, count: int) -> List[int]:
        """Map ``count`` pages (drawing from a pre-mapped pool if available)."""
        take = min(count, len(self._pool))
        pages = self._pool[:take]
        del self._pool[:take]
        if count > take:
            pages.extend(self.aspace.alloc_pages(count - take))
        return pages

    def release_pages(self, pages: Sequence[int]) -> None:
        """Return pages to the pool for reuse by later candidate sets."""
        self._pool.extend(pages)

    def line(self, va: int) -> int:
        """Physical line address of ``va`` (memoized translation)."""
        lines = self._lines
        pline = lines.get(va)
        if pline is None:
            pline = self.aspace.translate_line(va)
            lines[va] = pline
        return pline

    def lines(self, vas: Sequence[int]) -> Tuple[int, ...]:
        """Translate a candidate tuple (memoized per tuple).

        The same pool is traversed hundreds of times per construction;
        memoizing whole tuples (on top of the per-VA memo) makes the
        repeat translations one dict probe.  Short tuples are not worth
        the key build; the bound mirrors ``TranslationPlane._MEMO_CAP``.
        """
        key = vas if type(vas) is tuple else tuple(vas)
        memo = self._lines_memo
        out = memo.get(key)
        if out is None:
            line = self.line
            out = tuple([line(va) for va in key])
            if len(key) > 2:
                if len(memo) >= 512:
                    memo.clear()
                memo[key] = out
        return out

    def rows(self, vas: Sequence[int]) -> PlaneRows:
        """Precomputed address geometry for a candidate tuple (kernels)."""
        return self._plane.rows(vas)

    def prepare(self, vas: Sequence[int]) -> None:
        """Eagerly warm the translation plane for a candidate pool."""
        self._plane.warm(vas)

    def kernels(self) -> Optional[VecKernels]:
        """The machine's kernel bundle, or None for the unfused path.

        One bundle per machine (a lazy singleton): a
        :class:`~repro.memsys.vec.VecKernels` — identical results, with
        steady-state monitor rounds memo-replayed (see DESIGN.md §2.7).
        None inside :func:`~repro.memsys.kernels_disabled`
        and whenever the bundle does not engage (duck-typed or defended
        caches).
        """
        if not kernelmod.KERNELS_ENABLED:
            return None
        kernels = self._kernels
        if kernels is None:
            kernels = self._kernels = VecKernels(
                self.machine, self._plane, self.main_core, self.helper_core
            )
        return kernels if kernels.engaged() else None

    def invalidate_translations(self) -> None:
        """Drop all cached VA->line/geometry state (address-space change)."""
        self._lines.clear()
        self._lines_memo.clear()
        self._plane.invalidate()
        if self._kernels is not None:
            self._kernels.invalidate_memos()

    # -- Ground-truth inspection (experiment harness only, not attack logic) ----

    def true_set_of(self, va: int) -> int:
        """Ground-truth shared (LLC/SF) set index of an attacker VA."""
        return self.machine.hierarchy.shared_set_index(self.line(va))

    def true_l2_set_of(self, va: int) -> int:
        return self.machine.hierarchy.l2_index(self.line(va))

    # -- Single-line operations ---------------------------------------------------

    def load(self, va: int) -> None:
        """Plain load on the main core."""
        self.machine.access(self.main_core, self.line(va))

    def store(self, va: int) -> None:
        """Store (RFO) on the main core: forces the line exclusive."""
        self.machine.access(self.main_core, self.line(va), write=True)

    def load_shared(self, va: int) -> None:
        """Make a line shared: main-core load shadowed by the helper thread.

        The helper's access runs concurrently and does not advance the clock.
        """
        line = self.line(va)
        self.machine.access(self.main_core, line)
        self.machine.access(self.helper_core, line, advance=False)

    def flush(self, va: int) -> None:
        self.machine.flush(self.line(va))

    def flush_batch(self, vas: Sequence[int], n: Optional[int] = None) -> int:
        """Pipelined clflush of the first ``n`` addresses; returns cycles."""
        chosen = vas if n is None else vas[:n]
        return self.machine.flush_batch([self.line(va) for va in chosen])

    def timed_load(self, va: int) -> int:
        """Timed load on the main core; returns measured cycles."""
        return self.machine.timed_access(self.main_core, self.line(va))

    # -- Traversals ----------------------------------------------------------------

    def traverse_chase(
        self, vas: Sequence[int], n: Optional[int] = None, shared: bool = False,
        write: bool = False,
    ) -> int:
        """Serialized pointer-chase traversal of the first ``n`` addresses."""
        lines = self.lines(vas if n is None else vas[:n])
        return self.machine.access_chase(
            self.main_core,
            lines,
            write=write,
            shadow_core=self.helper_core if shared else None,
        )

    # -- Threshold calibration --------------------------------------------------------

    def calibrate(self, samples: int = 30) -> None:
        """Measure hit/LLC/DRAM latencies and derive decision thresholds.

        Mirrors what a real attacker does on an unknown host: time loads in
        states it can force (fresh DRAM fetch, repeat private hit, and a
        cross-core transfer through the SF, whose latency matches an LLC
        hit) and place thresholds at the midpoints.
        """
        page = self.alloc_pages(1)[0]
        va = page
        t_dram, t_hit, t_llc = [], [], []
        for _ in range(samples):
            self.flush(va)
            t_dram.append(self.timed_load(va))
            t_hit.append(self.timed_load(va))
            self.flush(va)
            self.machine.access(self.helper_core, self.line(va))
            t_llc.append(self.timed_load(va))
        self.release_pages([page])
        dram = median(t_dram)
        hit = median(t_hit)
        llc = median(t_llc)
        if not hit < llc < dram:
            raise ConfigurationError(
                f"calibration failed: hit={hit}, llc={llc}, dram={dram}"
            )
        self.threshold_private = int((hit + llc) / 2)
        self.threshold_llc = int((llc + dram) / 2)
