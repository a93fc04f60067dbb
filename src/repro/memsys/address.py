"""Virtual/physical addressing and page allocation.

The attacker is an unprivileged tenant: it controls the *page offset* of its
addresses (low 12 bits, shared between VA and PA) but neither controls nor
knows the physical frame bits above the page offset (Section 2.2.1 of the
paper).  :class:`AddressSpace` models exactly that: virtual pages are mapped
to uniformly random, distinct physical frames.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List

from ..config import LINE_BYTES, PAGE_BYTES
from ..errors import AddressError

#: Number of low-order line-offset bits.
LINE_BITS = LINE_BYTES.bit_length() - 1

#: Number of low-order page-offset bits.
PAGE_BITS = PAGE_BYTES.bit_length() - 1


def line_address(addr: int) -> int:
    """The line-granular address (address with the line offset dropped)."""
    return addr >> LINE_BITS


def page_offset(addr: int) -> int:
    """Offset of ``addr`` within its 4 kB page."""
    return addr & (PAGE_BYTES - 1)


def line_offset_in_page(addr: int) -> int:
    """Line index of ``addr`` within its page (0..63 for 4 kB / 64 B)."""
    return (addr & (PAGE_BYTES - 1)) >> LINE_BITS


class AddressSpace:
    """A per-tenant virtual address space with randomized VA->PA mapping.

    Virtual pages are handed out from a private, monotonically growing VA
    region; each is backed by a distinct physical frame drawn uniformly at
    random.  Translation preserves the page offset, so the attacker's partial
    control over cache-set index bits is modelled faithfully.

    Multiple address spaces (attacker, victim, helper buffers) can share one
    physical memory; frame collisions across spaces are prevented by a shared
    frame allocator when constructed through :class:`~repro.memsys.machine.Machine`.
    """

    def __init__(
        self,
        phys_bits: int,
        rng: random.Random,
        used_frames: set = None,
        va_base: int = 0x10_0000_0000,
    ) -> None:
        if phys_bits <= PAGE_BITS + 1:
            raise AddressError("physical address space too small")
        self._phys_frames = 1 << (phys_bits - PAGE_BITS)
        self._rng = rng
        self._page_table: Dict[int, int] = {}
        self._used_frames = used_frames if used_frames is not None else set()
        self._next_vpn = va_base >> PAGE_BITS

    def alloc_pages(self, count: int) -> List[int]:
        """Map ``count`` fresh virtual pages; returns their VA bases.

        The virtual pages are contiguous (like one large mmap) but their
        physical frames are independent uniform draws, matching anonymous
        memory handed to a container.
        """
        if count < 1:
            raise AddressError("count must be >= 1")
        if len(self._used_frames) + count > self._phys_frames // 2:
            raise AddressError(
                "physical memory over half full; allocation would skew the "
                "frame distribution (increase phys_bits)"
            )
        bases = []
        for _ in range(count):
            vpn = self._next_vpn
            self._next_vpn += 1
            while True:
                frame = self._rng.randrange(self._phys_frames)
                if frame not in self._used_frames:
                    break
            self._used_frames.add(frame)
            self._page_table[vpn] = frame
            bases.append(vpn << PAGE_BITS)
        return bases

    def alloc_page(self) -> int:
        """Map one fresh virtual page; returns its VA base."""
        return self.alloc_pages(1)[0]

    def translate(self, va: int) -> int:
        """Translate a virtual address to its physical address."""
        vpn = va >> PAGE_BITS
        try:
            frame = self._page_table[vpn]
        except KeyError:
            raise AddressError(f"virtual address {va:#x} is not mapped") from None
        return (frame << PAGE_BITS) | (va & (PAGE_BYTES - 1))

    def translate_line(self, va: int) -> int:
        """Translate ``va`` and return the physical *line* address."""
        return line_address(self.translate(va))

    def is_mapped(self, va: int) -> bool:
        """Whether the page containing ``va`` is mapped."""
        return (va >> PAGE_BITS) in self._page_table

    def lines_at_offset(self, va_pages: Iterable[int], offset: int) -> List[int]:
        """Virtual line addresses at page offset ``offset`` in each page.

        ``offset`` must be line-aligned within the page.
        """
        if not 0 <= offset < PAGE_BYTES or offset % LINE_BYTES:
            raise AddressError(f"offset {offset:#x} is not line-aligned in a page")
        return [base + offset for base in va_pages]
