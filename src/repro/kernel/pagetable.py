"""Virtual memory: address spaces, VMAs, page sizes, the ARM64
contiguous bit, and demand paging.

The paper's §4.1.3 is entirely about this machinery:

* RHEL on A64FX uses a **64 KiB base page**; the ARM64 **contiguous
  bit** lets 32 physically contiguous pages share one TLB entry, giving
  an effective **2 MiB** translation unit; the regular large page at
  this base size is **512 MiB**, which "easily leads to memory
  fragmentation problems".
* Linux supports THP and hugeTLBfs; only hugeTLBfs supports the
  contiguous bit, hence Fugaku uses hugeTLBfs.

An :class:`AddressSpace` tracks the VMAs of one process and fulfils
faults from a buddy allocator, recording the statistics the cost model
prices (fault counts by page size, zeroing volume, TLB entries used).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ConfigurationError, OutOfMemoryError
from .buddy import BlockRange, BuddyAllocator


class PageKind(enum.Enum):
    """Translation granularity of a mapping."""

    BASE = "base"            # base page (4 KiB x86 / 64 KiB aarch64-RHEL)
    CONTIG = "contig"        # ARM64 contiguous-bit run (32 base pages)
    HUGE = "huge"            # regular huge page (2 MiB x86 / 512 MiB aarch64)


@dataclass(frozen=True)
class PageGeometry:
    """Page sizes of one platform."""

    base: int
    #: Base pages per contiguous-bit run (0 if the ISA has no such feature).
    contig_factor: int
    #: Base pages per regular huge page.
    huge_factor: int

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ConfigurationError("base page size must be positive")
        for f in (self.contig_factor, self.huge_factor):
            if f < 0 or (f and (f & (f - 1))):
                raise ConfigurationError(
                    "page-size factors must be 0 or a power of two"
                )

    def size_of(self, kind: PageKind) -> int:
        if kind is PageKind.BASE:
            return self.base
        if kind is PageKind.CONTIG:
            if not self.contig_factor:
                raise ConfigurationError("platform has no contiguous bit")
            return self.base * self.contig_factor
        return self.base * self.huge_factor

    def order_of(self, kind: PageKind) -> int:
        """Buddy order of one page of ``kind`` (in base pages)."""
        return (self.size_of(kind) // self.base - 1).bit_length()


#: aarch64 with RHEL's 64 KiB base: contig -> 2 MiB, huge -> 512 MiB.
AARCH64_64K = PageGeometry(base=64 * 1024, contig_factor=32, huge_factor=8192)
#: Classic x86_64: 4 KiB base, no contiguous bit, 2 MiB huge pages.
X86_4K = PageGeometry(base=4 * 1024, contig_factor=0, huge_factor=512)


class VmaKind(enum.Enum):
    """What a mapping backs, mirroring the areas §4.1.3 lists."""

    DATA = "data"      # .data/.bss
    STACK = "stack"
    HEAP = "heap"      # brk/mmap anonymous
    FILE = "file"
    DEVICE = "device"  # direct device mappings (Tofu, OmniPath)


@dataclass
class Vma:
    """One virtual memory area."""

    start: int
    length: int
    kind: VmaKind
    page_kind: PageKind
    #: Physical blocks backing the populated part, in fault order.
    blocks: list[BlockRange] = field(default_factory=list)
    populated_bytes: int = 0
    #: Copy-on-write state: blocks shared with relatives after fork().
    #: Maps block index -> the SharedFrame reference-counting cell.
    cow_shared: dict = field(default_factory=dict)

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass
class SharedFrame:
    """Reference count for one physical block shared copy-on-write."""

    block: BlockRange
    refcount: int = 1


@dataclass
class FaultStats:
    """Counters an address space accumulates; consumed by the cost model."""

    faults_by_kind: dict[PageKind, int] = field(
        default_factory=lambda: {k: 0 for k in PageKind}
    )
    zeroed_bytes: int = 0
    huge_fallbacks: int = 0  # huge-page faults satisfied with base pages
    unmapped_pages: int = 0  # base-page translations torn down (TLB flushes)
    cow_faults: int = 0      # write faults that copied a shared block
    cow_copied_bytes: int = 0

    def reset(self) -> None:
        self.faults_by_kind = {k: 0 for k in PageKind}
        self.zeroed_bytes = 0
        self.huge_fallbacks = 0
        self.unmapped_pages = 0
        self.cow_faults = 0
        self.cow_copied_bytes = 0


class AddressSpace:
    """Per-process virtual memory, backed by one buddy allocator.

    ``prefault`` mappings are populated on mmap (Fugaku's pre-allocation
    scheme, selectable "by specific environment variables" per §4.1.3);
    otherwise pages are faulted in on first touch via :meth:`touch`.
    """

    _VA_ALIGN = 1 << 30  # spread VMAs so ranges never collide

    def __init__(self, geometry: PageGeometry, buddy: BuddyAllocator) -> None:
        self.geometry = geometry
        self.buddy = buddy
        self.vmas: dict[int, Vma] = {}
        self._next_va = self._VA_ALIGN
        self.stats = FaultStats()

    # -- mapping lifecycle ----------------------------------------------

    def mmap(
        self,
        length: int,
        kind: VmaKind = VmaKind.HEAP,
        page_kind: PageKind = PageKind.BASE,
        prefault: bool = False,
    ) -> Vma:
        """Create a mapping of ``length`` bytes (rounded up to the page
        size of ``page_kind``)."""
        if length <= 0:
            raise ConfigurationError("mmap length must be positive")
        psize = self.geometry.size_of(page_kind)
        length = -(-length // psize) * psize
        vma = Vma(start=self._next_va, length=length, kind=kind,
                  page_kind=page_kind)
        self._next_va += max(length, self._VA_ALIGN)
        self.vmas[vma.start] = vma
        if prefault:
            self.touch(vma, vma.length)
        return vma

    def touch(self, vma: Vma, nbytes: int) -> int:
        """Fault in the first ``nbytes`` of ``vma`` (idempotent for
        already-populated ranges).  Returns the number of faults taken."""
        if vma.start not in self.vmas:
            raise ConfigurationError("touch on unmapped VMA")
        nbytes = min(nbytes, vma.length)
        faults = 0
        psize = self.geometry.size_of(vma.page_kind)
        order = self.geometry.order_of(vma.page_kind)
        while vma.populated_bytes < nbytes:
            try:
                block = self.buddy.alloc(order)
                got_kind = vma.page_kind
                got_size = psize
            except OutOfMemoryError:
                if vma.page_kind is PageKind.BASE:
                    raise
                # Huge/contig fault falls back to base pages (what Linux
                # does when the buddy cannot produce a contiguous run).
                block = self.buddy.alloc(0)
                got_kind = PageKind.BASE
                got_size = self.geometry.base
                self.stats.huge_fallbacks += 1
            vma.blocks.append(block)
            vma.populated_bytes += got_size
            self.stats.faults_by_kind[got_kind] += 1
            self.stats.zeroed_bytes += got_size
            faults += 1
        return faults

    def munmap(self, vma: Vma) -> int:
        """Tear down a mapping, freeing physical memory.  Returns the
        number of base-page translations invalidated — the quantity that
        drives TLB-flush storms on process exit / GC (§4.2.2).

        Copy-on-write-shared blocks are only returned to the buddy once
        the last sharer unmaps them."""
        if self.vmas.pop(vma.start, None) is None:
            raise ConfigurationError("munmap of unmapped VMA")
        invalidated = 0
        for i, block in enumerate(vma.blocks):
            shared = vma.cow_shared.get(i)
            if shared is not None:
                shared.refcount -= 1
                if shared.refcount == 0:
                    self.buddy.free(block)
            else:
                self.buddy.free(block)
            invalidated += block.n_pages
        vma.blocks.clear()
        vma.cow_shared.clear()
        vma.populated_bytes = 0
        self.stats.unmapped_pages += invalidated
        return invalidated

    # -- fork / copy-on-write ---------------------------------------------

    def fork(self) -> "AddressSpace":
        """POSIX fork(): duplicate the address space copy-on-write.

        Every populated block becomes shared between parent and child;
        physical memory is copied only on the first write by either side
        (:meth:`cow_write`).  This is the facility whose absence limited
        classic LWKs ("neither Catamount nor the IBM CNK provided full
        compatibility ... such as fork()", §1) and which McKernel's
        Linux-compatible ABI provides.
        """
        child = AddressSpace(self.geometry, self.buddy)
        child._next_va = self._next_va
        for start, vma in self.vmas.items():
            child_vma = Vma(start=vma.start, length=vma.length,
                            kind=vma.kind, page_kind=vma.page_kind,
                            populated_bytes=vma.populated_bytes)
            for i, block in enumerate(vma.blocks):
                shared = vma.cow_shared.get(i)
                if shared is None:
                    shared = SharedFrame(block=block, refcount=1)
                    vma.cow_shared[i] = shared
                shared.refcount += 1
                child_vma.blocks.append(block)
                child_vma.cow_shared[i] = shared
            child.vmas[start] = child_vma
        return child

    def cow_write(self, vma: Vma, nbytes: int | None = None) -> int:
        """First write after fork(): copy the shared blocks backing the
        first ``nbytes`` of ``vma`` (default: all populated).  Returns
        the number of copy faults taken."""
        if vma.start not in self.vmas or self.vmas[vma.start] is not vma:
            raise ConfigurationError("cow_write on a VMA not in this space")
        limit = vma.populated_bytes if nbytes is None else min(
            nbytes, vma.populated_bytes)
        faults = 0
        covered = 0
        for i, block in enumerate(vma.blocks):
            if covered >= limit:
                break
            block_bytes = block.n_pages * self.geometry.base
            covered += block_bytes
            shared = vma.cow_shared.get(i)
            if shared is None:
                continue  # already private
            if shared.refcount == 1:
                # Last sharer: reuse the frame privately (what Linux does).
                del vma.cow_shared[i]
                continue
            fresh = self.buddy.alloc(block.order)
            shared.refcount -= 1
            vma.blocks[i] = fresh
            del vma.cow_shared[i]
            faults += 1
            self.stats.cow_faults += 1
            self.stats.cow_copied_bytes += block_bytes
        return faults

    def exit(self) -> int:
        """Process termination: unmap everything.  Returns total
        base-page translations invalidated."""
        total = 0
        for vma in list(self.vmas.values()):
            total += self.munmap(vma)
        return total

    # -- accounting -------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        return sum(v.populated_bytes for v in self.vmas.values())

    def tlb_entries_needed(self) -> int:
        """Last-level TLB entries required to cover all populated memory
        (the number the A64FX 1,024-entry TLB is compared against)."""
        entries = 0
        for vma in self.vmas.values():
            psize = self.geometry.size_of(vma.page_kind)
            entries += -(-vma.populated_bytes // psize)
        return entries
