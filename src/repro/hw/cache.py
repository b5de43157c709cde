"""Direct-mapped write-through data-cache model.

The DECstation 5000/240 has a 64 KB direct-mapped write-through data
cache with a write buffer.  The model captures exactly the effects the
paper's Tables III and IV depend on:

* a **load** of a line not present stalls for ``miss_penalty_cycles``
  and installs the line,
* a **store** drains through the write buffer without a stall and (in
  the default configuration) installs the line, so data just written is
  warm for a subsequent traversal,
* an explicit **flush** (the paper flushes the message region after DMA
  and between benchmark iterations) evicts lines so the next traversal
  misses again.

The cache tracks *tags only* — data lives in
:class:`repro.hw.memory.PhysicalMemory` — because a write-through cache
never holds dirty data, so correctness never depends on cached bytes.

The tag store is an ``array('q')`` with a shared ``numpy`` int64 view
over the same buffer.  Scalar probes (the VCODE interpreter and the
JIT's inlined cache model index ``_tags`` one line at a time) stay
plain-int fast, while bulk range operations — whole-packet copies,
checksums and flushes — wider than ``_SCALAR_CUTOFF`` lines run in
O(lines) numpy arithmetic.  The scalar walk is also the reference the
vector path is checked against (``tests/test_hw_cache.py``): both
compute identical hit/miss counts, stall cycles and final tag state.
"""

from __future__ import annotations

from array import array

import numpy as np

from .calibration import Calibration

__all__ = ["DirectMappedCache"]

#: ranges touching at most this many lines take the scalar walk: numpy
#: call overhead beats the loop only beyond it
_SCALAR_CUTOFF = 8


class DirectMappedCache:
    """Tag store + cycle accounting for a direct-mapped cache."""

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.line = cal.cache_line
        self.nlines = cal.cache_size // cal.cache_line
        # tags[i] is the full line address cached in set i, or -1.
        # array('q') + frombuffer share one buffer: scalar int indexing
        # for the interpreter/JIT, vectorized gathers for bulk ranges.
        self._tags = array("q", bytes(8 * self.nlines))
        self._tags_np = np.frombuffer(self._tags, dtype=np.int64)
        self._tags_np.fill(-1)
        self.hits = 0
        self.misses = 0

    # -- internals -------------------------------------------------------
    def _index(self, line_addr: int) -> int:
        return (line_addr // self.line) % self.nlines

    def _span(self, addr: int, size: int) -> tuple[int, int]:
        """(first line address, number of lines) for ``[addr, addr+size)``."""
        first = addr - (addr % self.line)
        nl = (addr + size - 1 - first) // self.line + 1
        return first, nl

    # -- single accesses ---------------------------------------------------
    def load(self, addr: int, size: int) -> int:
        """Account for a load of ``size`` bytes at ``addr``.

        Returns the stall cycles incurred (0 if every touched line hits).
        """
        return self.touch_range(addr, size, is_store=False)

    def store(self, addr: int, size: int) -> int:
        """Account for a store; write-through stores never stall."""
        return self.touch_range(addr, size, is_store=True)

    # -- bulk accesses -----------------------------------------------------
    def touch_range(self, addr: int, size: int, is_store: bool = False) -> int:
        """Walk every line in ``[addr, addr+size)``; return stall cycles.

        This is the primitive both the VCODE interpreter (word at a
        time) and the compiled DILP kernels (whole buffers at once) use,
        so both charge identical miss costs for identical access
        patterns.  Wide ranges vectorize; the result (hits, misses,
        stalls, final tag state) is bit-identical to the scalar walk.
        """
        if size <= 0:
            return 0
        first, nl = self._span(addr, size)
        if nl <= _SCALAR_CUTOFF:
            return self._touch_scalar(first, nl, is_store)
        return self._touch_vector(first, nl, is_store)

    def _touch_scalar(self, first: int, nl: int, is_store: bool) -> int:
        stall = 0
        tags = self._tags
        line = self.line
        nlines = self.nlines
        install = self.cal.store_installs_line
        penalty = self.cal.miss_penalty_cycles
        for line_addr in range(first, first + nl * line, line):
            idx = (line_addr // line) % nlines
            if tags[idx] == line_addr:
                self.hits += 1
            else:
                self.misses += 1
                if is_store:
                    if install:
                        tags[idx] = line_addr
                else:
                    stall += penalty
                    tags[idx] = line_addr
        return stall

    def _touch_vector(self, first: int, nl: int, is_store: bool) -> int:
        tags = self._tags_np
        line = self.line
        nlines = self.nlines
        line_addrs = first + np.arange(nl, dtype=np.int64) * line
        idx = (line_addrs // line) % nlines
        if is_store and not self.cal.store_installs_line:
            # tags never change: probe everything against current state
            hits = int((tags[idx] == line_addrs).sum())
            self.hits += hits
            self.misses += nl - hits
            return 0
        if nl <= nlines:
            # all set indices distinct: gather, compare, install
            hits = int((tags[idx] == line_addrs).sum())
            tags[idx] = line_addrs
        else:
            # the range wraps the cache: only the first pass over the
            # sets can hit pre-existing tags (every later touch of a set
            # probes a line installed by this very walk — a different
            # line address, hence a guaranteed miss); the final state is
            # the last writer of each set, i.e. the range's last
            # ``nlines`` lines.
            hits = int((tags[idx[:nlines]] == line_addrs[:nlines]).sum())
            tags[idx[-nlines:]] = line_addrs[-nlines:]
        misses = nl - hits
        self.hits += hits
        self.misses += misses
        return 0 if is_store else misses * self.cal.miss_penalty_cycles

    def miss_count_range(self, addr: int, size: int) -> int:
        """How many lines of the range would currently miss (no update)."""
        if size <= 0:
            return 0
        first, nl = self._span(addr, size)
        line = self.line
        nlines = self.nlines
        if nl > _SCALAR_CUTOFF:
            line_addrs = first + np.arange(nl, dtype=np.int64) * line
            idx = (line_addrs // line) % nlines
            return nl - int((self._tags_np[idx] == line_addrs).sum())
        tags = self._tags
        return sum(
            1
            for line_addr in range(first, first + nl * line, line)
            if tags[(line_addr // line) % nlines] != line_addr
        )

    # -- flushes -----------------------------------------------------------
    def flush_range(self, addr: int, size: int) -> None:
        """Invalidate every line overlapping ``[addr, addr+size)``."""
        if size <= 0:
            return
        first, nl = self._span(addr, size)
        line = self.line
        nlines = self.nlines
        if nl > _SCALAR_CUTOFF:
            tags = self._tags_np
            if nl >= nlines:
                # every resident tag sits in its own set (installs only
                # ever go to _index(tag)), so a plain value-range mask
                # finds exactly the lines the scalar walk would evict
                last = first + (nl - 1) * line
                tags[(tags >= first) & (tags <= last)] = -1
            else:
                line_addrs = first + np.arange(nl, dtype=np.int64) * line
                idx = (line_addrs // line) % nlines
                sel = tags[idx] == line_addrs
                tags[idx[sel]] = -1
            return
        tags = self._tags
        for line_addr in range(first, first + nl * line, line):
            idx = (line_addr // line) % nlines
            if tags[idx] == line_addr:
                tags[idx] = -1

    def flush_all(self) -> None:
        # in place: the numpy view (and the JIT's ``_tags`` alias) must
        # keep seeing the same buffer
        self._tags_np.fill(-1)

    # -- inspection ----------------------------------------------------------
    def contains(self, addr: int) -> bool:
        line_addr = addr - (addr % self.line)
        return self._tags[self._index(line_addr)] == line_addr
