"""SACK machinery: the sender scoreboard and the receiver reassembly queue.

Two pure data structures, deliberately free of simulator / kernel
dependencies so their behaviour is a function of the byte streams alone
(the golden-digest and SMP-identity proofs lean on that):

* :class:`SackScoreboard` — the sender's per-segment retransmission
  ledger.  Every transmitted segment is a :class:`SentSeg`; cumulative
  ACKs retire a prefix, SACK blocks mark segments received
  out-of-order.  Retransmission (fast or timeout-driven) walks the
  *unsacked* segments only — selective repeat, where the pre-SACK code
  resent everything outstanding (go-back-N).
* :class:`ReassemblyQueue` — the receiver's out-of-order buffer.
  Segments ahead of ``rcv_nxt`` are held (never dropped: a block, once
  advertised, stays deliverable — no reneging) and coalesced into the
  SACK blocks advertised back to the sender, most recently changed
  range first per RFC 2018.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .tcb import MASK32, seq_lt, seq_lte

__all__ = ["SentSeg", "SackScoreboard", "ReassemblyQueue"]


@dataclass
class SentSeg:
    """One transmitted segment awaiting cumulative acknowledgment."""

    seq: int
    payload: bytes
    #: virtual send time of the *original* transmission (Karn: a
    #: retransmitted segment never yields an RTT sample)
    sent_at: int = 0
    sacked: bool = False
    rexmits: int = 0

    @property
    def end(self) -> int:
        return (self.seq + len(self.payload)) & MASK32


class SackScoreboard:
    """Sender-side per-segment SACK ledger (RFC 2018 semantics)."""

    def __init__(self) -> None:
        self.segs: list[SentSeg] = []
        #: bytes currently marked SACKed (all below snd_nxt by
        #: construction) — credited against the flight size so new data
        #: keeps flowing during recovery
        self.sacked_bytes = 0

    def __len__(self) -> int:
        return len(self.segs)

    def __bool__(self) -> bool:
        return bool(self.segs)

    def record(self, seq: int, payload: bytes, now: int) -> SentSeg:
        """Register a newly sent segment (in send order)."""
        seg = SentSeg(seq=seq, payload=payload, sent_at=now)
        self.segs.append(seg)
        return seg

    def ack(self, ack: int) -> tuple[int, Optional[SentSeg]]:
        """Retire every segment fully covered by cumulative ``ack``.

        Returns ``(bytes_newly_acked, newest_clean_seg)`` where the
        segment is the most recently sent retired one that was never
        retransmitted and not SACK-retired — the valid RTT sample.
        """
        newly_acked = 0
        sample: Optional[SentSeg] = None
        keep = []
        for seg in self.segs:
            if seq_lte(seg.end, ack):
                if seg.sacked:
                    self.sacked_bytes -= len(seg.payload)
                else:
                    newly_acked += len(seg.payload)
                if seg.rexmits == 0 and not seg.sacked:
                    sample = seg
            else:
                keep.append(seg)
        self.segs = keep
        return newly_acked, sample

    def apply_sack(self, blocks: list[tuple[int, int]]) -> int:
        """Mark segments covered by the peer's SACK blocks.

        A segment is SACKed only when a block covers it entirely (we
        never send overlapping segments, so partial cover only happens
        on malformed blocks — ignored).  Returns bytes newly marked.
        """
        newly = 0
        for left, right in blocks:
            if not seq_lt(left, right):
                continue  # empty or inverted block: ignore
            for seg in self.segs:
                if seg.sacked:
                    continue
                if seq_lte(left, seg.seq) and seq_lte(seg.end, right):
                    seg.sacked = True
                    newly += len(seg.payload)
        self.sacked_bytes += newly
        return newly

    def first_unsacked(self) -> Optional[SentSeg]:
        for seg in self.segs:
            if not seg.sacked:
                return seg
        return None

    def unsacked(self) -> Iterator[SentSeg]:
        """Unsacked segments in sequence order (the retransmit set)."""
        for seg in self.segs:
            if not seg.sacked:
                yield seg

    def holes_below_sacked(self) -> Iterator[SentSeg]:
        """Unsacked segments with a SACKed segment above them — the
        holes the receiver has proven are missing (lost, not merely
        late), in sequence order."""
        highest_sacked = None
        for seg in self.segs:
            if seg.sacked:
                highest_sacked = seg.seq
        if highest_sacked is None:
            return
        for seg in self.segs:
            if not seg.sacked and seq_lt(seg.seq, highest_sacked):
                yield seg


@dataclass
class _Range:
    """One contiguous received-but-undeliverable byte range."""

    start: int
    data: bytearray

    @property
    def end(self) -> int:
        return (self.start + len(self.data)) & MASK32


class ReassemblyQueue:
    """Receiver-side out-of-order buffer + SACK block generator."""

    def __init__(self, limit: int = 65536) -> None:
        self.ranges: list[_Range] = []    # sorted by start
        self.limit = limit
        #: starts of the ranges most recently grown, newest first —
        #: RFC 2018 block ordering ("the first SACK block MUST specify
        #: the contiguous block containing the most recently received
        #: segment")
        self._recency: list[int] = []

    def __bool__(self) -> bool:
        return bool(self.ranges)

    @property
    def buffered(self) -> int:
        return sum(len(r.data) for r in self.ranges)

    def add(self, seq: int, payload: bytes, rcv_nxt: int) -> bool:
        """Buffer an out-of-order segment.  Returns True if any byte of
        it was new (False for pure duplicates or over-limit drops).

        Only data within ``limit`` bytes of ``rcv_nxt`` is held, so a
        mis-behaving sender cannot balloon the queue; a refused segment
        was never advertised, so refusing it is not reneging.
        """
        if not payload:
            return False
        offset = (seq - rcv_nxt) & MASK32
        if offset > 0x7FFFFFFF or offset + len(payload) > self.limit:
            return False
        # trim overlap with every existing range, then insert what's new
        new_start, new_data = seq, bytearray(payload)
        for r in self.ranges:
            lap_lo = (r.start - new_start) & MASK32
            if lap_lo <= 0x7FFFFFFF and lap_lo < len(new_data):
                # r starts inside the new data: split around r
                head = new_data[:lap_lo]
                tail_off = lap_lo + len(r.data)
                tail = new_data[tail_off:] if tail_off < len(new_data) else b""
                if head:
                    self._insert(new_start, head)
                if not tail:
                    return bool(head)
                new_start = r.end
                new_data = bytearray(tail)
                continue
            lap_hi = (new_start - r.start) & MASK32
            if lap_hi <= 0x7FFFFFFF and lap_hi < len(r.data):
                # new data starts inside r: drop the covered prefix
                covered = len(r.data) - lap_hi
                if covered >= len(new_data):
                    return False
                new_start = (new_start + covered) & MASK32
                new_data = new_data[covered:]
        self._insert(new_start, new_data)
        return True

    def _insert(self, start: int, data: bytearray) -> None:
        """Insert a non-overlapping range and coalesce its neighbours."""
        merged = _Range(start, bytearray(data))
        out: list[_Range] = []
        for r in self.ranges:
            if r.end == merged.start:
                merged = _Range(r.start, r.data + merged.data)
                self._forget(r.start)
            elif merged.end == r.start:
                merged = _Range(merged.start, merged.data + r.data)
                self._forget(r.start)
            else:
                out.append(r)
        out.append(merged)
        out.sort(key=lambda r: (r.start - merged.start) & MASK32)
        # keep absolute order by start relative to the smallest element
        base = min(out, key=lambda r: r.start).start
        out.sort(key=lambda r: (r.start - base) & MASK32)
        self.ranges = out
        self._forget(merged.start)
        self._recency.insert(0, merged.start)

    def _forget(self, start: int) -> None:
        if start in self._recency:
            self._recency.remove(start)

    def blocks(self) -> list[tuple[int, int]]:
        """SACK blocks, most recently changed range first."""
        by_start = {r.start: r for r in self.ranges}
        ordered = [by_start[s] for s in self._recency if s in by_start]
        return [(r.start, r.end) for r in ordered]

    def pop_ready(self, rcv_nxt: int) -> bytes:
        """Remove and return bytes contiguous with ``rcv_nxt``."""
        for i, r in enumerate(self.ranges):
            if r.start == rcv_nxt:
                self.ranges.pop(i)
                self._forget(r.start)
                return bytes(r.data)
        return b""
