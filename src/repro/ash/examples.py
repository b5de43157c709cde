"""Canonical handlers from the paper's evaluation.

* :func:`build_echo` — reply with the message itself (zero-copy:
  ``ash_send`` reads straight out of the receive buffer).
* :func:`build_remote_increment` — Table V / Fig. 4's workload: "the
  application ... receives the message, performs an increment, then
  responds with another message".
* :func:`build_remote_write_generic` — Section V-D's baseline, "modeled
  after that of Thekkath et al.: reads the segment number, offset, and
  size from the message, uses address translation tables to determine
  the correct place to write the data to, and then writes the data
  (assuming the request is valid)".
* :func:`build_remote_write_specific` — the application-specific
  variant that "assumes it is given a pointer to memory, instead of a
  segment descriptor and offset" (trusted peers, e.g. a DSM system).

All handlers use the parameter-block convention: the user context word
(A2 at entry) is the address of an application-owned block whose layout
each builder documents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..vcode.isa import Program
from .handler import AshBuilder

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.memory import PhysicalMemory, Region

__all__ = [
    "build_echo",
    "build_remote_increment",
    "build_remote_write_generic",
    "build_remote_write_specific",
    "increment_state",
    "PARAM_COUNTER",
    "PARAM_REPLY_VCI",
    "PARAM_SCRATCH",
    "PARAM_TABLE",
    "PARAM_NSEGS",
]

# remote-increment parameter block layout (byte offsets)
PARAM_COUNTER = 0      #: address of the u32 counter to increment
PARAM_REPLY_VCI = 4    #: virtual circuit to send the reply on
PARAM_SCRATCH = 8      #: address of a small reply buffer

# remote-write parameter block layout
PARAM_TABLE = 0        #: address of the segment table ([base, limit] pairs)
PARAM_NSEGS = 4        #: number of segments in the table


def build_echo() -> Program:
    """Reply with the received payload on the VCI named by the context
    block's PARAM_REPLY_VCI field; consume the message."""
    b = AshBuilder("echo_ash")
    vci = b.getreg()
    b.v_ld32(vci, b.CTX, PARAM_REPLY_VCI)
    msg, length = b.getreg(), b.getreg()
    b.v_move(msg, b.MSG)
    b.v_move(length, b.LEN)
    b.v_send(msg, length, vci)
    b.v_consume()
    return b.finish()


def build_remote_increment() -> Program:
    """Increment a counter by the message's u32 and reply with the new
    value.  Messages that are not exactly 4 bytes are passed to the
    normal path (a voluntary abort in the paper's terms)."""
    b = AshBuilder("remote_increment")
    bad = b.label("pass")

    four = b.getreg()
    b.v_li(four, 4)
    b.v_bne(b.LEN, four, bad)         # initial part: can the ASH run?

    counter_ptr = b.getreg()
    amount = b.getreg()
    value = b.getreg()
    b.v_ld32(counter_ptr, b.CTX, PARAM_COUNTER)
    b.v_ld32(amount, b.MSG, 0)        # data manipulation part
    b.v_ld32(value, counter_ptr, 0)
    b.v_addu(value, value, amount)
    b.v_st32(value, counter_ptr, 0)

    scratch = b.getreg()              # commit part: reply
    b.v_ld32(scratch, b.CTX, PARAM_SCRATCH)
    b.v_st32(value, scratch, 0)
    vci = b.getreg()
    b.v_ld32(vci, b.CTX, PARAM_REPLY_VCI)
    b.v_send(scratch, four, vci)
    b.v_consume()

    b.mark(bad)                       # abort part
    b.v_pass()
    return b.finish()


def increment_state(mem: "PhysicalMemory", name: str,
                    reply_vci: int) -> tuple["Region", int]:
    """Allocate a remote-increment handler's 64-byte state region: the
    u32 counter at +0, the reply scratch buffer at +16 and the parameter
    block at +32, filled in to reply on ``reply_vci``.

    Returns ``(region, params)``: the counter lives at ``region.base``,
    the region is the handler's allowed region and ``params`` its user
    word.
    """
    state = mem.alloc(name, 64)
    params = state.base + 32
    mem.store_u32(params + PARAM_COUNTER, state.base)
    mem.store_u32(params + PARAM_REPLY_VCI, reply_vci)
    mem.store_u32(params + PARAM_SCRATCH, state.base + 16)
    return state, params


# message layout for the generic remote write
RW_SEG = 0
RW_OFFSET = 4
RW_SIZE = 8
RW_DATA = 12


def build_remote_write_generic(ilp_id: int) -> Program:
    """Segment-table remote write (the Thekkath-style generic protocol).

    Message: ``[segment u32][offset u32][size u32][data ...]``.
    Context block: ``[table addr][nsegs]`` where the table is ``nsegs``
    pairs of ``[base u32][limit u32]``.  Invalid requests abort
    voluntarily.  The data movement runs through the DILP engine
    registered as ``ilp_id``.
    """
    b = AshBuilder("remote_write_generic")
    bad = b.label("abort")

    seg = b.getreg()
    off = b.getreg()
    size = b.getreg()
    b.v_ld32(seg, b.MSG, RW_SEG)
    b.v_ld32(off, b.MSG, RW_OFFSET)
    b.v_ld32(size, b.MSG, RW_SIZE)

    nsegs = b.getreg()
    b.v_ld32(nsegs, b.CTX, PARAM_NSEGS)
    b.v_bgeu(seg, nsegs, bad)          # segment number in range?
    b.putreg(nsegs)                    # value dead from here on

    table = b.getreg()
    b.v_ld32(table, b.CTX, PARAM_TABLE)
    entry = b.getreg()
    b.v_sll(entry, seg, 3)             # 8 bytes per [base, limit] pair
    b.v_addu(entry, entry, table)
    base = b.getreg()
    limit = b.getreg()
    b.v_ld32(base, entry, 0)
    b.v_ld32(limit, entry, 4)
    b.putreg(entry)
    b.putreg(table)

    # request valid iff offset + size <= limit (reuse seg as scratch)
    b.v_addu(seg, off, size)
    b.v_bltu(limit, seg, bad)

    b.v_addu(base, base, off)          # destination = base + offset
    src = b.getreg()
    b.v_addiu(src, b.MSG, RW_DATA)
    b.v_dilp(ilp_id, src, base, size)
    b.v_consume()

    b.mark(bad)
    b.v_pass()
    return b.finish()


# message layout for the application-specific remote write
RWS_PTR = 0
RWS_SIZE = 4
RWS_DATA = 8


def build_remote_write_specific(ilp_id: int) -> Program:
    """Trusted-peer remote write: the message carries a raw pointer.

    "The application-specific version not only assumes the message was
    sent by a trusted sender, but also uses a different protocol ...
    the handler assumes it is given a pointer to memory, instead of a
    segment descriptor and offset."
    """
    b = AshBuilder("remote_write_specific")
    dst = b.getreg()
    size = b.getreg()
    src = b.getreg()
    b.v_ld32(dst, b.MSG, RWS_PTR)
    b.v_ld32(size, b.MSG, RWS_SIZE)
    b.v_addiu(src, b.MSG, RWS_DATA)
    b.v_dilp(ilp_id, src, dst, size)
    b.v_consume()
    return b.finish()
