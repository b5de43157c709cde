"""A miniature CRL-style distributed shared memory on ASHs.
(See ``examples/dsm_remote_write.py`` for the narrated remote-write
walkthrough; :class:`DsmClient` adds reads and locks on top.)

The paper closes: "we have also found ASHs useful in another context:
that of executing the software distributed shared memory actions of CRL
for various parallel applications", and Section V-C names "remote lock
acquisition" as a canonical control-initiation use.  This module builds
that application: a *home node* exports a memory region and a lock
array, and serves four operations entirely inside its kernel — no home
process is ever scheduled:

* ``READ`` — reply with region bytes, sent zero-copy straight out of
  the region (``ash_send`` reads the application data in place);
* ``WRITE`` — bounds-checked DILP copy of the payload into the region,
  acknowledged from the kernel;
* ``LOCK_ACQ`` — test-and-set on a lock word, grant/deny reply;
* ``LOCK_REL`` — clear the lock word.

The four handlers are fragments in one
:class:`~repro.ash.active.ActiveMessageLayer` dispatcher, so the whole
protocol is one downloaded ASH with a jump table.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from ..ash.active import AM_HEADER, ActiveMessageLayer, am_message
from ..errors import ProtocolError
from ..hw.link import Frame

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Endpoint, Kernel
    from ..kernel.process import Process

__all__ = ["DsmRegion", "DsmNode", "DsmClient",
           "OP_READ", "OP_WRITE", "OP_LOCK_ACQ", "OP_LOCK_REL"]

OP_READ = 0
OP_WRITE = 1
OP_LOCK_ACQ = 2
OP_LOCK_REL = 3

# context block layout (home node)
CTX_REGION_BASE = 0
CTX_REGION_SIZE = 4
CTX_REPLY_VCI = 8
CTX_SCRATCH = 12
CTX_LOCKS_BASE = 16
CTX_NLOCKS = 20
CTX_SIZE = 32

STATUS_OK = 1
STATUS_DENIED = 0


class DsmRegion:
    """The exported memory on the home node."""

    def __init__(self, kernel: "Kernel", size: int, n_locks: int = 8,
                 name: str = "dsm"):
        mem = kernel.node.memory
        self.size = size
        self.n_locks = n_locks
        self.region = mem.alloc(f"{name}.region", size)
        self.locks = mem.alloc(f"{name}.locks", 4 * n_locks)
        self.scratch = mem.alloc(f"{name}.scratch", 64)
        self.ctx = mem.alloc(f"{name}.ctx", CTX_SIZE)
        self.mem = mem

    def read_local(self, offset: int, length: int) -> bytes:
        return self.mem.read(self.region.base + offset, length)

    def write_local(self, offset: int, data: bytes) -> None:
        self.mem.write(self.region.base + offset, data)

    def lock_word(self, index: int) -> int:
        return self.mem.load_u32(self.locks.base + 4 * index)


class DsmNode:
    """Home-node server: installs the dispatcher ASH."""

    def __init__(self, kernel: "Kernel", ep: "Endpoint", region: DsmRegion,
                 reply_vci: int, sandbox: bool = True):
        from ..pipes import PIPE_WRITE, compile_pl, pipel

        self.kernel = kernel
        self.region = region
        mem = kernel.node.memory
        mem.store_u32(region.ctx.base + CTX_REGION_BASE, region.region.base)
        mem.store_u32(region.ctx.base + CTX_REGION_SIZE, region.size)
        mem.store_u32(region.ctx.base + CTX_REPLY_VCI, reply_vci)
        mem.store_u32(region.ctx.base + CTX_SCRATCH, region.scratch.base)
        mem.store_u32(region.ctx.base + CTX_LOCKS_BASE, region.locks.base)
        mem.store_u32(region.ctx.base + CTX_NLOCKS, region.n_locks)

        pipeline = compile_pl(pipel(name=f"{ep.name}.dsmcopy"), PIPE_WRITE,
                              cal=kernel.cal)
        self._ilp = kernel.ash_system.register_ilp(pipeline)

        layer = ActiveMessageLayer(kernel, ep, context_word=region.ctx.base)
        layer.register("read", self._emit_read)
        layer.register("write", self._emit_write(self._ilp))
        layer.register("lock_acq", self._emit_lock_acq)
        layer.register("lock_rel", self._emit_lock_rel)
        allowed = [
            (region.region.base, region.size),
            (region.locks.base, 4 * region.n_locks),
            (region.scratch.base, 64),
            (region.ctx.base, CTX_SIZE),
        ]
        layer.finalize(allowed, sandbox=sandbox)
        self.layer = layer

    # -- fragment emitters ---------------------------------------------------
    @staticmethod
    def _emit_read(b) -> None:
        """READ: arg0 = offset, arg1 = length; reply with the bytes,
        zero-copy from the region itself."""
        bad = b.label()
        off = b.getreg()
        b.v_ld32(off, b.MSG, 4)
        length = b.getreg()
        b.v_ld32(length, b.MSG, 8)
        end = b.getreg()
        b.v_addu(end, off, length)
        limit = b.getreg()
        b.v_ld32(limit, b.CTX, CTX_REGION_SIZE)
        b.v_bltu(limit, end, bad)               # off + len > size: refuse
        src = b.getreg()
        b.v_ld32(src, b.CTX, CTX_REGION_BASE)
        b.v_addu(src, src, off)
        vci = b.getreg()
        b.v_ld32(vci, b.CTX, CTX_REPLY_VCI)
        b.v_send(src, length, vci)              # data leaves in place
        b.v_consume()
        b.mark(bad)
        b.v_pass()

    @staticmethod
    def _emit_write(ilp_id: int):
        def emit(b) -> None:
            # NOTE: trusted calls clobber A0-A3 (so also MSG/LEN/CTX);
            # everything needed after ``ash_dilp``/``ash_send`` must be
            # hoisted into temporaries first.
            bad = b.label()
            off = b.getreg()
            b.v_ld32(off, b.MSG, 4)
            length = b.getreg()
            b.v_li(length, AM_HEADER)
            b.v_subu(length, b.LEN, length)     # payload length
            scratch = b.getreg()                # bounds scratch, reused
            b.v_addu(scratch, off, length)      # end = off + len
            limit = b.getreg()
            b.v_ld32(limit, b.CTX, CTX_REGION_SIZE)
            b.v_bltu(limit, scratch, bad)
            b.v_andi(scratch, length, 3)
            b.v_bne(scratch, b.ZERO, bad)       # DILP wants word multiples
            dst = b.getreg()
            b.v_ld32(dst, b.CTX, CTX_REGION_BASE)
            b.v_addu(dst, dst, off)
            src = b.getreg()
            b.v_addiu(src, b.MSG, AM_HEADER)
            # hoist the reply parameters before the calls clobber CTX
            b.v_ld32(scratch, b.CTX, CTX_SCRATCH)
            vci = limit                          # limit is dead: reuse
            b.v_ld32(vci, b.CTX, CTX_REPLY_VCI)
            b.v_dilp(ilp_id, src, dst, length)
            # ack from the kernel (src/off are dead after the copy)
            b.v_li(src, STATUS_OK)
            b.v_st32(src, scratch, 0)
            b.v_li(src, 4)
            b.v_send(scratch, src, vci)
            b.v_consume()
            b.mark(bad)
            b.v_pass()

        return emit

    @staticmethod
    def _emit_lock_acq(b) -> None:
        """LOCK_ACQ: arg0 = lock index; test-and-set, reply grant/deny."""
        bad = b.label()
        denied = b.label()
        reply = b.label()
        idx = b.getreg()
        b.v_ld32(idx, b.MSG, 4)
        nlocks = b.getreg()
        b.v_ld32(nlocks, b.CTX, CTX_NLOCKS)
        b.v_bgeu(idx, nlocks, bad)
        addr = b.getreg()
        b.v_sll(addr, idx, 2)
        base = b.getreg()
        b.v_ld32(base, b.CTX, CTX_LOCKS_BASE)
        b.v_addu(addr, addr, base)
        word = b.getreg()
        b.v_ld32(word, addr, 0)
        status = b.getreg()
        b.v_bne(word, b.ZERO, denied)
        b.v_li(word, 1)                         # take it
        b.v_st32(word, addr, 0)
        b.v_li(status, STATUS_OK)
        b.v_j(reply)
        b.mark(denied)
        b.v_li(status, STATUS_DENIED)
        b.mark(reply)
        scratch = b.getreg()
        b.v_ld32(scratch, b.CTX, CTX_SCRATCH)
        b.v_st32(status, scratch, 0)
        b.v_li(status, 4)                       # reuse as length
        vci = b.getreg()
        b.v_ld32(vci, b.CTX, CTX_REPLY_VCI)
        b.v_send(scratch, status, vci)
        b.v_consume()
        b.mark(bad)
        b.v_pass()

    @staticmethod
    def _emit_lock_rel(b) -> None:
        bad = b.label()
        idx = b.getreg()
        b.v_ld32(idx, b.MSG, 4)
        nlocks = b.getreg()
        b.v_ld32(nlocks, b.CTX, CTX_NLOCKS)
        b.v_bgeu(idx, nlocks, bad)
        addr = b.getreg()
        b.v_sll(addr, idx, 2)
        base = b.getreg()
        b.v_ld32(base, b.CTX, CTX_LOCKS_BASE)
        b.v_addu(addr, addr, base)
        b.v_st32(b.ZERO, addr, 0)
        scratch = b.getreg()
        b.v_ld32(scratch, b.CTX, CTX_SCRATCH)
        status = b.getreg()
        b.v_li(status, STATUS_OK)
        b.v_st32(status, scratch, 0)
        b.v_li(status, 4)
        vci = b.getreg()
        b.v_ld32(vci, b.CTX, CTX_REPLY_VCI)
        b.v_send(scratch, status, vci)
        b.v_consume()
        b.mark(bad)
        b.v_pass()


class DsmClient:
    """Peer-side API: one outstanding operation at a time."""

    #: wait before retrying a lock the server refused
    backoff_us = 50.0

    def __init__(self, kernel: "Kernel", nic, tx_vci: int,
                 reply_ep: "Endpoint"):
        self.kernel = kernel
        self.nic = nic
        self.tx_vci = tx_vci
        self.reply_ep = reply_ep
        self.lock_retries = 0

    def _rpc(self, proc: "Process", index: int, arg0: int, arg1: int,
             payload: bytes) -> Generator:
        yield from self.kernel.sys_net_send(
            proc, self.nic,
            Frame(am_message(index, arg0, arg1, payload), vci=self.tx_vci),
        )
        desc = yield from self.kernel.sys_recv_poll(proc, self.reply_ep)
        data = self.kernel.node.memory.read(desc.addr, desc.length)
        yield from self.kernel.sys_replenish(proc, self.reply_ep, desc)
        return data

    def read(self, proc: "Process", offset: int, length: int) -> Generator:
        data = yield from self._rpc(proc, OP_READ, offset, length, b"")
        if len(data) != length:
            raise ProtocolError(
                f"dsm read: expected {length} bytes, got {len(data)}"
            )
        return data

    def write(self, proc: "Process", offset: int, data: bytes) -> Generator:
        if len(data) % 4:
            raise ProtocolError("dsm writes must be multiples of 4 bytes")
        reply = yield from self._rpc(proc, OP_WRITE, offset, 0, data)
        status = int.from_bytes(reply[:4], "little")
        if status != STATUS_OK:
            raise ProtocolError("dsm write refused")

    def lock_acquire(self, proc: "Process", index: int,
                     max_tries: int = 1000) -> Generator:
        """Spin (with backoff) until the home node grants the lock."""
        for _ in range(max_tries):
            reply = yield from self._rpc(proc, OP_LOCK_ACQ, index, 0, b"")
            if int.from_bytes(reply[:4], "little") == STATUS_OK:
                return
            self.lock_retries += 1
            yield from proc.compute_us(self.backoff_us)
        raise ProtocolError(f"dsm lock {index}: starved")

    def lock_release(self, proc: "Process", index: int) -> Generator:
        yield from self._rpc(proc, OP_LOCK_REL, index, 0, b"")
