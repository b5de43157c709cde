"""PacketBufPool edge cases: the zero-copy wrappers must stay honest.

The pool's ledger (``acquired`` − ``released`` = ``in_flight``) is what
makes the zero-copy path auditable; these tests pin the corners where
it could silently drift — double release, re-acquire after the free
list drains, and a kernel crash that reclaims descriptors wholesale.
"""

import pytest

from repro.bench.testbed import make_an2_pair
from repro.hw.memory import PhysicalMemory
from repro.hw.nic.base import PacketBufPool
from repro.net.socket_api import make_stacks, tcp_pair
from repro.sim.engine import Engine


def _pool(size: int = 1 << 16) -> PacketBufPool:
    return PacketBufPool(PhysicalMemory(size))


# -- release discipline -----------------------------------------------------

def test_double_release_is_idempotent():
    """Recycle and replenish may both try to release the same buf; the
    second release must be a no-op, not a double-free."""
    pool = _pool()
    buf = pool.acquire(0x100, 64)
    buf.release()
    buf.release()
    assert pool.released == 1
    assert pool.in_flight == 0
    # the free list holds the wrapper once, not twice: two fresh
    # acquires must hand out two *distinct* wrappers
    a = pool.acquire(0x200, 32)
    b = pool.acquire(0x300, 32)
    assert a is not b
    assert (pool.created, pool.reused) == (2, 1)


def test_release_invalidates_the_view():
    pool = _pool()
    buf = pool.acquire(0x100, 16)
    assert buf.view is not None and len(buf.view) == 16
    buf.release()
    assert buf.view is None  # consumers must not read a recycled slot


def test_view_aliases_live_memory():
    mem = PhysicalMemory(1 << 16)
    pool = PacketBufPool(mem)
    mem.write(0x400, b"abcd")
    buf = pool.acquire(0x400, 4)
    assert bytes(buf.view) == b"abcd"
    mem.write(0x400, b"wxyz")   # zero-copy: the view sees the update
    assert bytes(buf.view) == b"wxyz"
    buf.release()


# -- exhaustion and reuse ---------------------------------------------------

def test_acquire_past_free_list_grows_then_reuses():
    """Draining the free list creates fresh wrappers (counted); once
    bufs come back, acquire reuses instead of growing forever."""
    pool = _pool()
    bufs = [pool.acquire(0x100 + 64 * i, 64) for i in range(8)]
    assert pool.created == 8 and pool.reused == 0
    assert pool.in_flight == 8
    for buf in bufs:
        buf.release()
    assert pool.in_flight == 0
    again = [pool.acquire(0x100 + 64 * i, 64) for i in range(8)]
    assert pool.created == 8          # no new wrappers
    assert pool.reused == 8
    assert pool.stats()["in_flight"] == 8
    for buf in again:
        buf.release()


# -- crash / reboot accounting ----------------------------------------------

@pytest.mark.parametrize("ncores,batch", [(1, None), (2, 4)])
def test_in_flight_survives_kernel_crash_and_reboot(ncores, batch):
    """A crash reclaims every descriptor the kernel held — ring
    contents, in-flight interrupts, batched per-core rx rings — and
    each reclaim must release its PacketBuf exactly once: the pool
    ledger balances after the flow recovers through the reboot."""
    engine = Engine()
    tb = make_an2_pair(engine=engine, ncores=ncores, rx_batch=batch)
    cstack, sstack = make_stacks(tb)
    client, server = tcp_pair(cstack, sstack, rto_us=20_000.0)
    plane = tb.attach_fault_plane(seed=23)
    plane.crash_node(tb.server_kernel, at_us=900.0, outage_us=30_000.0)
    nbytes = 24_000
    data = bytes(i & 0xFF for i in range(nbytes))
    got = []

    def server_body(proc):
        yield from server.accept(proc)
        got.append((yield from server.read(proc, nbytes)))
        yield from server.write(proc, b"done")

    def client_body(proc):
        yield from client.connect(proc)
        yield from client.write(proc, data)
        reply = yield from client.read(proc, 4)
        assert reply == b"done"
        yield from client.linger(proc, duration_us=2_000_000.0)

    tb.server_kernel.spawn_process("server", server_body)
    tb.client_kernel.spawn_process("client", client_body)
    tb.run()

    assert got and got[0] == data
    assert tb.server_kernel.crash_count == 1
    assert tb.server_kernel.recoveries == 1
    for node in (tb.client, tb.server):
        stats = node.pktpool.stats()
        assert stats["in_flight"] == 0, (node.name, stats)
        assert stats["acquired"] == stats["released"]
        assert stats["acquired"] > 0  # the zero-copy path actually ran
