"""Measurement drivers for the paper's experiments.

Each function sets up one workload on a testbed, runs it to completion
and returns the measured quantities.  The benchmarks under
``benchmarks/`` are thin wrappers around these drivers; keeping the
logic here makes the same workloads reusable from tests and examples.

Methodology follows Section IV-B: multiple iterations divided by the
count, with warm-up iterations discarded (the simulator is
deterministic, so the paper's ten-sample confidence intervals collapse
to exact numbers here).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..ash.examples import (
    PARAM_COUNTER,
    PARAM_REPLY_VCI,
    PARAM_SCRATCH,
    build_remote_increment,
    increment_state,
)
from ..hw.calibration import Calibration, DEFAULT
from ..hw.link import Frame
from ..kernel.upcall import UpcallHandler
from ..net.headers import ip_aton
from ..net.socket_api import make_stacks, tcp_pair
from ..net.udp import UdpSocket
from ..sim.units import to_us, us
from .testbed import (
    CLIENT_TO_SERVER_VCI,
    SERVER_TO_CLIENT_VCI,
    Testbed,
    make_an2_pair,
    make_eth_pair,
)

__all__ = [
    "raw_pingpong_kernel",
    "raw_pingpong_user",
    "raw_stream_throughput",
    "udp_pingpong",
    "udp_train_throughput",
    "tcp_pingpong",
    "tcp_stream_throughput",
    "remote_increment",
    "RemoteIncrementResult",
    "tcp_bulk_transfer",
    "canary_rollout",
    "tenant_world",
    "tenant_noisy_neighbor",
    "TENANT_SCENARIOS",
]

SERVER_IP = "10.0.0.2"
CLIENT_IP = "10.0.0.1"


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


# ---------------------------------------------------------------------------
# raw interface (Table I, Fig 3)
# ---------------------------------------------------------------------------

def raw_pingpong_kernel(
    cal: Calibration = DEFAULT, size: int = 4, iters: int = 20, warmup: int = 3
) -> float:
    """In-kernel AN2 round trip: both echo paths are hand-coded kernel
    handlers (Table I row 1).  Returns µs per round trip."""
    tb = make_an2_pair(cal)
    sk, ck = tb.server_kernel, tb.client_kernel
    srv_ep = sk.create_endpoint_an2(tb.server_nic, CLIENT_TO_SERVER_VCI)
    cli_ep = ck.create_endpoint_an2(tb.client_nic, SERVER_TO_CLIENT_VCI)
    stamps: list[int] = []
    total = iters + warmup

    def server_echo(kernel, ep, desc):
        payload = kernel.node.memory.read(desc.addr, desc.length)
        yield from kernel.kernel_send(
            desc.nic, Frame(payload, vci=SERVER_TO_CLIENT_VCI)
        )
        return True

    def client_handler(kernel, ep, desc):
        stamps.append(kernel.engine.now)
        if len(stamps) < total:
            payload = kernel.node.memory.read(desc.addr, desc.length)
            yield from kernel.kernel_send(
                desc.nic, Frame(payload, vci=CLIENT_TO_SERVER_VCI)
            )
        return True

    srv_ep.kernel_handler = server_echo
    cli_ep.kernel_handler = client_handler

    def kickoff():
        yield from ck.kernel_send(
            tb.client_nic, Frame(bytes(size), vci=CLIENT_TO_SERVER_VCI)
        )

    stamps.append(0)
    tb.engine.spawn(kickoff())
    tb.run()
    deltas = [to_us(b - a) for a, b in zip(stamps, stamps[1:])][warmup:]
    return _mean(deltas)


def raw_pingpong_user(
    cal: Calibration = DEFAULT,
    size: int = 4,
    iters: int = 20,
    warmup: int = 3,
    eth: bool = False,
) -> float:
    """User-level raw round trip: polling processes on both ends using
    the full system-call interface (Table I rows 2-3)."""
    tb = make_eth_pair(cal) if eth else make_an2_pair(cal)
    sk, ck = tb.server_kernel, tb.client_kernel
    if eth:
        from ..kernel.dpf import Predicate

        # demux raw frames by first payload byte
        srv_ep = sk.create_endpoint_eth(
            tb.server_nic, [Predicate(offset=0, size=1, value=0x51)]
        )
        cli_ep = ck.create_endpoint_eth(
            tb.client_nic, [Predicate(offset=0, size=1, value=0x52)]
        )
        to_server = b"\x51" + bytes(max(0, size - 1))
        to_client = b"\x52" + bytes(max(0, size - 1))
        srv_frame = lambda: Frame(to_server)
        cli_frame = lambda: Frame(to_client)
    else:
        srv_ep = sk.create_endpoint_an2(tb.server_nic, CLIENT_TO_SERVER_VCI)
        cli_ep = ck.create_endpoint_an2(tb.client_nic, SERVER_TO_CLIENT_VCI)
        srv_frame = lambda: Frame(bytes(size), vci=CLIENT_TO_SERVER_VCI)
        cli_frame = lambda: Frame(bytes(size), vci=SERVER_TO_CLIENT_VCI)
    rts: list[float] = []
    total = iters + warmup

    def server(proc):
        for _ in range(total):
            desc = yield from sk.sys_recv_poll(proc, srv_ep)
            yield from sk.sys_replenish(proc, srv_ep, desc)
            yield from sk.sys_net_send(proc, tb.server_nic, cli_frame())

    def client(proc):
        for _ in range(total):
            t0 = proc.engine.now
            yield from ck.sys_net_send(proc, tb.client_nic, srv_frame())
            desc = yield from ck.sys_recv_poll(proc, cli_ep)
            yield from ck.sys_replenish(proc, cli_ep, desc)
            rts.append(to_us(proc.engine.now - t0))

    srv_ep.owner = sk.spawn_process("server", server)
    cli_ep.owner = ck.spawn_process("client", client)
    tb.run()
    return _mean(rts[warmup:])


def raw_stream_throughput(
    cal: Calibration = DEFAULT, size: int = 4096, count: int = 60
) -> float:
    """Fig 3: user-level send of a packet train; returns MB/s."""
    tb = make_an2_pair(cal)
    sk, ck = tb.server_kernel, tb.client_kernel
    srv_ep = sk.create_endpoint_an2(
        tb.server_nic, CLIENT_TO_SERVER_VCI, nbufs=16
    )
    done = {"at": None, "received": 0}

    def sink(kernel, ep, desc):
        done["received"] += 1
        if done["received"] == count:
            done["at"] = kernel.engine.now
        return True
        yield  # pragma: no cover

    srv_ep.kernel_handler = sink
    start = {"at": None}

    def client(proc):
        start["at"] = proc.engine.now
        for _ in range(count):
            yield from ck.sys_net_send(
                proc, tb.client_nic,
                Frame(bytes(size), vci=CLIENT_TO_SERVER_VCI),
            )

    ck.spawn_process("client", client)
    tb.run()
    assert done["at"] is not None, "train not fully received"
    seconds = to_us(done["at"] - start["at"]) / 1e6
    return size * count / seconds / 1e6


# ---------------------------------------------------------------------------
# UDP (Table II)
# ---------------------------------------------------------------------------

def _udp_pair(tb: Testbed, checksum: bool, in_place: bool):
    """A UDP socket pair; the circuits are unused on the Ethernet."""
    cstack, sstack = make_stacks(tb, CLIENT_IP, SERVER_IP)
    csock = UdpSocket(cstack, 7001, rx_vci=SERVER_TO_CLIENT_VCI,
                      checksum=checksum, in_place=in_place)
    ssock = UdpSocket(sstack, 7000, rx_vci=CLIENT_TO_SERVER_VCI,
                      checksum=checksum, in_place=in_place)
    return csock, ssock


def udp_pingpong(
    cal: Calibration = DEFAULT,
    checksum: bool = True,
    in_place: bool = False,
    eth: bool = False,
    size: int = 4,
    iters: int = 15,
    warmup: int = 3,
) -> float:
    """Table II UDP latency: 4-byte ping-pong; returns µs/RT."""
    tb = make_eth_pair(cal) if eth else make_an2_pair(cal)
    csock, ssock = _udp_pair(tb, checksum, in_place)
    rts: list[float] = []
    total = iters + warmup
    server_ip = ip_aton(SERVER_IP)

    def server(proc):
        for _ in range(total):
            dg = yield from ssock.recvfrom(proc)
            yield from ssock.sendto(proc, dg.payload, dg.src_ip, dg.src_port)

    def client(proc):
        for _ in range(total):
            t0 = proc.engine.now
            yield from csock.sendto(proc, bytes(size), server_ip, 7000)
            yield from csock.recvfrom(proc)
            rts.append(to_us(proc.engine.now - t0))

    tb.server_kernel.spawn_process("server", server)
    tb.client_kernel.spawn_process("client", client)
    tb.run()
    return _mean(rts[warmup:])


def udp_train_throughput(
    cal: Calibration = DEFAULT,
    checksum: bool = True,
    in_place: bool = False,
    eth: bool = False,
    train: int = 6,
    rounds: int = 12,
) -> float:
    """Table II UDP throughput: 6-MSS trains, small ack back; MB/s."""
    tb = make_eth_pair(cal) if eth else make_an2_pair(cal)
    csock, ssock = _udp_pair(tb, checksum, in_place)
    mss = 1500 - 28 if eth else 3072
    server_ip = ip_aton(SERVER_IP)
    client_ip = ip_aton(CLIENT_IP)
    span = {}

    def server(proc):
        for _ in range(rounds):
            for _ in range(train):
                yield from ssock.recvfrom(proc)
            yield from ssock.sendto(proc, b"ack!", client_ip, 7001)

    def client(proc):
        span["start"] = proc.engine.now
        for _ in range(rounds):
            for _ in range(train):
                yield from csock.sendto(proc, bytes(mss), server_ip, 7000)
            yield from csock.recvfrom(proc)
        span["end"] = proc.engine.now

    tb.server_kernel.spawn_process("server", server)
    tb.client_kernel.spawn_process("client", client)
    tb.run()
    seconds = to_us(span["end"] - span["start"]) / 1e6
    return mss * train * rounds / seconds / 1e6


# ---------------------------------------------------------------------------
# TCP (Tables II and VI)
# ---------------------------------------------------------------------------

#: the TCP fast-path modes (the Table VI columns) as ``install_fastpath``
#: (kind, sandbox) arguments; mode None keeps the library receive path
FASTPATH_MODES = {"ash": ("ash", True), "ash-unsafe": ("ash", False),
                  "upcall": ("upcall", True)}


def _fastpath(mode: Optional[str]) -> Callable:
    """The installer for fast-path ``mode``: call it on an established
    connection."""
    if mode is None:
        return lambda conn: None
    if mode not in FASTPATH_MODES:
        raise ValueError(f"unknown fast-path mode {mode!r}")
    return lambda conn: conn.install_fastpath(*FASTPATH_MODES[mode])


@dataclass
class TcpConfig:
    checksum: bool = True
    in_place: bool = False
    mss: Optional[int] = None
    handler: Optional[str] = None     #: a FASTPATH_MODES key or None
    interrupt_driven: bool = False
    window: int = 8192
    eth: bool = False                 #: run over the Ethernet (library path)
    cwnd_init: Optional[int] = None   #: initial congestion window, bytes
    ssthresh_init: Optional[int] = None


def _tcp_session(cal, config: TcpConfig, client_body, server_body) -> None:
    if config.eth and config.handler is not None:
        raise ValueError("the TCP fast path targets the AN2 framing")
    opts = {"boost_on_packet": True} if config.interrupt_driven else {}
    make_pair = make_eth_pair if config.eth else make_an2_pair
    tb = make_pair(cal, client_kernel_opts=opts, server_kernel_opts=opts)
    cstack, sstack = make_stacks(tb, CLIENT_IP, SERVER_IP)
    client, server = tcp_pair(
        cstack, sstack, checksum=config.checksum, in_place=config.in_place,
        mss=config.mss, window=config.window,
        interrupt_driven=config.interrupt_driven,
        cwnd_init=config.cwnd_init, ssthresh_init=config.ssthresh_init)
    tb.server_kernel.spawn_process("server", lambda p: server_body(p, server))
    tb.client_kernel.spawn_process("client", lambda p: client_body(p, client))
    tb.run()


def tcp_pingpong(
    cal: Calibration = DEFAULT,
    config: Optional[TcpConfig] = None,
    size: int = 4,
    iters: int = 15,
    warmup: int = 3,
) -> float:
    """TCP latency: ping-pong ``size`` bytes; returns µs/RT."""
    config = config or TcpConfig()
    install = _fastpath(config.handler)
    rts: list[float] = []
    total = iters + warmup

    def server_body(proc, conn):
        yield from conn.accept(proc)
        install(conn)
        for _ in range(total):
            data = yield from conn.read(proc, size)
            yield from conn.write(proc, data)

    def client_body(proc, conn):
        yield from conn.connect(proc)
        install(conn)
        for _ in range(total):
            t0 = proc.engine.now
            yield from conn.write(proc, bytes(size))
            yield from conn.read(proc, size)
            rts.append(to_us(proc.engine.now - t0))

    _tcp_session(cal, config, client_body, server_body)
    return _mean(rts[warmup:])


def tcp_stream_throughput(
    cal: Calibration = DEFAULT,
    config: Optional[TcpConfig] = None,
    total_bytes: int = 10 * 1024 * 1024,
    chunk: int = 8192,
) -> float:
    """TCP throughput: write ``total_bytes`` in ``chunk``-byte writes
    over the connection (Table II: 10 MB in 8 KB chunks); MB/s.

    Not :func:`tcp_bulk_transfer`, which writes one seeded buffer,
    reads it in one call, uses a 20 ms RTO and lets the client linger:
    the committed Tables II/VI are measured on this world's
    zero-filled ``chunk``-byte writes, 32 KB reads, default RTO and
    exiting client.
    """
    config = config or TcpConfig()
    install = _fastpath(config.handler)
    span = {}

    def server_body(proc, conn):
        yield from conn.accept(proc)
        install(conn)
        remaining = total_bytes
        while remaining:
            take = min(remaining, 65536 // 2)
            data = yield from conn.read(proc, take)
            if not data:
                break
            remaining -= len(data)
        yield from conn.write(proc, b"done")

    def client_body(proc, conn):
        yield from conn.connect(proc)
        install(conn)
        payload = bytes(chunk)
        span["start"] = proc.engine.now
        sent = 0
        while sent < total_bytes:
            n = min(chunk, total_bytes - sent)
            yield from conn.write(proc, payload[:n])
            sent += n
        yield from conn.read(proc, 4)
        span["end"] = proc.engine.now

    _tcp_session(cal, config, client_body, server_body)
    seconds = to_us(span["end"] - span["start"]) / 1e6
    return total_bytes / seconds / 1e6


# ---------------------------------------------------------------------------
# remote increment (Table V, Fig 4)
# ---------------------------------------------------------------------------

@dataclass
class RemoteIncrementResult:
    rt_us: float
    mode: str
    nprocs: int
    sandbox_added_insns: Optional[int] = None
    handler_insns: Optional[int] = None


def remote_increment(
    cal: Calibration = DEFAULT,
    mode: str = "ash",
    suspended: bool = False,
    nprocs: int = 1,
    scheduler: str = "oblivious",
    iters: int = 12,
    warmup: int = 3,
    increment: int = 1,
) -> RemoteIncrementResult:
    """The Table V / Fig 4 workload.

    ``mode``: ``ash`` | ``ash-unsafe`` | ``upcall`` | ``user``.
    ``suspended``: the server application is blocked (not polling) when
    messages arrive; combined with ``scheduler``:
    ``oblivious`` (Aegis round robin) or ``boost`` / ``ultrix``.
    ``nprocs``: total processes on the server (extras are compute-bound
    dummies), for the Fig 4 sweep.
    """
    opts = {}
    if scheduler == "boost":
        opts = {"boost_on_packet": True}
    elif scheduler == "ultrix":
        opts = {"boost_on_packet": True, "ultrix_costs": True}
    tb = make_an2_pair(cal, server_kernel_opts=opts)
    sk, ck = tb.server_kernel, tb.client_kernel
    srv_ep = sk.create_endpoint_an2(tb.server_nic, CLIENT_TO_SERVER_VCI)
    cli_ep = ck.create_endpoint_an2(tb.client_nic, SERVER_TO_CLIENT_VCI)
    mem = tb.server.memory
    total = iters + warmup
    rts: list[float] = []
    result = RemoteIncrementResult(rt_us=0.0, mode=mode, nprocs=nprocs)

    state, params_addr = increment_state(mem, "incr_state",
                                         SERVER_TO_CLIENT_VCI)
    counter_addr = state.base

    if mode in ("ash", "ash-unsafe"):
        program = build_remote_increment()
        result.handler_insns = len(program)
        ash_id = sk.ash_system.download(
            program,
            allowed_regions=[(state.base, state.size)],
            user_word=params_addr,
            sandbox=(mode == "ash"),
        )
        entry = sk.ash_system.entry(ash_id)
        if entry.report is not None:
            result.sandbox_added_insns = entry.report.added_insns
        sk.ash_system.bind(srv_ep, ash_id)
    elif mode == "upcall":
        program = build_remote_increment()
        result.handler_insns = len(program)
        srv_ep.upcall = UpcallHandler(program=program, user_word=params_addr)
    elif mode == "user":
        def server_app(proc):
            for _ in range(total):
                if suspended:
                    desc = yield from sk.sys_recv_block(proc, srv_ep)
                else:
                    desc = yield from sk.sys_recv_poll(proc, srv_ep)
                amount = mem.load_u32(desc.addr)
                value = mem.load_u32(counter_addr) + amount
                mem.store_u32(counter_addr, value)
                yield from proc.compute_us(0.5)  # the increment + checks
                yield from sk.sys_replenish(proc, srv_ep, desc)
                yield from sk.sys_net_send(
                    proc, tb.server_nic,
                    Frame(value.to_bytes(4, "little"),
                          vci=SERVER_TO_CLIENT_VCI),
                )

        srv_ep.owner = sk.spawn_process("server-app", server_app)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # a handler-mode "suspended" server still needs something running
    dummies = nprocs - 1 if mode == "user" else nprocs
    for i in range(max(0, dummies)):
        def dummy(proc):
            while True:
                yield from proc.compute_us(200.0)

        sk.spawn_process(f"dummy{i}", dummy)

    def client(proc):
        for _ in range(total):
            t0 = proc.engine.now
            yield from ck.sys_net_send(
                proc, tb.client_nic,
                Frame(increment.to_bytes(4, "little"),
                      vci=CLIENT_TO_SERVER_VCI),
            )
            desc = yield from ck.sys_recv_poll(proc, cli_ep)
            yield from ck.sys_replenish(proc, cli_ep, desc)
            rts.append(to_us(proc.engine.now - t0))

    client_proc = ck.spawn_process("client", client)
    cli_ep.owner = client_proc
    # run until the client finishes (the dummies never exit; advancing
    # in bounded slices lets us stop the world as soon as it does)
    guard = 0
    while not client_proc.sim_proc.triggered and not tb.engine.idle:
        tb.engine.run(until=tb.engine.now + us(100_000.0))
        guard += 1
        if guard > 10_000:
            raise RuntimeError("remote_increment: runaway simulation")
    measured = rts[warmup:]
    if not measured:
        raise RuntimeError(
            f"remote_increment({mode}): no round trips completed"
        )
    result.rt_us = _mean(measured)
    return result


# ---------------------------------------------------------------------------
# seeded bulk TCP transfer under injected faults
# ---------------------------------------------------------------------------

def tcp_bulk_transfer(
    seed: int,
    nbytes: int,
    *,
    ncores: int = 1,
    sack: bool = True,
    knobs: Optional[dict] = None,
    crash: Optional[dict] = None,
    pressure: Optional[dict] = None,
    contention: Optional[dict] = None,
    mode: Optional[str] = None,
) -> tuple:
    """One seeded bulk TCP transfer over an AN2 pair: the world behind
    the fault, crash and TCP-parameter benches and their tests.

    The fault plane (seeded with ``seed``, like the payload) installs,
    in order: link impairments ``knobs`` (the first three frames pass
    untouched, so the session always establishes), a scripted crash
    (``crash`` holds :meth:`~repro.sim.faults.FaultPlane.crash_node`'s
    keywords plus an optional ``"target"``, ``"server"`` by default or
    ``"client"``), then memory ``pressure`` and CPU ``contention`` on
    the server.  ``mode`` (a :data:`FASTPATH_MODES` key) installs a
    server fast path after accept.
    The client lingers to answer late retransmissions.

    Checks every byte arrived; returns ``(testbed, client, server,
    delivered, read_ps)`` where ``read_ps`` is the simulated time of
    the server's read.
    """
    install = _fastpath(mode)
    tb = make_an2_pair(ncores=ncores)
    cstack, sstack = make_stacks(tb)
    client, server = tcp_pair(cstack, sstack, rto_us=20_000.0, sack=sack)
    plane = tb.attach_fault_plane(seed=seed)
    if knobs:
        plane.impair_link(tb.link, skip_first=3, **knobs)
    if crash:
        crash = dict(crash)
        target = crash.pop("target", "server")
        plane.crash_node({"client": tb.client_kernel,
                          "server": tb.server_kernel}[target], **crash)
    if pressure:
        plane.pressure_memory(tb.server, **pressure)
    if contention:
        plane.contend_cpu(tb.server, **contention)
    data = bytes(random.Random(seed).randrange(256) for _ in range(nbytes))
    got = []
    elapsed = []

    def server_body(proc):
        yield from server.accept(proc)
        install(server)
        t0 = proc.engine.now
        got.append((yield from server.read(proc, nbytes)))
        elapsed.append(proc.engine.now - t0)
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
    if not got or got[0] != data:
        raise RuntimeError(
            "tcp_bulk_transfer: transfer corrupted or incomplete")
    return tb, client, server, got[0], elapsed[0]


# ---------------------------------------------------------------------------
# live operations: hot ASH upgrade with staged canary rollout
# ---------------------------------------------------------------------------

def _build_increment_v2(kind: str):
    """A v2 of the remote-increment handler for the rollout workload.

    ``identical`` — byte-for-byte the v1 behaviour (a routine redeploy);
    ``divergent`` — increments by *twice* the message amount (a buggy
    release the digest guard must catch);
    ``slow`` — v1 behaviour plus 2000 straight-line padding instructions
    (a performance regression the latency guard must catch; kept far
    below the two-tick abort budget so it degrades, not aborts).
    """
    from ..ash.handler import AshBuilder

    if kind == "identical":
        return build_remote_increment()
    b = AshBuilder("remote_increment")
    bad = b.label("pass")
    four = b.getreg()
    b.v_li(four, 4)
    b.v_bne(b.LEN, four, bad)
    if kind == "slow":
        pad = b.getreg()
        one = b.getreg()
        b.v_li(pad, 0)
        b.v_li(one, 1)
        for _ in range(2000):
            b.v_addu(pad, pad, one)
        b.putreg(pad)
        b.putreg(one)
    counter_ptr = b.getreg()
    amount = b.getreg()
    value = b.getreg()
    b.v_ld32(counter_ptr, b.CTX, PARAM_COUNTER)
    b.v_ld32(amount, b.MSG, 0)
    b.v_ld32(value, counter_ptr, 0)
    b.v_addu(value, value, amount)
    if kind == "divergent":
        b.v_addu(value, value, amount)     # the bug: += 2 * amount
    elif kind != "slow":
        raise ValueError(f"unknown v2 kind {kind!r}")
    b.v_st32(value, counter_ptr, 0)
    scratch = b.getreg()
    b.v_ld32(scratch, b.CTX, PARAM_SCRATCH)
    b.v_st32(value, scratch, 0)
    vci = b.getreg()
    b.v_ld32(vci, b.CTX, PARAM_REPLY_VCI)
    b.v_send(scratch, four, vci)
    b.v_consume()
    b.mark(bad)
    b.v_pass()
    return b.finish()


def canary_rollout(
    cal: Calibration = DEFAULT,
    ncores: int = 1,
    flows: int = 4,
    staged_rounds: int = 4,
    canary_rounds: int = 4,
    post_rounds: int = 2,
    v2: str = "identical",
    crash_during_canary: bool = False,
    scenario: Optional[Callable[[Testbed], None]] = None,
    fault_seed: int = 11,
) -> dict:
    """The live-operations workload: upgrade a fleet of remote-increment
    handlers under live traffic through a staged canary rollout.

    ``flows`` independent AM flows each get their own VCI pair, state
    block and v1 handler download on the server; v2 (``identical`` /
    ``divergent`` / ``slow``) is installed next to v1 via
    :meth:`~repro.ash.system.AshSystem.install_version`.  The client
    drives serial request rounds through three phases — staged (golden
    capture), canary (a deterministic cohort on v2), post-verdict — and
    the :class:`~repro.ash.liveops.RolloutController` promotes or rolls
    back from the captured digests/latencies.  ``crash_during_canary``
    crashes the *server* kernel between canary rounds and reboots it
    500 µs later: the version bindings ride the boot-record replay, so
    the rollout must come back in its canary configuration with zero
    lost messages.
    ``scenario(tb)``, if given, installs faults on ``tb.fault_plane``
    (seeded with ``fault_seed``) before any handler is downloaded.

    Returns a deterministic observables dict — the golden/SMP
    bit-identity bar for the rollout plane.
    """
    from ..ash.liveops import RolloutController

    tb = make_an2_pair(cal, ncores=ncores)
    sk, ck = tb.server_kernel, tb.client_kernel
    if scenario is not None:
        tb.attach_fault_plane(seed=fault_seed)
        scenario(tb)
    mem = tb.server.memory

    srv_eps, cli_eps, targets = [], [], []
    for i in range(flows):
        srv_ep = sk.create_endpoint_an2(tb.server_nic, 10 + i)
        cli_ep = ck.create_endpoint_an2(tb.client_nic, 100 + i)
        state, params_addr = increment_state(mem, f"canary_state{i}", 100 + i)
        v1_id = sk.ash_system.download(
            build_remote_increment(),
            allowed_regions=[(state.base, state.size)],
            user_word=params_addr,
        )
        sk.ash_system.bind(srv_ep, v1_id)
        v2_id = sk.ash_system.install_version(
            v1_id, _build_increment_v2(v2))
        srv_eps.append(srv_ep)
        cli_eps.append(cli_ep)
        targets.append((srv_ep, v1_id, v2_id))

    ctrl = RolloutController(sk, targets, latency_budget=0.25,
                             name=f"canary-{v2}")
    counts = {"sent": 0, "received": 0}
    last_value = [0] * flows
    round_digests: dict[str, list[str]] = {ep.name: [] for ep in srv_eps}
    staged_lat: list[float] = []
    slo_tel = tb.server.telemetry  # the hub hosting the rollout's SLO plane
    slo_flows = [slo_tel.slo.flow((0x0A000001, 9000 + i, 0x0A000002, 10 + i))
                 for i in range(flows)] if slo_tel.enabled else None
    cmem = tb.client.memory

    def one_round(proc, collect=None):
        for i in range(flows):
            t0 = proc.engine.now
            counts["sent"] += 1
            yield from ck.sys_net_send(
                proc, tb.client_nic,
                Frame((1).to_bytes(4, "little"), vci=10 + i),
            )
            desc = yield from ck.sys_recv_poll(proc, cli_eps[i])
            value = cmem.load_u32(desc.addr)
            yield from ck.sys_replenish(proc, cli_eps[i], desc)
            counts["received"] += 1
            delta = (value - last_value[i]) & 0xFFFFFFFF
            last_value[i] = value
            latency = to_us(proc.engine.now - t0)
            digest = hashlib.sha256(
                delta.to_bytes(4, "little")).hexdigest()[:16]
            round_digests[srv_eps[i].name].append(digest)
            ctrl.note_round(srv_eps[i].name, digest, latency)
            if slo_flows is not None:
                slo_flows[i].observe_latency_us(latency, proc.engine.now)
            if collect is not None:
                collect.append(latency)

    def client(proc):
        for _ in range(staged_rounds):
            yield from one_round(proc, collect=staged_lat)
        if slo_tel.enabled:
            # declare the latency objective from the golden cohort: the
            # canary must stay within the same budget the controller uses
            from ..telemetry.slo import SloRule

            slo_tel.slo.add_rule(SloRule(
                "canary_latency",
                max_latency_us=(_mean(staged_lat)
                                * (1.0 + ctrl.latency_budget)),
            ))
        ctrl.start_canary()
        for r in range(canary_rounds):
            yield from one_round(proc)
            if crash_during_canary and r == 0:
                # quiescent-point crash: every request of the round has
                # been answered, so nothing is in flight to lose — the
                # canary bindings must ride the boot-record replay back
                sk.crash()
                yield from proc.compute_us(500.0)
                sk.reboot()
        ctrl.evaluate()
        for _ in range(post_rounds):
            yield from one_round(proc)

    client_proc = ck.spawn_process("client", client)
    for ep in cli_eps:
        ep.owner = client_proc
    tb.run()
    if not client_proc.sim_proc.triggered:
        raise RuntimeError(
            f"canary_rollout({v2}): client stalled at "
            f"{counts['received']}/{counts['sent']} replies")

    bindings = {ep.name: sk.ash_system.entry(ep.ash_id).version
                for ep in srv_eps}
    recoveries_us = [
        to_us(rec["first_delivery_after_reboot"] - rec["reboot_at"])
        for rec in sk.crash_log
        if rec["first_delivery_after_reboot"] is not None
        and rec["reboot_at"] is not None
    ]
    return {
        "state": ctrl.state,
        "v2": v2,
        "canary_flows": ctrl.canary_flows(),
        "guard_reasons": sorted({r for r, _ in ctrl.guard_trips}),
        "swaps": ctrl.swaps,
        "messages_sent": counts["sent"],
        "replies_received": counts["received"],
        "lost_messages": sk.lost_messages + ck.lost_messages,
        "order_violations": (sk.degradation_order_violations
                             + ck.degradation_order_violations),
        "final_counters": list(last_value),
        "bound_versions": bindings,
        "round_digests": round_digests,
        "crashes": sk.crash_count,
        "recoveries": sk.recoveries,
        "recovery_us": max(recoveries_us) if recoveries_us else None,
        "ledger": (tb.fault_plane.ledger()
                   if tb.fault_plane is not None else {}),
    }


# ---------------------------------------------------------------------------
# multi-tenant isolation: noisy-neighbor containment worlds
# ---------------------------------------------------------------------------

#: every abuse scenario tenant_world() can stage.  The first four run a
#: fully concurrent world (TCP victim + AM victim + aggressor) because
#: the abuse is clipped at zero-simulated-cost points; the last three
#: perturb the aggressor's *runtime* (which costs CPU), so the world is
#: slot-paced to keep the divergence inside the aggressor's slots.
TENANT_SCENARIOS = (
    "flood", "leak", "hog_install", "crash_loop",
    "tenant_crash", "hog_runtime", "abort_runtime",
)

_CONCURRENT_SCENARIOS = ("flood", "leak", "hog_install", "crash_loop")

#: a quota so large it never binds — the victims' knobs must not be the
#: thing keeping them unharmed
_GENEROUS = dict(rings=8, buffers=64, handler_cycles=10_000_000,
                 bytes_per_round=1_000_000_000, burst_bytes=1_000_000_000)

AGGRESSOR_VCI = 30
AM_VICTIM_VCI = 20          #: client->server AM request circuits: 20, 21
AM_REPLY_VCI = 120          #: server->client AM reply circuits: 120, 121


def _build_sink(pad_insns: int = 0, name: str = "sink"):
    """A consume-only handler: swallows the message, sends **nothing**.

    The aggressor's handler must not reply — reply traffic would reach
    the client node, and throttling it server-side would perturb the
    client's interrupt timing, breaking the victims' bit-identity bar.
    ``pad_insns`` adds straight-line work (cycle-quota fodder).
    """
    from ..ash.handler import AshBuilder

    b = AshBuilder(name)
    if pad_insns:
        pad = b.getreg()
        one = b.getreg()
        b.v_li(pad, 0)
        b.v_li(one, 1)
        for _ in range(pad_insns):
            b.v_addu(pad, pad, one)
        b.putreg(pad)
        b.putreg(one)
    b.v_consume()
    return b.finish()


def _build_spin(name: str = "spin"):
    """A handler with a backward branch: unverifiable under the
    static-estimate budget policy (the crash-loop install payload)."""
    from ..ash.handler import AshBuilder

    b = AshBuilder(name)
    ctr = b.getreg()
    one = b.getreg()
    lim = b.getreg()
    b.v_li(ctr, 0)
    b.v_li(one, 1)
    b.v_li(lim, 8)
    top = b.label("top")
    b.mark(top)
    b.v_addu(ctr, ctr, one)
    b.v_bne(ctr, lim, top)
    b.v_consume()
    return b.finish()


def _am_flow(tb, manager, tenant: str, req_vci: int, reply_vci: int):
    """One AM remote-increment victim flow owned by ``tenant``: server
    endpoint + state block + v1 handler, client reply endpoint."""
    sk, ck = tb.server_kernel, tb.client_kernel
    srv_ep = sk.create_endpoint_an2(tb.server_nic, req_vci, tenant=tenant)
    cli_ep = ck.create_endpoint_an2(tb.client_nic, reply_vci)
    state, params_addr = increment_state(
        tb.server.memory, f"tenant_{tenant}_state", reply_vci)
    ash_id = manager.download(
        tenant, build_remote_increment(),
        allowed_regions=[(state.base, state.size)], user_word=params_addr)
    sk.ash_system.bind(srv_ep, ash_id)
    return srv_ep, cli_ep, state.base


def _install_abuse(tb, manager, scenario: str, perturbed: bool):
    """Attach the scenario's tenant-scoped injectors (perturbed runs
    only — the baseline is the identical world minus the abuse) on a
    plane seeded 7; a scripted abuse starts 700 µs in."""
    if not perturbed:
        return
    from ..sandbox.rewriter import BudgetPolicy, SandboxPolicy

    plane = tb.attach_fault_plane(seed=7)
    static = SandboxPolicy(budget=BudgetPolicy.STATIC_ESTIMATE)
    if scenario == "flood":
        plane.flood_tenant(tb.server_nic, AGGRESSOR_VCI,
                           frame_bytes=4000, count=40,
                           start_us=700.0, gap_us=37.0)
    elif scenario == "leak":
        plane.leak_tenant(manager, "mallory")
    elif scenario == "hog_install":
        plane.script_tenant(manager, "mallory", at_us=700.0,
                            action="install_hog",
                            program=_build_sink(4000, "hog"),
                            allowed_regions=[], policy=static, attempts=4)
    elif scenario == "crash_loop":
        plane.script_tenant(manager, "mallory", at_us=700.0,
                            action="install_crashloop",
                            program=_build_spin(),
                            allowed_regions=[], policy=static, attempts=4)
    elif scenario == "tenant_crash":
        plane.script_tenant(manager, "mallory", at_us=700.0,
                            action="crash")
    elif scenario == "hog_runtime":
        plane.hog_tenant(manager, "mallory", factor=64)
    elif scenario == "abort_runtime":
        plane.abortloop_tenant(manager, "mallory", every=1)
    else:
        raise ValueError(f"unknown tenant scenario {scenario!r}")


def _tcp_victim(client_conn, server_conn, total_bytes: int):
    """Spawn the tenancy worlds' victim TCP bulk flow: a byte pattern in
    4 KB writes, hashed as it arrives in 8 KB reads.  Returns the
    client's ``{"start", "end"}`` span and the receive hash."""
    span = {}
    rx_hash = hashlib.sha256()

    def tcp_server(proc):
        yield from server_conn.accept(proc)
        remaining = total_bytes
        while remaining:
            data = yield from server_conn.read(proc, min(remaining, 8192))
            if not data:
                break
            rx_hash.update(bytes(data))
            remaining -= len(data)
        yield from server_conn.write(proc, b"done")

    def tcp_client(proc):
        yield from client_conn.connect(proc)
        payload = bytes(range(256)) * (total_bytes // 256)
        span["start"] = proc.engine.now
        sent = 0
        while sent < total_bytes:
            n = min(4096, total_bytes - sent)
            yield from client_conn.write(proc, payload[sent:sent + n])
            sent += n
        yield from client_conn.read(proc, 4)
        span["end"] = proc.engine.now

    server_conn.kernel.spawn_process("tcp-server", tcp_server)
    client_conn.kernel.spawn_process("tcp-client", tcp_client)
    return span, rx_hash


def _victim_slice(manager, name: str) -> dict:
    """The tenant's own telemetry slice — part of the identity bar."""
    return manager.stats()["tenants"][name]


def tenant_world(
    cal: Calibration = DEFAULT,
    ncores: int = 1,
    scenario: str = "flood",
    perturbed: bool = True,
    rounds: int = 10,
) -> dict:
    """A multi-tenant world with one abusive tenant, and the receipts.

    Three tenants share the server's NIC, pktbuf pool and CPU under a
    :class:`~repro.ash.tenancy.TenantManager`: two victims and
    ``mallory``, the aggressor the ``scenario`` perturbs.  Running the
    same world with ``perturbed=False`` gives the unperturbed baseline;
    the containment bar is that every victim observable in the returned
    dict — flow digests, latencies, counters, the victims' own tenant
    telemetry, and (concurrent scenarios) TCP congestion digests — is
    **bit-identical** between the two runs at any SMP core count.

    Concurrent scenarios (``flood`` / ``leak`` / ``hog_install`` /
    ``crash_loop``): victims are a TCP bulk flow (tenant ``alice``) and
    an AM remote-increment flow (``bob``) running *fully concurrently*
    with the aggressor's traffic — the abuse is clipped at points that
    cost zero simulated time (pre-DMA admission, host-level install
    refusal, replenish-side reclaim).

    Slot-paced scenarios (``tenant_crash`` / ``hog_runtime`` /
    ``abort_runtime``): the abuse perturbs how much CPU the aggressor's
    *handler* burns, so two AM victims (``bob``, ``carol``) and the
    aggressor take strictly interleaved 60 µs slots, wide enough that
    the aggressor's divergence drains before a victim's next message
    arrives.
    """
    from ..ash.tenancy import TenantManager

    if scenario not in TENANT_SCENARIOS:
        raise ValueError(f"unknown tenant scenario {scenario!r}")
    tb = make_an2_pair(cal, ncores=ncores)
    sk, ck = tb.server_kernel, tb.client_kernel
    manager = TenantManager(sk)
    concurrent = scenario in _CONCURRENT_SCENARIOS

    mallory_quota = dict(rings=4, buffers=4, handler_cycles=100_000,
                         bytes_per_round=1_000_000, burst_bytes=100_000)
    if scenario == "flood":
        # 4-byte request frames sail through; the flood's 4000-byte
        # frames can never fit the burst — clipped pre-DMA, every one
        mallory_quota.update(bytes_per_round=8192, burst_bytes=2048)
    elif scenario == "hog_install":
        mallory_quota.update(handler_cycles=1500)
    elif scenario == "hog_runtime":
        mallory_quota.update(handler_cycles=3000)
    manager.create("mallory", **mallory_quota)

    # -- aggressor data path -------------------------------------------------
    if scenario == "leak":
        # the leak seam lives on the replenish syscall, so the leaking
        # tenant runs an ordinary ring+replenish application (no ASH)
        mal_ep = sk.create_endpoint_an2(tb.server_nic, AGGRESSOR_VCI,
                                        tenant="mallory")

        def mallory_app(proc):
            while True:
                desc = yield from sk.sys_recv_block(proc, mal_ep)
                yield from proc.compute_us(1.0)
                yield from sk.sys_replenish(proc, mal_ep, desc)

        mal_ep.owner = sk.spawn_process("mallory-app", mallory_app)
    else:
        mal_ep = sk.create_endpoint_an2(tb.server_nic, AGGRESSOR_VCI,
                                        tenant="mallory")
        pad = 200 if not concurrent else 0
        sink_id = manager.download("mallory", _build_sink(pad),
                                   allowed_regions=[])
        sk.ash_system.bind(mal_ep, sink_id)

    _install_abuse(tb, manager, scenario, perturbed)

    observables: dict = {
        "scenario": scenario,
        "perturbed": perturbed,
        "ncores": ncores,
    }
    victims: dict = {}
    agg_frame = (1).to_bytes(4, "little")

    if concurrent:
        manager.create("alice", **_GENEROUS)
        manager.create("bob", **_GENEROUS)
        cstack, sstack = make_stacks(tb, CLIENT_IP, SERVER_IP)
        client_conn, server_conn = tcp_pair(cstack, sstack)
        manager.adopt_endpoint("alice", server_conn.endpoint)
        bob_ep, bob_cli, bob_counter = _am_flow(
            tb, manager, "bob", AM_VICTIM_VCI, AM_REPLY_VCI)

        total_bytes = 24 * 1024
        bob_lat: list[float] = []
        bob_hash = hashlib.sha256()

        def bob_client(proc):
            for _ in range(rounds):
                t0 = proc.engine.now
                yield from ck.sys_net_send(
                    proc, tb.client_nic, Frame(agg_frame, vci=AM_VICTIM_VCI))
                desc = yield from ck.sys_recv_poll(proc, bob_cli)
                bob_hash.update(bytes(
                    tb.client.memory.read(desc.addr, desc.length)))
                yield from ck.sys_replenish(proc, bob_cli, desc)
                bob_lat.append(to_us(proc.engine.now - t0))
                yield from proc.compute_us(150.0)

        def aggressor_client(proc):
            for _ in range(rounds * 2):
                yield from ck.sys_net_send(
                    proc, tb.client_nic, Frame(agg_frame, vci=AGGRESSOR_VCI))
                yield from proc.compute_us(140.0)

        tcp_span, rx_hash = _tcp_victim(client_conn, server_conn, total_bytes)
        bob_proc = ck.spawn_process("bob-client", bob_client)
        bob_cli.owner = bob_proc
        ck.spawn_process("mallory-client", aggressor_client)
        tb.run()
        if "end" not in tcp_span or len(bob_lat) != rounds:
            raise RuntimeError(
                f"tenant_world({scenario}): victims stalled "
                f"(tcp={'end' in tcp_span}, am={len(bob_lat)}/{rounds})")

        victims["alice"] = {
            "cc_client": client_conn.congestion_digest(),
            "cc_server": server_conn.congestion_digest(),
            "payload_sha": rx_hash.hexdigest(),
            "bytes": total_bytes,
            "elapsed_us": round(to_us(tcp_span["end"] - tcp_span["start"]), 6),
            "rx_count": server_conn.endpoint.rx_count,
            "tenant": _victim_slice(manager, "alice"),
        }
        victims["bob"] = {
            "counter": tb.server.memory.load_u32(bob_counter),
            "latencies_us": [round(x, 6) for x in bob_lat],
            "reply_digest": bob_hash.hexdigest(),
            "rx_count": bob_ep.rx_count,
            "tenant": _victim_slice(manager, "bob"),
        }
    else:
        manager.create("bob", **_GENEROUS)
        manager.create("carol", **_GENEROUS)
        flows = {
            "bob": _am_flow(tb, manager, "bob",
                            AM_VICTIM_VCI, AM_REPLY_VCI),
            "carol": _am_flow(tb, manager, "carol",
                              AM_VICTIM_VCI + 1, AM_REPLY_VCI + 1),
        }
        lat: dict[str, list[float]] = {name: [] for name in flows}
        hashes = {name: hashlib.sha256() for name in flows}

        def client(proc):
            for _ in range(rounds):
                # aggressor slot: fire-and-forget; any CPU-divergence
                # the abuse causes server-side drains within the slot
                yield from ck.sys_net_send(
                    proc, tb.client_nic, Frame(agg_frame, vci=AGGRESSOR_VCI))
                yield from proc.compute_us(60.0)
                for name, (srv_ep, cli_ep, _base) in flows.items():
                    t0 = proc.engine.now
                    yield from ck.sys_net_send(
                        proc, tb.client_nic,
                        Frame(agg_frame, vci=srv_ep.vci))
                    desc = yield from ck.sys_recv_poll(proc, cli_ep)
                    hashes[name].update(bytes(
                        tb.client.memory.read(desc.addr, desc.length)))
                    yield from ck.sys_replenish(proc, cli_ep, desc)
                    lat[name].append(to_us(proc.engine.now - t0))
                    yield from proc.compute_us(60.0)

        client_proc = ck.spawn_process("client", client)
        for _name, (_srv, cli_ep, _base) in flows.items():
            cli_ep.owner = client_proc
        tb.run()
        if not client_proc.sim_proc.triggered:
            raise RuntimeError(f"tenant_world({scenario}): client stalled")
        for name, (srv_ep, _cli, counter) in flows.items():
            victims[name] = {
                "counter": tb.server.memory.load_u32(counter),
                "latencies_us": [round(x, 6) for x in lat[name]],
                "reply_digest": hashes[name].hexdigest(),
                "rx_count": srv_ep.rx_count,
                "tenant": _victim_slice(manager, name),
            }

    observables["victims"] = victims
    observables["order_violations"] = manager.order_violations
    observables["aggressor"] = _victim_slice(manager, "mallory")
    observables["ledger"] = (tb.fault_plane.ledger()
                             if tb.fault_plane is not None else {})
    return observables


def tenant_noisy_neighbor(
    cal: Calibration = DEFAULT,
    ncores: int = 1,
    intensity_fps: int = 0,
    protected: bool = True,
    total_kb: int = 96,
) -> dict:
    """The goodput-isolation experiment behind ``BENCH_tenancy.json``.

    A victim TCP bulk transfer (tenant ``alice``) shares the server
    with an aggressor (``mallory``) whose circuit is blasted with
    ``intensity_fps`` frames/s of 1 KB junk for 40 ms, injected
    straight at the server NIC.  The aggressor's server application
    dutifully replenishes every delivered frame, so each *admitted*
    frame costs real interrupts, DMA and CPU.

    ``protected=True`` installs the tenant plane: mallory's token
    bucket admits at most ``bytes_per_round`` per round and clips the
    rest pre-DMA, so the victim's goodput must stay within 10% of its
    solo run no matter the intensity.  ``protected=False`` is the
    ablation — no quotas, every frame lands, and the victim bleeds.
    """
    from ..ash.tenancy import TenantManager

    tb = make_an2_pair(cal, ncores=ncores)
    sk = tb.server_kernel
    manager = None
    if protected:
        manager = TenantManager(sk)
        manager.create("alice", **_GENEROUS)
        manager.create("mallory", rings=4, buffers=4,
                       handler_cycles=100_000,
                       bytes_per_round=4096, burst_bytes=4096)
    cstack, sstack = make_stacks(tb, CLIENT_IP, SERVER_IP)
    client_conn, server_conn = tcp_pair(cstack, sstack)
    if protected:
        manager.adopt_endpoint("alice", server_conn.endpoint)
    mal_ep = sk.create_endpoint_an2(
        tb.server_nic, AGGRESSOR_VCI,
        tenant="mallory" if protected else None)

    def mallory_app(proc):
        while True:
            desc = yield from sk.sys_recv_block(proc, mal_ep)
            yield from proc.compute_us(2.0)
            yield from sk.sys_replenish(proc, mal_ep, desc)

    mal_ep.owner = sk.spawn_process("mallory-app", mallory_app)

    if intensity_fps > 0:
        plane = tb.attach_fault_plane(seed=3)
        plane.flood_tenant(
            tb.server_nic, AGGRESSOR_VCI, frame_bytes=1024,
            count=max(1, int(intensity_fps * 0.04)),
            start_us=50.0, gap_us=1e6 / intensity_fps)

    total_bytes = total_kb * 1024
    span, rx_hash = _tcp_victim(client_conn, server_conn, total_bytes)
    tb.run()
    if "end" not in span:
        raise RuntimeError("tenant_noisy_neighbor: victim transfer stalled")
    elapsed_us = to_us(span["end"] - span["start"])
    admitted = dropped = 0
    if manager is not None:
        mal = manager.stats()["tenants"]["mallory"]
        admitted = mal["counters"].get("admitted", 0)
        dropped = sum(mal["counters"].get("dropped", {}).values())
    return {
        "protected": protected,
        "intensity_fps": intensity_fps,
        "goodput_mbps": total_bytes / (elapsed_us / 1e6) / 1e6,
        "elapsed_us": round(elapsed_us, 6),
        "payload_sha": rx_hash.hexdigest(),
        "cc_digest": client_conn.congestion_digest(),
        "aggressor_admitted": admitted,
        "aggressor_dropped": dropped,
        "order_violations": (manager.order_violations
                             if manager is not None else 0),
    }
