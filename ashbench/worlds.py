"""The benchmark's four workloads, built only from the public API.

Each workload class owns one simulated world.  The runner drives every
workload the same way:

1. ``build()`` — nodes, ASH downloads (sandbox rewrite, verify, JIT on
   the first invocation), TCP handshakes and warm-up ops;
2. ``start_timed()``, then ``engine.run(until=...)`` in fixed
   simulated-time slices — the timed phase;
3. ``finish()`` — stop issuing new ops, drain what is in flight and
   count every op that did not complete correctly as failed.

Inputs come only from the seed (``random.Random(seed)``), so a seed
fixes every simulated observable; ``digest()`` hashes them.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque

from repro.ash.examples import (
    PARAM_COUNTER,
    PARAM_REPLY_VCI,
    PARAM_SCRATCH,
    build_echo,
    build_remote_increment,
)
from repro.bench.testbed import make_an2_pair
from repro.hw.link import Frame
from repro.net.socket_api import make_stacks, tcp_pair
from repro.net.stack import NetStack
from repro.net.tcp import TcpConnection
from repro.net.udp import UdpSocket
from repro.sim.engine import Engine
from repro.sim.units import us

CLIENT_IP = "10.0.0.1"
SERVER_IP = "10.0.0.2"


def _exp_ps(rng: random.Random, mean_us: float) -> int:
    """One exponential draw, in integer picoseconds (at least 1)."""
    return max(1, int(rng.expovariate(1.0 / mean_us) * 1_000_000))


class Workload:
    """State and accounting shared by every workload."""

    name = ""
    #: simulated length of one host-rate slice of the timed phase
    slice_us = 0.0
    #: slices per requested second; chosen so that one slice takes
    #: about a tenth of a host second on a 2-core Xeon VM under CPython
    #: 3.11, and fixed so that a seed and ``--seconds`` fix the
    #: simulated work exactly
    slices_per_second = 10
    #: build and run inside ``telemetry.session()``
    telemetry_session = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.engine: Engine | None = None
        self.testbeds: list = []
        self.t_start = 0      #: timed phase start (ps)
        self.t_stop = 0       #: timed phase end (ps)
        self.completed = 0    #: ops completed (whole run)
        self.attempted = 0    #: ops issued in the timed phase
        self.failed = 0       #: failed ops (timed phase + drain)
        self.rtt_ps: list[int] = []   #: per-op latency, timed phase
        self.lag_ps: list[int] = []   #: per-op send lag, timed phase
        self.payload_bytes = 0        #: verified payload, timed phase
        self.sending = True

    # -- phases ------------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def start_timed(self) -> None:
        self.t_start = self.engine.now
        self.completed = 0

    def finish(self) -> None:
        raise NotImplementedError

    def in_window(self, t: int) -> bool:
        return self.t_start <= t and (self.t_stop == 0 or t < self.t_stop)

    def _run_until(self, cond, step_us: float, limit_us: float) -> bool:
        """Advance in ``step_us`` slices until ``cond()`` holds."""
        engine = self.engine
        deadline = engine.now + us(limit_us)
        while not cond():
            if engine.now >= deadline:
                return False
            engine.run(until=min(deadline, engine.now + us(step_us)))
        return True

    # -- observables -------------------------------------------------------
    @property
    def nodes(self) -> list:
        return [n for tb in self.testbeds for n in (tb.client, tb.server)]

    def sim_observables(self) -> dict:
        return {
            "rtt_ps": self.rtt_ps,
            "lag_ps": self.lag_ps,
            "payload_bytes": self.payload_bytes,
            "t_start": self.t_start,
            "t_stop": self.t_stop,
            "attempted": self.attempted,
            "failed": self.failed,
            "nodes": [
                {
                    "name": node.name,
                    "dcache": [node.dcache.hits, node.dcache.misses],
                    "rx_interrupts": node.kernel.rx_interrupts,
                    "busy": [cpu.busy_ticks for cpu in node.cpus],
                    "nics": [[n.rx_frames, n.tx_frames, n.rx_dropped,
                              list(n.rss.stats()["steered"])]
                             for n in node.nics.values()],
                }
                for node in self.nodes
            ],
        }

    def tcp_connections(self) -> list:
        return []

    def digest(self) -> str:
        blob = json.dumps(self.sim_observables(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# ash_rpc: open-loop remote increment served by sandboxed ASHs
# ---------------------------------------------------------------------------

class AshRpc(Workload):
    """Open-loop Poisson stream of 4-byte remote-increment requests over
    several VCI flows of one AN2 pair; each flow's sandboxed ASH replies
    from inside the server kernel (Table V, message+control initiation).
    """

    name = "ash_rpc"
    flows = 4
    #: offered load: mean Poisson inter-arrival.  The pair saturates
    #: near 21,000 requests per simulated second (47.6 us/request);
    #: 80 us offers 12,500/s, 60 % of that (see the benchmark README).
    mean_gap_us = 80.0
    warmup_ops = 200
    slice_us = 18_000.0

    def build(self) -> None:
        tb = make_an2_pair()
        self.engine = tb.engine
        self.testbeds = [tb]
        sk, ck = tb.server_kernel, tb.client_kernel
        mem = tb.server.memory
        self.c2s = [2 * f + 1 for f in range(self.flows)]
        self.dues: list[deque] = [deque() for _ in range(self.flows)]
        self.next_value = [1] * self.flows
        cmem = tb.client.memory
        for f in range(self.flows):
            c2s, s2c = 2 * f + 1, 2 * f + 2
            srv_ep = sk.create_endpoint_an2(tb.server_nic, c2s, nbufs=64,
                                            name=f"f{f}.srv")
            cli_ep = ck.create_endpoint_an2(tb.client_nic, s2c, nbufs=64,
                                            name=f"f{f}.cli")
            state = mem.alloc(f"f{f}.incr_state", 64)
            mem.store_u32(state.base + 32 + PARAM_COUNTER, state.base)
            mem.store_u32(state.base + 32 + PARAM_REPLY_VCI, s2c)
            mem.store_u32(state.base + 32 + PARAM_SCRATCH, state.base + 16)
            ash_id = sk.ash_system.download(
                build_remote_increment(),
                allowed_regions=[(state.base, 64)],
                user_word=state.base + 32,
            )
            sk.ash_system.bind(srv_ep, ash_id)
            cli_ep.owner = ck.spawn_process(
                f"f{f}.rx", self._receiver(f, cli_ep, ck, cmem))
        ck.spawn_process("gen", self._generator(tb, ck))
        self._run_until(lambda: self.completed >= self.warmup_ops,
                        1000.0, 1_000_000.0)

    def _generator(self, tb, ck):
        rng = self.rng
        nic = tb.client_nic
        engine = self.engine
        mean = self.mean_gap_us
        flows = self.flows
        one = (1).to_bytes(4, "little")

        def body(proc):
            due = engine.now + _exp_ps(rng, mean)
            while True:
                if due > engine.now:
                    yield from proc.block_on(engine.timeout(due - engine.now))
                if not self.sending:
                    return
                f = rng.randrange(flows)
                self.dues[f].append(due)
                timed = self.in_window(due)
                if timed:
                    self.attempted += 1
                yield from ck.sys_net_send(proc, nic,
                                           Frame(one, vci=self.c2s[f]))
                if timed:
                    self.lag_ps.append(engine.now - due)
                due += _exp_ps(rng, mean)
        return body

    def _receiver(self, f, ep, ck, cmem):
        engine = self.engine

        def body(proc):
            while True:
                desc = yield from ck.sys_recv_poll(proc, ep)
                value = cmem.load_u32(desc.addr)
                yield from ck.sys_replenish(proc, ep, desc)
                due = self.dues[f].popleft()
                ok = value == self.next_value[f]
                self.next_value[f] = value + 1
                self.completed += 1
                if self.in_window(due):
                    if ok:
                        self.rtt_ps.append(engine.now - due)
                        self.payload_bytes += 4
                    else:
                        self.failed += 1
        return body

    def finish(self) -> None:
        self.t_stop = self.engine.now
        self.sending = False
        self._run_until(lambda: not any(self.dues), 100.0, 100_000.0)
        # requests never answered are failures
        self.failed += sum(1 for q in self.dues for d in q
                           if self.in_window(d))


class AshRpcTelemetry(AshRpc):
    """``ash_rpc`` traffic and seed, built and run inside
    ``telemetry.session()`` (the runner opens the session)."""

    name = "ash_rpc_telemetry"
    telemetry_session = True


# ---------------------------------------------------------------------------
# tcp_bulk: one flow-controlled TCP stream through the ASH fast path
# ---------------------------------------------------------------------------

class TcpBulk(Workload):
    """One TCP connection over AN2 carrying seeded payload in 8 KB
    writes; both ends run the sandboxed ASH fast path (DILP
    copy+checksum, Table VI).  The sender computes each chunk for a
    seeded exponential time before writing it; the receiver reads in
    seeded sizes and checks every byte against the seed."""

    name = "tcp_bulk"
    chunk = 8192
    warmup_chunks = 8
    slice_us = 36_000.0
    #: distinct seeded chunks; chunk i carries pool[(7 * i) % 64]
    pool_chunks = 64
    read_sizes = (512, 1024, 2048, 3072, 4096, 8192)
    #: mean sender compute to produce a chunk, under a tenth of the
    #: ~1.3 ms a write takes
    produce_us = 100.0

    def build(self) -> None:
        rng = self.rng
        self.pool = [rng.randbytes(self.chunk)
                     for _ in range(self.pool_chunks)]
        self.reads = [rng.choice(self.read_sizes) for _ in range(251)]
        self.source_rng = random.Random(rng.getrandbits(64))
        tb = make_an2_pair()
        self.engine = tb.engine
        self.testbeds = [tb]
        cstack, sstack = make_stacks(tb, CLIENT_IP, SERVER_IP)
        self.client, self.server = tcp_pair(cstack, sstack)
        self.written = 0       #: chunks whose write returned
        self.received = 0      #: chunks read and checked
        self.write_start: dict[int, int] = {}   #: chunk -> due time
        tb.server_kernel.spawn_process("sink", self._sink)
        tb.client_kernel.spawn_process("source", self._source)
        self._run_until(lambda: self.received >= self.warmup_chunks,
                        1000.0, 1_000_000.0)

    def tcp_connections(self) -> list:
        return [self.client, self.server]

    def _expected(self, i: int) -> bytes:
        return self.pool[(7 * i) % self.pool_chunks]

    def _source(self, proc):
        conn = self.client
        engine = self.engine
        yield from conn.connect(proc)
        conn.install_fastpath(kind="ash", sandbox=True)
        rng = self.source_rng
        i = 0
        while self.sending:
            due = engine.now
            self.write_start[i] = due
            timed = self.in_window(due)
            if timed:
                self.attempted += 1
            yield from proc.compute_us(rng.expovariate(1.0 / self.produce_us))
            yield from conn.write(proc, self._expected(i))
            if timed:
                # the write is synchronous: it returns once the peer
                # acknowledged every byte of the chunk
                self.lag_ps.append(engine.now - due)
            self.written = i = i + 1

    def _sink(self, proc):
        conn = self.server
        engine = self.engine
        yield from conn.accept(proc)
        conn.install_fastpath(kind="ash", sandbox=True)
        chunk, reads = self.chunk, self.reads
        i = r = 0
        while True:
            parts = []
            got = 0
            while got < chunk:
                # never read across a chunk boundary, so the sink
                # never waits on bytes the source has not written
                want = min(reads[r % len(reads)], chunk - got)
                r += 1
                data = yield from conn.read(proc, want)
                parts.append(data)
                got += len(data)
            ok = b"".join(parts) == self._expected(i)
            start = self.write_start.pop(i)
            self.completed += 1
            if self.in_window(start):
                if ok:
                    self.rtt_ps.append(engine.now - start)
                    self.payload_bytes += chunk
                else:
                    self.failed += 1
            self.received = i = i + 1

    def finish(self) -> None:
        self.t_stop = self.engine.now
        self.sending = False
        self._run_until(lambda: self.received >= self.written
                        and not self.write_start, 100.0, 1_000_000.0)
        self.failed += sum(1 for s in self.write_start.values()
                           if self.in_window(s))


# ---------------------------------------------------------------------------
# scale_mixed: many AN2 pairs, UDP/TCP/ASH flows, 2 simulated cores
# ---------------------------------------------------------------------------

class ScaleMixed(Workload):
    """Closed-loop 64-byte ping-pong: ``pairs`` AN2 pairs on one engine,
    each carrying ``flows`` flows that cycle through library UDP,
    library TCP and a sandboxed echo ASH; 2-core nodes with RSS.  Each
    client thinks for a seeded exponential time between round trips.
    """

    name = "scale_mixed"
    pairs = 8
    flows = 6
    cores = 2
    size = 64
    think_us = 200.0
    warmup_rounds = 3
    slice_us = 750.0
    kinds = ("udp", "tcp", "ash")

    def build(self) -> None:
        self.engine = Engine()
        self.flow_done: list[bool] = []
        self.flow_rounds: list[int] = []
        self.conns: list = []
        for i in range(self.pairs):
            tb = make_an2_pair(engine=self.engine, name_prefix=f"p{i}.",
                               mem_size=4 * 1024 * 1024, ncores=self.cores)
            self.testbeds.append(tb)
            for j in range(self.flows):
                kind = self.kinds[(i * self.flows + j) % len(self.kinds)]
                rng = random.Random(self.rng.getrandbits(64))
                one_round, setup, ep = getattr(self, f"_add_{kind}")(tb, j)
                proc = tb.client_kernel.spawn_process(
                    f"f{j}{kind}-c", self._client(rng, one_round, setup))
                if ep is not None:
                    ep.owner = proc
        self._run_until(
            lambda: min(self.flow_rounds) >= self.warmup_rounds,
            1000.0, 1_000_000.0)

    def _client(self, rng, one_round, setup):
        """Closed loop: think, send one request, await its echo."""
        engine = self.engine
        size = self.size
        idx = len(self.flow_done)
        self.flow_done.append(False)
        self.flow_rounds.append(0)

        def body(proc):
            if setup is not None:
                yield from setup(proc)
            while self.sending:
                yield from proc.block_on(
                    engine.timeout(_exp_ps(rng, self.think_us)))
                due = engine.now
                timed = self.in_window(due)
                if timed:
                    self.attempted += 1
                payload = rng.randbytes(size)
                echo, sent_at = yield from one_round(proc, payload)
                self.flow_rounds[idx] += 1
                self.completed += 1
                if timed:
                    if echo == payload:
                        self.rtt_ps.append(engine.now - due)
                        self.lag_ps.append(sent_at - due)
                        self.payload_bytes += size
                    else:
                        self.failed += 1
            self.flow_done[idx] = True
        return body

    def tcp_connections(self) -> list:
        return self.conns

    def _stacks(self, tb, j):
        c2s, s2c = 2 * j + 1, 2 * j + 2
        cstack = NetStack(tb.client_kernel, tb.client_nic, CLIENT_IP,
                          an2_peers={SERVER_IP: (c2s, s2c)})
        sstack = NetStack(tb.server_kernel, tb.server_nic, SERVER_IP,
                          an2_peers={CLIENT_IP: (s2c, c2s)})
        return cstack, sstack

    def _add_udp(self, tb, j):
        cstack, sstack = self._stacks(tb, j)
        c2s, s2c = 2 * j + 1, 2 * j + 2
        csock = UdpSocket(cstack, 7001 + j, rx_vci=s2c, name=f"f{j}udpc")
        ssock = UdpSocket(sstack, 7001 + j, rx_vci=c2s, name=f"f{j}udps")
        server_ip = sstack.ip
        engine = self.engine

        def server(proc):
            while True:
                dg = yield from ssock.recvfrom(proc)
                yield from ssock.sendto(proc, dg.payload, dg.src_ip,
                                        dg.src_port)

        def one_round(proc, payload):
            yield from csock.sendto(proc, payload, server_ip, 7001 + j)
            sent_at = engine.now
            dg = yield from csock.recvfrom(proc)
            return bytes(dg.payload), sent_at

        tb.server_kernel.spawn_process(f"f{j}udp-s", server)
        return one_round, None, None

    def _add_tcp(self, tb, j):
        cstack, sstack = self._stacks(tb, j)
        c2s, s2c = 2 * j + 1, 2 * j + 2
        conn_c = TcpConnection(cstack, 5000 + j, sstack.ip, 80 + j,
                               rx_vci=s2c, iss=1000, name=f"f{j}tcpc")
        conn_s = TcpConnection(sstack, 80 + j, cstack.ip, 5000 + j,
                               rx_vci=c2s, iss=7000, name=f"f{j}tcps")
        self.conns += [conn_c, conn_s]
        size = self.size
        engine = self.engine

        def server(proc):
            yield from conn_s.accept(proc)
            while True:
                data = yield from conn_s.read(proc, size)
                yield from conn_s.write(proc, data)

        def one_round(proc, payload):
            yield from conn_c.write(proc, payload)
            sent_at = engine.now
            return (yield from conn_c.read(proc, size)), sent_at

        tb.server_kernel.spawn_process(f"f{j}tcp-s", server)
        return one_round, conn_c.connect, None

    def _add_ash(self, tb, j):
        sk, ck = tb.server_kernel, tb.client_kernel
        c2s, s2c = 2 * j + 1, 2 * j + 2
        srv_ep = sk.create_endpoint_an2(tb.server_nic, c2s,
                                        name=f"f{j}ash-s")
        cli_ep = ck.create_endpoint_an2(tb.client_nic, s2c,
                                        name=f"f{j}ash-c")
        mem = tb.server.memory
        cmem = tb.client.memory
        ctx = mem.alloc(f"f{j}.echo_ctx", 64)
        mem.store_u32(ctx.base + PARAM_REPLY_VCI, s2c)
        ash_id = sk.ash_system.download(
            build_echo(), allowed_regions=[(ctx.base, 64)],
            user_word=ctx.base,
        )
        sk.ash_system.bind(srv_ep, ash_id)
        engine = self.engine
        nic = tb.client_nic
        size = self.size

        def one_round(proc, payload):
            yield from ck.sys_net_send(proc, nic, Frame(payload, vci=c2s))
            sent_at = engine.now
            desc = yield from ck.sys_recv_poll(proc, cli_ep)
            echo = cmem.read(desc.addr, size)
            yield from ck.sys_replenish(proc, cli_ep, desc)
            return echo, sent_at

        return one_round, None, cli_ep

    def finish(self) -> None:
        self.t_stop = self.engine.now
        self.sending = False
        if not self._run_until(lambda: all(self.flow_done), 100.0,
                               1_000_000.0):
            self.failed += self.flow_done.count(False)


WORKLOADS = {cls.name: cls for cls in
             (AshRpc, TcpBulk, ScaleMixed, AshRpcTelemetry)}
