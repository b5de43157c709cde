"""Multicore receive-side scaling: RSS dispatch, per-core rings, batching.

The SMP model adds three stages in front of the Section-V delivery
hierarchy — an application-definable RSS dispatch step between DMA and
DPF classification, per-core rx rings, and a batched NIC→kernel
handoff — and all of it must stay deterministic: the same workload
steers identically on every run, so the SMP worlds match their
committed golden digests (``tests/golden/scale.json``,
``tests/golden/smp_lossy_cc.json``) under per-core interleaving.
"""

import os

import pytest

from repro.bench.testbed import make_an2_pair
from repro.bench.workloads import tcp_bulk_transfer
from repro.hw.calibration import DEFAULT as CAL
from repro.hw.link import Frame, Link
from repro.hw.nic import An2Nic, RssDispatcher, flow_key, fnv1a32
from repro.hw.nic.base import RxDescriptor
from repro.hw.node import Node
from repro.net.socket_api import make_stacks
from repro.net.udp import UdpSocket
from repro.sim.engine import DEFAULT_TIMER_HORIZON_US, Engine
from repro.sim.queues import CalendarQueue
from tests import golden
from tests.test_determinism import scale_record, scale_world


# -- the deterministic hash and flow identity -------------------------------

def test_fnv1a32_reference_vectors():
    """The dispatch hash is the published FNV-1a, not Python's salted
    ``hash()`` — pinned against the reference vectors."""
    assert fnv1a32(b"") == 0x811C9DC5
    assert fnv1a32(b"a") == 0xE40C292C
    assert fnv1a32(b"foobar") == 0xBF9CF968


def test_flow_key_an2_is_the_virtual_circuit():
    assert flow_key(Frame(b"payload", vci=7)) == ("vci", 7)


def test_flow_key_ipv4_four_tuple():
    eth = b"\xff" * 12 + b"\x08\x00"
    ip = bytes([0x45, 0, 0, 40, 0, 0, 0, 0, 64, 17]) + b"\x00\x00" \
        + bytes([10, 0, 0, 1]) + bytes([10, 0, 0, 2])
    udp = (7001).to_bytes(2, "big") + (9).to_bytes(2, "big") + b"\x00" * 16
    key = flow_key(Frame(eth + ip + udp))
    assert key[0] == "ip4"
    assert key[4:] == (7001, 9)
    # same 4-tuple, different payload bytes -> same flow
    assert key == flow_key(Frame(eth + ip + udp[:4] + b"\xaa" * 16))


def test_flow_key_falls_back_to_raw_bytes():
    key = flow_key(Frame(b"not ethernet"))
    assert key == ("raw", b"not ethernet")


# -- the dispatcher ---------------------------------------------------------

def test_rss_steering_is_deterministic_and_sticky():
    a = RssDispatcher(ncores=4)
    b = RssDispatcher(ncores=4)
    for vci in (1, 2, 3, 9, 14):
        frame = Frame(b"x", vci=vci)
        da = RxDescriptor(nic=None, frame=frame, addr=0, length=1, vci=vci)
        db = RxDescriptor(nic=None, frame=frame, addr=0, length=1, vci=vci)
        assert a.steer(da) == b.steer(db)          # two runs agree
        assert a.steer(da) == a.flow_table[("vci", vci)]  # sticky
    assert sum(a.steered) == 10  # every steer landed in the histogram


def test_rss_repin_migrates_and_counts():
    rss = RssDispatcher(ncores=2)
    desc = RxDescriptor(nic=None, frame=Frame(b"x", vci=5),
                        addr=0, length=1, vci=5)
    home = rss.steer(desc)
    rss.repin(("vci", 5), 1 - home)
    assert rss.migrations == 1
    desc2 = RxDescriptor(nic=None, frame=Frame(b"y", vci=5),
                         addr=0, length=1, vci=5)
    assert rss.steer(desc2) == 1 - home   # the table, not the hash, wins
    with pytest.raises(ValueError):
        rss.repin(("vci", 5), 99)


def test_rss_dispatcher_is_pluggable_like_a_dpf_filter():
    """An application policy (subclass overriding ``select_core``)
    replaces the hash while the NIC keeps mechanism + accounting."""

    class AllToLast(RssDispatcher):
        def select_core(self, key, frame):
            return self.ncores - 1

    engine = Engine()
    tb = make_an2_pair(engine=engine, ncores=4)
    tb.server_nic.set_rss(AllToLast(1))  # rebind re-homes it to 4 cores
    assert tb.server_nic.rss.ncores == 4

    cstack, sstack = make_stacks(tb)
    csock = UdpSocket(cstack, 7001, rx_vci=2, name="c")
    ssock = UdpSocket(sstack, 7001, rx_vci=1, name="s")
    server_ip = sstack.ip
    done = []

    def server(proc):
        dg = yield from ssock.recvfrom(proc)
        yield from ssock.sendto(proc, dg.payload, dg.src_ip, dg.src_port)

    def client(proc):
        yield from csock.sendto(proc, b"ping", server_ip, 7001)
        yield from csock.recvfrom(proc)
        done.append(True)

    tb.server_kernel.spawn_process("s", server)
    tb.client_kernel.spawn_process("c", client)
    engine.run()
    assert done
    stats = tb.server_nic.rss.stats()
    assert stats["steered"][3] == tb.server_nic.rx_frames
    assert sum(stats["steered"][:3]) == 0


# -- SMP worlds: identity, accounting, batching -----------------------------

def smp_world(cores):
    return scale_world(pairs=2, flows=6, rounds=3, size=1024, cores=cores)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_smp_world_matches_golden(cores):
    """The tentpole invariant: RSS + per-core rings + batching keep the
    world on its golden digest at every core count."""
    golden.check("scale", f"smp{cores}", scale_record(smp_world(cores)))


def smp_lossy_cc(cores):
    """Golden record of a lossy TCP transfer on an ``ncores`` node pair:
    the delivered digest plus both ends' congestion-event digests."""
    import hashlib

    tb, client, server, delivered, _ = tcp_bulk_transfer(
        42, 32_000, ncores=cores, knobs=dict(drop=0.1))
    obs = (hashlib.sha256(delivered).hexdigest(),
           client.congestion_digest(), server.congestion_digest())
    return golden.record(
        obs, time_ps=tb.engine.now,
        retransmits=(client.tcb.retransmits, server.tcb.retransmits))


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_congestion_evolution_under_smp_matches_golden(cores):
    """cwnd/ssthresh evolution (every grow, recovery, RTO and backoff
    event, timestamped) and SACK behaviour stay on their golden with
    RSS + per-core rings in the path."""
    golden.check("smp_lossy_cc", f"cores{cores}", smp_lossy_cc(cores))


def test_canonical_sidecar_steered_sums_to_rx_frames():
    """The committed telemetry sidecar carries the dispatch-stage
    conservation law: per-core ``rss.steered`` counters sum to
    ``nic.rx_frames`` on every node that received traffic."""
    import json
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "results", "canonical.telemetry.json",
    )
    with open(path) as fh:
        doc = json.load(fh)
    checked = 0
    for node in doc["nodes"]:
        counters = node["metrics"]["counters"]
        rx = {}
        steered = {}
        for c in counters:
            nic = c["labels"].get("nic")
            if c["name"] == "nic.rx_frames":
                rx[nic] = c["value"]
            elif c["name"] == "rss.steered":
                steered[nic] = steered.get(nic, 0) + c["value"]
        for nic, frames in rx.items():
            assert steered.get(nic, 0) == frames, (node["source"], nic)
            checked += 1
    assert checked > 0  # the canonical workload does move frames


def test_steered_frames_sum_to_rx_frames():
    """Every successfully DMA'd frame passes the dispatch stage exactly
    once: per-core steered counters sum to the NIC's rx_frames."""
    world = smp_world(4)
    for tb in world.testbeds:
        for node in (tb.client, tb.server):
            for nic in node.nics.values():
                assert sum(nic.rss.stats()["steered"]) == nic.rx_frames
                assert nic.rx_frames > 0


def test_multicore_shrinks_the_makespan():
    one = smp_world(1)
    four = smp_world(4)
    assert four.finish_ps < one.finish_ps
    assert four.rt_ps != one.rt_ps  # genuinely a different schedule


def test_batched_handoff_telemetry_and_ring_peaks():
    engine = Engine()
    tb = make_an2_pair(engine=engine, ncores=2, rx_batch=4)
    for node in (tb.client, tb.server):
        node.telemetry.enable()
    cstack, sstack = make_stacks(tb)
    csock = UdpSocket(cstack, 7001, rx_vci=2, name="c")
    ssock = UdpSocket(sstack, 7001, rx_vci=1, name="s")
    server_ip = sstack.ip
    done = []

    def server(proc):
        for _ in range(3):
            dg = yield from ssock.recvfrom(proc)
            yield from ssock.sendto(proc, dg.payload, dg.src_ip, dg.src_port)

    def client(proc):
        for _ in range(3):
            yield from csock.sendto(proc, b"x" * 512, server_ip, 7001)
            yield from csock.recvfrom(proc)
        done.append(True)

    tb.server_kernel.spawn_process("s", server)
    tb.client_kernel.spawn_process("c", client)
    engine.run()
    assert done

    assert tb.server_nic.batched
    assert tb.server_nic.rx_batch == 4
    # the drain loop accounted for its bursts
    snap = tb.server.telemetry.registry.snapshot()
    batches = sum(c["value"] for c in snap["counters"]
                  if c["name"] == "core.rx_batches")
    assert batches > 0
    steered = sum(c["value"] for c in snap["counters"]
                  if c["name"] == "rss.steered")
    assert steered == tb.server_nic.rx_frames
    # rings drained empty; peaks recorded where traffic landed
    assert all(len(ring) == 0 for ring in tb.server_nic.rx_rings)
    assert max(tb.server_nic.ring_peaks) >= 1


def test_single_core_default_keeps_direct_handoff():
    """ncores=1 without an explicit batch keeps the exact pre-SMP event
    schedule: no rings, one interrupt event per frame."""
    engine = Engine()
    tb = make_an2_pair(engine=engine)
    assert not tb.client_nic.batched
    assert tb.client_nic.rx_batch == 1
    assert tb.client.ncores == 1
    assert tb.client.cpus[0] is tb.client.cpu


@pytest.mark.slow
def test_hundreds_of_nodes_smp_world():
    """The ISSUE-scale world: 100 nodes, 1000 flows, 4 cores each."""
    world = scale_world(pairs=50, flows=20, rounds=1, size=256, cores=4)
    assert all(world.done)
    total_rx = total_steered = 0
    for tb in world.testbeds:
        for node in (tb.client, tb.server):
            for nic in node.nics.values():
                total_rx += nic.rx_frames
                total_steered += sum(nic.rss.stats()["steered"])
    assert total_rx == total_steered > 0


# -- bind(): the one-step NIC attach ----------------------------------------

def test_bind_rejects_second_node():
    engine = Engine()
    n1 = Node(engine, "n1", CAL)
    n2 = Node(engine, "n2", CAL)
    nic = An2Nic(engine, CAL, n1.memory, "an2")
    n1.add_nic(nic)
    assert nic.node is n1 and nic.telemetry is n1.telemetry
    n1.add_nic(nic)  # idempotent re-add is fine
    with pytest.raises(RuntimeError, match="already bound"):
        n2.add_nic(nic)


def test_bind_rejects_foreign_memory():
    engine = Engine()
    n1 = Node(engine, "n1", CAL)
    n2 = Node(engine, "n2", CAL)
    nic = An2Nic(engine, CAL, n1.memory, "an2")
    with pytest.raises(RuntimeError, match="different memory"):
        n2.add_nic(nic)


def test_bind_rejects_nic_that_carried_traffic_unbound():
    """The failure mode bind() exists to kill: a NIC that moved frames
    before attach was silently running with telemetry=None."""
    engine = Engine()
    node = Node(engine, "n1", CAL)
    a = An2Nic(engine, CAL, node.memory, "a")
    b = An2Nic(engine, CAL, node.memory, "b")
    link = Link(engine, CAL.an2_rate_bytes_per_s, CAL.an2_hw_oneway_us)
    a.attach(link, 0)
    b.attach(link, 1)
    a.transmit(Frame(b"early", vci=1))
    engine.run()
    with pytest.raises(RuntimeError, match="carried traffic"):
        node.add_nic(a)


# -- calendar-queue width from the timer horizon ----------------------------

def test_for_horizon_width_math():
    q = CalendarQueue.for_horizon(CalendarQueue.NBUCKETS * 10_000_000)
    assert q.stats()["width"] == 10_000_000  # ceil(horizon / nbuckets)
    # a short horizon never shrinks below the tuned default width
    q2 = CalendarQueue.for_horizon(1000)
    assert q2.stats()["width"] == CalendarQueue.WIDTH
    # non-divisible horizons round the width up, never down
    q3 = CalendarQueue.for_horizon(CalendarQueue.NBUCKETS * 10_000_000 + 1)
    assert q3.stats()["width"] == 10_000_001


def test_default_horizon_covers_tcp_backoff():
    """The engine's default horizon must cover the worst-case armed
    timer: RTO after full exponential backoff (sim/ cannot import net/,
    so the layering is enforced here by cross-checking the constants)."""
    from repro.net.tcp.tcp import MAX_RTO_BACKOFF, RTO_US
    assert DEFAULT_TIMER_HORIZON_US >= RTO_US * MAX_RTO_BACKOFF
    qstats = Engine().stats()["queue"]
    assert qstats["width"] * qstats["nbuckets"] >= \
        int(DEFAULT_TIMER_HORIZON_US * 1_000_000)


def test_sized_wheel_absorbs_long_timers_without_spilling():
    """Timers at TCP-backoff range spill past a default-width wheel but
    land inside one sized via ``for_horizon`` — the satellite fix for
    the hundreds of overflow_spills per bench run."""
    horizon_ps = 400_000 * 1_000_000  # 400 ms, the worst-case RTO
    narrow = CalendarQueue()
    sized = CalendarQueue.for_horizon(horizon_ps)
    for seq in range(64):
        at = (seq + 1) * (horizon_ps // 64)
        narrow.push([at, seq, None, (), None])
        sized.push([at, seq, None, (), None])
    assert narrow.stats()["overflow_spills"] > 0
    assert sized.stats()["overflow_spills"] == 0
    # and the sized wheel pops in the same order
    order = [sized.pop_due()[1] for _ in range(64)]
    assert order == sorted(order)
