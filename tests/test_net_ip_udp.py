"""Tests for IP fragmentation/reassembly, ARP and the UDP library."""

import pytest

from repro.bench.testbed import make_an2_pair, make_eth_pair
from repro.net.arp import ArpCache
from repro.net.headers import IPPROTO_UDP, Ipv4Header, ip_aton
from repro.net.ip import Reassembler, build_packets
from repro.net.socket_api import make_stacks
from repro.net.udp import UdpSocket
from repro.sim.units import to_us


class TestIpFragmentation:
    def test_small_payload_single_packet(self):
        pkts = build_packets(1, 2, IPPROTO_UDP, b"tiny", mtu=1500)
        assert len(pkts) == 1
        hdr = Ipv4Header.unpack(pkts[0])
        assert not hdr.more_fragments and hdr.frag_offset == 0

    def test_large_payload_fragments(self):
        payload = bytes(range(256)) * 20  # 5120 bytes
        pkts = build_packets(1, 2, IPPROTO_UDP, payload, mtu=1500, ident=9)
        assert len(pkts) > 1
        # all but the last have MF; offsets are 8-byte aligned
        for pkt in pkts[:-1]:
            assert Ipv4Header.unpack(pkt).more_fragments
        assert not Ipv4Header.unpack(pkts[-1]).more_fragments

    def test_reassembly_in_order(self):
        payload = bytes(range(256)) * 20
        pkts = build_packets(1, 2, IPPROTO_UDP, payload, mtu=1500, ident=9)
        r = Reassembler()
        result = None
        for pkt in pkts:
            result = r.push(pkt)
        assert result is not None
        _hdr, data = result
        assert data == payload
        assert r.pending == 0

    def test_reassembly_out_of_order(self):
        payload = bytes(range(256)) * 20
        pkts = build_packets(1, 2, IPPROTO_UDP, payload, mtu=1500, ident=9)
        r = Reassembler()
        results = [r.push(p) for p in reversed(pkts)]
        done = [x for x in results if x is not None]
        assert len(done) == 1
        assert done[0][1] == payload

    def test_interleaved_datagrams_keyed_by_ident(self):
        p1 = bytes([1]) * 3000
        p2 = bytes([2]) * 3000
        pkts1 = build_packets(1, 2, IPPROTO_UDP, p1, mtu=1500, ident=1)
        pkts2 = build_packets(1, 2, IPPROTO_UDP, p2, mtu=1500, ident=2)
        r = Reassembler()
        out = []
        for a, b in zip(pkts1, pkts2):
            for pkt in (a, b):
                res = r.push(pkt)
                if res:
                    out.append(res[1])
        assert sorted(out, key=len) == sorted([p1, p2], key=len)

    def test_tiny_mtu_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            build_packets(1, 2, IPPROTO_UDP, b"x" * 100, mtu=20)


class TestArpCache:
    def test_learn_lookup_reverse(self):
        cache = ArpCache()
        cache.learn(ip_aton("10.0.0.5"), b"\xaa" * 6)
        assert cache.lookup(ip_aton("10.0.0.5")) == b"\xaa" * 6
        assert cache.reverse(b"\xaa" * 6) == ip_aton("10.0.0.5")
        assert cache.lookup(ip_aton("10.0.0.6")) is None


def make_udp_pair(checksum=True, in_place=False, eth=False):
    """A UDP socket pair; the circuits are unused on the Ethernet."""
    tb = make_eth_pair() if eth else make_an2_pair()
    cstack, sstack = make_stacks(tb)
    csock = UdpSocket(cstack, 7001, rx_vci=2, checksum=checksum,
                      in_place=in_place)
    ssock = UdpSocket(sstack, 7000, rx_vci=1, checksum=checksum,
                      in_place=in_place)
    return tb, cstack, sstack, csock, ssock


class TestUdpAn2:
    @pytest.mark.parametrize("checksum", [True, False])
    def test_ping_pong(self, checksum):
        tb, cstack, sstack, csock, ssock = make_udp_pair(checksum=checksum)
        got = []

        def server(proc):
            dg = yield from ssock.recvfrom(proc)
            yield from ssock.sendto(proc, dg.payload[::-1], dg.src_ip,
                                    dg.src_port)

        def client(proc):
            yield from csock.sendto(proc, b"abcdef", ip_aton("10.0.0.2"), 7000)
            dg = yield from csock.recvfrom(proc)
            got.append(dg.payload)

        tb.server_kernel.spawn_process("server", server)
        tb.client_kernel.spawn_process("client", client)
        tb.run()
        assert got == [b"fedcba"]

    def test_checksum_off_is_faster(self):
        times = {}
        for checksum in (True, False):
            tb, _c, _s, csock, ssock = make_udp_pair(checksum=checksum)
            stamps = []

            def server(proc):
                dg = yield from ssock.recvfrom(proc)
                yield from ssock.sendto(proc, dg.payload, dg.src_ip, dg.src_port)

            def client(proc):
                t0 = proc.engine.now
                yield from csock.sendto(proc, b"ping", ip_aton("10.0.0.2"), 7000)
                yield from csock.recvfrom(proc)
                stamps.append(to_us(proc.engine.now - t0))

            tb.server_kernel.spawn_process("s", server)
            tb.client_kernel.spawn_process("c", client)
            tb.run()
            times[checksum] = stamps[0]
        assert times[False] < times[True]

    def test_corrupted_datagram_dropped(self):
        tb, _c, _s, csock, ssock = make_udp_pair(checksum=True)
        # corrupt every frame's payload byte on the wire
        original_send = tb.link.send

        def corrupting_send(end, frame):
            if len(frame.data) > 30:
                data = bytearray(frame.data)
                data[-1] ^= 0xFF
                frame.data = bytes(data)
            return original_send(end, frame)

        tb.link.send = corrupting_send
        got = []

        def server(proc):
            # bound poll: give up after some virtual time
            for _ in range(2000):
                ok, _ = ssock.endpoint.ring.try_get()
                if ok or ssock.checksum_failures:
                    break
                yield from proc.compute_us(5.0)

        def client(proc):
            yield from csock.sendto(proc, b"corrupt me!!", ip_aton("10.0.0.2"),
                                    7000)

        tb.client_kernel.spawn_process("c", client)
        tb.run()
        assert ssock.rx_datagrams == 0

    def test_fragmented_datagram_reassembled(self):
        tb, _c, _s, csock, ssock = make_udp_pair(checksum=True)
        payload = bytes(range(256)) * 24  # 6144 bytes > 4096 AN2 max packet
        got = []

        def server(proc):
            dg = yield from ssock.recvfrom(proc)
            got.append(dg.payload)

        def client(proc):
            yield from csock.sendto(proc, payload, ip_aton("10.0.0.2"), 7000)

        tb.server_kernel.spawn_process("s", server)
        tb.client_kernel.spawn_process("c", client)
        tb.run()
        assert got == [payload]

    def test_in_place_faster_than_copy_for_big_payload(self):
        times = {}
        for in_place in (True, False):
            tb, _c, _s, csock, ssock = make_udp_pair(checksum=False,
                                                     in_place=in_place)
            stamps = []

            def server(proc):
                dg = yield from ssock.recvfrom(proc)
                stamps.append(to_us(proc.engine.now))

            def client(proc):
                yield from csock.sendto(proc, bytes(3000),
                                        ip_aton("10.0.0.2"), 7000)

            tb.server_kernel.spawn_process("s", server)
            tb.client_kernel.spawn_process("c", client)
            tb.run()
            times[in_place] = stamps[0]
        assert times[True] < times[False]


class TestUdpEthernet:
    def test_ping_pong_with_arp(self):
        tb, cstack, sstack, csock, ssock = make_udp_pair(eth=True)
        got = []

        def server(proc):
            dg = yield from ssock.recvfrom(proc)
            yield from ssock.sendto(proc, dg.payload, dg.src_ip, dg.src_port)

        def client(proc):
            yield from csock.sendto(proc, b"over ethernet",
                                    ip_aton("10.0.0.2"), 7000)
            dg = yield from csock.recvfrom(proc)
            got.append(dg.payload)

        tb.server_kernel.spawn_process("server", server)
        tb.client_kernel.spawn_process("client", client)
        tb.run()
        assert got == [b"over ethernet"]
        # ARP resolved both ways
        assert len(cstack.arp_cache) >= 1
        assert len(sstack.arp_cache) >= 1
