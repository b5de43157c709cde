"""User-level UDP (RFC 768), in the style of the paper's library.

The library is linked into the application: every cost it pays — header
construction, checksumming, the copy from network buffers into
application data structures — is charged to the calling process, which
is exactly the accounting Table II measures.

Configuration knobs mirror the paper's four measurement variants:

* ``checksum=False`` — rely on the AN2 board CRC ("no checksum"),
* ``in_place=True`` — the application uses the data where the DMA put
  it ("in place"; possible because the AN2 can DMA anywhere and the
  kernel hands the application the buffer itself),
* otherwise the payload is copied into the application buffer, with a
  *separate* checksum pass when checksumming is on ("our checksum and
  memory copy are not integrated for this measurement").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, TYPE_CHECKING

from ..errors import ProtocolError
from ..kernel.dpf import Predicate
from .headers import (
    ETHERTYPE_IP,
    IPPROTO_UDP,
    Ipv4Header,
    UdpHeader,
)
from .ip import build_packets
from .stack import NetStack

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process

__all__ = ["UdpSocket", "UdpDatagram"]


@dataclass
class UdpDatagram:
    """A received datagram."""

    payload: bytes
    src_ip: int
    src_port: int
    dst_port: int
    #: where the payload lives (application buffer, or the receive
    #: buffer itself when in_place)
    addr: int = 0


class UdpSocket:
    """One bound UDP port."""

    def __init__(
        self,
        stack: NetStack,
        local_port: int,
        rx_vci: Optional[int] = None,
        checksum: bool = True,
        in_place: bool = False,
        name: Optional[str] = None,
    ):
        self.stack = stack
        self.kernel = stack.kernel
        self.cal = stack.kernel.cal
        self.local_port = local_port
        self.checksum = checksum
        self.in_place = in_place
        name = name or f"udp{local_port}"
        if stack.is_an2:
            if rx_vci is None:
                raise ProtocolError("AN2 UDP sockets need an rx_vci")
            # "the UDP implementation currently uses only the virtual
            # circuit index" for demultiplexing
            self.endpoint = self.kernel.create_endpoint_an2(
                stack.nic, rx_vci, name=name,
                buf_size=self.cal.an2_max_packet,
            )
        else:
            self.endpoint = self.kernel.create_endpoint_eth(
                stack.nic,
                [
                    Predicate(offset=12, size=2, value=ETHERTYPE_IP),
                    Predicate(offset=14 + 9, size=1, value=IPPROTO_UDP),
                    Predicate(offset=14 + 20 + 2, size=2, value=local_port),
                ],
                name=name,
            )
        mem = self.kernel.node.memory
        self._staging = mem.alloc(f"{name}.staging", 65536)
        self._app_buf = mem.alloc(f"{name}.appbuf", 65536)
        self.tel = self.kernel.node.telemetry
        self.rx_datagrams = 0
        self.tx_datagrams = 0
        self.checksum_failures = 0
        #: frames dropped because they would not parse (truncated DMA,
        #: mangled length fields)
        self.malformed = 0

    # -- send ---------------------------------------------------------------
    def sendto(
        self,
        proc: "Process",
        payload: bytes,
        dst_ip: int,
        dst_port: int,
    ) -> Generator:
        """Send one datagram (fragmenting at the MTU if necessary)."""
        stack = self.stack
        kernel = self.kernel
        cal = self.cal
        mem = kernel.node.memory
        # library work: allocate send buffers, initialize IP/UDP fields
        yield from proc.compute_us(cal.udp_send_build_us + cal.ip_process_us)
        # the application's data, staged where the NIC can gather it
        mem.write(self._staging.base, payload)
        if self.checksum:
            _, cycles = stack.datapath.checksum(self._staging.base, len(payload))
            yield from proc.compute(cycles)
            yield from proc.compute_us(cal.cksum_fixed_us)
        header = UdpHeader.build(
            stack.ip, dst_ip, self.local_port, dst_port, payload,
            with_checksum=self.checksum,
        )
        datagram = header + payload
        dst_mac = None
        if not stack.is_an2:
            dst_mac = yield from stack.resolve_mac(proc, dst_ip)
        packets = build_packets(
            stack.ip, dst_ip, IPPROTO_UDP, datagram,
            mtu=stack.mtu, ident=stack.next_ident(),
        )
        for packet in packets:
            frame = stack.frame_for(dst_ip, packet, dst_mac)
            yield from kernel.sys_net_send(proc, stack.nic, frame)
        self.tx_datagrams += 1
        if self.tel.enabled:
            self.tel.counter("udp.tx_datagrams", port=self.local_port).inc()
            kernel.node.trace(
                "udp.sendto",
                lambda: {"port": self.local_port, "dst_port": dst_port,
                         "len": len(payload)},
            )

    # -- receive -------------------------------------------------------------
    def recvfrom(self, proc: "Process") -> Generator:
        """Receive one datagram; returns a :class:`UdpDatagram`.

        Datagrams failing checksum verification are dropped (counted),
        and the wait continues.
        """
        stack = self.stack
        kernel = self.kernel
        cal = self.cal
        mem = kernel.node.memory
        while True:
            desc = yield from kernel.sys_recv_poll(proc, self.endpoint)
            # a zero-copy view of the receive buffer; every slice
            # below stays a view until materialized
            ip_addr, ip_len, raw = stack.read_ip_packet(desc)
            try:
                result = stack.reassembler.push(raw)
                if result is None:
                    yield from kernel.sys_replenish(proc, self.endpoint, desc)
                    continue  # fragment: wait for the rest
                ip_header, datagram = result
                yield from proc.compute_us(cal.udp_recv_parse_us)
                udp = UdpHeader.unpack(datagram)
            except ProtocolError:
                # truncated DMA or mangled length fields: drop-and-count,
                # keep waiting
                self.malformed += 1
                if self.tel.enabled:
                    self.tel.counter("udp.malformed",
                                     port=self.local_port).inc()
                yield from kernel.sys_replenish(proc, self.endpoint, desc)
                continue
            payload_len = udp.length - UdpHeader.SIZE
            payload_off = UdpHeader.SIZE
            # a reassembled datagram no longer lives contiguously in the
            # receive buffer: it must take the copy path
            fragmented = (
                ip_header.total_length - Ipv4Header.SIZE != len(datagram)
            )

            if self.checksum and udp.checksum != 0:
                if fragmented:
                    # verification over the reassembled bytes: model the
                    # pass as touching payload-length bytes uncached
                    cycles = 6 * (len(datagram) + 3) // 4
                    yield from proc.compute(cycles)
                else:
                    # separate verification pass over the datagram
                    _, cycles = stack.datapath.checksum(
                        ip_addr + Ipv4Header.SIZE, udp.length
                    )
                    yield from proc.compute(cycles)
                yield from proc.compute_us(cal.cksum_fixed_us)
                if not UdpHeader.verify(ip_header.src, ip_header.dst, datagram):
                    self.checksum_failures += 1
                    if self.tel.enabled:
                        self.tel.counter("udp.checksum_failures",
                                         port=self.local_port).inc()
                    yield from kernel.sys_replenish(proc, self.endpoint, desc)
                    continue

            if fragmented:
                addr = self._app_buf.base
                mem.write(addr, datagram[payload_off:payload_off + payload_len])
                yield from proc.compute(2 * payload_len)  # assembly copy
                payload = datagram[payload_off:payload_off + payload_len]
            elif self.in_place:
                # zero copy: the application uses the receive buffer
                addr = ip_addr + Ipv4Header.SIZE + payload_off
                payload = datagram[payload_off:payload_off + payload_len]
            else:
                src = ip_addr + Ipv4Header.SIZE + payload_off
                addr = self._app_buf.base
                cycles = stack.datapath.copy(src, addr, payload_len)
                yield from proc.compute(cycles)
                span = desc.meta.get("span")
                if span is not None:
                    span.stage("copy", kernel.engine.now)
                if self.tel.enabled:
                    self.tel.counter("copy.bytes", kind="udp_rx").inc(payload_len)
                    self.tel.counter("copy.cycles", kind="udp_rx").inc(cycles)
                payload = datagram[payload_off:payload_off + payload_len]
            # materialize before the buffer is recycled under the view
            payload = bytes(payload)
            yield from kernel.sys_replenish(proc, self.endpoint, desc)
            self.rx_datagrams += 1
            if self.tel.enabled:
                self.tel.counter("udp.rx_datagrams", port=self.local_port).inc()
                kernel.node.trace(
                    "udp.recvfrom",
                    lambda: {"port": self.local_port, "len": payload_len},
                )
            return UdpDatagram(
                payload=payload,
                src_ip=ip_header.src,
                src_port=udp.src_port,
                dst_port=udp.dst_port,
                addr=addr,
            )
